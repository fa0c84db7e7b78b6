import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from cmigan.neuralnet import (
    MLPBuffers,
    MLPGrads,
    MLPParams,
    MLPSpec,
    NumericalError,
    ScheduleConfig,
    add_grads,
    gradient_check,
    lr_at,
    mlp_backward,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    rmsprop_init,
    rmsprop_step,
    rmsprop_update,
)

from oracle_tools import core_set, hex_floats


def test_spec_shapes_and_validation():
    spec = MLPSpec(7, (128, 32), 1)
    assert spec.layer_dims() == (7, 128, 32, 1)
    with pytest.raises(ValueError):
        MLPSpec(0, (4,), 1)


def test_spec_stores_numpy_widths_as_python_ints():
    spec = MLPSpec(np.int64(2), (np.int64(3),), 1)
    assert spec == MLPSpec(2, (3,), 1)
    assert [type(d) for d in spec.layer_dims()] == [int] * 3


def test_init_shapes_and_bounds():
    # hidden [128, 32] on an 11-column input, as in the conditional runs
    spec = MLPSpec(11, (128, 32), 1)
    params = mlp_init(spec, seed=0)
    assert [w.shape for w in params.weights] == [(11, 128), (128, 32), (32, 1)]
    assert [b.shape for b in params.biases] == [(128,), (32,), (1,)]
    for w in params.weights:
        bound = math.sqrt(6.0 / w.shape[0])
        assert np.abs(w).max() <= bound
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_spec_example_within_bounds():
    # input 2, hidden [4], output 1, seed 7: every weight within +-sqrt(6/fan_in)
    params = mlp_init(MLPSpec(2, (4,), 1), seed=7)
    assert np.abs(params.weights[0]).max() <= math.sqrt(6.0 / 2.0)
    assert np.abs(params.weights[1]).max() <= math.sqrt(6.0 / 4.0)


def test_init_deterministic():
    spec = MLPSpec(3, (5, 4), 2)
    a = mlp_init(spec, seed=42)
    b = mlp_init(spec, seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    c = mlp_init(spec, seed=43)
    assert not all(np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_forward_identity_single_layer():
    # a degenerate no-hidden-layer net with identity weights passes input through
    spec = MLPSpec(3, (), 3)
    params = MLPParams(spec, [np.eye(3)], [np.zeros(3)])
    batch = np.random.default_rng(0).normal(size=(6, 3))
    assert np.array_equal(mlp_forward(params, batch), batch)


def test_forward_batch_independence():
    # each row's output depends only on that row; the BLAS kernel can
    # differ between batch shapes, so this holds to rounding, while
    # same-shape permutation equivariance below is exact
    spec = MLPSpec(4, (8,), 2)
    params = mlp_init(spec, seed=3)
    batch = np.random.default_rng(1).normal(size=(10, 4))
    full = mlp_forward(params, batch)
    for i in range(10):
        row = mlp_forward(params, batch[i : i + 1])
        assert np.allclose(full[i : i + 1], row, rtol=1e-13, atol=0.0)


def test_forward_row_permutation_equivariance():
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=0)
    batch = np.random.default_rng(2).normal(size=(32, 3))
    perm = np.random.default_rng(3).permutation(32)
    assert np.array_equal(mlp_forward(params, batch)[perm], mlp_forward(params, batch[perm]))


def test_rmsprop_finite_inputs_give_finite_updates():
    spec = MLPSpec(2, (4,), 1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = mlp_init(spec, seed)
        state = rmsprop_init(params)
        upstream = rng.normal(size=(8, 1)) * 10.0 ** rng.integers(-3, 4)
        grads = mlp_backward(params, rng.normal(size=(8, 2)), upstream)
        lr = 10.0 ** rng.uniform(-8, 1)
        new_params, new_state = rmsprop_step(params, grads, state, lr)
        assert all(np.isfinite(w).all() for w in new_params.weights)
        assert all(np.isfinite(b).all() for b in new_params.biases)
        assert all(np.isfinite(a).all() for a in new_state.sq_weights)


def test_forward_dimension_mismatch():
    params = mlp_init(MLPSpec(4, (8,), 2), seed=0)
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="batch must be 2-d"):
        mlp_forward(params, np.zeros(4))
    with pytest.raises(ValueError):
        mlp_backward(params, np.zeros((5, 4)), np.zeros((5, 3)))


def test_backward_returns_param_shaped_grads_and_input_grad():
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=5)
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(7, 3))
    upstream = rng.normal(size=(7, 2))
    grads = mlp_backward(params, batch, upstream)
    assert [g.shape for g in grads.weights] == [w.shape for w in params.weights]
    assert [g.shape for g in grads.biases] == [b.shape for b in params.biases]
    assert grads.inputs.shape == batch.shape


def test_gradient_check_passes():
    report = gradient_check(num_nets=25, seed=0)
    assert report.passed
    assert report.worst_rel_err < 1e-4


def test_gradient_check_worst_error_pinned():
    # the redraw rule reads hidden pre-activations, so a forward pass that
    # changed them by one ulp would redraw other nets and move this value
    report = gradient_check(num_nets=25, seed=0)
    assert report.worst_rel_err.hex() == "0x1.a87986445a1fcp-31"


def _signed_zero_net():
    """A 2-(3,2)-1 net, a batch and an upstream gradient whose first-layer
    pre-activations hold an exact +0.0 (``1 - 2*0.5``) and an exact zero
    whose sign the BLAS kernel decides (products that underflow to -0.0,
    plus a -0.0 bias: -0.0 on SkylakeX, +0.0 on Haswell)."""
    spec = MLPSpec(2, (3, 2), 1)
    weights = [
        np.array([[-1e-200, 1.0, 0.5], [-1e-200, -0.5, 0.25]]),
        np.array([[1.0, -1.0], [-2.0, 0.5], [0.75, -1.5]]),
        np.array([[1.5], [-2.0]]),
    ]
    biases = [np.array([-0.0, 0.0, -0.25]), np.array([-0.0, 0.2]), np.array([0.3])]
    batch = np.array([[1e-200, 1e-200], [1.0, 2.0], [-1.0, 0.5], [2.0, -1.0]])
    upstream = np.array([[0.5], [-1.25], [2.0], [-0.75]])
    return MLPParams(spec, weights, biases), batch, upstream


# the pre-activations and gradients of _signed_zero_net, one set per OpenBLAS kernel
_SIGNED_ZERO_PATH = os.path.join(os.path.dirname(__file__), "golden_signed_zero_backward.json")


def _signed_zero_pins() -> dict:
    """:func:`_signed_zero_net`'s first-layer pre-activations and its
    gradients from :func:`mlp_backward`, as float.hex strings."""
    params, batch, upstream = _signed_zero_net()
    grads = mlp_backward(params, batch, upstream)
    return hex_floats({
        "pre_activations": (batch @ params.weights[0] + params.biases[0]).ravel().tolist(),
        "weights": [w.ravel().tolist() for w in grads.weights],
        "biases": [b.tolist() for b in grads.biases],
        "inputs": grads.inputs.ravel().tolist(),
    })


def test_backward_at_signed_zero_pre_activations_pinned():
    params, batch, upstream = _signed_zero_net()
    pre = batch @ params.weights[0] + params.biases[0]
    assert pre[1, 1] == 0.0 and not np.signbit(pre[1, 1])
    assert pre[0, 0] == 0.0
    with open(_SIGNED_ZERO_PATH, encoding="utf-8") as fh:
        assert _signed_zero_pins() == core_set(json.load(fh))


def test_backward_without_input_grad_matches_full_backward():
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=5)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(9, 3))
    upstream = rng.normal(size=(9, 2))
    for p, x, u in ((params, batch, upstream), _signed_zero_net()):
        _, cache = mlp_forward_cached(p, x)
        full = mlp_backward_cached(p, cache, u)
        _, cache = mlp_forward_cached(p, x)
        short = mlp_backward_cached(p, cache, u, input_grad=False)
        assert short.inputs is None and full.inputs is not None
        for a, b in zip(full.weights + full.biases, short.weights + short.biases):
            assert a.tobytes() == b.tobytes()


def test_backward_input_grad_only_matches_full_backward():
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=5)
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(9, 3))
    upstream = rng.normal(size=(9, 2))
    for p, x, u in ((params, batch, upstream), _signed_zero_net()):
        _, cache = mlp_forward_cached(p, x)
        full = mlp_backward_cached(p, cache, u)
        _, cache = mlp_forward_cached(p, x)
        only = mlp_backward_cached(p, cache, u, param_grads=False)
        assert only.weights == [] and only.biases == []
        assert only.inputs.tobytes() == full.inputs.tobytes()


def test_reused_buffers_match_fresh_passes():
    # one set of buffers serves batches of any row count up to its size;
    # each pass matches a call with buffers of its own
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=7)
    rng = np.random.default_rng(8)
    buffers = MLPBuffers(spec, 16)
    for rows in (16, 5, 16, 2):
        batch = rng.normal(size=(rows, 3))
        upstream = rng.normal(size=(rows, 2))
        out, cache = mlp_forward_cached(params, batch, buffers=buffers)
        assert np.shares_memory(out, buffers.outputs[-1])
        assert out.tobytes() == mlp_forward(params, batch).tobytes()
        grads = mlp_backward_cached(params, cache, upstream)
        fresh = mlp_backward(params, batch, upstream)
        for a, b in zip(grads.weights + grads.biases + [grads.inputs],
                        fresh.weights + fresh.biases + [fresh.inputs]):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros((17, 3)), buffers=buffers)


_FLAG_PAIRS = [(True, True), (True, False), (False, True), (False, False)]


def _contract_cases():
    """(params, batch, upstream, buffers) for nets with 0, 1 and 3 hidden
    layers, each at the buffers' full 16 rows and at 5 rows."""
    rng = np.random.default_rng(21)
    for hidden in ((), (6,), (7, 5, 4)):
        spec = MLPSpec(3, hidden, 2)
        params = mlp_init(spec, seed=len(hidden))
        buffers = MLPBuffers(spec, 16)
        for rows in (16, 5):
            yield params, rng.normal(size=(rows, 3)), rng.normal(size=(rows, 2)), buffers


def _assert_flagged_grads_equal(grads, fresh, input_grad, param_grads):
    """``grads`` holds exactly the gradients its flags asked for, each
    bitwise equal to ``fresh``'s."""
    if param_grads:
        for a, b in zip(grads.weights + grads.biases, fresh.weights + fresh.biases):
            assert a.tobytes() == b.tobytes()
    else:
        assert grads.weights == [] and grads.biases == []
    if input_grad:
        assert grads.inputs.tobytes() == fresh.inputs.tobytes()
    else:
        assert grads.inputs is None


def test_bitwise_contract_cached_backward_equals_full_backward():
    # each pass reuses buffers that the passes before it dirtied, and never
    # writes the caller's batch or upstream gradient
    for params, batch, upstream, buffers in _contract_cases():
        batch_bytes, upstream_bytes = batch.tobytes(), upstream.tobytes()
        fresh = mlp_backward(params, batch, upstream)
        for input_grad, param_grads in _FLAG_PAIRS:
            _, cache = mlp_forward_cached(params, batch, buffers=buffers)
            grads = mlp_backward_cached(
                params, cache, upstream, input_grad=input_grad, param_grads=param_grads
            )
            assert cache.layer_inputs == []
            assert batch.tobytes() == batch_bytes
            assert upstream.tobytes() == upstream_bytes
            _assert_flagged_grads_equal(grads, fresh, input_grad, param_grads)


def test_bitwise_contract_second_backward_on_a_cache_raises():
    for params, batch, upstream, buffers in _contract_cases():
        for input_grad, param_grads in _FLAG_PAIRS:
            _, cache = mlp_forward_cached(params, batch, buffers=buffers)
            flags = dict(input_grad=input_grad, param_grads=param_grads)
            mlp_backward_cached(params, cache, upstream, **flags)
            with pytest.raises(ValueError, match="consumes its forward cache"):
                mlp_backward_cached(params, cache, upstream, **flags)


def test_bitwise_contract_backward_after_mlp_forward_equals_full_backward():
    # every forward through the set leaves its cache: the backward after an
    # mlp_forward propagates that forward, not the cached one before it
    rng = np.random.default_rng(24)
    for params, batch, upstream, buffers in _contract_cases():
        fresh = mlp_backward(params, batch, upstream)
        for input_grad, param_grads in _FLAG_PAIRS:
            mlp_forward_cached(params, rng.normal(size=(16, 3)), buffers=buffers)
            mlp_forward(params, batch, buffers=buffers)
            grads = mlp_backward_cached(
                params, buffers, upstream, input_grad=input_grad, param_grads=param_grads
            )
            _assert_flagged_grads_equal(grads, fresh, input_grad, param_grads)


def test_bitwise_contract_backward_follows_the_last_cached_forward():
    # a second cached forward through the set replaces the first one's cache
    rng = np.random.default_rng(22)
    for params, batch, upstream, buffers in _contract_cases():
        mlp_forward_cached(params, rng.normal(size=(16, 3)), buffers=buffers)
        mlp_forward_cached(params, batch, buffers=buffers)
        grads = mlp_backward_cached(params, buffers, upstream)
        fresh = mlp_backward(params, batch, upstream)
        for a, b in zip(grads.weights + grads.biases + [grads.inputs],
                        fresh.weights + fresh.biases + [fresh.inputs]):
            assert a.tobytes() == b.tobytes()


def test_bitwise_contract_mlp_backward_writes_one_buffer_set():
    # both of its passes write into one set, 12.18e6 bytes for this net
    # and batch; a second set would double the peak
    params = mlp_init(MLPSpec(10, (256, 64), 5), seed=0)
    rng = np.random.default_rng(23)
    batch, upstream = rng.normal(size=(4096, 10)), rng.normal(size=(4096, 5))
    tracemalloc.start()
    try:
        mlp_backward(params, batch, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13e6


def test_passes_leave_caller_arrays_unchanged():
    params, batch, upstream = _signed_zero_net()
    batch_bytes, upstream_bytes = batch.tobytes(), upstream.tobytes()
    out, cache = mlp_forward_cached(params, batch)
    mlp_backward_cached(params, cache, upstream)
    assert batch.tobytes() == batch_bytes
    assert upstream.tobytes() == upstream_bytes
    assert not np.shares_memory(out, batch)


def test_add_grads_without_input_grads():
    params, batch, upstream = _signed_zero_net()
    _, cache = mlp_forward_cached(params, batch)
    a = mlp_backward_cached(params, cache, upstream, input_grad=False)
    _, cache = mlp_forward_cached(params, batch)
    b = mlp_backward_cached(params, cache, -2.0 * upstream, input_grad=False)
    total = add_grads(a, b)
    assert total.inputs is None
    for t, ga, gb in zip(total.weights + total.biases, a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(t, ga + gb)


def test_gradient_check_catches_sign_flip():
    def flipped(params, batch, upstream):
        g = mlp_backward(params, batch, upstream)
        return MLPGrads([-w for w in g.weights], [-b for b in g.biases], -g.inputs)

    report = gradient_check(num_nets=3, seed=0, backward_fn=flipped)
    assert not report.passed
    assert report.failures


@pytest.mark.parametrize("setting", [
    {"num_nets": 0}, {"num_nets": -1},
    {"h": 0.0}, {"h": -1e-4}, {"h": math.nan}, {"h": math.inf},
    {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
])
def test_gradient_check_rejects_bad_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        gradient_check(**setting)


def test_gradient_check_fails_on_nan_error():
    # a NaN relative error is not below tol, so it cannot pass
    def nan_bias(params, batch, upstream):
        g = mlp_backward(params, batch, upstream)
        g.biases[-1][0] = math.nan
        return g

    report = gradient_check(num_nets=1, seed=0, backward_fn=nan_bias)
    assert not report.passed
    assert math.isnan(report.worst_rel_err)
    assert [f.kind for f in report.failures] == ["bias"]


def test_gradient_check_report_json_bytes_pinned():
    # one wrong bias gradient: the failure's key order and its index,
    # a tuple written as a JSON list
    def bumped(params, batch, upstream):
        g = mlp_backward(params, batch, upstream)
        g.biases[-1][0] += 1.0
        return g

    report = gradient_check(num_nets=1, seed=0, backward_fn=bumped)
    assert json.dumps(report.to_dict(), indent=2) == """{
  "passed": false,
  "num_nets": 1,
  "worst_rel_err": 0.28003817420731747,
  "tol": 0.0001,
  "h": 0.0001,
  "failures": [
    {
      "net_seed": 0,
      "layer": 2,
      "kind": "bias",
      "index": [
        0
      ],
      "analytic": -2.5709417218918995,
      "numeric": -3.5709417218909856,
      "rel_err": 0.28003817420731747
    }
  ]
}"""


def test_rmsprop_scalar_example():
    # w=1, g=1, a=0, rho=0.9, eps=1e-8, lr=0.1 -> a'=0.1, w'~=0.6838
    spec = MLPSpec(1, (), 1)
    params = MLPParams(spec, [np.array([[1.0]])], [np.array([0.0])])
    grads = MLPGrads([np.array([[1.0]])], [np.array([0.0])], np.zeros((1, 1)))
    state = rmsprop_init(params)
    new_params, new_state = rmsprop_step(params, grads, state, lr=0.1)
    assert new_state.sq_weights[0][0, 0] == pytest.approx(0.1)
    assert new_params.weights[0][0, 0] == pytest.approx(1.0 - 0.1 / (math.sqrt(0.1) + 1e-8))
    assert new_params.weights[0][0, 0] == pytest.approx(0.6838, abs=1e-4)


def test_rmsprop_is_pure_and_replayable():
    spec = MLPSpec(2, (3,), 1)
    params = mlp_init(spec, seed=1)
    grads = mlp_backward(params, np.ones((4, 2)), np.ones((4, 1)))
    state = rmsprop_init(params)
    before = [w.copy() for w in params.weights]
    out1 = rmsprop_step(params, grads, state, lr=1e-3)
    out2 = rmsprop_step(params, grads, state, lr=1e-3)
    # inputs untouched, identical calls identical results
    for w, snap in zip(params.weights, before):
        assert np.array_equal(w, snap)
    for w1, w2 in zip(out1[0].weights, out2[0].weights):
        assert np.array_equal(w1, w2)
    # replaying two updates from the same start matches step-by-step replay
    p1, s1 = rmsprop_step(params, grads, state, lr=1e-3)
    p2a, _ = rmsprop_step(p1, grads, s1, lr=1e-3)
    p1b, s1b = rmsprop_step(params, grads, state, lr=1e-3)
    p2b, _ = rmsprop_step(p1b, grads, s1b, lr=1e-3)
    for wa, wb in zip(p2a.weights, p2b.weights):
        assert np.array_equal(wa, wb)


def test_rmsprop_update_in_place_matches_chained_pure_steps():
    spec = MLPSpec(3, (5, 4), 2)
    rng = np.random.default_rng(11)
    params = mlp_init(spec, seed=2)
    state = rmsprop_init(params)
    pure_params, pure_state = params, state
    params = MLPParams(spec, [w.copy() for w in params.weights], [b.copy() for b in params.biases])
    state = rmsprop_init(params)
    weight_arrays = params.weights + params.biases
    for k in range(7):
        grads = mlp_backward(pure_params, rng.normal(size=(6, 3)), rng.normal(size=(6, 2)))
        lr = 10.0 ** -(k % 4)
        pure_params, pure_state = rmsprop_step(pure_params, grads, pure_state, lr)
        rmsprop_update(params, grads, state, lr)
    # the in-place update wrote into the arrays it was given
    assert all(a is b for a, b in zip(weight_arrays, params.weights + params.biases))
    pairs = zip(
        params.weights + params.biases + state.sq_weights + state.sq_biases,
        pure_params.weights + pure_params.biases + pure_state.sq_weights + pure_state.sq_biases,
    )
    for a, b in pairs:
        assert a.tobytes() == b.tobytes()


def test_rmsprop_rejects_nonfinite_update():
    spec = MLPSpec(1, (), 1)
    params = MLPParams(spec, [np.array([[1.0]])], [np.array([0.0])])
    grads = MLPGrads([np.array([[np.inf]])], [np.array([0.0])], np.zeros((1, 1)))
    state = rmsprop_init(params)
    message = "RMSProp update produced non-finite parameters"
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=message):
        rmsprop_step(params, grads, state, lr=0.1)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=message):
        rmsprop_update(params, grads, state, lr=0.1)


def test_rmsprop_rejects_bad_lr():
    spec = MLPSpec(1, (), 1)
    params = MLPParams(spec, [np.array([[1.0]])], [np.array([0.0])])
    grads = MLPGrads([np.array([[1.0]])], [np.array([0.0])], np.zeros((1, 1)))
    state = rmsprop_init(params)
    with pytest.raises(ValueError):
        rmsprop_step(params, grads, state, lr=0.0)


def test_lr_schedule_frozen_values():
    total = ScheduleConfig(5e-5, 1000, 10.0, mode="total_decay", total_steps=30000)
    assert lr_at(0, total) == pytest.approx(5e-5)
    assert lr_at(30000, total) == pytest.approx(5e-6)
    per = ScheduleConfig(1e-3, 1000, 10.0, mode="per_interval")
    assert lr_at(2500, per) == pytest.approx(1e-5)
    assert lr_at(0, per) == pytest.approx(1e-3)


def test_lr_schedule_monotone_and_floored():
    total = ScheduleConfig(5e-5, 1000, 10.0, mode="total_decay", total_steps=30000)
    per = ScheduleConfig(5e-5, 100, 10.0, mode="per_interval")
    for sched in (total, per):
        rates = [lr_at(s, sched) for s in range(0, 30001, 250)]
        assert rates[0] == pytest.approx(sched.initial_lr)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(r >= 1e-8 for r in rates)
    # per_interval bottoms out at the floor instead of vanishing
    assert lr_at(10**6, per) == 1e-8


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(0.0, 1000, 10.0)
    with pytest.raises(ValueError):
        ScheduleConfig(1e-3, 0, 10.0)
    with pytest.raises(ValueError):
        ScheduleConfig(1e-3, 1000, 1.0)
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="initial_lr"):
            ScheduleConfig(lr, 1000, 10.0)
    for factor in (math.nan, math.inf):
        with pytest.raises(ValueError, match="decay_factor"):
            ScheduleConfig(1e-3, 1000, factor)
    with pytest.raises(ValueError):
        ScheduleConfig(1e-3, 1000, 10.0, mode="linear")
    with pytest.raises(ValueError, match="total_steps must be positive"):
        ScheduleConfig(1e-3, 1000, 10.0, total_steps=0)
    with pytest.raises(ValueError):
        lr_at(-1, ScheduleConfig(1e-3, 1000, 10.0))
