import math

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


def test_spec_shapes_and_validation():
    spec = MLPSpec(7, (128, 32), 1)
    assert spec.layer_dims() == (7, 128, 32, 1)
    with pytest.raises(ValueError):
        MLPSpec(0, (4,), 1)


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
    pre-activations hold an exact +0.0 (``1 - 2*0.5``) and an exact -0.0
    (a product that underflows to -0.0, plus a -0.0 bias)."""
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


def test_backward_at_signed_zero_pre_activations_pinned():
    params, batch, upstream = _signed_zero_net()
    pre = batch @ params.weights[0] + params.biases[0]
    assert pre[1, 1] == 0.0 and not np.signbit(pre[1, 1])
    assert pre[0, 0] == 0.0 and np.signbit(pre[0, 0])
    grads = mlp_backward(params, batch, upstream)

    def hexes(arrays):
        return [[float(v).hex() for v in a.ravel()] for a in arrays]

    assert hexes(grads.weights) == [
        [
            "-0x1.c000000000000p+2", "0x1.8000000000000p+0", "-0x1.7a00000000000p+2",
            "0x1.c000000000000p+1", "-0x1.8000000000000p-1", "-0x1.2000000000000p-1",
        ],
        [
            "0x1.25eed8ffb39c1p-664", "-0x1.87e92154ef7acp-664", "0x0.0p+0",
            "0x1.e000000000000p+1", "-0x1.6800000000000p+0", "0x1.8000000000000p-1",
        ],
        ["-0x1.6800000000000p-1", "-0x1.9999999999978p-6"],
    ]
    assert hexes(grads.biases) == [
        ["0x1.c000000000000p+2", "0x1.0000000000000p-2", "-0x1.d400000000000p+1"],
        ["0x1.2000000000000p+0", "-0x1.c000000000000p+1"],
        ["0x1.0000000000000p-1"],
    ]
    assert hexes([grads.inputs]) == [
        [
            "-0x1.0000000000000p-1", "0x1.0000000000000p-2", "-0x1.6800000000000p-1",
            "-0x1.6800000000000p-2", "-0x1.56ebfd2a518b6p-662", "-0x1.56ebfd2a518b6p-662",
            "-0x1.8000000000000p-2", "-0x1.e000000000000p-1",
        ]
    ]


def test_backward_without_input_grad_matches_full_backward():
    spec = MLPSpec(3, (6, 4), 2)
    params = mlp_init(spec, seed=5)
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(9, 3))
    upstream = rng.normal(size=(9, 2))
    for p, x, u in ((params, batch, upstream), _signed_zero_net()):
        _, cache = mlp_forward_cached(p, x)
        full = mlp_backward_cached(p, cache, u)
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
        grads = mlp_backward_cached(params, cache, upstream, buffers=buffers)
        fresh = mlp_backward(params, batch, upstream)
        for a, b in zip(grads.weights + grads.biases + [grads.inputs],
                        fresh.weights + fresh.biases + [fresh.inputs]):
            assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros((17, 3)), buffers=buffers)


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
    with pytest.raises(ValueError):
        ScheduleConfig(1e-3, 1000, 10.0, mode="linear")
    with pytest.raises(ValueError):
        lr_at(-1, ScheduleConfig(1e-3, 1000, 10.0))
