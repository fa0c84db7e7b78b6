import hashlib
import json
import math

import numpy as np
import pytest

from cmigan.datagen import (
    MODEL_IDS,
    ModelParams,
    gen_cit,
    gen_gauss,
    gen_linear1,
    gen_linear2,
    gen_linear3,
    gen_nonlinear,
    generate,
    regenerate,
    true_cmi,
)

from oracle_tools import linear1_cmi_quadrature


def test_model_ids_cover_generators():
    assert set(MODEL_IDS) == {"linear1", "linear2", "linear3", "nonlinear", "cit", "gauss"}


@pytest.mark.parametrize(
    "factory",
    [
        lambda: gen_linear1(500, 3, seed=11),
        lambda: gen_linear2(500, 3, seed=11),
        lambda: gen_linear3(500, 2, seed=11),
        lambda: gen_nonlinear(500, 4, seed=11),
        lambda: gen_gauss(500, 2, 0.7, seed=11),
    ],
)
def test_regenerate_is_bitwise(factory):
    samples, params = factory()
    again = regenerate(params)
    assert np.array_equal(samples.data, again.data)
    assert samples.dims == again.dims


# sha256 prefix of each dataset's bytes plus the JSON of its dims, params,
# label and truth, at n=64; a change to a generator that moves any of them
# moves its digest
_PINNED = {
    ("linear1", (("dz", 3),), 0): "ad5d86a0dc187670",
    ("linear1", (("dz", 3),), 7): "285d136a02c27475",
    ("linear2", (("dz", 3),), 0): "67d79e0e73ed88f1",
    ("linear2", (("dz", 3),), 7): "8dce5ca34b47b987",
    ("linear3", (("d", 2),), 0): "91e0ba6bc9f4e74a",
    ("linear3", (("d", 2),), 7): "cd4c9768ae1bab31",
    ("nonlinear", (("dz", 4),), 0): "44da1bd9b3de3a3c",
    ("nonlinear", (("dz", 4),), 7): "4823ea92cb29a198",
    ("cit", (("dependent", False), ("dz", 2)), 0): "8c00656f4d271c61",
    ("cit", (("dependent", False), ("dz", 2)), 7): "29ef0f964bf80de2",
    ("cit", (("dependent", True), ("dz", 2)), 0): "74641b20a4eca2e2",
    ("cit", (("dependent", True), ("dz", 2)), 7): "1971ca4fd093f527",
    ("gauss", (("d", 2), ("rho", 0.7)), 0): "34979d060ac3756d",
    ("gauss", (("d", 2), ("rho", 0.7)), 7): "662a10c21d003e74",
}


@pytest.mark.parametrize("model, kw, seed", list(_PINNED))
def test_generated_bytes_pinned(model, kw, seed):
    samples, params, label = generate(model, 64, seed, **dict(kw))
    doc = {"dims": samples.dims, "params": params.to_dict(), "label": label,
           "true_cmi": true_cmi(params)}
    digest = hashlib.sha256(samples.data.tobytes() + json.dumps(doc).encode()).hexdigest()
    assert digest[:16] == _PINNED[model, kw, seed]


def test_regenerate_cit_both_labels():
    for dependent in (False, True):
        samples, params, label = gen_cit(400, 2, dependent, seed=5)
        assert label == ("CD" if dependent else "CI")
        again = regenerate(params)
        assert np.array_equal(samples.data, again.data)


def test_params_dict_round_trip():
    _, params = gen_linear2(100, 4, seed=3)
    rebuilt = ModelParams.from_dict(params.to_dict())
    assert rebuilt.model == params.model
    assert rebuilt.extras.keys() == params.extras.keys()
    assert np.allclose(rebuilt.extras["w"], params.extras["w"])
    same = regenerate(rebuilt)
    assert np.array_equal(same.data, regenerate(params).data)


def test_true_cmi_values():
    _, p1 = gen_linear1(100, 5, seed=0)
    assert true_cmi(p1) == pytest.approx(0.5 * math.log(101.0), abs=1e-12)
    _, p2 = gen_linear2(100, 5, seed=0)
    assert true_cmi(p2) == pytest.approx(0.5 * math.log(101.0), abs=1e-12)
    _, p3 = gen_linear3(100, 5, seed=0)
    assert true_cmi(p3) == pytest.approx(2.5 * math.log(2.0), abs=1e-12)
    _, p6 = gen_gauss(100, 3, 0.8, seed=0)
    assert true_cmi(p6) == pytest.approx(-1.5 * math.log(1.0 - 0.64), abs=1e-12)
    _, pn = gen_nonlinear(100, 3, seed=0)
    assert true_cmi(pn) is None
    _, pc_ci, _ = gen_cit(100, 3, False, seed=0)
    assert true_cmi(pc_ci) == 0.0
    _, pc_cd, _ = gen_cit(100, 3, True, seed=0)
    assert true_cmi(pc_cd) is None


def test_linear1_moments_and_dims():
    s, params = gen_linear1(50000, 2, seed=0)
    assert s.dims == (1, 1, 2)
    assert s.x.std() == pytest.approx(1.0, abs=0.02)
    assert np.all(np.abs(s.z) <= 0.5)
    resid = s.y[:, 0] - s.x[:, 0] - s.z[:, 0]
    assert resid.mean() == pytest.approx(0.0, abs=0.005)
    assert resid.std() == pytest.approx(0.1, abs=0.005)


def test_linear2_weights_and_residuals():
    s, params = gen_linear2(50000, 4, seed=0)
    w = np.asarray(params.extras["w"])
    assert w.shape == (4,)
    assert np.all(w >= 0.0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
    resid = s.y[:, 0] - s.x[:, 0] - s.z @ w
    assert resid.std() == pytest.approx(0.1, abs=0.005)


def test_linear3_truth_is_additive_in_d():
    _, p1 = gen_linear3(10, 1, seed=0)
    base = true_cmi(p1)
    for d in (2, 3, 5, 8):
        _, pd = gen_linear3(10, d, seed=0)
        assert true_cmi(pd) == pytest.approx(d * base, abs=1e-12)


def test_linear3_shared_noise_mean():
    s, _ = gen_linear3(50000, 3, seed=0)
    assert s.dims == (3, 3, 3)
    assert s.x.std() == pytest.approx(0.5, abs=0.01)
    resid = s.y - s.x - s.z[:, :1]
    assert np.abs(resid.mean(axis=0)).max() < 0.02
    assert np.allclose(resid.std(axis=0), 0.5, atol=0.02)


def test_nonlinear_ranges_and_extras():
    s, params = gen_nonlinear(20000, 5, seed=2)
    a = np.asarray(params.extras["a_zy"])
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert params.extras["f1"] in ("cos", "tanh", "exp_abs")
    assert params.extras["f2"] in ("cos", "tanh", "exp_abs")
    # every listed transform maps into [-1, 1]
    assert np.all(np.abs(s.x) <= 1.0)
    assert np.all(np.abs(s.y) <= 1.0)
    assert s.z.mean() == pytest.approx(1.0, abs=0.02)


def test_nonlinear_function_choice_varies_with_seed():
    choices = set()
    for seed in range(12):
        _, params = gen_nonlinear(10, 2, seed=seed)
        choices.add((params.extras["f1"], params.extras["f2"]))
    assert len(choices) > 1


def test_cit_coupling_only_when_dependent():
    s_ci, p_ci, _ = gen_cit(30000, 2, False, seed=7)
    s_cd, p_cd, _ = gen_cit(30000, 2, True, seed=7)
    # identical stream layout: the shared draws agree between the labels
    assert np.allclose(p_ci.extras["a_x"], p_cd.extras["a_x"])
    assert np.allclose(p_ci.extras["b_y"], p_cd.extras["b_y"])
    assert p_ci.extras["c"] == p_cd.extras["c"]
    assert 0.0 <= p_cd.extras["c"] <= 2.0
    # x columns built from the same draws coincide; y differs by the c*x term
    assert np.array_equal(s_ci.x, s_cd.x)
    assert not np.array_equal(s_ci.y, s_cd.y)


def test_gauss_correlation():
    s, params = gen_gauss(100000, 2, 0.6, seed=1)
    assert s.dims == (2, 2, 0)
    for j in range(2):
        r = np.corrcoef(s.x[:, j], s.y[:, j])[0, 1]
        assert r == pytest.approx(0.6, abs=0.01)
    # cross pairs remain uncorrelated
    assert abs(np.corrcoef(s.x[:, 0], s.y[:, 1])[0, 1]) < 0.01


def test_gauss_rho_validation():
    with pytest.raises(ValueError):
        gen_gauss(100, 1, 1.0, seed=0)
    with pytest.raises(ValueError):
        gen_gauss(100, 1, -1.5, seed=0)


def test_quadrature_matches_closed_form():
    assert linear1_cmi_quadrature() == pytest.approx(0.5 * math.log(101.0), abs=1e-3)


# every generator as (n, block size, seed)
_BY_SIZE = [
    gen_linear1, gen_linear2, gen_linear3, gen_nonlinear,
    lambda n, size, seed: gen_cit(n, size, True, seed),
    lambda n, size, seed: gen_gauss(n, size, 0.5, seed),
]


def test_invalid_inputs():
    for gen in _BY_SIZE:
        with pytest.raises(ValueError, match="n must be positive"):
            gen(0, 1, seed=0)
        with pytest.raises(ValueError, match="must be positive"):
            gen(100, 0, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            gen(100, 1, seed=-1)
    with pytest.raises(ValueError):
        ModelParams(model="unknown", n=10, dx=1, dy=1, dz=1, seed=0)
    with pytest.raises(ValueError, match="unknown model 'bogus'"):
        generate("bogus", 10, 0)
