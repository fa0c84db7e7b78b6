import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmigan.knn
from cmigan.knn import (
    KSGConfig,
    _neighbor_stats_kdtree,
    ground_truth_nonlinear,
    ksg_cmi,
    ksg_cmi_result,
    ksg_mi,
    ksg_mi_result,
)

from oracle_tools import _neighbor_stats_bruteforce, ksg_mi_bruteforce


def _correlated_pair(n, rho, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal((n, 1))
    return x, y


def test_independent_uniforms_near_zero():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(2000, 1))
    y = rng.uniform(size=(2000, 1))
    assert abs(ksg_mi(x, y)) < 0.05


def test_correlated_gaussian_close_to_closed_form():
    x, y = _correlated_pair(10000, 0.9, seed=0)
    truth = -0.5 * math.log(1.0 - 0.81)
    assert ksg_mi(x, y) == pytest.approx(truth, abs=0.05)


def test_counts_match_bruteforce_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 2))
    y = 0.5 * x[:, :1] + rng.standard_normal((200, 1))
    for k in (1, 3, 5):
        e1, nx1, ny1 = _neighbor_stats_kdtree(x, y, k)
        e2, nx2, ny2 = _neighbor_stats_bruteforce(x, y, k)
        assert np.array_equal(e1, e2)
        assert np.array_equal(nx1, nx2)
        assert np.array_equal(ny1, ny2)
    assert ksg_mi(x, y, KSGConfig(k=5)) == ksg_mi_bruteforce(x, y, 5)
    # a case deep enough that the wide-leaf marginal trees split several
    # levels, in both a low- and a high-dimensional block
    x = rng.standard_normal((600, 3))
    y = np.hstack([x, rng.standard_normal((600, 4))]) + 0.5 * rng.standard_normal((600, 7))
    for k in (1, 5):
        e1, nx1, ny1 = _neighbor_stats_kdtree(x, y, k)
        e2, nx2, ny2 = _neighbor_stats_bruteforce(x, y, k)
        assert np.array_equal(e1, e2)
        assert np.array_equal(nx1, nx2)
        assert np.array_equal(ny1, ny2)


def test_thread_count_does_not_change_results(monkeypatch):
    import cmigan.knn
    from cmigan.datagen import gen_linear3

    s, _ = gen_linear3(2000, 3, seed=1)
    default = ksg_cmi_result(s.x, s.y, s.z)
    calls = []

    class SerialTree(cmigan.knn.cKDTree):
        def query(self, *args, **kwargs):
            calls.append("query")
            return super().query(*args, **{**kwargs, "workers": 1})

        def query_ball_point(self, *args, **kwargs):
            calls.append("query_ball_point")
            return super().query_ball_point(*args, **{**kwargs, "workers": 1})

    monkeypatch.setattr(cmigan.knn, "cKDTree", SerialTree)
    serial = ksg_cmi_result(s.x, s.y, s.z)
    assert calls.count("query") == 2 and calls.count("query_ball_point") == 4
    assert serial.value.hex() == default.value.hex()
    assert (serial.jitter_applied, serial.saturated) == (default.jitter_applied, default.saturated)


def test_digamma_is_read_from_the_module_at_call_time(monkeypatch):
    # a tracer times digamma by setting cmigan.knn.digamma
    x, y = _correlated_pair(300, 0.6, seed=2)
    z = np.random.default_rng(5).standard_normal((300, 2))
    default = ksg_cmi_result(x, y, z)
    digamma = cmigan.knn.digamma
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return digamma(a)

    monkeypatch.setattr(cmigan.knn, "digamma", counting)
    patched = ksg_cmi_result(x, y, z)
    # per MI term: psi(nx + 1), psi(ny + 1), psi(k), psi(n), and the
    # ceiling's psi(n), psi(k)
    assert calls == [(300,), (300,), (), (), (), ()] * 2
    assert patched.value.hex() == default.value.hex()


def test_scipy_loads_on_first_call_and_keeps_names_already_set():
    code = (
        "import sys, numpy as np, cmigan.knn as knn\n"
        "print([m for m in sys.modules if m.startswith('scipy')])\n"
        "knn.digamma = lambda a: np.zeros(np.shape(a))\n"
        "rng = np.random.default_rng(0)\n"
        "print(knn.ksg_mi(rng.standard_normal(50), rng.standard_normal(50)))\n"
        "print('scipy.spatial' in sys.modules, knn.cKDTree.__module__)\n"
    )
    src = str(Path(cmigan.knn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split("\n") == ["[]", "0.0", "True scipy.spatial._ckdtree", ""]


def test_golden_estimates_bitwise():
    # pinned as float.hex so any change to tree traversal, threading or
    # summation order that moves an estimate by one ulp fails here
    from cmigan.datagen import gen_cit, gen_linear3
    from cmigan.estimators import estimate

    s, _ = gen_linear3(2000, 5, seed=0)
    assert estimate(s, "ksg").mean.hex() == "0x1.8be6d26808bb0p-1"
    cit, _, label = gen_cit(2000, 1, True, 0)
    assert label == "CD"
    assert estimate(cit, "ksg").mean.hex() == "0x1.94e81264cf800p-8"
    x, y = _correlated_pair(2000, 0.6, seed=11)
    assert ksg_mi(x, y).hex() == "0x1.c6c8818c34e00p-3"


def test_permutation_invariance_exact():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, 1))
    y = x + rng.standard_normal((500, 1))
    base = ksg_mi(x, y)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(500)
        assert ksg_mi(x[perm], y[perm]) == base


def test_monotone_transform_robustness():
    x, y = _correlated_pair(10000, 0.8, seed=2)
    base = ksg_mi(x, y)
    transformed = ksg_mi(np.exp(x), np.cbrt(y) + 2.0)
    assert abs(transformed - base) < 0.05


def test_shuffled_y_kills_mi():
    x, y = _correlated_pair(10000, 0.9, seed=4)
    y_shuffled = y[np.random.default_rng(0).permutation(len(y))]
    assert abs(ksg_mi(x, y_shuffled)) < 3.0 / math.sqrt(10000)


def test_deterministic_copy_is_large_and_flagged():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10000, 1))
    res = ksg_mi_result(x, x.copy())
    assert res.value > 3.0
    assert res.degenerate
    assert res.saturated
    # a merely strong correlation stays unflagged
    x, y = _correlated_pair(10000, 0.9, seed=0)
    assert not ksg_mi_result(x, y).degenerate


def test_duplicate_points_jittered_and_flagged():
    x = np.zeros((50, 1))
    x[25:] = 1.0
    y = x.copy()
    res = ksg_mi_result(x, y)
    assert res.jitter_applied
    assert np.isfinite(res.value)


def test_jitter_is_deterministic():
    x = np.repeat(np.arange(10.0), 10)[:, None]
    y = x.copy()
    a = ksg_mi_result(x, y)
    b = ksg_mi_result(x, y)
    assert a.jitter_applied and b.jitter_applied
    assert a.value == b.value


def test_cmi_on_conditionally_independent_chain():
    # x -> z -> y: I(X;Y|Z) = 0
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8000, 1))
    z = x + rng.standard_normal((8000, 1))
    y = z + rng.standard_normal((8000, 1))
    assert abs(ksg_cmi(x, y, z)) < 0.05
    # unconditionally X and Y are well dependent
    assert ksg_mi(x, y) > 0.2


def test_cmi_difference_form_is_consistent():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2000, 1))
    z = rng.standard_normal((2000, 1))
    y = x + z + 0.5 * rng.standard_normal((2000, 1))
    res = ksg_cmi_result(x, y, z)
    full = ksg_mi(x, np.hstack([y, z]))
    marginal = ksg_mi(x, z)
    assert res.value == pytest.approx(full - marginal, abs=1e-12)


def test_model3_single_dim_truth():
    from cmigan.datagen import gen_linear3

    s, _ = gen_linear3(20000, 1, seed=0)
    value = ksg_cmi(s.x, s.y, s.z)
    assert value == pytest.approx(0.5 * math.log(2.0), abs=0.05)


def test_ground_truth_nonlinear_requires_unit_vector():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((100, 3))
    x = rng.standard_normal((100, 1))
    y = rng.standard_normal((100, 1))
    with pytest.raises(ValueError):
        ground_truth_nonlinear(x, y, z, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="a_zy has length 2, z has 3 columns"):
        ground_truth_nonlinear(x, y, z, np.array([0.6, 0.8]))


def test_ground_truth_nonlinear_collapses_conditioning():
    # Y depends on Z only through u = z . a; conditioning on u alone must
    # wipe out the X-Y dependence created through the shared term
    rng = np.random.default_rng(9)
    n = 8000
    z = rng.standard_normal((n, 4))
    a = np.array([0.5, 0.5, 0.5, 0.5])
    u = (z @ a)[:, None]
    x = u + 0.3 * rng.standard_normal((n, 1))
    y = u + 0.3 * rng.standard_normal((n, 1))
    cmi_via_u = ground_truth_nonlinear(x, y, z, a)
    assert ksg_mi(x, y) > 0.5
    assert abs(cmi_via_u) < 0.08


def test_validation_errors():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 1))
    with pytest.raises(ValueError):
        ksg_mi(x, x[:5])
    with pytest.raises(ValueError):
        ksg_mi(x[:4], x[:4])  # too few samples for k=5
    with pytest.raises(ValueError):
        KSGConfig(k=0)
    with pytest.raises(ValueError):
        ksg_mi(np.full((10, 1), np.nan), x)
    with pytest.raises(ValueError, match="x must be 1-d or 2-d"):
        ksg_mi(np.zeros((10, 1, 1)), x)
    with pytest.raises(ValueError, match="x, y, z must have the same number of rows"):
        ksg_cmi_result(x, x, x[:5])


@pytest.mark.parametrize("k", [5.5, 5.0, True, "5", None])
def test_ksg_config_takes_positive_integers_only(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        KSGConfig(k=k)


def test_ksg_config_stores_a_numpy_k_as_int():
    cfg = KSGConfig(k=np.int64(3))
    assert cfg == KSGConfig(k=3) and type(cfg.k) is int
