import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmigan.bounds import (
    FDIV_EXP_CLAMP,
    ScorePair,
    dv_objective,
    fdiv_objective,
    fdiv_product_grad,
    log_mean_exp,
    softmax_weights,
)

finite_scores = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=40
)


def test_log_mean_exp_matches_direct_formula():
    v = np.array([0.3, -1.2, 2.5])
    direct = math.log(np.mean(np.exp(v)))
    assert log_mean_exp(v) == pytest.approx(direct, abs=1e-12)


def test_log_mean_exp_stable_at_huge_scores():
    v = np.array([1e6, 1e6 - 2.0])
    out = log_mean_exp(v)
    assert np.isfinite(out)
    assert out == pytest.approx(1e6 + math.log((1 + math.exp(-2.0)) / 2), abs=1e-6)
    assert np.isfinite(log_mean_exp(np.array([-1e6, -1e6 + 1.0])))


def test_dv_objective_frozen_examples():
    # identical constant scores: mean == log_mean_exp, so exactly zero
    assert dv_objective(ScorePair([1.7, 1.7], [1.7, 1.7])) == pytest.approx(0.0, abs=1e-15)
    assert dv_objective(ScorePair([2.0, 2.0], [0.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    expected = 1.0 - math.log((1.0 + math.e) / 2.0)
    assert dv_objective(ScorePair([0.0, 2.0], [0.0, 1.0])) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.37989, abs=1e-5)


def test_fdiv_objective_frozen_examples():
    assert fdiv_objective(ScorePair([1.0, 1.0], [1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert fdiv_objective(ScorePair([0.0, 0.0], [0.0, 0.0])) == pytest.approx(
        -math.exp(-1.0), abs=1e-12
    )


def test_fdiv_clamp():
    pair = ScorePair([0.0], [200.0, 0.0])
    assert np.isfinite(fdiv_objective(pair))
    assert fdiv_objective(pair) == pytest.approx(
        0.0 - (math.exp(FDIV_EXP_CLAMP) + math.exp(-1.0)) / 2.0
    )


def test_fdiv_product_grad_matches_finite_differences_and_counts_clamps():
    def product_term(s):
        # mean(exp(s - 1)); a zero joint score leaves only the product term
        return -fdiv_objective(ScorePair([0.0], s))

    rng = np.random.default_rng(3)
    v = rng.normal(scale=2.0, size=9)
    grad, hits = fdiv_product_grad(v)
    assert hits == 0
    h = 1e-4
    for i in range(len(v)):
        up, down = v.copy(), v.copy()
        up[i] += h
        down[i] -= h
        fd = (product_term(up) - product_term(down)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    edge = 1.0 + FDIV_EXP_CLAMP
    clamped = np.array([0.5, edge + 1e-9, 200.0, edge, 1e6, -3.0])
    grad, hits = fdiv_product_grad(clamped)
    assert hits == 3
    assert grad[1] == grad[2] == grad[4] == 0.0
    assert grad[3] == pytest.approx(math.exp(FDIV_EXP_CLAMP) / 6, rel=1e-12)
    assert grad[0] == pytest.approx(math.exp(-0.5) / 6, rel=1e-12)
    assert grad[5] == pytest.approx(math.exp(-4.0) / 6, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        ScorePair([], [1.0])
    with pytest.raises(ValueError):
        ScorePair([1.0], [np.nan])
    with pytest.raises(ValueError):
        log_mean_exp(np.array([np.inf]))


@given(joint=finite_scores, product=finite_scores)
@settings(max_examples=200, deadline=None)
def test_fdiv_never_exceeds_dv(joint, product):
    pair = ScorePair(joint, product)
    assert fdiv_objective(pair) <= dv_objective(pair) + 1e-9


@given(scores=finite_scores, shift=st.floats(min_value=-20, max_value=20, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_dv_shift_covariance(scores, shift):
    base = ScorePair(scores, scores)
    both = ScorePair(np.asarray(scores) + shift, np.asarray(scores) + shift)
    assert dv_objective(both) == pytest.approx(dv_objective(base), abs=1e-9)
    product_only = ScorePair(scores, np.asarray(scores) + shift)
    assert dv_objective(product_only) == pytest.approx(dv_objective(base) - shift, abs=1e-9)


def test_softmax_weights_is_log_mean_exp_gradient():
    rng = np.random.default_rng(0)
    v = rng.normal(size=12)
    w = softmax_weights(v)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    h = 1e-6
    for i in range(len(v)):
        up = v.copy()
        up[i] += h
        down = v.copy()
        down[i] -= h
        fd = (log_mean_exp(up) - log_mean_exp(down)) / (2 * h)
        assert w[i] == pytest.approx(fd, abs=1e-6)
