"""Variational divergence objectives evaluated on score vectors.

Both objectives lower-bound a KL divergence when the scores come from a
critic evaluated on samples of the two distributions:

* Donsker-Varadhan:  ``E_P[R] - log E_Q[exp(R)]``
* f-divergence form: ``E_P[R] - E_Q[exp(R - 1)]``

The f-divergence bound never exceeds the DV bound for the same scores:
``x >= 1 + log x`` at ``x = E[exp(R)]/e`` reads
``E[exp(R - 1)] >= log E[exp(R)]``, so ``fdiv <= dv`` pointwise in the
scores. All expectations here are plain sample means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# exp() argument above which the f-divergence objective clamps;
# fdiv_product_grad counts the scores that hit it.
FDIV_EXP_CLAMP = 80.0


def _as_scores(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        v = v.ravel()
    if v.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite values")
    return v


@dataclass(frozen=True)
class ScorePair:
    """Critic outputs on joint-distribution samples and product/generated samples."""

    scores_joint: np.ndarray
    scores_product: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores_joint", _as_scores(self.scores_joint, "scores_joint"))
        object.__setattr__(
            self, "scores_product", _as_scores(self.scores_product, "scores_product")
        )


def log_mean_exp(v: np.ndarray) -> float:
    """``log(mean(exp(v)))`` computed stably via max-subtraction.

    Safe for any finite scores (no overflow even at ``|v| ~ 1e6``).
    """
    v = _as_scores(v, "scores")
    m = float(v.max())
    return m + float(np.log(np.mean(np.exp(v - m))))


def softmax_weights(v: np.ndarray) -> np.ndarray:
    """``exp(v_i) / sum_j exp(v_j)``, stable; the gradient of log_mean_exp.

    ``d log_mean_exp(v) / d v_i = softmax_weights(v)_i``.
    """
    v = _as_scores(v, "scores")
    e = np.exp(v - v.max())
    return e / e.sum()


def dv_objective(pair: ScorePair) -> float:
    """Donsker-Varadhan bound: ``mean(joint) - log_mean_exp(product)``."""
    return float(np.mean(pair.scores_joint)) - log_mean_exp(pair.scores_product)


def fdiv_objective(pair: ScorePair) -> float:
    """f-divergence bound: ``mean(joint) - mean(exp(product - 1))``.

    The exponent is clamped at :data:`FDIV_EXP_CLAMP` so pathological
    scores cannot overflow; :func:`fdiv_product_grad` gives the gradient
    of the product term and counts the clamped scores.
    """
    exponent = np.minimum(pair.scores_product - 1.0, FDIV_EXP_CLAMP)
    return float(np.mean(pair.scores_joint)) - float(np.mean(np.exp(exponent)))


def fdiv_product_grad(scores_product: np.ndarray) -> tuple[np.ndarray, int]:
    """Gradient of ``mean(exp(product - 1))`` and the clamp hit count.

    The gradient is ``exp(s_i - 1) / n`` for each of the ``n`` scores,
    and zero where the exponent exceeds :data:`FDIV_EXP_CLAMP`, since the
    clamp flattens the objective there.
    """
    v = _as_scores(scores_product, "scores_product")
    exponent = v - 1.0
    clamped = exponent > FDIV_EXP_CLAMP
    grad = np.where(clamped, 0.0, np.exp(np.minimum(exponent, FDIV_EXP_CLAMP)) / v.size)
    return grad, int(np.count_nonzero(clamped))
