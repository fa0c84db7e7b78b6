"""Discrete enumeration oracle for the variational bound identities.

An 8-state toy joint P(x,y,z) over binary variables, with dyadic
probabilities so that score vectors built by exact repetition realize
the enumerated expectations to float precision: the empirical mean over
a vector with count(s) = P(s)*32 entries IS the expectation under P.
Also a quadrature of the linear1 CMI integrand, an independent check
on the closed-form truth, and quadratic references for the fast paths of
the package: KSG's neighbour counts (a reference kept alongside the
kd-tree path because the two must agree on every count exactly, not
just on the final number) and the pairwise AuROC.
"""

import json
import math

import numpy as np

from cmigan import knn
from cmigan.citest import _check_labels
from cmigan.datagen import ModelParams

# P(x,y,z) in 32nds, all states positive, indexed [x, y, z]
TOY_P = np.array(
    [
        [[3, 1], [2, 2]],
        [[4, 4], [6, 10]],
    ],
    dtype=np.float64,
) / 32.0

# an arbitrary conditional Q(y|z) in 8ths, distinct from P(y|z)
TOY_Q_Y_GIVEN_Z = np.array(
    [
        [2, 5],  # Q(y=0 | z=0), Q(y=0 | z=1)
        [6, 3],  # Q(y=1 | z=0), Q(y=1 | z=1)
    ],
    dtype=np.float64,
) / 8.0

JOINT_DENOM = 32
PRODUCT_DENOM = 32 * 8


def product_dist(p=TOY_P, q=TOY_Q_Y_GIVEN_Z):
    """P(x,z) * Q(y|z) over the 8 states."""
    p_xz = p.sum(axis=1)  # (x, z)
    out = np.empty_like(p)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                out[x, y, z] = p_xz[x, z] * q[y, z]
    return out


def optimal_scores(c=0.0, p=TOY_P, q=TOY_Q_Y_GIVEN_Z):
    """The log density ratio log(P / (P_xz Q_y|z)) + c per state."""
    return np.log(p / product_dist(p, q)) + c


def repeated_scores(scores, probs, denom):
    """Score vector whose empirical distribution equals ``probs`` exactly."""
    counts = np.rint(probs * denom).astype(int)
    assert np.all(np.abs(counts - probs * denom) < 1e-9), "probabilities must be dyadic"
    return np.repeat(scores.ravel(), counts.ravel())


def kl_divergence(p, q):
    return float(np.sum(p * np.log(p / q)))


def true_cmi_discrete(p=TOY_P):
    """I(X;Y|Z) by direct enumeration."""
    p_z = p.sum(axis=(0, 1))
    p_xz = p.sum(axis=1)
    p_yz = p.sum(axis=0)
    total = 0.0
    for x in range(2):
        for y in range(2):
            for z in range(2):
                total += p[x, y, z] * np.log(
                    p[x, y, z] * p_z[z] / (p_xz[x, z] * p_yz[y, z])
                )
    return float(total)


def kl_y_given_z(p=TOY_P, q=TOY_Q_Y_GIVEN_Z):
    """E_z[ KL(P(y|z) || Q(y|z)) ]."""
    p_z = p.sum(axis=(0, 1))
    p_yz = p.sum(axis=0)
    total = 0.0
    for z in range(2):
        for y in range(2):
            p_cond = p_yz[y, z] / p_z[z]
            total += p_z[z] * p_cond * np.log(p_cond / q[y, z])
    return float(total)


def linear1_cmi_quadrature(n_gauss: int = 40, n_z: int = 24, n_y: int = 80) -> float:
    """Numerical integration of the linear1 CMI integrand (dz = 1).

    Integrates P(x,y,z) * log[P(y|x,z) / P(y|z)] with Gauss-Hermite
    nodes in x, Gauss-Legendre in z over (-0.5, 0.5), and Gauss-Legendre
    in y over the +-8 sigma window around the conditional mean. This is
    a genuinely numerical route to the same quantity as the closed form
    0.5*ln(101), kept as a cross-check on the model algebra.
    """
    var_eps = 0.01
    sd_eps = math.sqrt(var_eps)
    var_marg = 1.0 + var_eps  # Y|Z integrates X out: N(z, 1 + var_eps)

    gh_x, gh_w = np.polynomial.hermite.hermgauss(n_gauss)
    x_nodes = math.sqrt(2.0) * gh_x
    x_weights = gh_w / math.sqrt(math.pi)

    gl_z, gl_wz = np.polynomial.legendre.leggauss(n_z)
    z_nodes = 0.5 * gl_z  # map [-1,1] -> [-0.5, 0.5]
    z_weights = 0.5 * gl_wz  # times the uniform density 1 on that window

    gl_y, gl_wy = np.polynomial.legendre.leggauss(n_y)

    def log_normal(v, mean, var):
        return -0.5 * math.log(2.0 * math.pi * var) - (v - mean) ** 2 / (2.0 * var)

    total = 0.0
    half_window = 8.0 * sd_eps
    for z, wz in zip(z_nodes, z_weights):
        for x, wx in zip(x_nodes, x_weights):
            mean = x + z
            y = mean + half_window * gl_y
            wy = half_window * gl_wy
            log_cond = log_normal(y, mean, var_eps)
            log_marg = log_normal(y, z, var_marg)
            total += wz * wx * np.sum(wy * np.exp(log_cond) * (log_cond - log_marg))
    return float(total)


def hex_floats(value):
    """``value`` with every float replaced by its float.hex string, so
    that equality is bitwise (down to the sign of a zero)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hex_floats(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hex_floats(v) for v in value]
    return value


def _neighbor_stats_bruteforce(x: np.ndarray, y: np.ndarray, k: int):
    """Quadratic reference for ``cmigan.knn._neighbor_stats_kdtree``."""
    dx = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)
    dy = np.abs(y[:, None, :] - y[None, :, :]).max(axis=2)
    joint = np.maximum(dx, dy)
    eps = np.sort(joint, axis=1)[:, k]
    nx = (dx < eps[:, None]).sum(axis=1) - 1
    ny = (dy < eps[:, None]).sum(axis=1) - 1
    return eps, nx.astype(np.int64), ny.astype(np.int64)


def ksg_mi_bruteforce(x, y, k: int = 5) -> float:
    """Quadratic-time KSG #1, for cross-checking the kd-tree path."""
    x = knn._as_block(x, "x")
    y = knn._as_block(y, "y")
    n = x.shape[0]
    eps, nx, ny = _neighbor_stats_bruteforce(x, y, k)
    if np.any(eps == 0.0):
        raise ValueError("duplicate points; jitter before calling the reference")
    digamma = knn.digamma
    terms = np.sort(digamma(nx + 1) + digamma(ny + 1))
    return float(digamma(k) + digamma(n) - np.mean(terms))


def auroc_bruteforce(scores, labels) -> float:
    """Pairwise reference: mean over (pos, neg) pairs of 1/0.5/0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_labels(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((wins + 0.5 * ties) / (len(pos) * len(neg)))


def read_sidecar(path: str) -> tuple[ModelParams, float | None]:
    """The model parameters and ``true_cmi`` of a sidecar JSON."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return ModelParams.from_dict(doc), doc.get("true_cmi")
