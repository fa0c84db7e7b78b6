"""Kraskov-Stoegbauer-Grassberger kNN estimators for MI and CMI.

Implements estimator #1: with ``eps_i`` the Chebyshev distance from
point ``i`` to its k-th nearest neighbour in the joint space,

    I_hat = psi(k) + psi(n) - mean_i[ psi(nx_i + 1) + psi(ny_i + 1) ]

where ``nx_i`` counts marginal points strictly closer than ``eps_i``
(the point itself excluded). CMI is the difference form
``I(X;YZ) - I(X;Z)``. Neighbour search uses kd-trees queried on every
core (``workers=-1``). Chebyshev distances are maxima of absolute
differences, hence exact floats whatever the traversal, and the counts
are integers, so neither the thread count nor the tree shape can move
an estimate.

``import cmigan`` loads numpy only. ``scipy.spatial.cKDTree`` and
``scipy.special.digamma``, which take about 0.4 s to import on a 2-vCPU
Xeon, load on the first KSG call, or on the first read of
``cmigan.knn.cKDTree`` or ``cmigan.knn.digamma``. The KSG code reads both
names from this module when it runs, so a value set on the module (a
test's subclass, a tracer's wrapper) is the one it calls.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from .neuralnet import check_fields

# fraction of the estimator's ceiling psi(n) - psi(k) above which the
# estimate is flagged as saturated (near-deterministic relation)
_SATURATION_FRACTION = 0.85

# leaf size of the marginal-count trees. Ball counts at KSG radii visit
# many points per query, and wide leaves trade per-node bookkeeping for
# flat leaf scans: on linear3 d=5, n=20000 (2-vCPU Xeon, one thread) the
# 10-d (Y,Z) counts of I(X;(Y,Z)) took 16.1 s at scipy's default of 16
# and 6.5 s at 128. The joint kNN tree keeps the default: its 15-d query
# took 4.1 s at 16 and 4.6 s at 64.
_MARGINAL_LEAFSIZE = 128

# half-width and seed of the uniform noise added when duplicate points
# make some eps_i zero, which would otherwise put psi at an invalid argument
_JITTER_SCALE = 1e-10
_JITTER_SEED = 0

# the scipy names bound on first use, and the module each comes from
_SCIPY_NAMES = {"cKDTree": "scipy.spatial", "digamma": "scipy.special"}


def _load_scipy():
    """Bind each name of :data:`_SCIPY_NAMES` not already set on this module."""
    names = globals()
    for name, module in _SCIPY_NAMES.items():
        if name not in names:
            names[name] = getattr(importlib.import_module(module), name)


def __getattr__(name):
    # PEP 562: called only for names missing from the module
    if name in _SCIPY_NAMES:
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class KSGConfig:
    """Knobs for the KSG estimators: the neighbour order ``k``."""

    k: int = 5

    def __post_init__(self):
        check_fields(self)


@dataclass
class KSGResult:
    """Estimate plus degeneracy flags.

    ``jitter_applied`` reports duplicate joint points (eps_i = 0);
    ``saturated`` reports an estimate near the ceiling ``psi(n)-psi(k)``,
    the signature of a (nearly) deterministic relation between the
    blocks. ``degenerate`` is the union of the two.
    """

    value: float
    n: int
    k: int
    jitter_applied: bool
    saturated: bool

    @property
    def degenerate(self) -> bool:
        return self.jitter_applied or self.saturated


def _as_block(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"{name} must be 1-d or 2-d, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def _ball_counts(block: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Points of ``block`` within Chebyshev ``radius`` of each row, itself excluded."""
    tree = cKDTree(block, leafsize=_MARGINAL_LEAFSIZE)
    return tree.query_ball_point(block, radius, p=np.inf, return_length=True, workers=-1) - 1


def _neighbor_stats_kdtree(x: np.ndarray, y: np.ndarray, k: int):
    """(eps, nx, ny) via kd-trees with Chebyshev metric.

    Strict ``< eps`` marginal counts are realized exactly by querying the
    closed ball of radius ``nextafter(eps, -inf)``: in float64 the two
    predicates select identical point sets.

    All three queries run on every core. The marginal trees use wide
    leaves (:data:`_MARGINAL_LEAFSIZE`) because ball counting dominates
    the cost. Results do not depend on either choice: each query point is
    answered independently, its distances are exact, and its counts are
    integers, so ``(eps, nx, ny)`` are bitwise the same for any thread
    count or leaf size.
    """
    _load_scipy()
    joint = np.hstack([x, y])
    tree = cKDTree(joint)
    dist, _ = tree.query(joint, k=[k + 1], p=np.inf, workers=-1)
    eps = dist[:, 0]
    radius = np.nextafter(eps, -np.inf)
    nx = _ball_counts(x, radius)
    ny = _ball_counts(y, radius)
    return eps, nx.astype(np.int64), ny.astype(np.int64)


def ksg_mi_result(x, y, config: KSGConfig | None = None) -> KSGResult:
    """KSG estimator #1 with degeneracy reporting."""
    cfg = config or KSGConfig()
    x = _as_block(x, "x")
    y = _as_block(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of rows")
    n = x.shape[0]
    if n <= cfg.k + 1:
        raise ValueError(f"need more than k+1={cfg.k + 1} samples, got {n}")

    eps, nx, ny = _neighbor_stats_kdtree(x, y, cfg.k)
    jitter_applied = False
    if np.any(eps == 0.0):
        rng = np.random.default_rng(_JITTER_SEED)
        x = x + rng.uniform(-_JITTER_SCALE, _JITTER_SCALE, size=x.shape)
        y = y + rng.uniform(-_JITTER_SCALE, _JITTER_SCALE, size=y.shape)
        eps, nx, ny = _neighbor_stats_kdtree(x, y, cfg.k)
        jitter_applied = True

    # sorting before the mean makes the estimate exactly invariant to
    # common row permutations (summation order stops depending on input order)
    terms = np.sort(digamma(nx + 1) + digamma(ny + 1))
    value = float(digamma(cfg.k) + digamma(n) - np.mean(terms))
    ceiling = float(digamma(n) - digamma(cfg.k))
    saturated = value > _SATURATION_FRACTION * ceiling
    return KSGResult(value=value, n=n, k=cfg.k, jitter_applied=jitter_applied, saturated=saturated)


def ksg_mi(x, y, config: KSGConfig | None = None) -> float:
    """MI estimate in nats; see :func:`ksg_mi_result` for flags."""
    return ksg_mi_result(x, y, config).value


def ksg_cmi_result(x, y, z, config: KSGConfig | None = None) -> KSGResult:
    """CMI via the MI difference ``I(X;(Y,Z)) - I(X;Z)``."""
    x = _as_block(x, "x")
    y = _as_block(y, "y")
    z = _as_block(z, "z")
    if not (x.shape[0] == y.shape[0] == z.shape[0]):
        raise ValueError("x, y, z must have the same number of rows")
    full = ksg_mi_result(x, np.hstack([y, z]), config)
    marginal = ksg_mi_result(x, z, config)
    return KSGResult(
        value=full.value - marginal.value,
        n=full.n,
        k=full.k,
        jitter_applied=full.jitter_applied or marginal.jitter_applied,
        saturated=full.saturated or marginal.saturated,
    )


def ksg_cmi(x, y, z, config: KSGConfig | None = None) -> float:
    """CMI estimate in nats; see :func:`ksg_cmi_result` for flags."""
    return ksg_cmi_result(x, y, z, config).value


def ground_truth_nonlinear(x, y, z, a_zy, config: KSGConfig | None = None) -> float:
    """Reference CMI for the nonlinear model via dimensionality collapse.

    The nonlinear generator couples Y to Z only through the scalar
    ``u = z . a_zy`` (a_zy unit-norm), so ``I(X;Y|Z) = I(X;Y|U)`` and a
    1-d conditioning variable is enough for the kNN estimate to behave
    at large n.
    """
    z = _as_block(z, "z")
    a = np.asarray(a_zy, dtype=np.float64).ravel()
    if a.shape[0] != z.shape[1]:
        raise ValueError(f"a_zy has length {a.shape[0]}, z has {z.shape[1]} columns")
    norm = float(np.linalg.norm(a))
    if not np.isclose(norm, 1.0, atol=1e-8):
        raise ValueError(f"a_zy must be unit length, got |a| = {norm}")
    u = z @ a[:, None]
    return ksg_cmi(x, y, u, config)
