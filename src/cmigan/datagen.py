"""Synthetic data generators with known conditional mutual information.

Every generator draws from numpy's default PCG64 stream seeded with a
64-bit integer; the (model, n, dims, seed) tuple fully determines the
dataset, and the dataset-level random draws (weight vectors, function
choices, coupling constants) come first on the stream so they can be
recorded in :class:`ModelParams` and the data regenerated bit-for-bit.

Gaussian arguments are (mean, variance) throughout.

Models
------
linear1   X ~ N(0,1), Z ~ U(-0.5,0.5)^dz, Y = X + N(Z_1, 0.01).
linear2   Z ~ N(0,1)^dz, U = w.Z with |w|_1 = 1, Y = X + N(U, 0.01).
linear3   dx = dy = dz = d; X ~ N(0,0.25)^d, Z ~ U(-0.5,0.5)^d,
          Y = X + N(Z_1, 0.25)^d (all response coordinates share the
          Z_1 noise mean).
nonlinear X = f1(eta1), Y = f2(A_zy.Z + 2X + eta2) with Z ~ N(1, I),
          eta ~ N(0, 0.1), f1, f2 drawn from {cos, tanh, exp(-|.|)},
          A_zy entries N(0,1) then scaled to unit l2 norm.
cit       post-non-linear pair for independence testing:
          X = cos(a_x.Z + eta1), Y = cos(c X + b_y.Z + eta2) when
          dependent else without the c X term; eta ~ N(0, 0.25),
          a_x, b_y ~ U(0,1)^dz normalized, c ~ U(0,2).
gauss     d independent bivariate normal pairs with correlation rho.

Closed-form truths: linear1/linear2 give 0.5*ln(101); linear3 gives
(d/2)*ln 2; gauss gives -(d/2)*ln(1-rho^2). The nonlinear and cit
models have no closed form (use the kNN ground-truth path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import SampleSet

MODEL_IDS = ("linear1", "linear2", "linear3", "nonlinear", "cit", "gauss")

NONLINEAR_FUNCS = {
    "cos": np.cos,
    "tanh": np.tanh,
    "exp_abs": lambda t: np.exp(-np.abs(t)),
}

RNG_NAME = "numpy-default_rng-PCG64"


@dataclass
class ModelParams:
    """Everything needed to regenerate a dataset and score estimates on it."""

    model: str
    n: int
    dx: int
    dy: int
    dz: int
    seed: int
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODEL_IDS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_IDS}")

    def to_dict(self) -> dict:
        extras = {}
        for key, val in self.extras.items():
            extras[key] = val.tolist() if isinstance(val, np.ndarray) else val
        return {
            "model": self.model,
            "n": self.n,
            "dx": self.dx,
            "dy": self.dy,
            "dz": self.dz,
            "seed": self.seed,
            "rng": RNG_NAME,
            "extras": extras,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(
            model=d["model"],
            n=int(d["n"]),
            dx=int(d["dx"]),
            dy=int(d["dy"]),
            dz=int(d["dz"]),
            seed=int(d["seed"]),
            extras=dict(d.get("extras", {})),
        )


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be positive")


def gen_linear1(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """X ~ N(0,1), Z uniform, Y = X + N(Z_1, 0.01)."""
    _check_n(n)
    if dz < 1:
        raise ValueError("dz must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    z = rng.uniform(-0.5, 0.5, size=(n, dz))
    eps = z[:, :1] + 0.1 * rng.standard_normal((n, 1))
    y = x + eps
    params = ModelParams("linear1", n, 1, 1, dz, seed)
    return SampleSet(np.hstack([x, y, z]), (1, 1, dz)), params


def gen_linear2(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """Like linear1 but Z gaussian and the noise mean is w.Z, |w|_1 = 1."""
    _check_n(n)
    if dz < 1:
        raise ValueError("dz must be >= 1")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=dz)
    w = w / np.abs(w).sum()
    x = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, dz))
    eps = (z @ w)[:, None] + 0.1 * rng.standard_normal((n, 1))
    y = x + eps
    params = ModelParams("linear2", n, 1, 1, dz, seed, extras={"w": w})
    return SampleSet(np.hstack([x, y, z]), (1, 1, dz)), params


def gen_linear3(n: int, d: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """d-dimensional blocks; every Y coordinate shares the Z_1 noise mean."""
    _check_n(n)
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal((n, d))
    z = rng.uniform(-0.5, 0.5, size=(n, d))
    eps = z[:, :1] + 0.5 * rng.standard_normal((n, d))
    y = x + eps
    params = ModelParams("linear3", n, d, d, d, seed)
    return SampleSet(np.hstack([x, y, z]), (d, d, d)), params


def gen_nonlinear(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """Scalar X, Y through random nonlinearities; Z enters Y via A_zy."""
    _check_n(n)
    if dz < 1:
        raise ValueError("dz must be >= 1")
    rng = np.random.default_rng(seed)
    names = list(NONLINEAR_FUNCS)
    a_zy = rng.standard_normal(dz)
    a_zy = a_zy / np.linalg.norm(a_zy)
    f1_name = names[rng.integers(len(names))]
    f2_name = names[rng.integers(len(names))]
    z = 1.0 + rng.standard_normal((n, dz))
    eta1 = math.sqrt(0.1) * rng.standard_normal((n, 1))
    eta2 = math.sqrt(0.1) * rng.standard_normal((n, 1))
    x = NONLINEAR_FUNCS[f1_name](eta1)
    y = NONLINEAR_FUNCS[f2_name]((z @ a_zy)[:, None] + 2.0 * x + eta2)
    params = ModelParams(
        "nonlinear", n, 1, 1, dz, seed, extras={"a_zy": a_zy, "f1": f1_name, "f2": f2_name}
    )
    return SampleSet(np.hstack([x, y, z]), (1, 1, dz)), params


def gen_cit(n: int, dz: int, dependent: bool, seed: int) -> tuple[SampleSet, ModelParams, str]:
    """Post-non-linear conditional-independence-testing pair.

    Returns (samples, params, label) with label 'CD' when the c*X term
    couples Y to X and 'CI' otherwise.
    """
    _check_n(n)
    if dz < 1:
        raise ValueError("dz must be >= 1")
    rng = np.random.default_rng(seed)
    a_x = rng.uniform(0.0, 1.0, size=dz)
    a_x = a_x / np.linalg.norm(a_x)
    b_y = rng.uniform(0.0, 1.0, size=dz)
    b_y = b_y / np.linalg.norm(b_y)
    c = float(rng.uniform(0.0, 2.0))
    z = 1.0 + rng.standard_normal((n, dz))
    eta1 = 0.5 * rng.standard_normal((n, 1))
    eta2 = 0.5 * rng.standard_normal((n, 1))
    x = np.cos((z @ a_x)[:, None] + eta1)
    coupling = c * x if dependent else 0.0
    y = np.cos(coupling + (z @ b_y)[:, None] + eta2)
    label = "CD" if dependent else "CI"
    params = ModelParams(
        "cit", n, 1, 1, dz, seed,
        extras={"a_x": a_x, "b_y": b_y, "c": c, "dependent": bool(dependent)},
    )
    return SampleSet(np.hstack([x, y, z]), (1, 1, dz)), params, label


def gen_gauss(n: int, d: int, rho: float, seed: int) -> tuple[SampleSet, ModelParams]:
    """d independent unit-variance bivariate normal pairs, correlation rho."""
    _check_n(n)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (-1, 1)")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal((n, d))
    params = ModelParams("gauss", n, d, d, 0, seed, extras={"rho": float(rho)})
    return SampleSet(np.hstack([x, y]), (d, d, 0)), params


def generate(model: str, n: int, seed: int, dz=None, d=None, rho=None, dependent=False):
    """Draw a dataset of ``model``; returns (samples, params, label).

    The label ('CI' or 'CD') comes with ``cit`` only and is None for the
    other models. ``dz`` and ``d`` default to 1; ``gauss`` needs ``rho``.
    """
    dz = 1 if dz is None else dz
    d = 1 if d is None else d
    if model == "cit":
        return gen_cit(n, dz, bool(dependent), seed)
    if model == "linear1":
        samples, params = gen_linear1(n, dz, seed)
    elif model == "linear2":
        samples, params = gen_linear2(n, dz, seed)
    elif model == "linear3":
        samples, params = gen_linear3(n, d, seed)
    elif model == "nonlinear":
        samples, params = gen_nonlinear(n, dz, seed)
    elif model == "gauss":
        if rho is None:
            raise ValueError("the gauss model needs rho")
        samples, params = gen_gauss(n, d, float(rho), seed)
    else:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_IDS}")
    return samples, params, None


def regenerate(params: ModelParams) -> SampleSet:
    """Rebuild the exact dataset described by a ModelParams record."""
    return generate(
        params.model,
        params.n,
        params.seed,
        dz=params.dz,
        d=params.dx,
        rho=params.extras.get("rho"),
        dependent=params.extras.get("dependent", False),
    )[0]


def true_cmi(params: ModelParams) -> float | None:
    """Closed-form I(X;Y|Z) in nats, or None when no closed form exists."""
    m = params.model
    if m in ("linear1", "linear2"):
        return 0.5 * math.log(101.0)
    if m == "linear3":
        return 0.5 * params.dx * math.log(2.0)
    if m == "gauss":
        rho = float(params.extras["rho"])
        return -0.5 * params.dx * math.log(1.0 - rho * rho)
    if m == "cit":
        if not params.extras.get("dependent", False):
            return 0.0
        return None
    if m == "nonlinear":
        return None
    raise ValueError(f"unknown model {m!r}")

