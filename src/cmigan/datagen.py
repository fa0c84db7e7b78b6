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

Each model is one row of the ``_MODELS`` table near the end of this module.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .estimators import SampleSet
from .neuralnet import check_fields, typed_value

NONLINEAR_FUNCS = {
    "cos": np.cos,
    "tanh": np.tanh,
    "exp_abs": lambda t: np.exp(-np.abs(t)),
}

RNG_NAME = "numpy-default_rng-PCG64"


def _stream(n: int, size: int, size_name: str, seed: int) -> np.random.Generator:
    """The PCG64 stream of a draw of ``n`` rows whose block size is ``size``."""
    typed_value("n", "int", n)
    typed_value(size_name, "int", size)
    return np.random.default_rng(typed_value("seed", "int", seed, min=0))


def _assemble(model: str, seed: int, x, y, z, **extras) -> tuple[SampleSet, ModelParams]:
    """The [x|y|z] sample matrix of drawn blocks and its ModelParams."""
    dims = (x.shape[1], y.shape[1], z.shape[1])
    params = ModelParams(model, x.shape[0], *dims, seed, extras=extras)
    return SampleSet(np.hstack([x, y, z]), dims), params


def gen_linear1(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """X ~ N(0,1), Z uniform, Y = X + N(Z_1, 0.01)."""
    rng = _stream(n, dz, "dz", seed)
    x = rng.standard_normal((n, 1))
    z = rng.uniform(-0.5, 0.5, size=(n, dz))
    eps = z[:, :1] + 0.1 * rng.standard_normal((n, 1))
    y = x + eps
    return _assemble("linear1", seed, x, y, z)


def gen_linear2(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """Like linear1 but Z gaussian and the noise mean is w.Z, |w|_1 = 1."""
    rng = _stream(n, dz, "dz", seed)
    w = rng.uniform(0.0, 1.0, size=dz)
    w = w / np.abs(w).sum()
    x = rng.standard_normal((n, 1))
    z = rng.standard_normal((n, dz))
    eps = (z @ w)[:, None] + 0.1 * rng.standard_normal((n, 1))
    y = x + eps
    return _assemble("linear2", seed, x, y, z, w=w)


def gen_linear3(n: int, d: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """d-dimensional blocks; every Y coordinate shares the Z_1 noise mean."""
    rng = _stream(n, d, "d", seed)
    x = 0.5 * rng.standard_normal((n, d))
    z = rng.uniform(-0.5, 0.5, size=(n, d))
    eps = z[:, :1] + 0.5 * rng.standard_normal((n, d))
    y = x + eps
    return _assemble("linear3", seed, x, y, z)


def gen_nonlinear(n: int, dz: int, seed: int) -> tuple[SampleSet, ModelParams]:
    """Scalar X, Y through random nonlinearities; Z enters Y via A_zy."""
    rng = _stream(n, dz, "dz", seed)
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
    return _assemble("nonlinear", seed, x, y, z, a_zy=a_zy, f1=f1_name, f2=f2_name)


def gen_cit(n: int, dz: int, dependent: bool, seed: int) -> tuple[SampleSet, ModelParams, str]:
    """Post-non-linear conditional-independence-testing pair.

    Returns (samples, params, label) with label 'CD' when the c*X term
    couples Y to X and 'CI' otherwise.
    """
    rng = _stream(n, dz, "dz", seed)
    typed_value("dependent", "bool", dependent)
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
    samples, params = _assemble(
        "cit", seed, x, y, z, a_x=a_x, b_y=b_y, c=c, dependent=dependent
    )
    return samples, params, label


def gen_gauss(n: int, d: int, rho: float, seed: int) -> tuple[SampleSet, ModelParams]:
    """d independent unit-variance bivariate normal pairs, correlation rho."""
    rng = _stream(n, d, "d", seed)
    if not -1.0 < (rho := typed_value("rho", "float", rho)) < 1.0:
        raise ValueError("rho must lie strictly inside (-1, 1)")
    x = rng.standard_normal((n, d))
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal((n, d))
    return _assemble("gauss", seed, x, y, np.empty((n, 0)), rho=rho)


def _gauss_truth(params: ModelParams) -> float:
    rho = float(params.extras["rho"])
    return -0.5 * params.dx * math.log(1.0 - rho * rho)


# model id -> (generator, the arguments it takes between n and seed,
# closed-form I(X;Y|Z) of a ModelParams or None where there is none)
_MODELS = {
    "linear1": (gen_linear1, ("dz",), lambda p: 0.5 * math.log(101.0)),
    "linear2": (gen_linear2, ("dz",), lambda p: 0.5 * math.log(101.0)),
    "linear3": (gen_linear3, ("d",), lambda p: 0.5 * p.dx * math.log(2.0)),
    "nonlinear": (gen_nonlinear, ("dz",), None),
    "cit": (gen_cit, ("dz", "dependent"), lambda p: None if p.extras.get("dependent") else 0.0),
    "gauss": (gen_gauss, ("d", "rho"), _gauss_truth),
}

MODEL_IDS = tuple(_MODELS)
# each argument of a generator between n and seed: its type and the value None stands for
_ARGS = {"dz": ("int", 1), "d": ("int", 1), "rho": ("float", None), "dependent": ("bool", False)}


@dataclass
class ModelParams:
    """Everything needed to regenerate a dataset and score estimates on it."""

    model: str = field(metadata={"choices": MODEL_IDS})
    n: int
    dx: int
    dy: int
    dz: int = field(metadata={"min": 0})
    seed: int = field(metadata={"min": 0})
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rng"] = RNG_NAME
        d["extras"] = {
            key: val.tolist() if isinstance(val, np.ndarray) else val
            for key, val in d.pop("extras").items()
        }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        sizes = {key: d[key] for key in ("n", "dx", "dy", "dz", "seed")}
        return cls(model=d["model"], **sizes, extras=d.get("extras", {}))


def _model(model: str):
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODEL_IDS}")
    return _MODELS[model]


def generate(model: str, n: int, seed: int, dz=None, d=None, rho=None, dependent=False):
    """Draw a dataset of ``model``; returns (samples, params, label).

    The label ('CI' or 'CD') comes with ``cit`` only and is None for the
    other models. ``dz`` and ``d`` default to 1 and ``dependent`` to False;
    ``gauss`` needs ``rho``. Each of the four may be None and is typed
    whatever the model; the generator that reads one checks its bound.
    """
    gen, arg_names, _ = _model(model)
    args = {"dz": dz, "d": d, "rho": rho, "dependent": dependent}
    for name, (kind, default) in _ARGS.items():
        if typed_value(name, kind + " | None", args[name], min=None) is None:
            args[name] = default
    out = gen(n, *(args[name] for name in arg_names), seed)
    return out if model == "cit" else (*out, None)


def regenerate(params: ModelParams) -> SampleSet:
    """Rebuild the exact dataset described by a ModelParams record."""
    extras = params.extras
    return generate(params.model, params.n, params.seed, dz=params.dz, d=params.dx,
                    rho=extras.get("rho"), dependent=extras.get("dependent", False))[0]


def true_cmi(params: ModelParams) -> float | None:
    """Closed-form I(X;Y|Z) in nats, or None when no closed form exists."""
    truth = _model(params.model)[2]
    return None if truth is None else truth(params)
