"""Dense feed-forward networks with exact gradients, RMSProp, and LR schedules.

Everything here is plain float64 numpy. Networks are ReLU-hidden,
identity-output MLPs stored as explicit weight/bias lists, initialized
uniformly in ``+-sqrt(6/fan_in)`` with zero biases. Gradients are exact
reverse-mode derivatives of ``sum_i <upstream_i, output_i>``, which is
what the adversarial training loop needs (the upstream vector carries
the per-sample objective weights).

The passes write every layer output, ReLU mask, delta and gradient into
the arrays of an :class:`MLPBuffers`, never into a caller's array. A
training loop allocates one per network and batch size and reuses it on
every step and on every row block of an evaluation; the public passes
called without one allocate one for that call. The set is its own
forward cache, under one rule: every forward pass records the layer
inputs (the batch and the hidden layers' post-ReLU outputs, which live
in the set's output arrays) in the set, so a backward pass propagates
the last forward through the set. The backward pass consumes the
record: it writes each hidden layer's delta over the activation it has
just read, so the set holds no per-layer delta, and a second backward
without a new forward raises. It
forms the input gradient and the parameter gradients only when asked for
them, and RMSProp updates parameters and state in place
(:func:`rmsprop_update`). Reusing storage that no two passes need at the
same time is the in-place memory planning of Chen et al. 2016 ("Training
Deep Nets with Sublinear Memory Cost"), without recomputation.

A row's output bits can depend on how many rows share its pass. OpenBLAS
computes the rows left over after its widest row panel with narrower
kernels, and numpy sends a one-row product through gemv instead of
gemm. Measured with OpenBLAS 0.3.31 (SkylakeX kernels, 2 threads) on
256-row batches: one-row blocks moved the last bit of most rows, 37-row
blocks moved it in up to 8 rows, and blocks of 16, 32, 64 or 100 rows
moved none.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

LR_FLOOR = 1e-8

SCHEDULE_MODES = ("total_decay", "per_interval")

# RMSProp's squared-gradient decay and denominator offset
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8


class NumericalError(RuntimeError):
    """A training step produced non-finite parameters or losses."""


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# what a value of each annotation takes (a bool is neither an int nor a
# float), the type it stores and what its error says it must be
_FIELD_TYPES = {
    "int": (is_integer, int, "must be an integer"),
    "float": (lambda v: is_integer(v) or isinstance(v, (float, np.floating)), float, "must be a real number"),
    "bool": (lambda v: isinstance(v, bool), bool, "must be true or false"),
    "str": (lambda v: isinstance(v, str), str, "must be a string"),
    "dict": (lambda v: isinstance(v, dict), dict, "must be a dict"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(is_integer(w) and w >= 1 for w in v),
                        lambda v: tuple(map(int, v)), "widths must be positive integers"),
    # the [x | y | z] block widths of a sample matrix
    "tuple[int, int, int]": (lambda v: isinstance(v, (list, tuple)) and len(v) == 3
                             and all(map(is_integer, v)) and min(v[:2]) >= 1 and v[2] >= 0,
                             lambda v: tuple(map(int, v)), "must be three integers, need dx >= 1, dy >= 1, dz >= 0"),
}


def typed_value(name: str, annotation: str, value, min=1, above=None, choices=None):
    """``value`` as the type ``annotation`` names (None where it ends in
    ``| None``); else a ValueError naming ``name``. An int must be at least
    ``min`` (1, 0, or None for no bound), a real given ``above`` finite and
    greater than it, and a value given ``choices`` one of them."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    takes, store, what = _FIELD_TYPES[kind]
    if not takes(value):
        raise ValueError(f"{name} {what}, got {value!r}")
    try:
        value = store(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} is out of range, got {value}") from None
    if choices is not None and value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")
    if kind == "int" and min is not None and value < min:
        raise ValueError(f"{name} must be {'positive' if min else 'non-negative'}, got {value}")
    if above is not None and not above < value < math.inf:
        bound = "positive and finite" if above == 0 else f"finite and exceed {above}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def check_fields(obj):
    """Store each field of the dataclass ``obj`` through :func:`typed_value`,
    with the ``min``, ``above`` and ``choices`` its metadata states."""
    for f in fields(obj):
        bounds = {key: f.metadata[key] for key in ("min", "above", "choices") if key in f.metadata}
        object.__setattr__(obj, f.name, typed_value(f.name, f.type, getattr(obj, f.name), **bounds))


@dataclass(frozen=True)
class MLPSpec:
    """Architecture of a dense network.

    Parameters
    ----------
    input_dim, output_dim : int
        Positive layer widths at the boundaries.
    hidden_dims : tuple of int
        Hidden-layer widths. May be empty, which degenerates to a single
        linear map (handy for identity sanity checks).
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        check_fields(self)

    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def num_params(self) -> int:
        dims = self.layer_dims()
        return sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))


@dataclass
class MLPParams:
    """Weights and biases of a dense network.

    ``weights[i]`` has shape ``(fan_in_i, fan_out_i)`` and ``biases[i]``
    shape ``(fan_out_i,)``. All entries stay finite; updates that would
    break that raise :class:`NumericalError`.
    """

    spec: MLPSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class MLPGrads:
    """Gradient bundle returned by :func:`mlp_backward`.

    ``weights``/``biases`` mirror :class:`MLPParams`; ``inputs`` is the
    gradient with respect to the input batch, which lets a caller chain
    one network through another (generator through regressor). It is
    ``None`` when the backward pass was asked not to form it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray | None = None


class MLPBuffers:
    """Arrays the passes of one network write into, for batches of up to
    ``rows`` rows, and the forward cache they hold.

    ``outputs[i]`` holds layer ``i``'s output, which a backward pass
    overwrites with the delta of the next layer's input; ``mask`` holds
    one hidden layer's ReLU mask at a time, flat, and ``input_grad`` the
    gradient with respect to the batch; ``weights``/``biases`` are the
    parameter gradients. A batch of ``m <= rows`` rows uses the first
    ``m`` rows of each array. ``layer_inputs`` records the layer inputs
    of the last forward pass through the set (the batch, then views of
    the hidden ``outputs``); the backward pass that consumes them leaves
    it empty.
    """

    def __init__(self, spec: MLPSpec, rows: int):
        dims = spec.layer_dims()
        self.rows = int(rows)
        self.outputs = [np.empty((self.rows, d)) for d in dims[1:]]
        self.mask = np.empty(self.rows * max(dims[1:-1], default=0), dtype=bool)
        self.input_grad = np.empty((self.rows, dims[0]))
        self.weights = [np.empty((a, b)) for a, b in zip(dims[:-1], dims[1:])]
        self.biases = [np.empty(d) for d in dims[1:]]
        self.layer_inputs: list[np.ndarray] = []


def mlp_init(spec: MLPSpec, seed: int) -> MLPParams:
    """Seeded uniform initialization.

    Weights are drawn from ``U(-sqrt(6/fan_in), +sqrt(6/fan_in))`` and
    biases start at zero. The same (spec, seed) pair always produces the
    same parameters bitwise.
    """
    rng = np.random.default_rng(seed)
    dims = spec.layer_dims()
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPParams(spec, weights, biases)


def _check_batch(params: MLPParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-d, got shape {batch.shape}")
    if batch.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"batch has {batch.shape[1]} columns, spec expects {params.spec.input_dim}"
        )
    return batch


def mlp_forward(
    params: MLPParams, batch: np.ndarray, *, buffers: MLPBuffers | None = None
) -> np.ndarray:
    """Evaluate the network on a batch, returning ``(n, output_dim)`` scores.

    The scores are a view into ``buffers`` (fresh ones when not given),
    and the pass leaves its forward cache there, for a backward pass
    through the same buffers (see :func:`mlp_forward_cached`).
    """
    return mlp_forward_cached(params, batch, buffers=buffers)[0]


def mlp_forward_cached(params: MLPParams, batch: np.ndarray, *, buffers: MLPBuffers | None = None):
    """Like :func:`mlp_forward` but returns ``(scores, buffers)``. The
    cache in ``buffers.layer_inputs`` holds the input of every layer
    (the batch, then each hidden layer's post-ReLU activations).

    Each layer's matmul writes into its output array in ``buffers``
    (fresh ones when not given), and the bias add and the ReLU then
    overwrite it in place; the caller's ``batch`` is never written. The
    cache feeds :func:`mlp_backward_cached`, which saves the training
    loops one redundant forward pass per update and consumes it; the next
    forward pass through the same buffers replaces it.
    """
    batch = _check_batch(params, batch)
    rows = batch.shape[0]
    if buffers is None:
        buffers = MLPBuffers(params.spec, rows)
    elif rows > buffers.rows:
        raise ValueError(f"batch of {rows} rows exceeds the buffers' {buffers.rows}")
    buffers.layer_inputs = [batch]
    h = batch
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=buffers.outputs[i][:rows])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            buffers.layer_inputs.append(h)
    return h, buffers


def mlp_backward_cached(
    params: MLPParams,
    buffers: MLPBuffers,
    upstream_grad: np.ndarray,
    *,
    input_grad: bool = True,
    param_grads: bool = True,
) -> MLPGrads:
    """Backward pass consuming the forward cache that the last forward
    pass through ``buffers`` recorded there.

    A hidden layer's cached post-ReLU output is read twice, for its
    weight gradient and for its ReLU mask (``> 0`` exactly where the
    pre-activation is), which goes into ``buffers.mask``; the delta of
    that layer's input is then written over it and masked in place. So
    the pass empties the cache, and a second backward without a new
    forward pass through ``buffers`` raises ``ValueError``: run the
    forward pass again. The batch (the cache's first entry) and
    ``upstream_grad`` are never written. With ``input_grad=False`` the
    pass stops before the input layer's ``delta @ W0.T`` and returns
    ``inputs=None``, for callers that only update the parameters; with
    ``param_grads=False`` it forms no weight or bias gradient and returns
    empty lists, for callers that only chain the input gradient into
    another network. The gradients are views into ``buffers``, valid
    until its next backward pass.
    """
    layer_inputs = buffers.layer_inputs
    if not layer_inputs:
        raise ValueError("a backward pass consumes its forward cache; run the forward pass again")
    upstream = np.asarray(upstream_grad, dtype=np.float64)
    rows = layer_inputs[0].shape[0]
    out_shape = (rows, params.spec.output_dim)
    if upstream.shape != out_shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match output {out_shape}"
        )
    buffers.layer_inputs = []
    n_layers = len(params.weights)
    g_w = buffers.weights if param_grads else []
    g_b = buffers.biases if param_grads else []
    delta = upstream
    for i in range(n_layers - 1, -1, -1):
        if param_grads:
            np.matmul(layer_inputs[i].T, delta, out=g_w[i])
            np.sum(delta, axis=0, out=g_b[i])
        if i == 0:
            if not input_grad:
                return MLPGrads(g_w, g_b)
            delta = np.matmul(delta, params.weights[0].T, out=buffers.input_grad[:rows])
        else:
            act = layer_inputs[i]
            mask = buffers.mask[: act.size].reshape(act.shape)
            np.greater(act, 0.0, out=mask)
            delta = np.matmul(delta, params.weights[i].T, out=act)
            np.multiply(delta, mask, out=delta)
    return MLPGrads(g_w, g_b, delta)


def mlp_backward(params: MLPParams, batch: np.ndarray, upstream_grad: np.ndarray) -> MLPGrads:
    """Exact gradients of ``sum_i <upstream_grad_i, output_i>``, from one
    buffer set that both passes write into.

    Parameters
    ----------
    params : MLPParams
    batch : ndarray, shape (n, input_dim)
    upstream_grad : ndarray, shape (n, output_dim)
        Per-sample gradient of the scalar loss with respect to the
        network output.

    Returns
    -------
    MLPGrads
        Weight/bias gradients shaped like ``params`` plus the gradient
        with respect to ``batch``.
    """
    _, buffers = mlp_forward_cached(params, batch)
    return mlp_backward_cached(params, buffers, upstream_grad)


def add_grads(a: MLPGrads, b: MLPGrads, *, out: MLPGrads | None = None) -> MLPGrads:
    """Sum two gradient bundles (e.g. joint-batch and product-batch terms).

    The weight and bias sums go into ``out``'s arrays when it is given (it
    may be ``a``), else into fresh ones.
    """
    if out is None:
        out = MLPGrads([np.empty_like(g) for g in a.weights], [np.empty_like(g) for g in a.biases])
    for ga, gb, go in zip(a.weights + a.biases, b.weights + b.biases, out.weights + out.biases):
        np.add(ga, gb, out=go)
    return out


@dataclass
class RMSPropState:
    """Per-parameter squared-gradient accumulators for RMSProp."""

    sq_weights: list[np.ndarray]
    sq_biases: list[np.ndarray]


def rmsprop_init(params: MLPParams) -> RMSPropState:
    return RMSPropState(
        [np.zeros_like(w) for w in params.weights], [np.zeros_like(b) for b in params.biases]
    )


def rmsprop_update(params: MLPParams, grads: MLPGrads, state: RMSPropState, lr: float):
    """One RMSProp update in place.

    ``a <- rho*a + (1-rho)*g^2`` then ``p <- p - lr*g/(sqrt(a)+eps)``
    with rho = :data:`RMSPROP_RHO` and eps = :data:`RMSPROP_EPS`, written
    into ``state``'s and ``params``' arrays; ``grads`` is only read.

    Raises
    ------
    NumericalError
        If any updated parameter is non-finite.
    """
    typed_value("learning rate", "float", lr, above=0)
    ps = params.weights + params.biases
    for p, g, acc in zip(ps, grads.weights + grads.biases, state.sq_weights + state.sq_biases):
        t = np.multiply(g, 1.0 - RMSPROP_RHO)
        t *= g
        acc *= RMSPROP_RHO
        acc += t
        np.sqrt(acc, out=t)
        t += RMSPROP_EPS
        step = np.multiply(g, lr)
        step /= t
        p -= step
    if not all(np.isfinite(p).all() for p in ps):
        raise NumericalError("RMSProp update produced non-finite parameters")


def rmsprop_step(
    params: MLPParams, grads: MLPGrads, state: RMSPropState, lr: float
) -> tuple[MLPParams, RMSPropState]:
    """One RMSProp update, pure: :func:`rmsprop_update` on copies of
    ``params`` and ``state``, which it returns; the inputs are never
    mutated.

    Raises
    ------
    NumericalError
        If any updated parameter is non-finite.
    """
    params, state = copy.deepcopy(params), copy.deepcopy(state)
    rmsprop_update(params, grads, state, lr)
    return params, state


@dataclass(frozen=True)
class ScheduleConfig:
    """Step-indexed learning-rate decay.

    ``total_decay`` (the default) spreads one full factor of
    ``decay_factor`` smoothly over ``total_steps``:
    ``lr(step) = initial_lr * decay_factor**(-completed/total_intervals)``
    with ``completed = floor(step/interval_steps)``, so the final step
    runs at ``initial_lr/decay_factor``.

    ``per_interval`` divides by the full factor at every interval
    boundary (``initial_lr * decay_factor**(-completed)``) and floors the
    result at 1e-8; over many intervals this effectively freezes
    training, which is why it is not the default.

    :func:`check_fields` checks each field: ``total_steps``, like
    ``interval_steps``, is an integer of at least 1 in either mode.
    """

    initial_lr: float = field(metadata={"above": 0})
    interval_steps: int
    decay_factor: float = field(metadata={"above": 1})
    mode: str = field(default="total_decay", metadata={"choices": SCHEDULE_MODES})
    total_steps: int = 30000

    def __post_init__(self):
        check_fields(self)


def lr_at(step: int, config: ScheduleConfig) -> float:
    """Learning rate for a 0-indexed training step."""
    if step < 0:
        raise ValueError("step must be non-negative")
    completed = step // config.interval_steps
    if config.mode == "total_decay":
        total_intervals = config.total_steps / config.interval_steps
        return config.initial_lr * config.decay_factor ** (-completed / total_intervals)
    lr = config.initial_lr * config.decay_factor ** (-float(completed))
    return max(lr, LR_FLOOR)


@dataclass
class GradCheckFailure:
    net_seed: int
    layer: int
    kind: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    """Outcome of the finite-difference gradient audit."""

    passed: bool
    num_nets: int
    worst_rel_err: float
    tol: float
    h: float
    failures: list[GradCheckFailure] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _random_small_spec(rng: np.random.Generator) -> MLPSpec:
    """A random architecture with at most 64 parameters."""
    while True:
        d_in = int(rng.integers(1, 5))
        d_out = int(rng.integers(1, 4))
        n_hidden = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(2, 6)) for _ in range(n_hidden))
        spec = MLPSpec(d_in, hidden, d_out)
        if spec.num_params <= 64:
            return spec


def _rel_err(a: float, f: float) -> float:
    return abs(a - f) / max(abs(a), abs(f), 1e-2)


def gradient_check(
    num_nets: int = 100,
    seed: int = 0,
    h: float = 1e-4,
    tol: float = 1e-4,
    backward_fn=None,
) -> GradCheckReport:
    """Compare :func:`mlp_backward` against central finite differences.

    Checks every weight and bias of ``num_nets`` random small networks
    (<= 64 parameters each) on the scalar loss
    ``L = sum_i <u_i, f(batch)_i>`` with a fixed random ``u``. Networks
    whose pre-activations sit within 5e-3 of a ReLU kink are re-drawn, so
    the central difference never straddles a non-smooth point.

    ``backward_fn`` exists for fault injection in tests; it defaults to
    :func:`mlp_backward`. A check needs ``num_nets >= 1``, a non-negative
    ``seed`` and a finite, positive ``h`` and ``tol``; any error that is
    not below ``tol``, NaN included, is a failure.
    """
    num_nets = typed_value("num_nets", "int", num_nets)
    seed = typed_value("seed", "int", seed, min=0)
    h, tol = typed_value("h", "float", h, above=0), typed_value("tol", "float", tol, above=0)
    if backward_fn is None:
        backward_fn = mlp_backward
    worst = 0.0
    failures: list[GradCheckFailure] = []
    for net_idx in range(num_nets):
        for attempt in range(50):
            net_seed = seed + 1000 * net_idx + attempt
            rng = np.random.default_rng(net_seed)
            spec = _random_small_spec(rng)
            params = mlp_init(spec, seed=int(rng.integers(2**31)))
            batch = rng.normal(size=(int(rng.integers(2, 6)), spec.input_dim))
            upstream = rng.normal(size=(batch.shape[0], spec.output_dim))
            ins = mlp_forward_cached(params, batch)[1].layer_inputs
            hidden = zip(ins, params.weights[:-1], params.biases[:-1])
            margin = min((float(np.abs(x @ w + b).min()) for x, w, b in hidden), default=1.0)
            if margin > 5e-3:
                break
        grads = backward_fn(params, batch, upstream)

        def loss(p: MLPParams) -> float:
            return float(np.sum(mlp_forward(p, batch) * upstream))

        for layer in range(len(params.weights)):
            for kind, arr, g_arr in (
                ("weight", params.weights[layer], grads.weights[layer]),
                ("bias", params.biases[layer], grads.biases[layer]),
            ):
                it = np.nditer(arr, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss(params)
                    arr[idx] = orig - h
                    down = loss(params)
                    arr[idx] = orig
                    numeric = (up - down) / (2.0 * h)
                    analytic = float(g_arr[idx])
                    err = _rel_err(analytic, numeric)
                    worst = float(np.maximum(worst, err))  # keeps a NaN
                    if not err < tol:
                        failures.append(
                            GradCheckFailure(net_seed, layer, kind, idx, analytic, numeric, err)
                        )
                    it.iternext()
    return GradCheckReport(
        passed=not failures,
        num_nets=num_nets,
        worst_rel_err=worst,
        tol=tol,
        h=h,
        failures=failures,
    )
