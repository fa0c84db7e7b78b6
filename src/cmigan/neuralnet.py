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
called without one allocate one for that call. A forward cache holds
only the layer inputs (the hidden ones post-ReLU, in the buffers' output
arrays), so it is valid only until the next forward pass through the
same buffers. The backward pass forms the input gradient and the
parameter gradients only when asked for them, and RMSProp updates
parameters and state in place (:func:`rmsprop_update`).

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
from dataclasses import dataclass, field

import numpy as np

LR_FLOOR = 1e-8

_SCHEDULE_MODES = ("total_decay", "per_interval")


class NumericalError(RuntimeError):
    """A training step produced non-finite parameters or losses."""


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
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) != d or d < 1 for d in dims):
            raise ValueError(f"layer widths must be positive integers, got {dims}")

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
    ``rows`` rows.

    ``outputs[i]`` holds layer ``i``'s output, ``masks[i]`` the ReLU mask
    of hidden layer ``i``, ``deltas[i]`` the gradient with respect to
    layer ``i``'s input and ``weights``/``biases`` the parameter
    gradients. A batch of ``m <= rows`` rows uses the first ``m`` rows of
    each array. A forward pass overwrites ``outputs``, so its cache is
    valid only until the next forward pass through the same buffers; a
    backward pass overwrites the rest.
    """

    def __init__(self, spec: MLPSpec, rows: int):
        dims = spec.layer_dims()
        self.rows = int(rows)
        self.outputs = [np.empty((self.rows, d)) for d in dims[1:]]
        self.masks = [np.empty((self.rows, d), dtype=bool) for d in dims[1:-1]]
        self.deltas = [np.empty((self.rows, d)) for d in dims[:-1]]
        self.weights = [np.empty((a, b)) for a, b in zip(dims[:-1], dims[1:])]
        self.biases = [np.empty(d) for d in dims[1:]]


def _buffers_for(params: MLPParams, rows: int, buffers: MLPBuffers | None) -> MLPBuffers:
    """``buffers`` when they hold ``rows`` rows; fresh ones for one call when none are given."""
    if buffers is None:
        return MLPBuffers(params.spec, rows)
    if rows > buffers.rows:
        raise ValueError(f"batch of {rows} rows exceeds the buffers' {buffers.rows}")
    return buffers


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

    The scores are a view into ``buffers`` (fresh ones when not given).
    """
    return mlp_forward_cached(params, batch, buffers=buffers)[0]


def mlp_forward_cached(params: MLPParams, batch: np.ndarray, *, buffers: MLPBuffers | None = None):
    """Like :func:`mlp_forward` but also returns the activation cache: the
    input of every layer (the batch, then each hidden layer's post-ReLU
    activations).

    Each layer's matmul writes into its output array in ``buffers``, and
    the bias add and the ReLU then overwrite it in place; the caller's
    ``batch`` is never written. The cache feeds
    :func:`mlp_backward_cached`, which saves the training loops one
    redundant forward pass per update, and is valid until the next
    forward pass through the same buffers.
    """
    batch = _check_batch(params, batch)
    rows = batch.shape[0]
    buffers = _buffers_for(params, rows, buffers)
    layer_inputs = [batch]
    h = batch
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, w, out=buffers.outputs[i][:rows])
        h += b
        if i < last:
            np.maximum(h, 0.0, out=h)
            layer_inputs.append(h)
    return h, layer_inputs


def mlp_backward_cached(
    params: MLPParams,
    cache,
    upstream_grad: np.ndarray,
    *,
    input_grad: bool = True,
    param_grads: bool = True,
    buffers: MLPBuffers | None = None,
) -> MLPGrads:
    """Backward pass reusing the cache from :func:`mlp_forward_cached`.

    The ReLU mask of a hidden layer is read off its cached post-ReLU
    output (``> 0`` exactly where the pre-activation is) and applied in
    place to the propagated delta. With ``input_grad=False`` the pass
    stops before the input layer's ``delta @ W0.T`` and returns
    ``inputs=None``, for callers that only update the parameters; with
    ``param_grads=False`` it forms no weight or bias gradient and
    returns empty lists, for callers that only chain the input gradient
    into another network. The gradients are views into ``buffers``
    (fresh ones when not given), valid until its next backward pass.
    """
    layer_inputs = cache
    upstream = np.asarray(upstream_grad, dtype=np.float64)
    rows = layer_inputs[0].shape[0]
    out_shape = (rows, params.spec.output_dim)
    if upstream.shape != out_shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match output {out_shape}"
        )
    buffers = _buffers_for(params, rows, buffers)
    n_layers = len(params.weights)
    g_w = buffers.weights if param_grads else []
    g_b = buffers.biases if param_grads else []
    delta = upstream
    for i in range(n_layers - 1, -1, -1):
        if param_grads:
            np.matmul(layer_inputs[i].T, delta, out=g_w[i])
            np.sum(delta, axis=0, out=g_b[i])
        if i == 0 and not input_grad:
            return MLPGrads(g_w, g_b)
        delta = np.matmul(delta, params.weights[i].T, out=buffers.deltas[i][:rows])
        if i > 0:
            mask = np.greater(layer_inputs[i], 0.0, out=buffers.masks[i - 1][:rows])
            np.multiply(delta, mask, out=delta)
    return MLPGrads(g_w, g_b, delta)


def mlp_backward(params: MLPParams, batch: np.ndarray, upstream_grad: np.ndarray) -> MLPGrads:
    """Exact gradients of ``sum_i <upstream_grad_i, output_i>``.

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
    _, cache = mlp_forward_cached(params, batch)
    return mlp_backward_cached(params, cache, upstream_grad)


def add_grads(a: MLPGrads, b: MLPGrads, *, out: MLPGrads | None = None) -> MLPGrads:
    """Sum two gradient bundles (e.g. joint-batch and product-batch terms).

    The weight and bias sums go into ``out``'s arrays when it is given (it
    may be ``a``), else into fresh ones. The input gradients are summed
    when both are present with one shape; otherwise the result keeps
    ``a.inputs`` (``None`` when ``a`` has none).
    """
    if out is None:
        out = MLPGrads([np.empty_like(g) for g in a.weights], [np.empty_like(g) for g in a.biases])
    for ga, gb, go in zip(a.weights + a.biases, b.weights + b.biases, out.weights + out.biases):
        np.add(ga, gb, out=go)
    inputs = a.inputs
    if inputs is not None and b.inputs is not None and inputs.shape == b.inputs.shape:
        inputs = inputs + b.inputs
    out.inputs = inputs
    return out


@dataclass
class RMSPropState:
    """Per-parameter squared-gradient accumulators for RMSProp."""

    sq_weights: list[np.ndarray]
    sq_biases: list[np.ndarray]
    rho: float = 0.9
    eps: float = 1e-8


def rmsprop_init(params: MLPParams, rho: float = 0.9, eps: float = 1e-8) -> RMSPropState:
    return RMSPropState(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
        rho=float(rho),
        eps=float(eps),
    )


def rmsprop_update(params: MLPParams, grads: MLPGrads, state: RMSPropState, lr: float):
    """One RMSProp update in place.

    ``a <- rho*a + (1-rho)*g^2`` then ``p <- p - lr*g/(sqrt(a)+eps)``,
    written into ``state``'s and ``params``' arrays; ``grads`` is only
    read.

    Raises
    ------
    NumericalError
        If any updated parameter is non-finite.
    """
    if lr <= 0 or not math.isfinite(lr):
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    rho, eps = state.rho, state.eps
    ps = params.weights + params.biases
    for p, g, acc in zip(ps, grads.weights + grads.biases, state.sq_weights + state.sq_biases):
        t = np.multiply(g, 1.0 - rho)
        t *= g
        acc *= rho
        acc += t
        np.sqrt(acc, out=t)
        t += eps
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
    """

    initial_lr: float
    interval_steps: int
    decay_factor: float
    mode: str = "total_decay"
    total_steps: int = 30000

    def __post_init__(self):
        if self.initial_lr <= 0:
            raise ValueError("initial_lr must be positive")
        if self.interval_steps < 1:
            raise ValueError("interval_steps must be a positive integer")
        if self.decay_factor <= 1:
            raise ValueError("decay_factor must exceed 1")
        if self.mode not in _SCHEDULE_MODES:
            raise ValueError(f"mode must be one of {_SCHEDULE_MODES}, got {self.mode!r}")
        if self.mode == "total_decay" and self.total_steps < 1:
            raise ValueError("total_steps must be positive for total_decay")


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
        return {
            "passed": self.passed,
            "num_nets": self.num_nets,
            "worst_rel_err": self.worst_rel_err,
            "tol": self.tol,
            "h": self.h,
            "failures": [vars(f) | {"index": list(f.index)} for f in self.failures],
        }


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
    :func:`mlp_backward`.
    """
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
            _, ins = mlp_forward_cached(params, batch)
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
                    worst = max(worst, err)
                    if err >= tol:
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
