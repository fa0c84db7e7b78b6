"""MI/CMI estimators built on one adversarial min-max training loop.

Every network estimator plays the same game. A critic (regression
network) maximizes a variational lower bound that separates joint
samples ``(x, y, z)`` from product samples in which one block is
replaced; a generator makes the replacement and minimizes the same
bound, so at the saddle point the bound is the (conditional) mutual
information. One loop, ``_train_run``, plays it for every network id;
an id's row of the ``_GAMES`` table fixes its dz rule and three entries
of the game:

- the swapped block: ``y`` (cmigan, migan, fmine) or ``x`` (midiffgan,
  midiff-fmine);
- the blocks each critic reads: ``(x, y, z)``, plus ``(x, z)`` entering
  with sign -1 for midiffgan and midiff-fmine, whose estimate is the
  difference ``I(X;(Y,Z)) - I(X;Z)`` of the two critics' bounds;
- what the generator is conditioned on: ``z`` (cmigan; migan is the same
  game with an empty ``z``), nothing (midiffgan), or no generator at all
  (fmine, midiff-fmine), in which case a within-batch permutation of the
  swapped block makes the product and each critic maximizes the
  f-divergence bound.

Each training step makes ``reg_training_ratio`` critic updates (one
without a generator), then one generator update that reuses the last
critic batch's unswapped blocks (x and z for cmigan) with fresh noise.
``ksg`` is the kNN baseline; :func:`estimate` checks the dz rule of an
id and the rows it needs, standardizes the data and dispatches by the id.
"""

from __future__ import annotations

import ctypes
import dataclasses
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    ScorePair,
    dv_objective,
    fdiv_objective,
    fdiv_product_grad,
    log_mean_exp,
    softmax_weights,
)
from .knn import KSGConfig, ksg_cmi_result, ksg_mi_result
# perfbench's tracer wraps the passes, add_grads and rmsprop_step by
# their names in this module, so they stay imported here even where the
# training loop calls mlp_forward and the in-place rmsprop_update instead
from .neuralnet import (
    SCHEDULE_MODES,
    MLPBuffers,
    MLPGrads,
    MLPSpec,
    NumericalError,
    ScheduleConfig,
    add_grads,
    check_fields,
    lr_at,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    rmsprop_init,
    rmsprop_step,
    rmsprop_update,
    typed_value,
)

log = logging.getLogger(__name__)

@dataclass
class SampleSet:
    """An (n, dx+dy+dz) data matrix with columns ordered [x | y | z].

    ``dz = 0`` marks unconditional (plain MI) data. All entries must be
    finite float64.
    """

    data: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.dims = typed_value("dims", "tuple[int, int, int]", self.dims)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {self.data.shape}")
        if (width := sum(self.dims)) != self.data.shape[1]:
            raise ValueError(f"dims {self.dims} sum to {width}, data has {self.data.shape[1]} columns")
        if not np.isfinite(self.data).all():
            raise ValueError("data contains non-finite values")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dx(self) -> int:
        return self.dims[0]

    @property
    def dy(self) -> int:
        return self.dims[1]

    @property
    def dz(self) -> int:
        return self.dims[2]

    @property
    def x(self) -> np.ndarray:
        return self.data[:, : self.dx]

    @property
    def y(self) -> np.ndarray:
        return self.data[:, self.dx : self.dx + self.dy]

    @property
    def z(self) -> np.ndarray:
        return self.data[:, self.dx + self.dy :]

    def standardized(self) -> "SampleSet":
        """Per-column z-scoring; constant columns are only centred. Each
        column is first scaled exactly by the power of two that brings its
        largest |value| into [0.5, 1), so no square in the std overflows."""
        data = self.data
        _, exp = np.frexp(np.maximum(data.max(axis=0), -data.min(axis=0)))
        scaled = np.ldexp(data, -exp)
        sd = scaled.std(axis=0)
        scaled -= scaled.mean(axis=0)
        scaled /= np.where(sd > 0.0, sd, 1.0)
        return SampleSet(scaled, self.dims)


def _flag(default, flag: str, doc: str | None = None, **extra):
    """A config field set by the CLI flag ``flag`` with help text ``doc``;
    ``extra`` holds the field's ``min``, ``above`` or ``choices`` (see
    :func:`check_fields`), and the flag takes the same ``choices``."""
    return field(default=default, metadata={"flag": flag, "help": doc, **extra})


@dataclass(frozen=True)
class EstimatorConfig:
    """Training hyperparameters for the adversarial estimators.

    Defaults follow the reference estimation setup: regression network
    (128, 32), generator (256, 64), batch 4096, 30000 steps with the
    initial rate 5e-5 decayed by a total factor of 10 over the run.
    ``cit_defaults`` switches to the conditional-independence-testing
    setup (deeper nets, lr 1e-3, 10000 steps). ``noise_dim = None``
    means "match the generator output width".

    Each field is stated once, here. ``__post_init__`` checks its value
    against the type its annotation names and the bounds its metadata
    states (see :func:`check_fields`); an int is at least 1 unless its
    ``min`` says 0. The ``flag`` in a field's metadata is the CLI flag
    that sets it.
    """

    reg_hidden: tuple[int, ...] = _flag((128, 32), "--reg-hidden", "regression net hidden widths, e.g. 128,32")
    gen_hidden: tuple[int, ...] = _flag((256, 64), "--gen-hidden", "generator hidden widths, e.g. 256,64")
    batch_size: int = _flag(4096, "--batch-size")
    training_steps: int = _flag(30000, "--steps", "training steps per run")
    reg_training_ratio: int = _flag(2, "--ratio", "regressor updates per generator update")
    noise_dim: int | None = _flag(None, "--noise-dim")
    runs: int = _flag(1, "--runs", "independent training runs (default: 1)")
    seed: int = _flag(0, "--seed", "base seed (default: 0); run r uses seed+r", min=0)
    eval_passes: int = _flag(10, "--eval-passes")
    initial_lr: float = _flag(5e-5, "--lr", "initial learning rate", above=0)
    lr_interval_steps: int = _flag(1000, "--lr-interval", "steps per decay interval")
    lr_decay_factor: float = _flag(10.0, "--lr-decay", "total decay factor", above=1)
    lr_mode: str = _flag("total_decay", "--lr-mode", choices=SCHEDULE_MODES)
    standardize: bool = True
    record_trace: bool = False

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def cit_defaults(cls, **overrides) -> "EstimatorConfig":
        base = dict(
            reg_hidden=(128, 32, 8),
            gen_hidden=(128, 64, 16),
            initial_lr=1e-3,
            training_steps=10000,
        )
        base.update(overrides)
        return cls(**base)

    def schedule(self) -> ScheduleConfig:
        return ScheduleConfig(
            initial_lr=self.initial_lr,
            interval_steps=self.lr_interval_steps,
            decay_factor=self.lr_decay_factor,
            mode=self.lr_mode,
            total_steps=self.training_steps,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["reg_hidden"] = list(self.reg_hidden)
        d["gen_hidden"] = list(self.gen_hidden)
        return d


@dataclass
class EstimateReport:
    """Aggregated outcome of N training runs.

    ``per_run`` holds the successful runs' estimates in run order, and
    ``failed_runs`` one record (run, seed, reason) per failed run, which
    ``mean``/``std`` exclude. ``std`` is the sample standard deviation
    (0.0 when fewer than two runs survive).
    """

    estimator: str
    per_run: list[float]
    mean: float
    std: float
    failed_runs: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def all_failed(self) -> bool:
        """No estimate: every run failed or the mean is not finite."""
        return not self.per_run or not np.isfinite(self.mean)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _finite(value, what: str, step: int):
    """``value`` (a loss or a score array) if it is all finite. A wild
    learning rate can overflow the forward pass while the parameters are
    still finite, which counts as a failed run, not a caller error."""
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} became non-finite at step {step}")
    return value


class _Net:
    """A network's parameters, its RMSProp state and the arrays of its
    passes, allocated once for the run's batch size: one input array and
    the :class:`MLPBuffers` that every pass writes into. The buffers hold
    the net's one forward cache: every forward records it there and the
    backward consumes it, so a backward propagates the net's last
    forward. A critic also keeps ``joint_grads``, a params-sized array
    set for its joint pass's gradients while its product pass reuses the
    buffers."""

    def __init__(self, spec: MLPSpec, seed: int, cfg: EstimatorConfig, critic: bool):
        self.params = mlp_init(spec, seed)
        self.state = rmsprop_init(self.params)
        self.inputs = np.empty((cfg.batch_size, spec.input_dim))
        self.buffers = MLPBuffers(spec, cfg.batch_size)
        if critic:
            self.joint_grads = MLPGrads(
                [np.empty_like(w) for w in self.params.weights],
                [np.empty_like(b) for b in self.params.biases],
            )


# network id -> (swapped block, critics as (blocks read, sign), blocks
# the generator is conditioned on, whether its data must have a
# conditioning block: dz >= 1 or dz == 0). A conditioning of None means
# no generator: the product permutes the swapped block within the batch
# and each critic maximizes the f-divergence bound instead of the DV
# bound. ksg takes either dz and picks its form from it.
_GAMES = {
    "cmigan": ("y", (("xyz", 1),), "z", True),
    "migan": ("y", (("xyz", 1),), "z", False),
    "midiffgan": ("x", (("xyz", 1), ("xz", -1)), "", True),
    "fmine": ("y", (("xyz", 1),), None, False),
    "midiff-fmine": ("x", (("xyz", 1), ("xz", -1)), None, True),
}

ESTIMATOR_IDS = (*_GAMES, "ksg")


def check_rows(estimator: str, samples: SampleSet, cfg: EstimatorConfig, ksg_config: KSGConfig | None = None):
    """Raise ``ValueError`` unless ``estimator`` is a known id whose dz rule
    ``samples`` meet, with enough rows: more than k+1 for ``ksg``, one
    batch for a network id (which warns below two)."""
    if estimator not in ESTIMATOR_IDS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_IDS}")
    needs_z, n = (_GAMES[estimator][3] if estimator in _GAMES else None), samples.n
    if needs_z is not None and (samples.dz >= 1) != needs_z:
        rule = "dz >= 1" if needs_z else "dz == 0"
        raise ValueError(f"{estimator} needs data with {rule}, got dz={samples.dz}")
    if estimator == "ksg":
        k = (ksg_config or KSGConfig()).k
        if n <= k + 1:
            raise ValueError(f"need more than k+1={k + 1} samples, got {n}")
    elif cfg.batch_size > n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds sample count {n}")
    elif n < 2 * cfg.batch_size:
        log.warning("n=%d is below the recommended 2*batch_size=%d", n, 2 * cfg.batch_size)


def _prepare(estimator: str, samples: SampleSet, cfg: EstimatorConfig, ksg_config: KSGConfig | None = None):
    """``samples`` once :func:`check_rows` passes them, z-scored if ``cfg.standardize``."""
    check_rows(estimator, samples, cfg, ksg_config)
    return samples.standardized() if cfg.standardize else samples


def _total(terms: list):
    """``terms[0] + terms[1] + ...``; a sum starting from 0.0 would turn a
    lone -0.0 into 0.0."""
    return sum(terms[1:], terms[0])


def _critic_step(net: _Net, joint_input, product_input, fdiv: bool, label: str, lr: float, step: int):
    """One critic update on a joint and a product batch, which
    ``joint_input()`` and ``product_input()`` write into the critic's
    input array. The passes share the critic's one buffer set, in the
    order joint forward, joint backward, product forward, product
    backward: every forward leaves its cache in the set, and each
    backward consumes the one the forward before it left. The joint
    gradients wait in ``net.joint_grads`` and the joint scores in a copy.
    Returns the loss (the negated objective) and the number of clamped
    product scores, which only the f-divergence objective has."""
    params, buf, joint_grads = net.params, net.buffers, net.joint_grads
    s_joint = mlp_forward(params, joint_input(), buffers=buf)
    s_joint = _finite(s_joint, "joint scores", step).copy()
    b = s_joint.shape[0]
    grads = mlp_backward_cached(params, buf, np.full((b, 1), -1.0 / b), input_grad=False)
    for acc, g in zip(joint_grads.weights + joint_grads.biases, grads.weights + grads.biases):
        np.copyto(acc, g)
    s_prod = mlp_forward(params, product_input(), buffers=buf)
    _finite(s_prod, "product scores", step)
    clamp_hits = 0
    if fdiv:
        loss = _finite(-fdiv_objective(ScorePair(s_joint.ravel(), s_prod.ravel())), label, step)
        g_prod, clamp_hits = fdiv_product_grad(s_prod.ravel())
    else:
        loss = _finite(-float(s_joint.mean()) + log_mean_exp(s_prod), label, step)
        g_prod = softmax_weights(s_prod.ravel())
    grads_prod = mlp_backward_cached(params, buf, g_prod[:, None], input_grad=False)
    rmsprop_update(params, add_grads(joint_grads, grads_prod, out=joint_grads), net.state, lr)
    return loss, clamp_hits


def _train_run(
    kind: str, data: np.ndarray, dims: tuple[int, int, int], cfg: EstimatorConfig, seed: int
) -> tuple[float, dict]:
    """One training run of the network estimator ``kind`` (a key of
    ``_GAMES``). Returns (estimate, diagnostics).

    The run draws the critic initializations, then the generator's, from
    one PCG64 stream seeded with ``seed``. Each training step makes
    ``reg_training_ratio`` critic updates (one without a generator), each
    on a fresh batch of ``permutation(n)[:b]`` rows whose product sample
    swaps in generated rows (fresh noise) or the batch's own rows under
    ``permutation(b)``; every critic trains on the same batch. The
    generator step then reuses the last critic batch's unswapped blocks
    (x and z for cmigan) with fresh noise, and descends the signed sum of
    the critics' log-mean-exp terms.
    The estimate averages ``eval_passes`` signed sums of the objectives on
    all n rows, each pass with a fresh product sample.

    Every batch-sized array is allocated once per run: the gathered
    batch, the noise or permuted block, each network's inputs and
    buffers. The evaluation runs the n rows through the same arrays in
    blocks of ``b`` rows, so besides the data only the eval noise or
    permutation and the per-row scores grow with n. A row's score can
    differ in the last bit from the one a single whole-n pass would give,
    since BLAS rounds some row counts differently (a one-row last block
    goes through gemv; see :mod:`cmigan.neuralnet`).
    """
    swap, critic_table, cond, _ = _GAMES[kind]
    rng = np.random.default_rng(seed)
    n, b, last = data.shape[0], cfg.batch_size, cfg.training_steps
    dx, dy, _ = dims
    span = {"x": slice(0, dx), "y": slice(dx, dx + dy), "z": slice(dx + dy, data.shape[1])}
    width = {key: cut.stop - cut.start for key, cut in span.items()}
    d_noise = cfg.noise_dim if cfg.noise_dim is not None else width[swap]

    def cols(blocks: str) -> int:
        return sum(width[key] for key in blocks)

    def net(d_in: int, hidden: tuple[int, ...], d_out: int, critic: bool) -> _Net:
        return _Net(MLPSpec(d_in, hidden, d_out), int(rng.integers(2**63)), cfg, critic)

    critics = [net(cols(blocks), cfg.reg_hidden, 1, True) for blocks, _ in critic_table]
    gen = None if cond is None else net(d_noise + cols(cond), cfg.gen_hidden, width[swap], False)
    signs = [sign for _, sign in critic_table]
    names = ("first ", "second ") if len(critics) > 1 else ("",)
    batch = np.empty((b, data.shape[1]))
    noise = None if gen is None else np.empty((b, d_noise))
    permuted = np.empty((b, width[swap])) if gen is None else None

    def stack(parts: list, out: np.ndarray) -> np.ndarray:
        return np.concatenate(parts, axis=1, out=out[: parts[0].shape[0]])

    def product(rows: np.ndarray, swapped: np.ndarray, blocks: str, out: np.ndarray):
        return stack([swapped if key == swap else rows[:, span[key]] for key in blocks], out)

    def draw(count: int, out: np.ndarray | None) -> np.ndarray:
        """Fresh randomness for ``count`` product rows: a permutation of
        the rows without a generator, else noise written into ``out``."""
        return rng.permutation(count) if gen is None else rng.standard_normal(out=out)

    def swapped_block(rows: np.ndarray, pick: np.ndarray, source: np.ndarray) -> np.ndarray:
        """The block swapped into the product sample of ``rows``: the rows
        ``pick`` of ``source``'s swapped block, or the generator's output
        on the noise ``pick`` and ``rows``' conditioning blocks, whose
        forward cache the generator step backpropagates."""
        if gen is None:
            out = permuted[: len(pick)]
            return np.take(source[:, span[swap]], pick, axis=0, out=out, mode="clip")
        inputs = stack([pick] + [rows[:, span[key]] for key in cond], gen.inputs)
        return mlp_forward(gen.params, inputs, buffers=gen.buffers)

    sched = cfg.schedule()
    trace = [] if cfg.record_trace else None
    losses = [float("nan")] * len(critics)
    l_gen = float("nan")
    clamp_hits = 0

    for step in range(last):
        lr = lr_at(step, sched)
        for _ in range(cfg.reg_training_ratio if gen is not None else 1):
            rows = np.take(data, rng.permutation(n)[:b], axis=0, out=batch, mode="clip")
            swapped = swapped_block(rows, draw(b, noise), rows)
            for i, (critic, (blocks, _)) in enumerate(zip(critics, critic_table)):
                label = names[i] + ("critic loss" if gen is None else "regression loss")
                losses[i], hits = _critic_step(
                    critic,
                    lambda: product(rows, rows[:, span[swap]], blocks, critic.inputs),
                    lambda: product(rows, swapped, blocks, critic.inputs),
                    gen is None, label, lr, step,
                )
                clamp_hits += hits

        if gen is not None:
            swapped = swapped_block(rows, draw(b, noise), rows)
            terms, d_swapped = [], []
            for i, (critic, (blocks, sign)) in enumerate(zip(critics, critic_table)):
                prod_in = product(rows, swapped, blocks, critic.inputs)
                s = mlp_forward(critic.params, prod_in, buffers=critic.buffers)
                _finite(s, f"{names[i]}product scores", step)
                terms.append(-sign * log_mean_exp(s))
                d_scores = -sign * softmax_weights(s.ravel())[:, None]
                d_in = mlp_backward_cached(critic.params, critic.buffers, d_scores, param_grads=False)
                start = cols(blocks[: blocks.index(swap)])
                d_swapped.append(d_in.inputs[:, start : start + width[swap]])
            l_gen = _finite(_total(terms), "generator loss", step)
            d_gen = _total(d_swapped)
            grads = mlp_backward_cached(gen.params, gen.buffers, d_gen, input_grad=False)
            rmsprop_update(gen.params, grads, gen.state, lr)
        if trace is not None:
            trace.append((step, _total(losses), l_gen))

    def scores(what: str, picks: np.ndarray | None = None) -> list:
        """Every critic's ``what``, checked finite, on the n rows in blocks
        of ``b``: joint scores, or, given a pass's ``picks``, product
        scores of the rows with their swapped block drawn from ``picks``."""
        out = [np.empty(n) for _ in critics]
        for start in range(0, n, b):
            rows = data[start : start + b]
            # the joint sample is the product sample that swaps in the rows' own block
            swapped = rows[:, span[swap]] if picks is None else swapped_block(rows, picks[start : start + b], data)
            for critic, (blocks, _), s in zip(critics, critic_table, out):
                inputs = product(rows, swapped, blocks, critic.inputs)
                s[start : start + len(rows)] = mlp_forward(critic.params, inputs, buffers=critic.buffers).ravel()
        return [_finite(s, what, last) for s in out]

    joint_scores = scores("joint scores")
    objective = fdiv_objective if gen is None else dv_objective
    eval_noise = None if gen is None else np.empty((n, d_noise))
    eval_values = []
    for _ in range(cfg.eval_passes):
        prod_scores = scores("product scores", draw(n, eval_noise))
        eval_values.append(_total([sign * objective(ScorePair(s_joint, s_prod))
                                   for sign, s_joint, s_prod in zip(signs, joint_scores, prod_scores)]))
    estimate = _finite(float(np.mean(eval_values)), "final estimate", last)

    diag = {"seed": seed, "final_reg_loss": _total(losses)}
    if gen is not None:
        diag["final_gen_loss"] = l_gen
    diag["last_batch_estimate"] = _total([-sign * loss for sign, loss in zip(signs, losses)])
    if gen is None:
        diag["clamp_warnings"] = clamp_hits
    diag["eval_values"] = eval_values
    if trace is not None:
        diag["trace"] = trace
    return estimate, diag


def _openblas(function: str) -> list:
    """The ``function`` (e.g. ``set_num_threads``) of every OpenBLAS
    loaded in this process, found by one scan of its memory map."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return []
    names = [f"{p}_{function}{s}" for s in ("64_", "") for p in ("scipy_openblas", "openblas")]
    return [getattr(lib, name) for lib in libs for name in names if hasattr(lib, name)]


def _blas_thread_setters() -> list:
    """``set_num_threads`` of every OpenBLAS loaded in this process."""
    return _openblas("set_num_threads")


def blas_core() -> str | None:
    """The kernel that the first OpenBLAS found in this process picked
    for this CPU (e.g. ``SkylakeX``), or None without one. The goldens'
    last bits belong to that kernel."""
    for corename in _openblas("get_corename"):
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _one_blas_thread():
    """Worker initializer: this process's BLAS runs on one thread."""
    for setter in _blas_thread_setters():
        setter(1)


def _parallel_map(fn, tasks: list, jobs: int | None) -> list:
    """``[fn(*t) for t in tasks]``, in task order, over ``min(jobs,
    len(tasks))`` worker processes (None: the usable CPUs) that each run
    one BLAS thread. With one worker, in a daemonic process (which may
    not start children), or with no OpenBLAS thread setter to call, it
    runs here: workers keeping the default BLAS threads oversubscribe
    the cores."""
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(jobs, len(tasks))
    if workers <= 1 or multiprocessing.current_process().daemon or not _blas_thread_setters():
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(workers, initializer=_one_blas_thread) as pool:
        return [f.result() for f in [pool.submit(fn, *t) for t in tasks]]


def _single_run(kind: str, data, dims, cfg: EstimatorConfig, run_index: int):
    """Top-level per-run entry (picklable for process pools)."""
    seed = cfg.seed + run_index
    try:
        estimate, diag = _train_run(kind, data, dims, cfg, seed)
        result = estimate, diag, None
    except NumericalError as exc:
        result = None, None, {"run": run_index, "seed": seed, "reason": str(exc)}
    log.info("%s run %d/%d done", kind, run_index + 1, cfg.runs)
    return result


def _run_many(estimator: str, sets: list[SampleSet], cfg: EstimatorConfig, jobs: int | None) -> list:
    """A report per prepared set in ``sets``: the network id's runs of
    every set, one task each, all in one task list. Run r uses seed
    ``seed + r``; a failed run has one failure record and no diagnostics."""
    tasks = [(estimator, s.data, s.dims, cfg, r) for s in sets for r in range(cfg.runs)]
    results = iter(_parallel_map(_single_run, tasks, jobs))
    sched = cfg.schedule()
    reports = []
    for _ in sets:
        runs = [next(results) for _ in range(cfg.runs)]
        run_diags = [diag for _, diag, failure in runs if failure is None]
        diagnostics = {
            "runs": run_diags,
            "lr": {"first": lr_at(0, sched), "last": lr_at(cfg.training_steps - 1, sched)},
            "clamp_warnings": sum(d.get("clamp_warnings", 0) for d in run_diags),
        }
        per_run = [est for est, _, failure in runs if failure is None]
        failures = [failure for *_, failure in runs if failure is not None]
        reports.append(_report(estimator, per_run, failures, diagnostics))
    return reports


def _report(estimator: str, per_run: list[float], failures: list[dict], diagnostics: dict):
    """An :class:`EstimateReport` with the mean and sample std of ``per_run``."""
    mean = float(np.mean(per_run)) if per_run else float("nan")
    std = float(np.std(per_run, ddof=1)) if len(per_run) > 1 else (0.0 if per_run else float("nan"))
    return EstimateReport(estimator, per_run, mean, std, failures, diagnostics)


def cmi_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int | None = None) -> EstimateReport:
    """Conditional MI via adversarial training. Requires dz >= 1."""
    return estimate(samples, "cmigan", config, jobs)


def mi_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int | None = None) -> EstimateReport:
    """Unconditional MI via the same loop with an empty conditioning block. Requires dz == 0."""
    return estimate(samples, "migan", config, jobs)


def mi_diff_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int | None = None) -> EstimateReport:
    """CMI as a difference of two DV objectives sharing one X generator. Requires dz >= 1."""
    return estimate(samples, "midiffgan", config, jobs)


def f_mine_mi_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int | None = None) -> EstimateReport:
    """Unconditional MI from the permutation critic (f-divergence bound). Requires dz == 0."""
    return estimate(samples, "fmine", config, jobs)


def mi_diff_cmi_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int | None = None) -> EstimateReport:
    """CMI as ``I(X;(Y,Z)) - I(X;Z)`` from two permutation critics (f-divergence bound). Requires dz >= 1."""
    return estimate(samples, "midiff-fmine", config, jobs)


def _ksg_estimate(s: SampleSet, ksg_config: KSGConfig | None):
    """KSG in its conditional or unconditional form, picked from dz."""
    if s.dz > 0:
        res = ksg_cmi_result(s.x, s.y, s.z, ksg_config)
    else:
        res = ksg_mi_result(s.x, s.y, ksg_config)
    diagnostics = {
        "jitter_applied": res.jitter_applied,
        "saturated": res.saturated,
        "k": res.k,
    }
    return _report("ksg", [res.value], [], diagnostics)


def estimate(
    samples: SampleSet,
    estimator: str,
    config: EstimatorConfig | None = None,
    jobs: int | None = None,
    ksg_config: KSGConfig | None = None,
) -> EstimateReport:
    """Dispatch by estimator id (see :data:`ESTIMATOR_IDS`).

    ``cmigan``, ``midiffgan`` and ``midiff-fmine`` need conditional data
    (dz >= 1), ``migan`` and ``fmine`` unconditional data (dz == 0);
    ``ksg`` picks its conditional or unconditional form from dz.

    With ``config.standardize`` (the default) every column is z-scored
    here, once, before any estimator sees the data.

    ``jobs`` worker processes, one BLAS thread each, train the runs of a
    network id from one task list, which holds, in :mod:`cmigan.citest`,
    a collection's runs (None: the CPUs this process may use; else an int
    of at least 1). The report does not depend on it. A lone run or a
    daemonic caller runs in process, and KSG threads its own tree queries
    and ignores ``jobs``.
    """
    typed_value("jobs", "int | None", jobs)
    cfg = config or EstimatorConfig()
    s = _prepare(estimator, samples, cfg, ksg_config)
    if estimator == "ksg":
        return _ksg_estimate(s, ksg_config)
    return _run_many(estimator, [s], cfg, jobs)[0]
