"""MI/CMI estimators built on one adversarial min-max training loop.

Every network estimator plays the same game. A critic (regression
network) maximizes a variational lower bound that separates joint
samples ``(x, y, z)`` from product samples in which one block is
replaced; a generator makes the replacement and minimizes the same
bound, so at the saddle point the bound is the (conditional) mutual
information. One loop, ``_train_run``, plays it for every network id;
an id fixes three entries of the ``_GAMES`` table:

- the swapped block: ``y`` (cmigan, migan, fmine) or ``x`` (midiffgan);
- the blocks each critic reads: ``(x, y, z)``, plus ``(x, z)`` entering
  with sign -1 for midiffgan, whose estimate is the difference of the
  two Donsker-Varadhan values;
- what the generator is conditioned on: ``z`` (cmigan; migan is the same
  game with an empty ``z``), nothing (midiffgan), or no generator at all
  (fmine), in which case a within-batch permutation of the swapped block
  makes the product and the critic maximizes the f-divergence bound.

Each training step makes ``reg_training_ratio`` critic updates (one
without a generator), then one generator update that reuses the last
critic batch's unswapped blocks (x and z for cmigan) with fresh noise.
``midiff-fmine`` composes two fmine estimates as
``I(X;(Y,Z)) - I(X;Z)``, and ``ksg`` is the kNN baseline;
:func:`estimate` dispatches by id.
"""

from __future__ import annotations

import dataclasses
import logging
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
# training loop calls the in-place rmsprop_update instead
from .neuralnet import (
    MLPBuffers,
    MLPSpec,
    NumericalError,
    ScheduleConfig,
    add_grads,
    lr_at,
    mlp_backward_cached,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    rmsprop_init,
    rmsprop_step,
    rmsprop_update,
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
        self.dims = tuple(int(d) for d in self.dims)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {self.data.shape}")
        if len(self.dims) != 3:
            raise ValueError("dims must be (dx, dy, dz)")
        dx, dy, dz = self.dims
        if dx < 1 or dy < 1 or dz < 0:
            raise ValueError(f"need dx >= 1, dy >= 1, dz >= 0, got {self.dims}")
        if dx + dy + dz != self.data.shape[1]:
            raise ValueError(
                f"dims {self.dims} sum to {dx + dy + dz}, data has {self.data.shape[1]} columns"
            )
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
        """Per-column z-scoring; constant columns are left untouched."""
        mu = self.data.mean(axis=0)
        sd = self.data.std(axis=0)
        sd = np.where(sd > 0.0, sd, 1.0)
        return SampleSet((self.data - mu) / sd, self.dims)


@dataclass(frozen=True)
class EstimatorConfig:
    """Training hyperparameters for the adversarial estimators.

    Defaults follow the reference estimation setup: regression network
    (128, 32), generator (256, 64), batch 4096, 30000 steps with the
    initial rate 5e-5 decayed by a total factor of 10 over the run.
    ``cit_defaults`` switches to the conditional-independence-testing
    setup (deeper nets, lr 1e-3, 10000 steps). ``noise_dim = None``
    means "match the generator output width".
    """

    reg_hidden: tuple[int, ...] = (128, 32)
    gen_hidden: tuple[int, ...] = (256, 64)
    batch_size: int = 4096
    training_steps: int = 30000
    reg_training_ratio: int = 2
    noise_dim: int | None = None
    runs: int = 1
    seed: int = 0
    eval_passes: int = 10
    initial_lr: float = 5e-5
    lr_interval_steps: int = 1000
    lr_decay_factor: float = 10.0
    lr_mode: str = "total_decay"
    rmsprop_rho: float = 0.9
    rmsprop_eps: float = 1e-8
    standardize: bool = True
    record_trace: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.training_steps < 1:
            raise ValueError("training_steps must be positive")
        if self.reg_training_ratio < 1:
            raise ValueError("reg_training_ratio must be positive")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.eval_passes < 1:
            raise ValueError("eval_passes must be positive")
        if self.noise_dim is not None and self.noise_dim < 1:
            raise ValueError("noise_dim must be positive when given")
        if self.lr_mode not in ("total_decay", "per_interval"):
            raise ValueError("lr_mode must be 'total_decay' or 'per_interval'")

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

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorConfig":
        d = dict(d)
        for key in ("reg_hidden", "gen_hidden"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class EstimateReport:
    """Aggregated outcome of N training runs.

    ``per_run`` holds the successful runs' estimates in run order;
    failed runs land in ``failed_runs`` (seed, step, reason) and are
    excluded from ``mean``/``std``. ``std`` is the sample standard
    deviation (0.0 when fewer than two runs survive).
    """

    estimator: str
    per_run: list[float]
    mean: float
    std: float
    failed_runs: list[dict] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "per_run": list(self.per_run),
            "mean": self.mean,
            "std": self.std,
            "failed_runs": list(self.failed_runs),
            "diagnostics": self.diagnostics,
        }


def _validate_for_training(s: SampleSet, cfg: EstimatorConfig):
    if cfg.batch_size > s.n:
        raise ValueError(f"batch_size {cfg.batch_size} exceeds sample count {s.n}")
    if s.n < 2 * cfg.batch_size:
        log.warning("n=%d is below the recommended 2*batch_size=%d", s.n, 2 * cfg.batch_size)


def _finite(value, what: str, step: int):
    """``value`` (a loss or a score array) if it is all finite. A wild
    learning rate can overflow the forward pass while the parameters are
    still finite, which counts as a failed run, not a caller error."""
    if not np.isfinite(value).all():
        raise NumericalError(f"{what} became non-finite at step {step}")
    return value


class _Net:
    """A network's parameters, its RMSProp state and the arrays of its
    passes, allocated once for the run's batch size: ``passes`` pairs of
    an input array and the :class:`MLPBuffers` that the pass writes into.
    Each pair holds one forward cache at a time."""

    def __init__(self, spec: MLPSpec, seed: int, cfg: EstimatorConfig, passes: int):
        self.params = mlp_init(spec, seed)
        self.state = rmsprop_init(self.params, rho=cfg.rmsprop_rho, eps=cfg.rmsprop_eps)
        self.inputs = [np.empty((cfg.batch_size, spec.input_dim)) for _ in range(passes)]
        self.buffers = [MLPBuffers(spec, cfg.batch_size) for _ in range(passes)]

    def step(self, grads, lr: float):
        rmsprop_update(self.params, grads, self.state, lr)


# estimator id -> (swapped block, critics as (blocks read, sign), blocks
# the generator is conditioned on). A conditioning of None means no
# generator: the product permutes the swapped block within the batch and
# the critic maximizes the f-divergence bound instead of the DV bound.
_GAMES = {
    "cmigan": ("y", (("xyz", 1),), "z"),
    "migan": ("y", (("xyz", 1),), "z"),
    "midiffgan": ("x", (("xyz", 1), ("xz", -1)), ""),
    "fmine": ("y", (("xyz", 1),), None),
}


def _total(terms: list):
    """``terms[0] + terms[1] + ...``; a sum starting from 0.0 would turn a
    lone -0.0 into 0.0."""
    return sum(terms[1:], terms[0])


def _critic_step(net: _Net, joint_in, prod_in, fdiv: bool, label: str, lr: float, step: int):
    """One critic update on a joint and a product batch, which the
    critic's first and second buffers hold. Returns the loss (the negated
    objective) and the number of clamped product scores, which only the
    f-divergence objective has."""
    b = joint_in.shape[0]
    joint_buf, prod_buf = net.buffers
    s_joint, cache_j = mlp_forward_cached(net.params, joint_in, buffers=joint_buf)
    s_prod, cache_p = mlp_forward_cached(net.params, prod_in, buffers=prod_buf)
    _finite(s_joint, "joint scores", step)
    _finite(s_prod, "product scores", step)
    clamp_hits = 0
    if fdiv:
        loss = _finite(-fdiv_objective(ScorePair(s_joint.ravel(), s_prod.ravel())), label, step)
        g_prod, clamp_hits = fdiv_product_grad(s_prod.ravel())
    else:
        loss = _finite(-float(s_joint.mean()) + log_mean_exp(s_prod), label, step)
        g_prod = softmax_weights(s_prod.ravel())
    grads_joint = mlp_backward_cached(
        net.params, cache_j, np.full((b, 1), -1.0 / b), input_grad=False, buffers=joint_buf
    )
    grads_prod = mlp_backward_cached(
        net.params, cache_p, g_prod[:, None], input_grad=False, buffers=prod_buf
    )
    net.step(add_grads(grads_joint, grads_prod, out=grads_joint), lr)
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
    the full data, each pass with a fresh product sample.

    Every batch-sized array is allocated once per run: the gathered
    batch, the noise or permuted block, each network's inputs and
    buffers. The evaluation runs the n rows through the same arrays in
    blocks of ``b`` rows, so besides the data only the eval noise or
    permutation and the per-row scores grow with n. A row's score can
    differ in the last bit from the one a single whole-n pass would give,
    since BLAS rounds some row counts differently (a one-row last block
    goes through gemv; see :mod:`cmigan.neuralnet`).
    """
    swap, critic_table, cond = _GAMES[kind]
    rng = np.random.default_rng(seed)
    n, b, last = data.shape[0], cfg.batch_size, cfg.training_steps
    dx, dy, _ = dims
    span = {"x": slice(0, dx), "y": slice(dx, dx + dy), "z": slice(dx + dy, data.shape[1])}
    width = {key: cut.stop - cut.start for key, cut in span.items()}
    d_noise = cfg.noise_dim if cfg.noise_dim is not None else width[swap]

    def cols(blocks: str) -> int:
        return sum(width[key] for key in blocks)

    def net(d_in: int, hidden: tuple[int, ...], d_out: int, passes: int) -> _Net:
        return _Net(MLPSpec(d_in, hidden, d_out), int(rng.integers(2**63)), cfg, passes)

    critics = [net(cols(blocks), cfg.reg_hidden, 1, 2) for blocks, _ in critic_table]
    gen = None if cond is None else net(d_noise + cols(cond), cfg.gen_hidden, width[swap], 1)
    signs = [sign for _, sign in critic_table]
    names = ("first ", "second ") if len(critics) > 1 else ("",)
    batch = np.empty((b, data.shape[1]))
    noise = None if gen is None else np.empty((b, d_noise))
    permuted = np.empty((b, width[swap])) if gen is None else None

    def stack(parts: list, out: np.ndarray) -> np.ndarray:
        return np.concatenate(parts, axis=1, out=out[: parts[0].shape[0]])

    def joint(rows: np.ndarray, blocks: str, out: np.ndarray) -> np.ndarray:
        return stack([rows[:, span[key]] for key in blocks], out)

    def product(rows: np.ndarray, swapped: np.ndarray, blocks: str, out: np.ndarray):
        return stack([swapped if key == swap else rows[:, span[key]] for key in blocks], out)

    def gen_input(pick: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return stack([pick] + [rows[:, span[key]] for key in cond], gen.inputs[0])

    def draw(count: int, out: np.ndarray | None) -> np.ndarray:
        """Fresh randomness for ``count`` product rows: a permutation of
        the rows without a generator, else noise written into ``out``."""
        return rng.permutation(count) if gen is None else rng.standard_normal(out=out)

    def swapped_block(rows: np.ndarray, pick: np.ndarray, source: np.ndarray) -> np.ndarray:
        """The block swapped into the product sample of ``rows``: the rows
        ``pick`` of ``source``'s swapped block, or the generator's output
        on the noise ``pick`` and ``rows``' conditioning blocks."""
        if gen is None:
            out = permuted[: len(pick)]
            return np.take(source[:, span[swap]], pick, axis=0, out=out, mode="clip")
        return mlp_forward(gen.params, gen_input(pick, rows), buffers=gen.buffers[0])

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
                label = "critic loss" if gen is None else f"{names[i]}regression loss"
                joint_in = joint(rows, blocks, critic.inputs[0])
                prod_in = product(rows, swapped, blocks, critic.inputs[1])
                losses[i], hits = _critic_step(
                    critic, joint_in, prod_in, gen is None, label, lr, step
                )
                clamp_hits += hits

        if gen is not None:
            gen_buf = gen.buffers[0]
            gen_in = gen_input(draw(b, noise), rows)
            swapped, cache_g = mlp_forward_cached(gen.params, gen_in, buffers=gen_buf)
            scored = []
            for i, (critic, (blocks, _)) in enumerate(zip(critics, critic_table)):
                prod_in = product(rows, swapped, blocks, critic.inputs[1])
                s, cache = mlp_forward_cached(critic.params, prod_in, buffers=critic.buffers[1])
                scored.append((_finite(s, f"{names[i]}product scores", step), cache))
            l_gen = _total([-sign * log_mean_exp(s) for sign, (s, _) in zip(signs, scored)])
            _finite(l_gen, "generator loss", step)
            d_swapped = []
            for critic, (blocks, sign), (s, cache) in zip(critics, critic_table, scored):
                d_scores = -sign * softmax_weights(s.ravel())[:, None]
                start = cols(blocks[: blocks.index(swap)])
                d_input = mlp_backward_cached(
                    critic.params, cache, d_scores, param_grads=False, buffers=critic.buffers[1]
                ).inputs
                d_swapped.append(d_input[:, start : start + width[swap]])
            d_gen = _total(d_swapped)
            gen.step(
                mlp_backward_cached(gen.params, cache_g, d_gen, input_grad=False, buffers=gen_buf),
                lr,
            )
        if trace is not None:
            trace.append((step, _total(losses), l_gen))

    starts = range(0, n, b)
    joint_full = [np.empty(n) for _ in critics]
    for start in starts:
        rows = data[start : start + b]
        for critic, (blocks, _), s in zip(critics, critic_table, joint_full):
            joint_in = joint(rows, blocks, critic.inputs[0])
            s_joint = mlp_forward(critic.params, joint_in, buffers=critic.buffers[0])
            s[start : start + len(rows)] = s_joint.ravel()
    for s in joint_full:
        _finite(s, "joint scores", last)
    objective = fdiv_objective if gen is None else dv_objective
    eval_noise = None if gen is None else np.empty((n, d_noise))
    prod_full = [np.empty(n) for _ in critics]
    eval_values = []
    for _ in range(cfg.eval_passes):
        picks = draw(n, eval_noise)
        for start in starts:
            rows = data[start : start + b]
            swapped = swapped_block(rows, picks[start : start + len(rows)], data)
            for critic, (blocks, _), s in zip(critics, critic_table, prod_full):
                prod_in = product(rows, swapped, blocks, critic.inputs[1])
                s_prod = mlp_forward(critic.params, prod_in, buffers=critic.buffers[1])
                s[start : start + len(rows)] = s_prod.ravel()
        values = []
        for sign, s_joint, s_prod in zip(signs, joint_full, prod_full):
            _finite(s_prod, "product scores", last)
            values.append(sign * objective(ScorePair(s_joint, s_prod)))
        eval_values.append(_total(values))
    estimate = _finite(float(np.mean(eval_values)), "final estimate", last)

    diag = {"seed": seed, "final_reg_loss": _total(losses)}
    if gen is not None:
        diag["final_gen_loss"] = l_gen
    diag["last_batch_estimate"] = _total([-sign * loss for sign, loss in zip(signs, losses)])
    if gen is None:
        diag["clamp_warnings"] = clamp_hits
    diag["eval_values"] = [float(v) for v in eval_values]
    if trace is not None:
        diag["trace"] = [(int(s), float(a), float(g)) for s, a, g in trace]
    return estimate, diag


def _single_run(kind: str, data, dims, cfg: EstimatorConfig, run_index: int):
    """Top-level per-run entry (picklable for process pools)."""
    seed = cfg.seed + run_index
    try:
        estimate, diag = _train_run(kind, data, dims, cfg, seed)
        return run_index, estimate, diag, None
    except NumericalError as exc:
        return run_index, None, None, {"run": run_index, "seed": seed, "reason": str(exc)}


def _run_many(kind: str, s: SampleSet, cfg: EstimatorConfig, jobs: int) -> EstimateReport:
    _validate_for_training(s, cfg)
    if cfg.standardize:
        s = s.standardized()
    data = np.ascontiguousarray(s.data)

    results = []
    if jobs > 1 and cfg.runs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_single_run, kind, data, s.dims, cfg, r) for r in range(cfg.runs)
            ]
            results = [f.result() for f in futures]
    else:
        for r in range(cfg.runs):
            results.append(_single_run(kind, data, s.dims, cfg, r))
            log.info("%s run %d/%d done", kind, r + 1, cfg.runs)
    results.sort(key=lambda t: t[0])

    per_run, run_diags, failures = [], [], []
    for _, estimate, diag, failure in results:
        if failure is not None:
            failures.append(failure)
        else:
            per_run.append(estimate)
            run_diags.append(diag)

    sched = cfg.schedule()
    diagnostics = {
        "runs": run_diags,
        "lr": {"first": lr_at(0, sched), "last": lr_at(cfg.training_steps - 1, sched)},
        "clamp_warnings": sum(d.get("clamp_warnings", 0) for d in run_diags),
    }
    return _report(kind, per_run, failures, diagnostics)


def _report(estimator: str, per_run: list[float], failures: list[dict], diagnostics: dict):
    """An :class:`EstimateReport` with the mean and sample std of ``per_run``."""
    mean = float(np.mean(per_run)) if per_run else float("nan")
    std = float(np.std(per_run, ddof=1)) if len(per_run) > 1 else (0.0 if per_run else float("nan"))
    return EstimateReport(
        estimator=estimator,
        per_run=per_run,
        mean=mean,
        std=std,
        failed_runs=failures,
        diagnostics=diagnostics,
    )


def cmi_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """Conditional MI via adversarial training. Requires dz >= 1."""
    cfg = config or EstimatorConfig()
    if samples.dz < 1:
        raise ValueError("conditional estimation needs dz >= 1; use mi_gan_estimate for plain MI")
    return _run_many("cmigan", samples, cfg, jobs)


def mi_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """Unconditional MI via the same loop with an empty conditioning block."""
    cfg = config or EstimatorConfig()
    if samples.dz != 0:
        raise ValueError("mi_gan_estimate expects dz == 0")
    return _run_many("migan", samples, cfg, jobs)


def mi_diff_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """CMI as a difference of two DV objectives sharing one X generator."""
    cfg = config or EstimatorConfig()
    if samples.dz < 1:
        raise ValueError("the difference variant needs dz >= 1")
    return _run_many("midiffgan", samples, cfg, jobs)


def f_mine_mi_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """Unconditional MI from the permutation critic (f-divergence bound)."""
    cfg = config or EstimatorConfig()
    if samples.dz != 0:
        raise ValueError("the permutation critic estimates unconditional MI (dz must be 0)")
    return _run_many("fmine", samples, cfg, jobs)


def mi_diff_cmi_estimate(
    samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1
) -> EstimateReport:
    """CMI as ``I(X;(Y,Z)) - I(X;Z)``, each term an ``fmine`` estimate.

    Run r of both terms uses seed ``seed + r``, so per-run differences
    share their initialization and batching noise. A run failing on
    either side drops the pair. The KSG form of this difference is
    ``estimate(samples, "ksg")`` with dz >= 1.
    """
    cfg = config or EstimatorConfig()
    if samples.dz < 1:
        raise ValueError("the difference composition needs dz >= 1")
    dx, dy, dz = samples.dims
    s = samples.standardized() if cfg.standardize else samples

    full = SampleSet(s.data, (dx, dy + dz, 0))
    marginal = SampleSet(np.hstack([s.x, s.z]), (dx, dz, 0))
    sub_cfg = dataclasses.replace(cfg, standardize=False)
    rep_full = f_mine_mi_estimate(full, sub_cfg, jobs=jobs)
    rep_marginal = f_mine_mi_estimate(marginal, sub_cfg, jobs=jobs)

    failed = {f["run"] for f in rep_full.failed_runs} | {f["run"] for f in rep_marginal.failed_runs}
    full_by_run = {d["seed"] - cfg.seed: v for v, d in zip(rep_full.per_run, rep_full.diagnostics["runs"])}
    marg_by_run = {d["seed"] - cfg.seed: v for v, d in zip(rep_marginal.per_run, rep_marginal.diagnostics["runs"])}
    per_run = [full_by_run[r] - marg_by_run[r] for r in range(cfg.runs) if r not in failed]
    failures = rep_full.failed_runs + rep_marginal.failed_runs
    diagnostics = {"full": rep_full.diagnostics, "marginal": rep_marginal.diagnostics}
    return _report("midiff-fmine", per_run, failures, diagnostics)


def _ksg_estimate(samples: SampleSet, cfg: EstimatorConfig, ksg_config: KSGConfig | None):
    """KSG in its conditional or unconditional form, picked from dz."""
    s = samples.standardized() if cfg.standardize else samples
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


# estimator id -> report of (samples, config, jobs, ksg_config); KSG
# threads its own tree queries and ignores ``jobs``
_ESTIMATORS = {
    "cmigan": lambda s, cfg, jobs, _: cmi_gan_estimate(s, cfg, jobs),
    "migan": lambda s, cfg, jobs, _: mi_gan_estimate(s, cfg, jobs),
    "midiffgan": lambda s, cfg, jobs, _: mi_diff_gan_estimate(s, cfg, jobs),
    "fmine": lambda s, cfg, jobs, _: f_mine_mi_estimate(s, cfg, jobs),
    "midiff-fmine": lambda s, cfg, jobs, _: mi_diff_cmi_estimate(s, cfg, jobs),
    "ksg": lambda s, cfg, _, ksg_config: _ksg_estimate(s, cfg, ksg_config),
}

ESTIMATOR_IDS = tuple(_ESTIMATORS)


def estimate(
    samples: SampleSet,
    estimator: str,
    config: EstimatorConfig | None = None,
    jobs: int = 1,
    ksg_config: KSGConfig | None = None,
) -> EstimateReport:
    """Dispatch by estimator id (see :data:`ESTIMATOR_IDS`).

    ``ksg`` picks the conditional or unconditional form from dz; the
    network estimators enforce their own dz preconditions.
    """
    if estimator not in _ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_IDS}")
    return _ESTIMATORS[estimator](samples, config or EstimatorConfig(), jobs, ksg_config)
