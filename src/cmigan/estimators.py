"""MI/CMI estimators built on adversarial min-max training.

The conditional estimator trains a generator ``G: (noise, z) -> y`` and a
regression network ``R: (x, y, z) -> score`` against each other: R
maximizes the Donsker-Varadhan objective separating true joint samples
from tuples with generated y, and G minimizes it by making its
conditional samples indistinguishable. At the saddle point the DV value
is the conditional mutual information.

Variants: an unconditional version (no z), a difference-of-objectives
version with a single generator for X and two regression networks, a
permutation-based f-divergence critic (no generator), and difference
compositions ``I(X;Y|Z) = I(X;(Y,Z)) - I(X;Z)`` over any unconditional
base estimator.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    FDIV_EXP_CLAMP,
    ScorePair,
    dv_objective,
    fdiv_objective,
    log_mean_exp,
    softmax_weights,
)
from .knn import KSGConfig, ksg_cmi_result, ksg_mi_result
from .neuralnet import (
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
)

log = logging.getLogger(__name__)

ESTIMATOR_IDS = ("cmigan", "migan", "midiffgan", "fmine", "midiff-fmine", "ksg")


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


def _finite_or_raise(value: float, what: str, step: int):
    if not np.isfinite(value):
        raise NumericalError(f"{what} became non-finite at step {step}")


def _finite_scores(arr: np.ndarray, what: str, step: int) -> np.ndarray:
    """Network outputs feeding an objective must be finite; a wild learning
    rate can overflow the forward pass while the parameters are still
    finite, which counts as a failed run, not a caller error."""
    if not np.isfinite(arr).all():
        raise NumericalError(f"{what} became non-finite at step {step}")
    return arr


class _Net:
    """A parameter/optimizer bundle; keeps the training loops terse."""

    def __init__(self, spec: MLPSpec, seed: int, cfg: EstimatorConfig):
        self.params = mlp_init(spec, seed)
        self.state = rmsprop_init(self.params, rho=cfg.rmsprop_rho, eps=cfg.rmsprop_eps)

    def step(self, grads, lr: float):
        self.params, self.state = rmsprop_step(self.params, grads, self.state, lr)


def _adversarial_cmi_run(
    data: np.ndarray, dims: tuple[int, int, int], cfg: EstimatorConfig, seed: int
) -> tuple[float, dict]:
    """One training run of the conditional (or, with dz=0, unconditional)
    adversarial estimator. Returns (estimate, diagnostics)."""
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    dx, dy, dz = dims
    x, y, z = data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :]
    d_noise = cfg.noise_dim if cfg.noise_dim is not None else dy
    b = cfg.batch_size

    reg = _Net(MLPSpec(dx + dy + dz, cfg.reg_hidden, 1), int(rng.integers(2**63)), cfg)
    gen = _Net(MLPSpec(d_noise + dz, cfg.gen_hidden, dy), int(rng.integers(2**63)), cfg)
    sched = cfg.schedule()
    trace = [] if cfg.record_trace else None
    l_reg = l_gen = float("nan")

    for step in range(cfg.training_steps):
        lr = lr_at(step, sched)
        for _ in range(cfg.reg_training_ratio):
            idx = rng.permutation(n)[:b]
            xb, yb, zb = x[idx], y[idx], z[idx]
            noise = rng.standard_normal((b, d_noise))
            y_gen = mlp_forward(gen.params, np.hstack([noise, zb]))
            s_joint, cache_j = mlp_forward_cached(reg.params, np.hstack([xb, yb, zb]))
            s_prod, cache_p = mlp_forward_cached(reg.params, np.hstack([xb, y_gen, zb]))
            _finite_scores(s_joint, "joint scores", step)
            _finite_scores(s_prod, "product scores", step)
            l_reg = -float(s_joint.mean()) + log_mean_exp(s_prod)
            _finite_or_raise(l_reg, "regression loss", step)
            g_joint = np.full((b, 1), -1.0 / b)
            g_prod = softmax_weights(s_prod.ravel())[:, None]
            grads = add_grads(
                mlp_backward_cached(reg.params, cache_j, g_joint),
                mlp_backward_cached(reg.params, cache_p, g_prod),
            )
            reg.step(grads, lr)

        noise = rng.standard_normal((b, d_noise))
        y_gen, cache_g = mlp_forward_cached(gen.params, np.hstack([noise, zb]))
        s_prod, cache_r = mlp_forward_cached(reg.params, np.hstack([xb, y_gen, zb]))
        _finite_scores(s_prod, "product scores", step)
        l_gen = -log_mean_exp(s_prod)
        _finite_or_raise(l_gen, "generator loss", step)
        d_scores = -softmax_weights(s_prod.ravel())[:, None]
        d_input = mlp_backward_cached(reg.params, cache_r, d_scores).inputs
        gen_grads = mlp_backward_cached(gen.params, cache_g, d_input[:, dx : dx + dy])
        gen.step(gen_grads, lr)
        if trace is not None:
            trace.append((step, l_reg, l_gen))

    s_joint_full = _finite_scores(
        mlp_forward(reg.params, data).ravel(), "joint scores", cfg.training_steps
    )
    eval_values = []
    for _ in range(cfg.eval_passes):
        noise = rng.standard_normal((n, d_noise))
        y_gen = mlp_forward(gen.params, np.hstack([noise, z]))
        s_prod_full = _finite_scores(
            mlp_forward(reg.params, np.hstack([x, y_gen, z])).ravel(),
            "product scores",
            cfg.training_steps,
        )
        eval_values.append(dv_objective(ScorePair(s_joint_full, s_prod_full)))
    estimate = float(np.mean(eval_values))
    _finite_or_raise(estimate, "final estimate", cfg.training_steps)

    diag = {
        "seed": seed,
        "final_reg_loss": l_reg,
        "final_gen_loss": l_gen,
        "last_batch_estimate": -l_reg,
        "eval_values": [float(v) for v in eval_values],
    }
    if trace is not None:
        diag["trace"] = [(int(s), float(a), float(g)) for s, a, g in trace]
    return estimate, diag


def _mi_diff_gan_run(
    data: np.ndarray, dims: tuple[int, int, int], cfg: EstimatorConfig, seed: int
) -> tuple[float, dict]:
    """Difference variant: one generator for X, two regression networks.

    R1 separates (x,y,z) from (x_gen,y,z); R2 separates (x,z) from
    (x_gen,z). The generator minimizes objective1 - objective2 and the
    estimate is that difference on the full dataset.
    """
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    dx, dy, dz = dims
    x, y, z = data[:, :dx], data[:, dx : dx + dy], data[:, dx + dy :]
    d_noise = cfg.noise_dim if cfg.noise_dim is not None else dx
    b = cfg.batch_size

    reg1 = _Net(MLPSpec(dx + dy + dz, cfg.reg_hidden, 1), int(rng.integers(2**63)), cfg)
    reg2 = _Net(MLPSpec(dx + dz, cfg.reg_hidden, 1), int(rng.integers(2**63)), cfg)
    gen = _Net(MLPSpec(d_noise, cfg.gen_hidden, dx), int(rng.integers(2**63)), cfg)
    sched = cfg.schedule()
    trace = [] if cfg.record_trace else None
    l1 = l2 = l_gen = float("nan")

    def _reg_update(net: _Net, joint_in, prod_in, lr, step, label):
        s_joint, cache_j = mlp_forward_cached(net.params, joint_in)
        s_prod, cache_p = mlp_forward_cached(net.params, prod_in)
        _finite_scores(s_joint, "joint scores", step)
        _finite_scores(s_prod, "product scores", step)
        loss = -float(s_joint.mean()) + log_mean_exp(s_prod)
        _finite_or_raise(loss, label, step)
        g_joint = np.full((joint_in.shape[0], 1), -1.0 / joint_in.shape[0])
        g_prod = softmax_weights(s_prod.ravel())[:, None]
        grads = add_grads(
            mlp_backward_cached(net.params, cache_j, g_joint),
            mlp_backward_cached(net.params, cache_p, g_prod),
        )
        net.step(grads, lr)
        return loss

    for step in range(cfg.training_steps):
        lr = lr_at(step, sched)
        for _ in range(cfg.reg_training_ratio):
            idx = rng.permutation(n)[:b]
            xb, yb, zb = x[idx], y[idx], z[idx]
            noise = rng.standard_normal((b, d_noise))
            x_gen = mlp_forward(gen.params, noise)
            l1 = _reg_update(
                reg1,
                np.hstack([xb, yb, zb]),
                np.hstack([x_gen, yb, zb]),
                lr,
                step,
                "first regression loss",
            )
            l2 = _reg_update(
                reg2, np.hstack([xb, zb]), np.hstack([x_gen, zb]), lr, step, "second regression loss"
            )

        noise = rng.standard_normal((b, d_noise))
        x_gen, cache_g = mlp_forward_cached(gen.params, noise)
        s1, cache_r1 = mlp_forward_cached(reg1.params, np.hstack([x_gen, yb, zb]))
        s2, cache_r2 = mlp_forward_cached(reg2.params, np.hstack([x_gen, zb]))
        _finite_scores(s1, "first product scores", step)
        _finite_scores(s2, "second product scores", step)
        # generator minimizes (obj1 - obj2); only the log-mean-exp terms
        # depend on x_gen, with opposite signs
        l_gen = -log_mean_exp(s1) + log_mean_exp(s2)
        _finite_or_raise(l_gen, "generator loss", step)
        d1 = -softmax_weights(s1.ravel())[:, None]
        d2 = softmax_weights(s2.ravel())[:, None]
        d_xgen = (
            mlp_backward_cached(reg1.params, cache_r1, d1).inputs[:, :dx]
            + mlp_backward_cached(reg2.params, cache_r2, d2).inputs[:, :dx]
        )
        gen.step(mlp_backward_cached(gen.params, cache_g, d_xgen), lr)
        if trace is not None:
            trace.append((step, l1 + l2, l_gen))

    last = cfg.training_steps
    s1_joint = _finite_scores(mlp_forward(reg1.params, data).ravel(), "joint scores", last)
    s2_joint = _finite_scores(
        mlp_forward(reg2.params, np.hstack([x, z])).ravel(), "joint scores", last
    )
    eval_values = []
    for _ in range(cfg.eval_passes):
        noise = rng.standard_normal((n, d_noise))
        x_gen = mlp_forward(gen.params, noise)
        s1_prod = _finite_scores(
            mlp_forward(reg1.params, np.hstack([x_gen, y, z])).ravel(), "product scores", last
        )
        s2_prod = _finite_scores(
            mlp_forward(reg2.params, np.hstack([x_gen, z])).ravel(), "product scores", last
        )
        eval_values.append(
            dv_objective(ScorePair(s1_joint, s1_prod)) - dv_objective(ScorePair(s2_joint, s2_prod))
        )
    estimate = float(np.mean(eval_values))
    _finite_or_raise(estimate, "final estimate", cfg.training_steps)

    diag = {
        "seed": seed,
        "final_reg_loss": l1 + l2,
        "final_gen_loss": l_gen,
        "last_batch_estimate": -l1 - l2,
        "eval_values": [float(v) for v in eval_values],
    }
    if trace is not None:
        diag["trace"] = [(int(s), float(a), float(g)) for s, a, g in trace]
    return estimate, diag


def _f_mine_run(
    data: np.ndarray, dims: tuple[int, int, int], cfg: EstimatorConfig, seed: int
) -> tuple[float, dict]:
    """Permutation-critic MI run: a single network maximizes the
    f-divergence objective, product samples made by shuffling the y block
    within each batch. One update per training step (no generator)."""
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    dx, dy, dz = dims
    if dz != 0:
        raise ValueError("the permutation critic estimates unconditional MI (dz must be 0)")
    x, y = data[:, :dx], data[:, dx : dx + dy]
    b = cfg.batch_size

    reg = _Net(MLPSpec(dx + dy, cfg.reg_hidden, 1), int(rng.integers(2**63)), cfg)
    sched = cfg.schedule()
    trace = [] if cfg.record_trace else None
    clamp_hits = 0
    loss = float("nan")

    for step in range(cfg.training_steps):
        lr = lr_at(step, sched)
        idx = rng.permutation(n)[:b]
        xb, yb = x[idx], y[idx]
        y_shuf = yb[rng.permutation(b)]
        s_joint, cache_j = mlp_forward_cached(reg.params, np.hstack([xb, yb]))
        s_prod, cache_p = mlp_forward_cached(reg.params, np.hstack([xb, y_shuf]))
        _finite_scores(s_joint, "joint scores", step)
        _finite_scores(s_prod, "product scores", step)
        pair = ScorePair(s_joint.ravel(), s_prod.ravel())
        loss = -fdiv_objective(pair)
        _finite_or_raise(loss, "critic loss", step)
        exponent = s_prod.ravel() - 1.0
        clamped = exponent > FDIV_EXP_CLAMP
        clamp_hits += int(np.count_nonzero(clamped))
        g_joint = np.full((b, 1), -1.0 / b)
        # gradient of -fdiv: +exp(s-1)/b on unclamped product scores,
        # zero where the clamp flattens the objective
        g_prod = np.where(clamped, 0.0, np.exp(np.minimum(exponent, FDIV_EXP_CLAMP)) / b)[:, None]
        grads = add_grads(
            mlp_backward_cached(reg.params, cache_j, g_joint),
            mlp_backward_cached(reg.params, cache_p, g_prod),
        )
        reg.step(grads, lr)
        if trace is not None:
            trace.append((step, loss, float("nan")))

    s_joint_full = _finite_scores(
        mlp_forward(reg.params, data).ravel(), "joint scores", cfg.training_steps
    )
    eval_values = []
    for _ in range(cfg.eval_passes):
        perm = rng.permutation(n)
        s_prod_full = _finite_scores(
            mlp_forward(reg.params, np.hstack([x, y[perm]])).ravel(),
            "product scores",
            cfg.training_steps,
        )
        eval_values.append(fdiv_objective(ScorePair(s_joint_full, s_prod_full)))
    estimate = float(np.mean(eval_values))
    _finite_or_raise(estimate, "final estimate", cfg.training_steps)

    diag = {
        "seed": seed,
        "final_reg_loss": loss,
        "last_batch_estimate": -loss,
        "clamp_warnings": clamp_hits,
        "eval_values": [float(v) for v in eval_values],
    }
    if trace is not None:
        diag["trace"] = [(int(s), float(a), float(g)) for s, a, g in trace]
    return estimate, diag


_RUNNERS = {
    "cmigan": _adversarial_cmi_run,
    "migan": _adversarial_cmi_run,
    "midiffgan": _mi_diff_gan_run,
    "fmine": _f_mine_run,
}


def _single_run(kind: str, data, dims, cfg: EstimatorConfig, run_index: int):
    """Top-level per-run entry (picklable for process pools)."""
    seed = cfg.seed + run_index
    try:
        estimate, diag = _RUNNERS[kind](data, dims, cfg, seed)
        return run_index, estimate, diag, None
    except NumericalError as exc:
        return run_index, None, None, {"run": run_index, "seed": seed, "reason": str(exc)}


def _run_many(kind: str, name: str, s: SampleSet, cfg: EstimatorConfig, jobs: int) -> EstimateReport:
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
            log.info("%s run %d/%d done", name, r + 1, cfg.runs)
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
    mean = float(np.mean(per_run)) if per_run else float("nan")
    std = float(np.std(per_run, ddof=1)) if len(per_run) > 1 else (0.0 if per_run else float("nan"))
    return EstimateReport(
        estimator=name,
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
    return _run_many("cmigan", "cmigan", samples, cfg, jobs)


def mi_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """Unconditional MI via the same loop with an empty conditioning block."""
    cfg = config or EstimatorConfig()
    if samples.dz != 0:
        raise ValueError("mi_gan_estimate expects dz == 0")
    return _run_many("migan", "migan", samples, cfg, jobs)


def mi_diff_gan_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """CMI as a difference of two DV objectives sharing one X generator."""
    cfg = config or EstimatorConfig()
    if samples.dz < 1:
        raise ValueError("the difference variant needs dz >= 1")
    return _run_many("midiffgan", "midiffgan", samples, cfg, jobs)


def f_mine_mi_estimate(samples: SampleSet, config: EstimatorConfig | None = None, jobs: int = 1) -> EstimateReport:
    """Unconditional MI from the permutation critic (f-divergence bound)."""
    cfg = config or EstimatorConfig()
    return _run_many("fmine", "fmine", samples, cfg, jobs)


_DIFF_BASES = ("fmine", "migan")


def mi_diff_cmi_estimate(
    samples: SampleSet,
    base: str = "fmine",
    config: EstimatorConfig | None = None,
    jobs: int = 1,
) -> EstimateReport:
    """CMI as ``I(X;(Y,Z)) - I(X;Z)`` over an unconditional network estimator.

    Run r of both terms uses seed ``seed + r``, so per-run differences
    share their initialization and batching noise. A run failing on
    either side drops the pair. The KSG form of this difference is
    ``estimate(samples, "ksg")`` with dz >= 1.
    """
    cfg = config or EstimatorConfig()
    if samples.dz < 1:
        raise ValueError("the difference composition needs dz >= 1")
    if base not in _DIFF_BASES:
        raise ValueError(f"base must be one of {_DIFF_BASES}, got {base!r}")
    dx, dy, dz = samples.dims
    s = samples.standardized() if cfg.standardize else samples

    full = SampleSet(s.data, (dx, dy + dz, 0))
    marginal = SampleSet(np.hstack([s.x, s.z]), (dx, dz, 0))
    sub_cfg = dataclasses.replace(cfg, standardize=False)
    runner = f_mine_mi_estimate if base == "fmine" else mi_gan_estimate
    rep_full = runner(full, sub_cfg, jobs=jobs)
    rep_marginal = runner(marginal, sub_cfg, jobs=jobs)

    failed = {f["run"] for f in rep_full.failed_runs} | {f["run"] for f in rep_marginal.failed_runs}
    full_by_run = {d["seed"] - cfg.seed: v for v, d in zip(rep_full.per_run, rep_full.diagnostics["runs"])}
    marg_by_run = {d["seed"] - cfg.seed: v for v, d in zip(rep_marginal.per_run, rep_marginal.diagnostics["runs"])}
    per_run = [full_by_run[r] - marg_by_run[r] for r in range(cfg.runs) if r not in failed]
    failures = rep_full.failed_runs + rep_marginal.failed_runs
    mean = float(np.mean(per_run)) if per_run else float("nan")
    std = float(np.std(per_run, ddof=1)) if len(per_run) > 1 else (0.0 if per_run else float("nan"))
    return EstimateReport(
        estimator=f"midiff-{base}",
        per_run=per_run,
        mean=mean,
        std=std,
        failed_runs=failures,
        diagnostics={"full": rep_full.diagnostics, "marginal": rep_marginal.diagnostics},
    )


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
    cfg = config or EstimatorConfig()
    if estimator == "cmigan":
        return cmi_gan_estimate(samples, cfg, jobs=jobs)
    if estimator == "migan":
        return mi_gan_estimate(samples, cfg, jobs=jobs)
    if estimator == "midiffgan":
        return mi_diff_gan_estimate(samples, cfg, jobs=jobs)
    if estimator == "fmine":
        return f_mine_mi_estimate(samples, cfg, jobs=jobs)
    if estimator == "midiff-fmine":
        return mi_diff_cmi_estimate(samples, base="fmine", config=cfg, jobs=jobs)
    if estimator == "ksg":
        s = samples.standardized() if cfg.standardize else samples
        if s.dz > 0:
            res = ksg_cmi_result(s.x, s.y, s.z, ksg_config)
        else:
            res = ksg_mi_result(s.x, s.y, ksg_config)
        return EstimateReport(
            estimator="ksg",
            per_run=[res.value],
            mean=res.value,
            std=0.0,
            diagnostics={
                "jitter_applied": res.jitter_applied,
                "saturated": res.saturated,
                "k": res.k,
            },
        )
    raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATOR_IDS}")
