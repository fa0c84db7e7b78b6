"""The four benchmark workloads.

Each workload generates its inputs from the workload seed in ``setup``,
runs the measured calls through cmigan's public API in ``measure`` and
turns their outputs into a :class:`Unit` (estimates, work done, checks)
in ``summarize``, outside the timed region. Everything is serial
(``jobs=1``) in one process with the library's default BLAS threading.

Why each workload exists:

* ``train-ref`` -- the paper's reference regime (library-default
  ``EstimatorConfig``: nets (128,32)/(256,64), batch 4096, ratio 2,
  lr 5e-5, 10 eval passes, 1 run) with fewer steps. Large-batch matmuls
  make ``neuralnet`` almost all of the time; ``knn`` is idle.
* ``cit-suite`` -- a balanced ``gen_cit`` collection written by
  ``cmigan bench --generate-only`` (set-up), then ``cmigan citest`` with
  the adversarial estimator at the CIT defaults and batch 512, and with
  KSG, both through ``cmigan.cli.main``. Many short small-batch trainings
  weigh batch-independent costs (RMSProp, objectives, sampling) far more
  than ``train-ref``; the only workload through ``cli``, ``citest`` and
  ``dataio``.
* ``ksg-d5`` -- KSG (k=5) on the d=5 linear3 data: only ``knn`` runs,
  and the closed-form truth 2.5*ln 2 gives an accuracy figure.
* ``runner-mix`` -- ``migan`` and ``fmine`` on gaussian pairs, then
  ``midiffgan`` and ``midiff-fmine`` on linear1, at a desk-scale config.
  Three of the four training loops and the f-divergence path of
  ``bounds`` run only here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

from cmigan import (
    EstimatorConfig,
    KSGConfig,
    cmi_gan_estimate,
    estimate,
    gen_gauss,
    gen_linear1,
    gen_linear3,
    true_cmi,
)
from cmigan import cli

from spans import call, estimator_entry

# run lengths: the full sizes make units of 3-6 s (ksg-d5: one 13-15 s
# KSG call) on a 2-core machine, so a 25 s run takes the median of
# several; the quick sizes exercise every code path in seconds.
# runner-mix evaluates twice, not ten times: at 60 steps, ten passes
# over all n rows took 41% of its traced time, crowding out the training
# loops it exists to measure
SIZES = {
    "full": {
        "train-ref": dict(n=20000, d=5, config=dict(training_steps=100)),
        "cit-suite": dict(n=5000, datasets=10, steps=100, batch=512),
        "ksg-d5": dict(n=20000, d=5, k=5),
        "runner-mix": dict(n=20000, config=dict(
            training_steps=80, batch_size=1024, initial_lr=5e-4, runs=2, eval_passes=2,
        )),
    },
    "quick": {
        "train-ref": dict(n=2048, d=5, config=dict(training_steps=5, batch_size=256, eval_passes=2)),
        "cit-suite": dict(n=600, datasets=4, steps=5, batch=64),
        "ksg-d5": dict(n=2000, d=5, k=5),
        "runner-mix": dict(n=2048, config=dict(
            training_steps=5, batch_size=128, initial_lr=5e-4, runs=2, eval_passes=2,
        )),
    },
}

# training loops run per estimator run: midiff-fmine trains two critics
_LOOPS_PER_RUN = {"cmigan": 1, "migan": 1, "midiffgan": 1, "fmine": 1, "midiff-fmine": 2}


@dataclass
class Call:
    """One measured call: what ran, its wall time and its output."""

    estimator: str
    wall_s: float
    output: object
    steps: int = 0


@dataclass
class Unit:
    """The measured calls of one unit, summarized outside the timed region."""

    wall_s: float
    calls: list[Call]
    estimates: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def steps(self) -> int:
        return sum(c.steps for c in self.calls)

    @property
    def train_wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls if c.steps)

    @property
    def ksg_wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls if c.estimator == "ksg")


def _api_call(tracer, estimator, cfg, fn, samples, *args, **kwargs) -> Call:
    """Time one public estimator call; ``cfg`` is None for KSG."""
    start = perf_counter()
    report = estimator_entry(tracer, fn, samples, *args, **kwargs)
    wall = perf_counter() - start
    steps = _LOOPS_PER_RUN[estimator] * cfg.training_steps * cfg.runs if cfg else 0
    return Call(estimator, wall, report, steps)


def _summarize_reports(unit: Unit, runs_by_estimator: dict, truth_by_estimator: dict):
    """Checks shared by the API workloads: finite estimates, and every
    run accounted for as a per-run estimate or a failure record."""
    for c in unit.calls:
        rep = c.output
        runs = runs_by_estimator[c.estimator]
        truth = truth_by_estimator[c.estimator]
        unit.attempted += runs
        unit.failed += len(rep.failed_runs)
        unit.estimates.append({
            "estimator": c.estimator,
            "per_run": list(rep.per_run),
            "failed_runs": len(rep.failed_runs),
            "mean": rep.mean,
            "truth": truth,
            "abs_err_nats": abs(rep.mean - truth) if truth is not None else None,
        })
        finite = all(math.isfinite(v) for v in rep.per_run) and math.isfinite(rep.mean)
        unit.check(f"{c.estimator}: estimates finite", finite, f"per_run={rep.per_run}")
        unit.check(
            f"{c.estimator}: every run reported",
            len(rep.per_run) + len(rep.failed_runs) == runs,
            f"{len(rep.per_run)} estimates + {len(rep.failed_runs)} failures for {runs} runs",
        )


class TrainRef:
    name = "train-ref"

    def __init__(self, size: dict, seed: int, workdir: str):
        self.size, self.seed = size, seed

    def setup(self, tracer):
        s = self.size
        self.samples, params = call(tracer, "datagen.generate", gen_linear3, s["n"], s["d"], self.seed)
        self.truth = true_cmi(params)
        self.cfg = EstimatorConfig(seed=self.seed, **s["config"])

    def measure(self, tracer):
        return [_api_call(tracer, "cmigan", self.cfg, cmi_gan_estimate, self.samples, self.cfg)]

    def summarize(self, unit: Unit):
        _summarize_reports(unit, {"cmigan": self.cfg.runs}, {"cmigan": self.truth})


class KsgD5:
    name = "ksg-d5"

    def __init__(self, size: dict, seed: int, workdir: str):
        self.size, self.seed = size, seed

    def setup(self, tracer):
        s = self.size
        self.samples, params = call(tracer, "datagen.generate", gen_linear3, s["n"], s["d"], self.seed)
        self.truth = true_cmi(params)
        self.ksg = KSGConfig(k=s["k"])

    def measure(self, tracer):
        return [_api_call(tracer, "ksg", None, estimate, self.samples, "ksg", ksg_config=self.ksg)]

    def summarize(self, unit: Unit):
        _summarize_reports(unit, {"ksg": 1}, {"ksg": self.truth})
        unit.extra["abs_err_nats"] = unit.estimates[0]["abs_err_nats"]


class RunnerMix:
    name = "runner-mix"
    RHO = 0.8

    def __init__(self, size: dict, seed: int, workdir: str):
        self.size, self.seed = size, seed

    def setup(self, tracer):
        s = self.size
        gauss, gauss_params = call(tracer, "datagen.generate", gen_gauss, s["n"], 1, self.RHO, self.seed)
        linear, linear_params = call(tracer, "datagen.generate", gen_linear1, s["n"], 1, self.seed)
        self.jobs = [
            ("migan", gauss, true_cmi(gauss_params)),
            ("fmine", gauss, true_cmi(gauss_params)),
            ("midiffgan", linear, true_cmi(linear_params)),
            ("midiff-fmine", linear, true_cmi(linear_params)),
        ]
        self.cfg = EstimatorConfig(seed=self.seed, **s["config"])

    def measure(self, tracer):
        return [
            _api_call(tracer, est, self.cfg, estimate, samples, est, self.cfg)
            for est, samples, _ in self.jobs
        ]

    def summarize(self, unit: Unit):
        _summarize_reports(
            unit,
            {est: self.cfg.runs for est, _, _ in self.jobs},
            {est: truth for est, _, truth in self.jobs},
        )


def _auroc_pairwise(scores, labels) -> float:
    """AuROC over (CD, CI) pairs with ties counted half, recomputed here
    so the check does not rely on the package's own rank formula."""
    pos = [s for s, lab in zip(scores, labels) if lab == "CD"]
    neg = [s for s, lab in zip(scores, labels) if lab == "CI"]
    if not pos or not neg:
        return float("nan")
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def _quiet_cli(argv) -> int:
    # the CLI prints its JSON report on stdout; the benchmark's stdout
    # carries only its own result lines
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class CitSuite:
    name = "cit-suite"

    def __init__(self, size: dict, seed: int, workdir: str):
        self.size, self.seed, self.workdir = size, seed, workdir
        self.files = itertools.count()

    def _fresh(self, name: str) -> str:
        # every set-up and report gets a new path: on ext4, truncating a
        # recently written file forces its data to disk, which would add
        # tens of milliseconds that a first run does not pay
        return os.path.join(self.workdir, f"{name}-{next(self.files)}")

    def setup(self, tracer):
        s = self.size
        self.outdir = self._fresh("cit")
        self.manifest = os.path.join(self.outdir, "manifest.json")
        half = s["datasets"] // 2
        argv = [
            "-q", "bench", "--generate-only", "--outdir", self.outdir,
            "--n", str(s["n"]), "--dz", "1", "--n-ci", str(half), "--n-cd", str(half),
            "--suite-seed", str(1000 * self.seed),
        ]
        code = call(tracer, "cli", _quiet_cli, argv)
        if code != 0:
            raise RuntimeError(f"cmigan bench --generate-only exited {code}")
        with open(self.manifest, encoding="utf-8") as fh:
            self.labels = {d["csv"]: d["label"] for d in json.load(fh)["datasets"]}

    def _citest(self, tracer, estimator: str, extra: list) -> Call:
        out = self._fresh(f"report-{estimator}") + ".json"
        argv = [
            "-q", "citest", "--manifest", self.manifest, "--estimator", estimator,
            "--seed", str(self.seed), "--out", out, *extra,
        ]
        start = perf_counter()
        code = call(tracer, "cli", _quiet_cli, argv)
        wall = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"cmigan citest --estimator {estimator} exited {code}")
        steps = len(self.labels) * self.size["steps"] if estimator != "ksg" else 0
        return Call(estimator, wall, out, steps)

    def measure(self, tracer):
        s = self.size
        return [
            self._citest(tracer, "cmigan", [
                "--cit-defaults", "--batch-size", str(s["batch"]), "--steps", str(s["steps"]),
            ]),
            self._citest(tracer, "ksg", []),
        ]

    def summarize(self, unit: Unit):
        datasets = 0
        for c in unit.calls:
            with open(c.output, encoding="utf-8") as fh:
                report = json.load(fh)["report"]
            entries = report["entries"]
            kept = [e for e in entries if not e["failed"]]
            unit.attempted += len(entries)
            unit.failed += len(entries) - len(kept)
            datasets += len(entries)
            scores = [e["score"] for e in kept]
            unit.estimates.append({
                "estimator": c.estimator,
                "per_run": {e["dataset_id"]: e["score"] for e in entries},
                "failed_runs": len(entries) - len(kept),
                "auroc": report["auroc"],
            })
            unit.check(
                f"{c.estimator}: one entry per manifest dataset",
                sorted(e["dataset_id"] for e in entries) == sorted(self.labels),
                f"{len(entries)} entries for {len(self.labels)} datasets",
            )
            unit.check(
                f"{c.estimator}: scores finite",
                all(isinstance(v, (int, float)) and math.isfinite(v) for v in scores),
                f"scores={scores}",
            )
            unit.check(
                f"{c.estimator}: excluded list matches failed entries",
                sorted(report["excluded"]) == sorted(e["dataset_id"] for e in entries if e["failed"]),
                f"excluded={report['excluded']}",
            )
            expected = _auroc_pairwise(scores, [self.labels[e["dataset_id"]] for e in kept])
            got = report["auroc"]
            unit.check(
                f"{c.estimator}: AuROC over every non-excluded dataset",
                math.isfinite(expected) and math.isfinite(got) and abs(got - expected) <= 1e-12,
                f"report {got} vs recomputed {expected} over {len(kept)} datasets",
            )
            unit.extra[f"auroc_{c.estimator}"] = got
        unit.extra["datasets"] = datasets


WORKLOADS = {w.name: w for w in (TrainRef, CitSuite, KsgD5, RunnerMix)}
