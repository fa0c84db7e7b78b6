"""Acceptance gate: every advertised behavior at its stated tolerance.

Each test prints one ``ACCEPTANCE nn <name>: PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream). Training
criteria use desk-scale configurations: small enough for a laptop-class
CPU budget, frozen here so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from cmigan.bounds import ScorePair, dv_objective, fdiv_objective
from cmigan.citest import auroc, run_cit_benchmark
from cmigan.datagen import gen_cit, gen_gauss, gen_linear1, gen_linear3
from cmigan.dataio import ColumnMapping, load_csv, save_csv
from cmigan.estimators import EstimatorConfig, SampleSet, cmi_gan_estimate, mi_gan_estimate
from cmigan.knn import _neighbor_stats_kdtree, ksg_mi
from cmigan.neuralnet import ScheduleConfig, gradient_check, lr_at

from oracle_tools import (
    JOINT_DENOM,
    PRODUCT_DENOM,
    TOY_P,
    _neighbor_stats_bruteforce,
    auroc_bruteforce,
    kl_y_given_z,
    ksg_mi_bruteforce,
    optimal_scores,
    product_dist,
    repeated_scores,
    true_cmi_discrete,
)

# frozen desk-scale training configurations (library defaults stay at the
# reference regime; these fit the runtime budgets below)
GAUSS_MI_CONFIG = EstimatorConfig(
    training_steps=2000, batch_size=512, initial_lr=1e-3, runs=3, seed=0
)
MODEL3_CONFIG = EstimatorConfig(
    training_steps=2000, batch_size=512, initial_lr=1e-3, runs=3, seed=0
)
MODEL1_CONFIG = EstimatorConfig(
    training_steps=1500, batch_size=1024, initial_lr=5e-4, runs=3, seed=0
)
CIT_CONFIG = EstimatorConfig.cit_defaults(
    training_steps=1000, batch_size=512, runs=1, seed=0
)


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    report = gradient_check(num_nets=100, seed=0, tol=1e-4)
    wall = time.monotonic() - start
    ok = report.passed and report.worst_rel_err < 1e-4 and wall < 10.0
    _report(1, "gradient-correctness", ok,
            f"100 nets, worst rel err {report.worst_rel_err:.3g}, {wall:.2f}s < 10s")


def test_criterion_02_objective_identities():
    start = time.monotonic()
    zeros = ScorePair(np.zeros(4), np.zeros(4))
    checks = [
        abs(dv_objective(zeros) - 0.0) < 1e-12,
        abs(dv_objective(ScorePair(np.full(3, 2.0), np.full(3, 0.0))) - 2.0) < 1e-12,
        abs(
            dv_objective(ScorePair(np.array([1.0, 1.0]), np.array([0.0, 1.0])))
            - (1.0 - math.log((1.0 + math.e) / 2.0))
        ) < 1e-12,
        abs(fdiv_objective(ScorePair(np.ones(4), np.ones(4)))) < 1e-12,
        abs(fdiv_objective(zeros) - (-math.exp(-1.0))) < 1e-12,
    ]
    rng = np.random.default_rng(0)
    dominated = 0
    for _ in range(1000):
        pair = ScorePair(rng.normal(size=16) * 3.0, rng.normal(size=16) * 3.0)
        if fdiv_objective(pair) <= dv_objective(pair) + 1e-12:
            dominated += 1
    wall = time.monotonic() - start
    ok = all(checks) and dominated == 1000 and wall < 1.0
    _report(2, "objective-identities", ok,
            f"{sum(checks)}/5 examples at 1e-12, dominance {dominated}/1000, {wall:.2f}s < 1s")


def test_criterion_03_theorem_oracles():
    start = time.monotonic()
    target = true_cmi_discrete() + kl_y_given_z()
    values = []
    for c in (0.0, 3.7, -2.0):
        scores = optimal_scores(c)
        joint_scores = repeated_scores(scores, TOY_P, JOINT_DENOM)
        product_scores = repeated_scores(scores, product_dist(), PRODUCT_DENOM)
        values.append(dv_objective(ScorePair(joint_scores, product_scores)))
    gap = max(abs(v - target) for v in values)
    spread = max(values) - min(values)
    wall = time.monotonic() - start
    ok = gap < 1e-12 and spread < 1e-12 and wall < 1.0
    _report(3, "theorem-oracles", ok,
            f"optimum matches CMI+KL within {gap:.2e}, c-spread {spread:.2e}, {wall:.2f}s < 1s")


def test_criterion_04_ksg_accuracy():
    start = time.monotonic()
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        truth = -0.5 * math.log(1.0 - rho * rho)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((10000, 1))
            y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal((10000, 1))
            worst = max(worst, abs(ksg_mi(x, y) - truth))
    wall = time.monotonic() - start
    ok = worst < 0.05 and wall < 30.0
    _report(4, "ksg-accuracy", ok,
            f"worst |err| {worst:.4f} < 0.05 over rho in (0,0.5,0.9) x 5 seeds, {wall:.1f}s < 30s")


def test_criterion_05_migan_gaussian():
    start = time.monotonic()
    samples, _ = gen_gauss(20000, 1, 0.8, seed=1)
    report = mi_gan_estimate(samples, GAUSS_MI_CONFIG)
    wall = time.monotonic() - start
    truth = -0.5 * math.log(1.0 - 0.64)
    dev = abs(report.mean - truth)
    ok = dev < 0.1 and wall < 600.0 and not report.failed_runs
    _report(5, "migan-gaussian", ok,
            f"mean {report.mean:.4f} vs {truth:.4f} (|dev| {dev:.4f} < 0.1, 3 runs), {wall:.0f}s < 600s")


@pytest.fixture(scope="module")
def model3_d5_report():
    samples, _ = gen_linear3(20000, 5, seed=1)
    start = time.monotonic()
    report = cmi_gan_estimate(samples, MODEL3_CONFIG)
    return report, time.monotonic() - start


def test_criterion_06_cmigan_model3(model3_d5_report):
    report, wall = model3_d5_report
    truth = 2.5 * math.log(2.0)
    dev = abs(report.mean - truth)
    ok = dev < 0.15 and wall < 1200.0 and not report.failed_runs
    _report(6, "cmigan-model3", ok,
            f"mean {report.mean:.4f} vs {truth:.4f} (|dev| {dev:.4f} < 0.15, 3 runs), {wall:.0f}s < 1200s")


def test_criterion_07_cmigan_model1():
    start = time.monotonic()
    samples, _ = gen_linear1(20000, 1, seed=1)
    report = cmi_gan_estimate(samples, MODEL1_CONFIG)
    wall = time.monotonic() - start
    truth = 0.5 * math.log(101.0)
    dev = abs(report.mean - truth)
    ok = dev < 0.15 and wall < 1200.0 and not report.failed_runs
    _report(7, "cmigan-model1", ok,
            f"mean {report.mean:.4f} vs {truth:.4f} (|dev| {dev:.4f} < 0.15, 3 runs), {wall:.0f}s < 1200s")


def test_criterion_08_null_behavior():
    start = time.monotonic()
    estimates = []
    for data_seed in (100, 101, 102):
        samples, _, _ = gen_cit(5000, 5, False, seed=data_seed)
        estimates.append(cmi_gan_estimate(samples, CIT_CONFIG).mean)
    wall = time.monotonic() - start
    ok = all(-0.05 <= v <= 0.10 for v in estimates)
    _report(8, "null-behavior", ok,
            f"CI-data estimates {[f'{v:.4f}' for v in estimates]} all in [-0.05, 0.10], {wall:.0f}s")


def test_criterion_09_cit_auroc():
    start = time.monotonic()
    datasets = []
    for i in range(20):
        dependent = i >= 10
        samples, _, label = gen_cit(5000, 1, dependent, seed=1000 + i)
        datasets.append((samples, label))
    ksg_auroc = run_cit_benchmark(datasets, "ksg").auroc
    net_auroc = run_cit_benchmark(datasets, "cmigan", CIT_CONFIG).auroc
    wall = time.monotonic() - start
    ok = ksg_auroc >= 0.9 and net_auroc >= 0.9 and wall < 3600.0
    _report(9, "cit-auroc", ok,
            f"20 datasets dz=1: ksg {ksg_auroc:.3f}, adversarial {net_auroc:.3f}, "
            f"both >= 0.9, {wall:.0f}s < 3600s")


def test_criterion_10_property_suite(tmp_path, model3_d5_report):
    start = time.monotonic()
    details = []

    # determinism of a training estimate
    rng = np.random.default_rng(0)
    z = rng.standard_normal((256, 1))
    x = z + 0.5 * rng.standard_normal((256, 1))
    y = x + z + 0.5 * rng.standard_normal((256, 1))
    s = SampleSet(np.hstack([x, y, z]), (1, 1, 1))
    tiny = EstimatorConfig(reg_hidden=(8, 4), gen_hidden=(8, 4), batch_size=64,
                           training_steps=20, runs=2, seed=0, eval_passes=2,
                           initial_lr=1e-3)
    deterministic = cmi_gan_estimate(s, tiny).per_run == cmi_gan_estimate(s, tiny).per_run
    details.append(f"determinism {deterministic}")

    # rank-form AuROC equals the pairwise definition
    auroc_ok = True
    for seed in range(20):
        r = np.random.default_rng(seed)
        scores = np.round(r.normal(size=50), 2)
        labels = r.integers(0, 2, size=50)
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        if abs(auroc(scores, labels) - auroc_bruteforce(scores, labels)) > 1e-12:
            auroc_ok = False
    details.append(f"auroc-equivalence {auroc_ok}")

    # kd-tree KSG path matches the O(n^2) reference bitwise at n=200
    r = np.random.default_rng(1)
    xs = r.standard_normal((200, 1))
    ys = 0.7 * xs + r.standard_normal((200, 1))
    e1, nx1, ny1 = _neighbor_stats_kdtree(xs, ys, 5)
    e2, nx2, ny2 = _neighbor_stats_bruteforce(xs, ys, 5)
    ksg_ok = (
        np.array_equal(e1, e2)
        and np.array_equal(nx1, nx2)
        and np.array_equal(ny1, ny2)
        and ksg_mi(xs, ys) == ksg_mi_bruteforce(xs, ys, 5)
    )
    details.append(f"ksg-equivalence {ksg_ok}")

    # CSV round trip is bit exact
    path = str(tmp_path / "roundtrip.csv")
    save_csv(s, path)
    loaded = load_csv(path, ColumnMapping(x_cols=["x0"], y_cols=["y0"], z_cols=["z0"]))
    csv_ok = np.array_equal(loaded.samples.data, s.data)
    details.append(f"csv-roundtrip {csv_ok}")

    # learning-rate schedule never increases and respects the floor
    for mode in ("total_decay", "per_interval"):
        sched = ScheduleConfig(initial_lr=5e-5, interval_steps=1000, decay_factor=10.0,
                               mode=mode, total_steps=30000)
        lrs = [lr_at(t, sched) for t in range(0, 60001, 250)]
        sched_ok = all(a >= b for a, b in zip(lrs, lrs[1:])) and min(lrs) >= 1e-8
        if not sched_ok:
            break
    details.append(f"schedule-monotone {sched_ok}")

    # Model 3 structure is a sum of per-dimension terms, so the estimate
    # at d dims tracks d times the 1-dim estimate (same config, 3 runs)
    d5_report, _ = model3_d5_report
    s1, _ = gen_linear3(20000, 1, seed=1)
    d1_report = cmi_gan_estimate(s1, MODEL3_CONFIG)
    additive_dev = abs(d5_report.mean - 5.0 * d1_report.mean) / (5.0 * d1_report.mean)
    additive_ok = additive_dev < 0.10
    details.append(f"model3-additivity {additive_ok} (rel dev {additive_dev:.3f})")

    wall = time.monotonic() - start
    ok = deterministic and auroc_ok and ksg_ok and csv_ok and sched_ok and additive_ok
    _report(10, "property-suite", ok, ", ".join(details) + f", {wall:.1f}s")
