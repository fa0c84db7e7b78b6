import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from cmigan.estimators import (
    ESTIMATOR_IDS,
    EstimatorConfig,
    SampleSet,
    cmi_gan_estimate,
    estimate,
    f_mine_mi_estimate,
    mi_diff_cmi_estimate,
    mi_diff_gan_estimate,
    mi_gan_estimate,
)

TINY = EstimatorConfig(
    reg_hidden=(8, 4),
    gen_hidden=(8, 4),
    batch_size=64,
    training_steps=30,
    runs=2,
    seed=0,
    eval_passes=2,
    initial_lr=1e-3,
)


def _toy_cmi_samples(n=256, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2))
    x = z[:, :1] + 0.5 * rng.standard_normal((n, 1))
    y = x + z[:, :1] + 0.5 * rng.standard_normal((n, 1))
    return SampleSet(np.hstack([x, y, z]), (1, 1, 2))


def _toy_mi_samples(n=256, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1))
    y = 0.8 * x + 0.6 * rng.standard_normal((n, 1))
    return SampleSet(np.hstack([x, y]), (1, 1, 0))


class TestSampleSet:
    def test_views_and_shapes(self):
        s = _toy_cmi_samples()
        assert s.n == 256
        assert (s.dx, s.dy, s.dz) == (1, 1, 2)
        assert s.x.shape == (256, 1)
        assert s.z.shape == (256, 2)
        assert np.array_equal(np.hstack([s.x, s.y, s.z]), s.data)

    def test_dims_must_match_columns(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((10, 3)), (1, 1, 2))

    def test_rejects_nonfinite(self):
        data = np.zeros((10, 4))
        data[3, 1] = np.nan
        with pytest.raises(ValueError):
            SampleSet(data, (1, 1, 2))

    def test_standardized_moments(self):
        s = _toy_cmi_samples().standardized()
        assert np.allclose(s.data.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(s.data.std(axis=0), 1.0, atol=1e-12)

    def test_standardized_constant_column(self):
        data = np.hstack([np.ones((50, 1)), np.random.default_rng(0).normal(size=(50, 1))])
        s = SampleSet(data, (1, 1, 0)).standardized()
        assert np.all(np.isfinite(s.data))
        assert np.allclose(s.x, 0.0)


class TestConfig:
    def test_defaults_mirror_reference_regime(self):
        cfg = EstimatorConfig()
        assert cfg.reg_hidden == (128, 32)
        assert cfg.gen_hidden == (256, 64)
        assert cfg.batch_size == 4096
        assert cfg.training_steps == 30000
        assert cfg.reg_training_ratio == 2
        assert cfg.eval_passes == 10
        assert cfg.initial_lr == 5e-5

    def test_cit_defaults(self):
        cfg = EstimatorConfig.cit_defaults()
        assert cfg.reg_hidden == (128, 32, 8)
        assert cfg.gen_hidden == (128, 64, 16)
        assert cfg.initial_lr == 1e-3
        assert cfg.training_steps == 10000
        over = EstimatorConfig.cit_defaults(training_steps=77)
        assert over.training_steps == 77
        assert over.gen_hidden == (128, 64, 16)

    def test_dict_round_trip(self):
        cfg = dataclasses.replace(TINY, noise_dim=3, lr_mode="per_interval")
        back = EstimatorConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(batch_size=0)
        with pytest.raises(ValueError):
            EstimatorConfig(training_steps=-1)
        with pytest.raises(ValueError):
            EstimatorConfig(runs=0)
        with pytest.raises(ValueError):
            EstimatorConfig(lr_mode="bogus")
        with pytest.raises(ValueError):
            EstimatorConfig(reg_training_ratio=0)


class TestMechanics:
    def test_deterministic_given_seed(self):
        s = _toy_cmi_samples()
        a = cmi_gan_estimate(s, TINY)
        b = cmi_gan_estimate(s, TINY)
        assert a.per_run == b.per_run
        assert a.mean == b.mean

    def test_runs_are_seeded_independently(self):
        s = _toy_cmi_samples()
        rep = cmi_gan_estimate(s, TINY)
        assert len(rep.per_run) == 2
        assert rep.per_run[0] != rep.per_run[1]
        seeds = [d["seed"] for d in rep.diagnostics["runs"]]
        assert seeds == [0, 1]

    def test_report_invariants(self):
        s = _toy_cmi_samples()
        rep = cmi_gan_estimate(s, TINY)
        assert rep.estimator == "cmigan"
        assert rep.mean == pytest.approx(float(np.mean(rep.per_run)))
        assert rep.std == pytest.approx(float(np.std(rep.per_run, ddof=1)))
        assert rep.failed_runs == []
        assert np.isfinite(rep.mean)
        d = rep.to_dict()
        assert d["estimator"] == "cmigan"
        assert len(d["per_run"]) == 2

    def test_single_run_zero_std(self):
        s = _toy_cmi_samples()
        rep = cmi_gan_estimate(s, dataclasses.replace(TINY, runs=1))
        assert rep.std == 0.0
        assert len(rep.per_run) == 1

    def test_batch_larger_than_n_rejected(self):
        s = _toy_cmi_samples(n=32)
        with pytest.raises(ValueError):
            cmi_gan_estimate(s, TINY)

    def test_dz_preconditions(self):
        cmi_data = _toy_cmi_samples()
        mi_data = _toy_mi_samples()
        with pytest.raises(ValueError):
            cmi_gan_estimate(mi_data, TINY)
        with pytest.raises(ValueError):
            mi_gan_estimate(cmi_data, TINY)
        with pytest.raises(ValueError):
            mi_diff_gan_estimate(mi_data, TINY)
        with pytest.raises(ValueError):
            mi_diff_cmi_estimate(mi_data, config=TINY)
        with pytest.raises(ValueError):
            f_mine_mi_estimate(cmi_data, TINY)

    def test_divergent_lr_counts_as_failed_run(self):
        s = _toy_cmi_samples()
        cfg = dataclasses.replace(TINY, initial_lr=1e154, runs=2)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = cmi_gan_estimate(s, cfg)
        assert len(rep.failed_runs) + len(rep.per_run) == 2
        assert len(rep.failed_runs) > 0
        for failure in rep.failed_runs:
            assert set(failure) == {"run", "seed", "reason"}
        if not rep.per_run:
            assert math.isnan(rep.mean)

    def test_standardize_flag_changes_scaling_sensitivity(self):
        s = _toy_cmi_samples()
        scaled = SampleSet(s.data * np.array([100.0, 0.01, 1.0, 1.0]), s.dims)
        rep_a = cmi_gan_estimate(s, TINY)
        rep_b = cmi_gan_estimate(scaled, TINY)
        assert rep_a.per_run == pytest.approx(rep_b.per_run, rel=1e-9)

    def test_trace_recording(self):
        s = _toy_cmi_samples()
        cfg = dataclasses.replace(TINY, record_trace=True, runs=1)
        rep = cmi_gan_estimate(s, cfg)
        trace = rep.diagnostics["runs"][0]["trace"]
        assert len(trace) == cfg.training_steps
        # rows are (step, reg_loss, gen_loss)
        steps = [row[0] for row in trace]
        assert steps == list(range(cfg.training_steps))
        assert all(len(row) == 3 for row in trace)

    def test_last_batch_estimate_in_diagnostics(self):
        s = _toy_cmi_samples()
        rep = cmi_gan_estimate(s, dataclasses.replace(TINY, runs=1))
        diag = rep.diagnostics["runs"][0]
        assert "last_batch_estimate" in diag
        assert np.isfinite(diag["last_batch_estimate"])

    def test_peak_memory_grows_with_batch_not_with_n(self):
        # the evaluation runs the n rows in batch-sized blocks through the
        # run's buffers, so only the data, the eval noise and the per-row
        # scores grow with n; all-n activations of the 256-wide generator
        # layer alone would add 2 KB a row
        cfg = dataclasses.replace(
            TINY, gen_hidden=(256, 64), batch_size=64, training_steps=5, runs=1
        )
        peaks = {}
        for n in (1024, 8192):
            samples = _toy_cmi_samples(n=n)
            tracemalloc.start()
            try:
                cmi_gan_estimate(samples, cfg)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[8192] - peaks[1024]) / (8192 - 1024) <= 256

    def test_parallel_jobs_match_serial(self):
        s = _toy_cmi_samples()
        serial = cmi_gan_estimate(s, TINY, jobs=1)
        parallel = cmi_gan_estimate(s, TINY, jobs=2)
        assert serial.per_run == parallel.per_run


class TestVariants:
    def test_mi_gan_runs_on_mi_data(self):
        rep = mi_gan_estimate(_toy_mi_samples(), TINY)
        assert rep.estimator == "migan"
        assert len(rep.per_run) == 2

    def test_mi_diff_gan_runs(self):
        rep = mi_diff_gan_estimate(_toy_cmi_samples(), TINY)
        assert rep.estimator == "midiffgan"
        assert np.isfinite(rep.mean)

    def test_mi_diff_gan_last_batch_estimate_tracks_eval(self):
        # the last-batch value is the same difference DV1 - DV2 as the
        # estimate, only on one batch, so it stays near the eval values
        rep = mi_diff_gan_estimate(_toy_cmi_samples(), TINY)
        for run in rep.diagnostics["runs"]:
            assert abs(run["last_batch_estimate"] - np.mean(run["eval_values"])) < 0.2

    def test_fmine_runs(self):
        rep = f_mine_mi_estimate(_toy_mi_samples(), TINY)
        assert rep.estimator == "fmine"
        assert np.isfinite(rep.mean)
        assert "clamp_warnings" in rep.diagnostics

    def test_mi_diff_pairing_uses_matched_seeds(self):
        s = _toy_cmi_samples()
        rep = mi_diff_cmi_estimate(s, config=TINY)
        assert rep.estimator == "midiff-fmine"
        assert len(rep.per_run) == 2
        full = rep.diagnostics["full"]["runs"]
        marg = rep.diagnostics["marginal"]["runs"]
        assert [d["seed"] for d in full] == [d["seed"] for d in marg]

    def test_difference_identity_against_manual_composition(self):
        s = _toy_cmi_samples()
        rep = mi_diff_cmi_estimate(s, config=TINY)
        std = s.standardized()
        sub = dataclasses.replace(TINY, standardize=False)
        full = f_mine_mi_estimate(SampleSet(std.data, (1, 3, 0)), sub)
        marg = f_mine_mi_estimate(SampleSet(np.hstack([std.x, std.z]), (1, 2, 0)), sub)
        manual = [a - b for a, b in zip(full.per_run, marg.per_run)]
        assert rep.per_run == pytest.approx(manual, abs=1e-12)


class TestDispatch:
    def test_ids_cover_dispatcher(self):
        assert set(ESTIMATOR_IDS) == {
            "cmigan",
            "migan",
            "midiffgan",
            "fmine",
            "midiff-fmine",
            "ksg",
        }

    def test_dispatch_matches_direct_calls(self):
        s = _toy_cmi_samples()
        assert estimate(s, "cmigan", TINY).per_run == cmi_gan_estimate(s, TINY).per_run
        mi = _toy_mi_samples()
        assert estimate(mi, "fmine", TINY).per_run == f_mine_mi_estimate(mi, TINY).per_run

    def test_ksg_dispatch_standardizes_like_the_networks(self):
        s = _toy_cmi_samples(n=512)
        rep = estimate(s, "ksg")
        from cmigan.knn import ksg_cmi

        std = s.standardized()
        assert rep.per_run[0] == ksg_cmi(std.x, std.y, std.z)
        assert rep.std == 0.0

    def test_ksg_dispatch_mi_branch(self):
        mi = _toy_mi_samples(n=512)
        rep = estimate(mi, "ksg")
        from cmigan.knn import ksg_mi

        std = mi.standardized()
        assert rep.per_run[0] == ksg_mi(std.x, std.y)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            estimate(_toy_mi_samples(), "magic")


class TestStatisticalSanity:
    def test_cmi_tracks_dependence_direction(self):
        # with a modest budget the estimator must still rank a dependent
        # dataset above an independent one
        rng = np.random.default_rng(0)
        n = 2000
        z = rng.standard_normal((n, 1))
        x_ci = z + 0.5 * rng.standard_normal((n, 1))
        y_ci = z + 0.5 * rng.standard_normal((n, 1))
        ci = SampleSet(np.hstack([x_ci, y_ci, z]), (1, 1, 1))
        x_cd = z + 0.5 * rng.standard_normal((n, 1))
        y_cd = x_cd + z + 0.5 * rng.standard_normal((n, 1))
        cd = SampleSet(np.hstack([x_cd, y_cd, z]), (1, 1, 1))
        cfg = EstimatorConfig(
            reg_hidden=(32, 16),
            gen_hidden=(32, 16),
            batch_size=256,
            training_steps=400,
            runs=1,
            seed=0,
            initial_lr=1e-3,
        )
        rep_ci = cmi_gan_estimate(ci, cfg)
        rep_cd = cmi_gan_estimate(cd, cfg)
        assert rep_cd.mean > rep_ci.mean + 0.1

    def test_permutation_of_rows_changes_little(self):
        # row order only enters through batching; the estimate is a
        # statistic of the empirical distribution, so a permuted copy
        # stays statistically indistinguishable (not bitwise equal):
        # the means over 10 runs agree within 2 run-level stds
        s = _toy_cmi_samples(n=1024, seed=3)
        perm = np.random.default_rng(9).permutation(1024)
        sp = SampleSet(s.data[perm], s.dims)
        cfg = dataclasses.replace(TINY, training_steps=200, batch_size=256, runs=10)
        rep_a = cmi_gan_estimate(s, cfg)
        rep_b = cmi_gan_estimate(sp, cfg)
        spread = max(rep_a.std, rep_b.std)
        assert abs(rep_a.mean - rep_b.mean) < 2.0 * spread


# Golden reports of every network estimator, compared as float.hex so a
# refactor of the training loop cannot move a single bit (not even the
# sign of a zero). Each case is (estimator id, config overrides on TINY
# with a trace, jobs); the lr cases diverge on purpose and pin the
# failure records as well as any run that survives.
_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_network_estimators.json")
_NETWORK_IDS = ("cmigan", "migan", "midiffgan", "fmine", "midiff-fmine")
_GOLDEN_CASES = {
    **{est: (est, {}, 1) for est in _NETWORK_IDS},
    "cmigan-ratio3-noise3": ("cmigan", {"reg_training_ratio": 3, "noise_dim": 3}, 1),
    "fmine-ratio3-noise3": ("fmine", {"reg_training_ratio": 3, "noise_dim": 3}, 1),
    "midiffgan-unstandardized": ("midiffgan", {"standardize": False}, 1),
    "midiffgan-jobs2": ("midiffgan", {}, 2),
    # 100 does not divide the 256 rows, so the last row block is short
    **{f"{est}-batch100": (est, {"batch_size": 100}, 1) for est in _NETWORK_IDS},
    **{
        f"{est}-lr{lr:g}": (est, {"initial_lr": lr, "runs": 3}, 1)
        for est in _NETWORK_IDS
        for lr in (1e6, 1e100, 1e200)
    },
}


def _pin(value):
    """The report with every float replaced by its float.hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _pin(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pin(v) for v in value]
    return value


def _golden_report(case: str) -> dict:
    est, overrides, jobs = _GOLDEN_CASES[case]
    samples = _toy_mi_samples() if est in ("migan", "fmine") else _toy_cmi_samples()
    cfg = dataclasses.replace(TINY, record_trace=True, **overrides)
    with np.errstate(all="ignore"):
        return _pin(estimate(samples, est, cfg, jobs=jobs).to_dict())


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_cases_are_all_pinned(golden):
    assert sorted(golden) == sorted(_GOLDEN_CASES)


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_golden_reports_bitwise(golden, case):
    assert _golden_report(case) == golden[case]
