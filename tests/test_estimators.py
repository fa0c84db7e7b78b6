import dataclasses
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmigan import estimators
from cmigan.citest import run_cit_benchmark
from cmigan.datagen import ModelParams, gen_cit, gen_gauss, gen_linear1, generate
from cmigan.dataio import ColumnMapping, load_csv
from cmigan.estimators import (
    ESTIMATOR_IDS,
    EstimateReport,
    EstimatorConfig,
    SampleSet,
    cmi_gan_estimate,
    estimate,
    f_mine_mi_estimate,
    mi_diff_cmi_estimate,
    mi_diff_gan_estimate,
    mi_gan_estimate,
)
from cmigan.neuralnet import MLPSpec, ScheduleConfig, gradient_check

from oracle_tools import hex_floats as _pin

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

    @pytest.mark.parametrize("data, dims, error", [
        (np.zeros(4), (1, 1, 2), "data must be 2-d"),
        (np.zeros((10, 4)), (1, 3), "dims must be"),
        (np.zeros((10, 4)), (1, 1, -1), "need dx >= 1, dy >= 1, dz >= 0"),
        (np.zeros((10, 4)), (0, 2, 2), "need dx >= 1, dy >= 1, dz >= 0"),
    ], ids=["1-d-data", "two-dims", "negative-dz", "zero-dx"])
    def test_rejects_bad_shape_or_dims(self, data, dims, error):
        with pytest.raises(ValueError, match=error):
            SampleSet(data, dims)

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


    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), col=st.integers(0, 3))
    def test_standardized_is_invariant_to_power_of_two_column_scales(self, seed, col):
        rng = np.random.default_rng(seed)
        # |values| in [2**-8, 2), so every scale below keeps them normal and finite
        data = rng.choice([-1.0, 1.0], (64, 4)) * np.exp2(rng.uniform(-8.0, 1.0, (64, 4)))
        want = SampleSet(data, (1, 1, 2)).standardized().data
        for k in range(-1013, 1023):
            scaled = data.copy()
            scaled[:, col] = np.ldexp(scaled[:, col], k)
            got = SampleSet(scaled, (1, 1, 2)).standardized().data
            assert np.isfinite(got).all(), k
            assert got.tobytes() == want.tobytes(), k


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
        back = EstimatorConfig(**cfg.to_dict())
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

    @pytest.mark.parametrize("widths", [(-3, 2.5), (4, 2.5), (0,), (float("inf"),), (float("nan"),)],
                             ids=["negative", "fractional", "zero", "inf", "nan"])
    @pytest.mark.parametrize("name", ["reg_hidden", "gen_hidden"])
    def test_hidden_widths_must_be_positive_integers(self, name, widths):
        with pytest.raises(ValueError, match=f"{name} widths must be positive integers"):
            EstimatorConfig(**{name: widths})
        # an empty tuple is a single linear map
        assert getattr(EstimatorConfig(**{name: ()}), name) == ()

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 64.5), ("batch_size", 64.0), ("batch_size", True), ("batch_size", "64"),
        ("training_steps", 2.5), ("seed", 1.5), ("seed", True), ("eval_passes", 1.5),
        ("reg_training_ratio", 1.5), ("runs", True), ("noise_dim", 2.0), ("lr_interval_steps", None),
        ("initial_lr", True), ("initial_lr", "1e-3"), ("initial_lr", None), ("initial_lr", 10**400),
        ("lr_decay_factor", False), ("lr_decay_factor", 1), ("lr_mode", 3), ("lr_mode", "bogus"),
        ("standardize", "no"), ("standardize", 1),
        ("record_trace", None), ("reg_hidden", "ab"), ("reg_hidden", 8), ("reg_hidden", (True,)),
        ("gen_hidden", (4.0,)), ("gen_hidden", ["8"]),
    ])
    def test_ill_typed_value_is_value_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            EstimatorConfig(**{field: value})

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        cfg = EstimatorConfig(batch_size=np.int64(64), reg_hidden=[np.int32(8), 4], seed=np.uint8(3),
                              initial_lr=np.float64(1e-3), lr_decay_factor=2)
        assert cfg == EstimatorConfig(batch_size=64, reg_hidden=(8, 4), seed=3, initial_lr=1e-3,
                                      lr_decay_factor=2.0)
        assert [type(v) for v in (cfg.batch_size, cfg.reg_hidden[0], cfg.seed)] == [int] * 3
        assert type(cfg.lr_decay_factor) is float
        json.dumps(cfg.to_dict())


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

    def test_run_nets_hold_one_buffer_set(self, monkeypatch):
        # the arrays a cmigan run's nets hold at train-ref shapes (linear3
        # d=5, batch 4096, default nets), from the layer widths: per net its
        # params, RMSProp state and the buffers' gradients (3 params-sized
        # sets, 4 with a critic's joint accumulator), one input array, one
        # output per layer, one input gradient and one bool mask as wide as
        # the widest hidden layer; 19.8 MB in all, which a second critic
        # buffer set or a per-layer delta array would break
        nets = []

        class Recorded(estimators._Net):
            def __init__(self, *args):
                super().__init__(*args)
                nets.append(self)

        def array_bytes(obj) -> int:
            if isinstance(obj, np.ndarray):
                return obj.nbytes
            if isinstance(obj, (list, tuple)):
                return sum(array_bytes(v) for v in obj)
            return sum(array_bytes(v) for v in getattr(obj, "__dict__", {}).values())

        monkeypatch.setattr(estimators, "_Net", Recorded)
        b, d = 4096, 5
        data = np.random.default_rng(0).standard_normal((b, 3 * d))
        cfg = EstimatorConfig(training_steps=1, eval_passes=1)
        estimators._train_run("cmigan", data, (d, d, d), cfg, seed=0)
        critic_dims, gen_dims = (3 * d, 128, 32, 1), (2 * d, 256, 64, d)
        expected = 0
        for dims, param_sets in ((critic_dims, 4), (gen_dims, 3)):
            params = sum(a * c + c for a, c in zip(dims[:-1], dims[1:]))
            floats = param_sets * params + b * (2 * dims[0] + sum(dims[1:]))
            expected += 8 * floats + b * max(dims[1:-1])
        assert [n.params.spec.layer_dims() for n in nets] == [critic_dims, gen_dims]
        assert sum(array_bytes(n) for n in nets) == expected == 19_805_336

    def test_parallel_jobs_match_serial(self):
        s = _toy_cmi_samples()
        serial = cmi_gan_estimate(s, TINY, jobs=1)
        parallel = cmi_gan_estimate(s, TINY, jobs=2)
        assert serial.per_run == parallel.per_run


    def test_report_json_bytes_pinned(self):
        # the key order of a report with a failed run, which a comparison
        # of dicts cannot see; trace rows are tuples, written as lists
        rep = EstimateReport(
            "cmigan", [0.25, -0.0], 0.125, 0.17677669529663687,
            [{"run": 1, "seed": 8, "reason": "generator loss became non-finite at step 3"}],
            {
                "runs": [{"seed": 7, "final_reg_loss": -0.5, "trace": [(0, -0.5, float("nan"))]}],
                "lr": {"first": 0.001, "last": 0.0001},
                "clamp_warnings": 0,
            },
        )
        assert json.dumps(rep.to_dict(), indent=2) == _ESTIMATE_REPORT_JSON


_ESTIMATE_REPORT_JSON = """{
  "estimator": "cmigan",
  "per_run": [
    0.25,
    -0.0
  ],
  "mean": 0.125,
  "std": 0.17677669529663687,
  "failed_runs": [
    {
      "run": 1,
      "seed": 8,
      "reason": "generator loss became non-finite at step 3"
    }
  ],
  "diagnostics": {
    "runs": [
      {
        "seed": 7,
        "final_reg_loss": -0.5,
        "trace": [
          [
            0,
            -0.5,
            NaN
          ]
        ]
      }
    ],
    "lr": {
      "first": 0.001,
      "last": 0.0001
    },
    "clamp_warnings": 0
  }
}"""


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
        # one game per run: one diagnostics entry per run, run r seeded seed + r
        rep = mi_diff_cmi_estimate(_toy_cmi_samples(), config=TINY)
        assert rep.estimator == "midiff-fmine"
        assert len(rep.per_run) == 2
        assert [d["seed"] for d in rep.diagnostics["runs"]] == [TINY.seed, TINY.seed + 1]
        assert not {"full", "marginal"} & set(rep.diagnostics)

    def test_difference_identity_against_manual_composition(self):
        # a run's estimate is the mean of its eval passes, each one signed
        # sum of the two critics' bounds
        rep = mi_diff_cmi_estimate(_toy_cmi_samples(), config=TINY)
        assert rep.per_run == [float(np.mean(d["eval_values"])) for d in rep.diagnostics["runs"]]


class TestDispatch:
    def test_ids_cover_dispatcher(self):
        assert ESTIMATOR_IDS == ("cmigan", "migan", "midiffgan", "fmine", "midiff-fmine", "ksg")

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


def _check_run_accounting(report: dict, runs: int, seed: int):
    """Each of the ``runs`` runs is kept, in the diagnostics, or has
    exactly one failure record; the records are in run order."""
    kept = {run["seed"] - seed for run in report["diagnostics"]["runs"]}
    failed = [failure["run"] for failure in report["failed_runs"]]
    assert len(report["per_run"]) + len(failed) == runs
    assert len(kept) == len(report["per_run"])
    assert failed == sorted(set(failed)) and not kept & set(failed)


@pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
def test_golden_run_accounting(golden, case):
    _, overrides, _ = _GOLDEN_CASES[case]
    _check_run_accounting(golden[case], overrides.get("runs", TINY.runs), TINY.seed)


def test_midiff_fmine_records_a_run_failing_in_both_terms_once():
    # the pool path: 3 runs over 2 workers, each run failing in both critics' terms
    cfg = dataclasses.replace(TINY, initial_lr=1e200, runs=3)
    with np.errstate(all="ignore"):
        report = estimate(_toy_cmi_samples(), "midiff-fmine", cfg, jobs=2).to_dict()
    _check_run_accounting(report, 3, cfg.seed)
    assert [failure["run"] for failure in report["failed_runs"]] == [0, 1, 2]


@pytest.mark.parametrize("est", _NETWORK_IDS)
def test_parallel_equals_serial_bitwise(est):
    samples = _toy_mi_samples() if est in ("migan", "fmine") else _toy_cmi_samples()
    cfg = dataclasses.replace(TINY, record_trace=True, runs=3)
    serial = _pin(estimate(samples, est, cfg, jobs=1).to_dict())
    assert _pin(estimate(samples, est, cfg, jobs=2).to_dict()) == serial


@pytest.mark.parametrize("est", _NETWORK_IDS)
def test_default_jobs_equals_serial_bitwise(est):
    samples = _toy_mi_samples() if est in ("migan", "fmine") else _toy_cmi_samples()
    cfg = dataclasses.replace(TINY, record_trace=True)
    serial = _pin(estimate(samples, est, cfg, jobs=1).to_dict())
    assert _pin(estimate(samples, est, cfg).to_dict()) == serial


def _cmi_report(est: str, jobs=None) -> dict:
    return _pin(estimate(_toy_cmi_samples(), est, TINY, jobs=jobs).to_dict())


@pytest.mark.parametrize("est", ["cmigan", "midiff-fmine"])
def test_default_jobs_in_daemonic_worker_is_serial_bitwise(est):
    # a daemonic process may not start children, so the runs take turns
    with multiprocessing.Pool(1) as pool:
        assert pool.apply_async(_cmi_report, (est,)).get(timeout=120) == _cmi_report(est, 1)


def test_one_usable_cpu_starts_no_pool_bitwise(monkeypatch):
    serial = _cmi_report("cmigan", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(estimators, "ProcessPoolExecutor", no_pool)
    assert _cmi_report("cmigan") == serial


def test_blas_core_names_the_kernel_openblas_runs():
    if estimators.blas_core() is None or platform.machine() != "x86_64":
        pytest.skip("needs OpenBLAS on x86-64, which can run its Sandybridge kernel")
    src = os.path.dirname(os.path.dirname(estimators.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "from cmigan.estimators import blas_core; print(blas_core())"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Sandybridge"},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "Sandybridge"


def test_midiff_fmine_terms_share_one_pool(monkeypatch):
    # both terms of a run train in one task, so --runs R is R tasks for one pool
    if not estimators._blas_thread_setters():
        pytest.skip("no OpenBLAS thread setter: every run stays in process")
    pools, tasks = [], []
    pool_class = estimators.ProcessPoolExecutor
    map_tasks = estimators._parallel_map

    def counted_pool(*args, **kwargs):
        pools.append(args)
        return pool_class(*args, **kwargs)

    def counted_map(fn, task_list, jobs):
        tasks.extend(task_list)
        return map_tasks(fn, task_list, jobs)

    monkeypatch.setattr(estimators, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(estimators, "_parallel_map", counted_map)
    cfg = dataclasses.replace(TINY, runs=3)
    estimate(_toy_cmi_samples(), "midiff-fmine", cfg, jobs=2)
    assert len(pools) == 1
    assert [task[-1] for task in tasks] == [0, 1, 2]


@pytest.mark.parametrize("jobs", [0, -3, 1.5, "2", True])
@pytest.mark.parametrize("entry", ["estimate", "run_cit_benchmark"])
def test_bad_jobs_is_value_error(entry, jobs):
    s = _toy_cmi_samples()
    with pytest.raises(ValueError, match="jobs"):
        if entry == "estimate":
            estimate(s, "cmigan", TINY, jobs=jobs)
        else:
            run_cit_benchmark([(s, "CI"), (s, "CD")], "cmigan", TINY, jobs=jobs)


# library calls that each take a value of the wrong type or out of its
# bound, as (id, call, the argument its error names)
_ILL_TYPED_CALLS = [
    ("schedule-string-lr", lambda: ScheduleConfig("0.1", 1000, 10.0), "initial_lr"),
    ("schedule-fractional-interval", lambda: ScheduleConfig(1e-3, 2.5, 10.0), "interval_steps"),
    ("schedule-per-interval-0-steps",
     lambda: ScheduleConfig(1e-3, 1000, 10.0, mode="per_interval", total_steps=0), "total_steps"),
    ("spec-bool-width", lambda: MLPSpec(True, (3,), 1), "input_dim"),
    ("spec-float-width", lambda: MLPSpec(2.0, (3,), 1), "input_dim"),
    ("sampleset-fractional-dims", lambda: SampleSet(np.zeros((4, 3)), (1.7, 1, 1)), "dims"),
    ("gen-fractional-n", lambda: gen_linear1(10.5, 1, 0), "n"),
    ("gradcheck-fractional-nets", lambda: gradient_check(num_nets=1.5), "num_nets"),
    ("cit-string-threshold", lambda: run_cit_benchmark([], "ksg", threshold="0.1"), "threshold"),
    ("cit-bool-threshold", lambda: run_cit_benchmark([], "ksg", threshold=True), "threshold"),
    ("generate-gauss-string-rho", lambda: generate("gauss", 100, 0, d=1, rho="0.5"), "rho"),
    ("gauss-string-rho", lambda: gen_gauss(50, 1, "0.5", 0), "rho"),
    ("cit-string-dependent", lambda: gen_cit(50, 1, "no", 0), "dependent"),
    ("generate-cit-string-dependent", lambda: generate("cit", 50, 0, dependent="no"), "dependent"),
    # checked before the file, which no test writes, is opened
    ("load-csv-string-semicolon",
     lambda: load_csv("never-written.csv", ColumnMapping.from_dims((1, 1, 1)), semicolon="no"), "semicolon"),
    # a file descriptor: 0 would read stdin
    ("load-csv-int-path", lambda: load_csv(0, ColumnMapping.from_dims((1, 1, 1))), "path"),
    ("mapping-two-dims", lambda: ColumnMapping.from_dims((1, 1)), "dims"),
    ("mapping-negative-dz", lambda: ColumnMapping.from_dims((1, 1, -1)), "dims"),
    ("model-params-fractional-n", lambda: ModelParams.from_dict(
        {"model": "linear1", "n": 100.7, "dx": 1, "dy": 1, "dz": 1, "seed": 0.9}), "n"),
    ("model-params-bool-n", lambda: ModelParams("linear1", True, 1, 1, 1, -3), "n"),
]


@pytest.mark.parametrize("call, name", [row[1:] for row in _ILL_TYPED_CALLS],
                         ids=[row[0] for row in _ILL_TYPED_CALLS])
def test_ill_typed_argument_is_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"^{name} "):
        call()
