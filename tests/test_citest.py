import ctypes
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmigan
from cmigan import citest
from cmigan.citest import (
    DEFAULT_THRESHOLD,
    CITBenchReport,
    CITEntry,
    auroc,
    ci_decide,
    run_cit_benchmark,
)
from cmigan.datagen import gen_cit
from cmigan import estimators
from cmigan.estimators import EstimatorConfig, _parallel_map

from oracle_tools import auroc_bruteforce, hex_floats


def test_import_does_not_load_scipy_stats():
    # nor any other scipy module: scipy.stats alone takes over a second to
    # import, auroc needs only numpy, and KSG loads scipy on its first call
    src = str(Path(cmigan.__file__).resolve().parents[1])
    code = "import sys, cmigan, cmigan.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestDecision:
    def test_threshold_is_strict(self):
        assert ci_decide(0.01) == "CI"
        assert ci_decide(0.010000001) == "CD"
        assert ci_decide(-0.5) == "CI"
        assert ci_decide(0.2, threshold=0.3) == "CI"

    def test_default_threshold(self):
        assert DEFAULT_THRESHOLD == 0.01

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ci_decide(float("nan"))


class TestAuroc:
    def test_textbook_example(self):
        # one inversion among the 2x2 = 4 pairs leaves 3 wins -> 0.75
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_and_inverted(self):
        assert auroc([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1]) == 1.0
        assert auroc([4.0, 3.0, 2.0, 1.0], [0, 0, 1, 1]) == 0.0

    def test_ties_count_half(self):
        assert auroc([1.0, 1.0], [0, 1]) == 0.5
        assert auroc([2.0, 1.0, 2.0], [0, 0, 1]) == 0.75

    def test_label_validation(self):
        with pytest.raises(ValueError):
            auroc([1.0, 2.0], [0, 0])
        with pytest.raises(ValueError):
            auroc([1.0, 2.0], [1, 2])
        with pytest.raises(ValueError):
            auroc([1.0, np.inf], [0, 1])
        with pytest.raises(ValueError):
            auroc([[1.0], [2.0]], [[0], [1]])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False).map(lambda v: round(v, 2)),
                st.integers(0, 1),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_rank_form_equals_pairwise(self, pairs):
        scores = np.array([p[0] for p in pairs])
        labels = np.array([p[1] for p in pairs])
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        # both count wins plus half-ties exactly, then divide once
        assert auroc(scores, labels) == auroc_bruteforce(scores, labels)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scores = np.round(rng.normal(size=30), 2)  # rounding forces ties
            labels = rng.integers(0, 2, size=30)
            if labels.sum() in (0, len(labels)):
                labels[0] = 1 - labels[0]
            base = auroc(scores, labels)
            assert auroc(np.exp(scores), labels) == base
            assert auroc(3.0 * scores + 11.0, labels) == base
            assert auroc(np.arctan(scores), labels) == base

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = np.round(rng.normal(size=25), 1)
            labels = rng.integers(0, 2, size=25)
            if labels.sum() in (0, len(labels)):
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) + auroc(scores, 1 - labels) == 1.0


TINY = EstimatorConfig(
    reg_hidden=(8, 4),
    gen_hidden=(8, 4),
    batch_size=64,
    training_steps=20,
    runs=1,
    seed=0,
    eval_passes=2,
    initial_lr=1e-3,
)


def _suite(n_each=2, n=200):
    datasets = []
    for i in range(n_each):
        s, _, label = gen_cit(n, 1, False, seed=10 + i)
        datasets.append((s, label))
    for i in range(n_each):
        s, _, label = gen_cit(n, 1, True, seed=20 + i)
        datasets.append((s, label))
    return datasets


class TestBenchmark:
    def test_report_shape_and_determinism(self):
        datasets = _suite()
        rep1 = run_cit_benchmark(datasets, "ksg")
        rep2 = run_cit_benchmark(datasets, "ksg")
        assert [e.score for e in rep1.entries] == [e.score for e in rep2.entries]
        assert rep1.auroc == rep2.auroc
        assert [e.dataset_id for e in rep1.entries] == ["ds000", "ds001", "ds002", "ds003"]
        assert [e.label for e in rep1.entries] == ["CI", "CI", "CD", "CD"]
        assert all(e.decision in ("CI", "CD") for e in rep1.entries)
        assert 0.0 <= rep1.auroc <= 1.0
        assert rep1.excluded == []

    def test_network_estimator_path(self):
        datasets = _suite(n_each=1)
        rep = run_cit_benchmark(datasets, "cmigan", TINY)
        assert rep.estimator == "cmigan"
        assert len(rep.entries) == 2
        assert all(np.isfinite(e.score) for e in rep.entries)

    def test_custom_ids_and_threshold(self):
        datasets = _suite(n_each=1)
        rep = run_cit_benchmark(datasets, "ksg", threshold=0.5, ids=["a", "b"])
        assert [e.dataset_id for e in rep.entries] == ["a", "b"]
        assert rep.threshold == 0.5
        for e in rep.entries:
            assert e.decision == ("CD" if e.score > 0.5 else "CI")

    def test_id_length_mismatch(self):
        with pytest.raises(ValueError):
            run_cit_benchmark(_suite(n_each=1), "ksg", ids=["only-one"])

    def test_bad_label_rejected(self):
        s, _, _ = gen_cit(100, 1, False, seed=0)
        with pytest.raises(ValueError):
            run_cit_benchmark([(s, "yes")], "ksg")

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_nonfinite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            run_cit_benchmark(_suite(n_each=1), "ksg", threshold=threshold)

    def test_scoring_errors_are_not_excluded_datasets(self, monkeypatch):
        # only a dataset whose runs all fail is excluded; any other error
        # raised while scoring reaches the caller
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(citest, "estimate", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_cit_benchmark(_suite(n_each=1), "ksg")

    def test_to_dict_round_trip_fields(self):
        rep = run_cit_benchmark(_suite(n_each=1), "ksg")
        d = rep.to_dict()
        assert set(d) == {"estimator", "threshold", "auroc", "excluded", "entries"}
        assert len(d["entries"]) == 2
        assert set(d["entries"][0]) == {
            "dataset_id",
            "label",
            "score",
            "decision",
            "failed",
            "error",
        }

    def test_single_class_collection_has_nan_auroc(self):
        s1, _, label1 = gen_cit(100, 1, False, seed=0)
        s2, _, label2 = gen_cit(100, 1, False, seed=1)
        rep = run_cit_benchmark([(s1, label1), (s2, label2)], "ksg")
        assert np.isnan(rep.auroc)
        assert all(not e.failed for e in rep.entries)

    def test_excluded_property(self):
        rep = CITBenchReport(estimator="ksg", threshold=0.01)
        rep.entries.append(CITEntry("good", "CI", score=0.0, decision="CI"))
        rep.entries.append(CITEntry("bad", "CD", score=None, decision=None, failed=True))
        assert rep.excluded == ["bad"]

    def test_report_json_bytes_pinned(self):
        # the key order of the report and of its entries, which a
        # comparison of dicts cannot see
        rep = CITBenchReport("cmigan", 0.01, [
            CITEntry("ci.csv", "CI", 0.004, "CI"),
            CITEntry("cd.csv", "CD", None, None, failed=True, error="all runs failed"),
        ])
        assert json.dumps(rep.to_dict(), indent=2) == _CIT_REPORT_JSON


_CIT_REPORT_JSON = """{
  "estimator": "cmigan",
  "threshold": 0.01,
  "auroc": NaN,
  "excluded": [
    "cd.csv"
  ],
  "entries": [
    {
      "dataset_id": "ci.csv",
      "label": "CI",
      "score": 0.004,
      "decision": "CI",
      "failed": false,
      "error": null
    },
    {
      "dataset_id": "cd.csv",
      "label": "CD",
      "score": null,
      "decision": null,
      "failed": true,
      "error": "all runs failed"
    }
  ]
}"""


def _blas_threads() -> list:
    """The thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    names = [f"{p}_get_num_threads{s}" for s in ("64_", "") for p in ("scipy_openblas", "openblas")]
    counts = []
    for lib in map(ctypes.CDLL, paths):
        getter = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
        if getter is not None:
            counts.append(getter())
    return counts


# one CI dataset (seed 12) fails every run at lr 1e200; the others end
# with dead ReLUs and a finite score
_PARALLEL_CASES = {
    "tiny": (TINY, [(False, 10), (False, 11), (True, 20), (True, 21)]),
    "lr1e200": (
        dataclasses.replace(TINY, initial_lr=1e200, runs=2),
        [(False, 12), (False, 13), (True, 10), (True, 13)],
    ),
}


def _parallel_suite(case: str):
    cfg, seeds = _PARALLEL_CASES[case]
    datasets = []
    for dependent, seed in seeds:
        s, _, label = gen_cit(200, 1, dependent, seed=seed)
        datasets.append((s, label))
    return datasets, cfg


class TestParallel:
    @pytest.mark.parametrize("case", sorted(_PARALLEL_CASES))
    def test_parallel_equals_serial_bitwise(self, case):
        datasets, cfg = _parallel_suite(case)
        with np.errstate(all="ignore"):
            serial = run_cit_benchmark(datasets, "cmigan", cfg, jobs=1)
            parallel = run_cit_benchmark(datasets, "cmigan", cfg, jobs=2)
        if case == "lr1e200":
            assert serial.excluded == ["ds000"]
            assert serial.entries[0].error == "all runs failed"
        assert hex_floats(parallel.to_dict()) == hex_floats(serial.to_dict())

    def test_default_jobs_equals_serial_bitwise(self):
        datasets, cfg = _parallel_suite("tiny")
        serial = run_cit_benchmark(datasets, "cmigan", cfg, jobs=1)
        default = run_cit_benchmark(datasets, "cmigan", cfg)
        assert hex_floats(default.to_dict()) == hex_floats(serial.to_dict())

    def test_workers_run_one_blas_thread_and_parent_keeps_its_own(self):
        before = _blas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded")
        workers = _parallel_map(_blas_threads, [(), ()], 2)
        assert workers == [[1] * len(before)] * 2
        datasets, cfg = _parallel_suite("tiny")
        run_cit_benchmark(datasets, "cmigan", cfg, jobs=2)
        assert _blas_threads() == before

    def test_every_dataset_is_checked_before_any_run_trains(self, monkeypatch):
        calls = []
        train_run = estimators._train_run

        def counted_train_run(*args, **kwargs):
            calls.append(args[0])
            return train_run(*args, **kwargs)

        monkeypatch.setattr(estimators, "_train_run", counted_train_run)
        good, _, _ = gen_cit(200, 1, False, seed=10)
        too_few, _, _ = gen_cit(30, 1, True, seed=20)
        with pytest.raises(ValueError, match="batch_size 64 exceeds sample count 30"):
            run_cit_benchmark([(good, "CI"), (too_few, "CD")], "cmigan", TINY, jobs=1)
        assert calls == []

    def test_one_datasets_runs_share_the_pool_bitwise(self, monkeypatch):
        if not estimators._blas_thread_setters():
            pytest.skip("no OpenBLAS thread setter: every run stays in process")
        datasets, cfg = _parallel_suite("tiny")
        datasets, cfg = datasets[:1], dataclasses.replace(cfg, runs=2)
        serial = run_cit_benchmark(datasets, "cmigan", cfg, jobs=1)
        pools = []
        pool_class = estimators.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(args)
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(estimators, "ProcessPoolExecutor", counted_pool)
        parallel = run_cit_benchmark(datasets, "cmigan", cfg, jobs=2)
        assert len(pools) == 1
        assert hex_floats(parallel.to_dict()) == hex_floats(serial.to_dict())

    def test_no_blas_setter_runs_serially_bitwise(self, monkeypatch):
        datasets, cfg = _parallel_suite("tiny")
        serial = run_cit_benchmark(datasets, "cmigan", cfg, jobs=1)
        monkeypatch.setattr(estimators, "_blas_thread_setters", lambda: [])

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(estimators, "ProcessPoolExecutor", no_pool)
        fallback = run_cit_benchmark(datasets, "cmigan", cfg, jobs=2)
        assert hex_floats(fallback.to_dict()) == hex_floats(serial.to_dict())
