import csv
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cmigan import cli, estimators
from cmigan.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from cmigan.datagen import gen_cit
from cmigan.dataio import ManifestEntry, save_csv, write_manifest
from cmigan.estimators import EstimatorConfig

from oracle_tools import hex_floats

TINY_NET = [
    "--steps", "10",
    "--batch-size", "64",
    "--reg-hidden", "8,4",
    "--gen-hidden", "8,4",
    "--eval-passes", "2",
    "--lr", "1e-3",
]


def _run_facts_dropped(doc: dict) -> dict:
    """A report document less what describes how it was run rather than
    what it found: its wall time, BLAS kernel and numpy version."""
    return {key: value for key, value in doc.items() if key not in ("wall_time_s", "blas_core", "numpy")}


# a dataset spec with every field the linear1 model needs
_TINY_MODEL = {"kind": "model", "model": "linear1", "n": 100, "seed": 0, "dz": 1}
# the same for the gauss model, less its rho
_GAUSS_MODEL = {"kind": "model", "model": "gauss", "n": 100, "seed": 0, "d": 1}

# the run_config an earlier version wrote for the pinned cmigan run of
# test_golden_per_run_and_trace_bytes, with RMSProp's rho and eps as fields
_OLD_RUN_CONFIG = {
    "command": "estimate",
    "estimator": "cmigan",
    "dataset": {
        "kind": "model", "model": "linear1", "n": 256, "dz": 1, "d": None, "rho": None,
        "dependent": False, "seed": 0,
    },
    "estimator_config": {
        "reg_hidden": [8, 4], "gen_hidden": [8, 4], "batch_size": 64, "training_steps": 10,
        "reg_training_ratio": 2, "noise_dim": None, "runs": 1, "seed": 5, "eval_passes": 2,
        "initial_lr": 0.001, "lr_interval_steps": 1000, "lr_decay_factor": 10.0,
        "lr_mode": "total_decay", "rmsprop_rho": 0.9, "rmsprop_eps": 1e-08,
        "standardize": True, "record_trace": False,
    },
    "ksg": {"k": 5},
    "threshold": None,
}


# a CSV dataset spec by column names; no test writes its file
_CSV_MAPPING_SPEC = {
    "kind": "csv", "path": "never-written.csv", "dims": None, "semicolon": False,
    "mapping": {"x_cols": ["x0"], "y_cols": ["y0"], "z_cols": ["z0"]},
}
_TINY_NET_CONFIG = {"batch_size": 32, "training_steps": 1, "eval_passes": 1, "reg_hidden": [4],
                    "gen_hidden": [4]}


def _replay_doc(estimator="ksg", config=None, dataset=_TINY_MODEL, ksg=None) -> dict:
    doc = {"estimator": estimator, "estimator_config": config or {}, "dataset": dataset}
    return doc if ksg is None else {**doc, "ksg": ksg}


# bare run_configs that each hold one value of the wrong type, as (id,
# doc, the key its error names); without the type check each of these
# exits 0, 1 or 3
_ILL_TYPED_REPLAYS = [
    *[(f"{key}-{value}", _replay_doc("cmigan", {**_TINY_NET_CONFIG, key: value}), key)
      for key, value in (("batch_size", 64.5), ("training_steps", 2.5), ("seed", 1.5),
                         ("eval_passes", 1.5), ("reg_training_ratio", 1.5), ("initial_lr", True),
                         ("runs", True), ("standardize", "no"))],
    ("ksg-k-5.5", _replay_doc(ksg={"k": 5.5}), "k"),
    ("ksg-k-true", _replay_doc(ksg={"k": True}), "k"),
    ("dataset-string-x-cols", _replay_doc(dataset={
        **_CSV_MAPPING_SPEC, "mapping": {"x_cols": "ab", "y_cols": ["c"], "z_cols": []}}), "x_cols"),
    ("dataset-semicolon-no", _replay_doc(dataset={**_CSV_MAPPING_SPEC, "semicolon": "no"}), "semicolon"),
    ("dataset-dependent-yes", _replay_doc(dataset={
        "kind": "model", "model": "cit", "n": 100, "seed": 0, "dz": 1, "dependent": "yes"}), "dependent"),
    ("dataset-seed-true", _replay_doc(dataset={**_TINY_MODEL, "seed": True}), "seed"),
    ("dataset-dims-true", _replay_doc(dataset={**_CSV_MAPPING_SPEC, "dims": [True, 1, 1], "mapping": None}),
     "dims"),
    ("dataset-rho-string", _replay_doc(dataset={**_GAUSS_MODEL, "rho": "0.5"}), "rho"),
    # 0 would read the CSV from stdin, a file descriptor
    ("dataset-path-0", _replay_doc(dataset={**_CSV_MAPPING_SPEC, "path": 0}), "path"),
]
# values whose replay exits 2 without the type check too, but not with
# the error "<key> must be ..."
_UNNAMED_REPLAYS = [
    ("dataset-n-true", _replay_doc(dataset={**_TINY_MODEL, "n": True}), "n"),
    ("dataset-dz-true", _replay_doc(dataset={**_TINY_MODEL, "dz": True}), "dz"),
    ("dataset-d-float", _replay_doc(dataset={"kind": "model", "model": "linear3", "n": 100, "seed": 0,
                                             "d": 1.0}), "d"),
    ("dataset-rho-true", _replay_doc(dataset={**_GAUSS_MODEL, "rho": True}), "rho"),
    ("lr_decay_factor-1", _replay_doc("cmigan", {**_TINY_NET_CONFIG, "lr_decay_factor": 1}), "lr_decay_factor"),
    ("lr_mode-bogus", _replay_doc("cmigan", {**_TINY_NET_CONFIG, "lr_mode": "bogus"}), "lr_mode"),
]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestDatagen:
    def test_writes_csv_sidecar_and_summary(self, tmp_path, capsys):
        out = str(tmp_path / "lin.csv")
        code = main([
            "-q", "datagen", "--model", "linear1", "--n", "50",
            "--dz", "2", "--seed", "3", "--out", out,
        ])
        assert code == EXIT_OK
        assert os.path.isfile(out)
        summary = json.loads(capsys.readouterr().out)
        assert summary["n"] == 50
        assert summary["dims"] == [1, 1, 2]
        assert summary["true_cmi"] == pytest.approx(0.5 * math.log(101.0))

        side = _read_json(out + ".json")
        assert side["model"] == "linear1"
        assert side["seed"] == 3
        assert side["csv"] == "lin.csv"

        from cmigan.dataio import ColumnMapping, load_csv
        from cmigan.datagen import ModelParams, regenerate

        loaded = load_csv(out, ColumnMapping(x_cols=["x0"], y_cols=["y0"], z_cols=["z0", "z1"]))
        params = ModelParams.from_dict(side)
        assert np.array_equal(loaded.samples.data, regenerate(params).data)

    def test_cit_label_in_summary(self, tmp_path, capsys):
        out = str(tmp_path / "c.csv")
        code = main([
            "-q", "datagen", "--model", "cit", "--n", "30", "--dz", "1",
            "--dependent", "--seed", "0", "--out", out,
        ])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["label"] == "CD"

    def test_gauss_needs_rho(self, tmp_path, capsys):
        code = main([
            "-q", "datagen", "--model", "gauss", "--n", "30",
            "--out", str(tmp_path / "g.csv"),
        ])
        assert code == EXIT_USAGE


class TestEstimate:
    def test_ksg_on_csv(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["-q", "datagen", "--model", "linear3", "--n", "2000", "--d", "1",
              "--seed", "0", "--out", data])
        capsys.readouterr()
        report_path = str(tmp_path / "rep.json")
        code = main([
            "-q", "estimate", "--estimator", "ksg", "--data", data,
            "--dims", "1,1,1", "--out", report_path,
        ])
        assert code == EXIT_OK
        doc = _read_json(report_path)
        assert doc["run_config"]["estimator"] == "ksg"
        assert doc["report"]["mean"] == pytest.approx(0.5 * math.log(2.0), abs=0.1)
        assert "version" in doc
        # what decides the last bits sits beside the version, outside report
        assert doc["blas_core"] == estimators.blas_core()
        assert doc["numpy"] == np.__version__

    def test_inline_model_with_network_estimator(self, tmp_path, capsys):
        report_path = str(tmp_path / "rep.json")
        trace_path = str(tmp_path / "trace.csv")
        code = main([
            "-q", "estimate", "--estimator", "cmigan",
            "--model", "linear1", "--n", "256", "--dz", "1", "--data-seed", "0",
            "--runs", "2", "--seed", "5",
            *TINY_NET,
            "--trace", trace_path, "--out", report_path,
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(report_path)
        rep = doc["report"]
        assert rep["estimator"] == "cmigan"
        assert len(rep["per_run"]) == 2
        assert all(np.isfinite(v) for v in rep["per_run"])
        # traces live in the CSV only
        for run in rep["diagnostics"]["runs"]:
            assert "trace" not in run
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "step", "reg_loss", "gen_loss"]
        assert len(rows) == 1 + 2 * 10  # runs * steps

    def test_golden_per_run_and_trace_bytes(self, tmp_path, capsys):
        report_path = str(tmp_path / "rep.json")
        trace_path = str(tmp_path / "trace.csv")
        code = main([
            "-q", "estimate", "--estimator", "cmigan",
            "--model", "linear1", "--n", "256", "--dz", "1", "--data-seed", "0",
            "--runs", "1", "--seed", "5", *TINY_NET,
            "--trace", trace_path, "--out", report_path,
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        per_run = _read_json(report_path)["report"]["per_run"]
        assert [v.hex() for v in per_run] == ["-0x1.4fd3f3ef1bc8ap-1"]
        with open(trace_path, "rb") as fh:
            assert fh.read() == (
                b"run,step,reg_loss,gen_loss\r\n"
                b"0,0,0.8286766660458178,0.36085846590246801\r\n"
                b"0,1,0.79710867669726815,0.27101631657463893\r\n"
                b"0,2,0.76634117737384089,0.24801132302542117\r\n"
                b"0,3,0.81867598661471319,0.23226821066447673\r\n"
                b"0,4,0.64501744327924893,0.25264648195971356\r\n"
                b"0,5,0.70393422062327116,0.21713514083003532\r\n"
                b"0,6,0.70994077831400637,0.1953606479737692\r\n"
                b"0,7,0.7941039647965894,0.20938118797245114\r\n"
                b"0,8,0.61289345435054843,0.30117432925564747\r\n"
                b"0,9,0.65605673980189372,0.23014905929887247\r\n"
            )

    @pytest.mark.parametrize("estimator, lr, labels", [
        # runs 0, 2 and 3 fail, so the one traced run is run 1
        ("cmigan", "1e100", ["1"]),
        # runs 0 and 2 fail
        ("midiff-fmine", "1.78e101", ["1", "3"]),
    ], ids=["cmigan", "midiff-fmine"])
    def test_trace_labels_runs_by_index_when_runs_fail(self, tmp_path, capsys, estimator, lr,
                                                       labels):
        trace_path = str(tmp_path / "trace.csv")
        report_path = str(tmp_path / "rep.json")
        with np.errstate(all="ignore"):
            code = main([
                "-q", "estimate", "--estimator", estimator, "--model", "linear1", "--n", "256",
                "--dz", "1", "--runs", "4", "--seed", "0", "--steps", "3", "--batch-size", "64",
                "--reg-hidden", "8,4", "--gen-hidden", "8,4", "--eval-passes", "1",
                "--lr", lr, "--jobs", "1", "--trace", trace_path, "--out", report_path,
            ])
        capsys.readouterr()
        assert code == EXIT_OK
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == [label for label in labels for _ in range(3)]
        # a failed run feeds neither the diagnostics nor the trace
        report = _read_json(report_path)["report"]
        failed = {str(failure["run"]) for failure in report["failed_runs"]}
        assert len(failed) == 4 - len(labels)
        assert not failed & {str(run["seed"]) for run in report["diagnostics"]["runs"]}
        assert not failed & {row[0] for row in rows}

    def test_midiff_fmine_trace_holds_both_terms(self, tmp_path, capsys):
        # one game per run: the losses of both terms' critics share the run's rows
        report_path = str(tmp_path / "rep.json")
        trace_path = str(tmp_path / "trace.csv")
        code = main([
            "-q", "estimate", "--estimator", "midiff-fmine",
            "--model", "linear1", "--n", "256", "--dz", "1", "--data-seed", "0",
            "--runs", "2", "--seed", "5", *TINY_NET,
            "--trace", trace_path, "--out", report_path,
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        diagnostics = _read_json(report_path)["report"]["diagnostics"]
        assert not {"full", "marginal"} & set(diagnostics)
        assert [run["seed"] for run in diagnostics["runs"]] == [5, 6]
        assert all("trace" not in run for run in diagnostics["runs"])
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "step", "reg_loss", "gen_loss"]
        assert [row[0] for row in rows[1:]] == [label for label in ("0", "1") for _ in range(10)]
        assert [int(row[1]) for row in rows[1:]] == list(range(10)) * 2
        # midiff-fmine has no generator, so its generator loss is NaN
        assert all(math.isfinite(float(row[2])) and row[3] == "nan" for row in rows[1:])

    @pytest.mark.parametrize("estimator", ["cmigan", "migan", "midiffgan", "fmine",
                                           "midiff-fmine", "ksg"])
    def test_config_replay_is_bitwise(self, tmp_path, capsys, estimator):
        # migan and fmine need dz == 0; two runs, so the network ids train
        # in worker processes both times
        data = (["--model", "gauss", "--d", "1", "--rho", "0.5"] if estimator in ("migan", "fmine")
                else ["--model", "linear1", "--dz", "1"])
        first = str(tmp_path / "first.json")
        code = main([
            "-q", "estimate", "--estimator", estimator, *data, "--n", "256", "--data-seed", "1",
            *([] if estimator == "ksg" else ["--runs", "2", "--seed", "7", *TINY_NET]), "--out", first,
        ])
        assert code == EXIT_OK
        replay = str(tmp_path / "replay.json")
        code = main(["-q", "estimate", "--config", first, "--out", replay])
        capsys.readouterr()
        assert code == EXIT_OK
        a, b = _read_json(first), _read_json(replay)
        assert hex_floats(a["report"]) == hex_floats(b["report"])
        assert a["run_config"] == b["run_config"]

    def test_replay_writes_the_trace_its_own_trace_flag_asks_for(self, tmp_path, capsys):
        argv = ["-q", "estimate", "--estimator", "cmigan", "--model", "linear1", "--n", "256",
                "--dz", "1", "--runs", "2", "--seed", "5", *TINY_NET, "--jobs", "1"]
        untraced, traced = str(tmp_path / "untraced.json"), str(tmp_path / "traced.json")
        assert main([*argv, "--out", untraced]) == EXIT_OK
        assert main([*argv, "--out", traced, "--trace", str(tmp_path / "first.csv")]) == EXIT_OK
        replay = str(tmp_path / "replay.json")
        code = main(["-q", "estimate", "--config", untraced, "--out", replay,
                     "--trace", str(tmp_path / "replay.csv")])
        capsys.readouterr()
        assert code == EXIT_OK
        first = (tmp_path / "first.csv").read_bytes()
        assert first.count(b"\n") == 1 + 2 * 10
        assert (tmp_path / "replay.csv").read_bytes() == first
        a, b = _read_json(traced), _read_json(replay)
        assert hex_floats(a["report"]) == hex_floats(b["report"])
        assert a["run_config"] == b["run_config"]

    def test_replay_of_report_with_rmsprop_fields_is_bitwise(self, tmp_path, capsys):
        path = str(tmp_path / "old.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_config": _OLD_RUN_CONFIG}, fh)
        replay = str(tmp_path / "replay.json")
        code = main(["-q", "estimate", "--config", path, "--out", replay])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(replay)
        assert [v.hex() for v in doc["report"]["per_run"]] == ["-0x1.4fd3f3ef1bc8ap-1"]
        assert "rmsprop_rho" not in doc["run_config"]["estimator_config"]
        assert "rmsprop_eps" not in doc["run_config"]["estimator_config"]

    @pytest.mark.parametrize("estimator", ["cmigan", "ksg"])
    def test_replay_of_older_report_equals_fresh_run(self, tmp_path, capsys, estimator):
        # older reports held ksg's k and a null threshold for every estimator,
        # and a whole network config (seed included) for ksg too
        argv = ["-q", "estimate", "--estimator", estimator, "--model", "linear1", "--n", "256",
                "--dz", "1", "--data-seed", "0"]
        if estimator == "cmigan":
            argv += ["--runs", "1", "--seed", "5", *TINY_NET]
            old = _OLD_RUN_CONFIG
        else:
            old = {"command": "estimate", "estimator": "ksg", "dataset": _OLD_RUN_CONFIG["dataset"],
                   "estimator_config": {**_OLD_RUN_CONFIG["estimator_config"], "seed": 9},
                   "ksg": {"k": 5}, "threshold": None}
        fresh, old_path, replay = (str(tmp_path / f"{name}.json") for name in ("fresh", "old", "replay"))
        with open(old_path, "w", encoding="utf-8") as fh:
            json.dump({"run_config": old}, fh)
        assert main([*argv, "--out", fresh]) == EXIT_OK
        assert main(["-q", "estimate", "--config", old_path, "--out", replay]) == EXIT_OK
        capsys.readouterr()
        a, b = _read_json(fresh), _read_json(replay)
        assert hex_floats(a["report"]) == hex_floats(b["report"])
        assert a["run_config"] == b["run_config"]

    @pytest.mark.parametrize("estimator, flags", [
        ("ksg", []), ("cmigan", ["--runs", "2", "--seed", "7", *TINY_NET]),
    ], ids=["ksg", "cmigan"])
    def test_replay_of_unshuffled_csv_report_is_bitwise(self, tmp_path, capsys, estimator, flags):
        # reports of CSV runs once held "shuffle_seed": null; they replay as written
        data = str(tmp_path / "d.csv")
        save_csv(gen_cit(256, 1, True, seed=0)[0], data)
        first = str(tmp_path / "first.json")
        assert main(["-q", "estimate", "--estimator", estimator, "--data", data, "--dims", "1,1,1",
                     *flags, "--out", first]) == EXIT_OK
        doc = _read_json(first)
        doc["run_config"]["dataset"]["shuffle_seed"] = None
        old = str(tmp_path / "old.json")
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        replay = str(tmp_path / "replay.json")
        assert main(["-q", "estimate", "--config", old, "--out", replay]) == EXIT_OK
        capsys.readouterr()
        got = _read_json(replay)
        # json writes each float's shortest round-trip repr, so equal text is equal bits
        assert json.dumps(_run_facts_dropped(got)) == json.dumps(_run_facts_dropped(doc))

    @pytest.mark.parametrize("doc", [
        {"run_config": {"estimator_config": {}}},
        {"run_config": {
            "estimator": "ksg",
            "estimator_config": {"bogus": 1},
            "dataset": _TINY_MODEL,
        }},
        [1, 2, 3],
        {"estimator": "ksg", "estimator_config": {}, "dataset": {"kind": "model", "model": "linear1"}},
        {"estimator": "ksg", "estimator_config": {"batch_size": "x"}, "dataset": _TINY_MODEL},
        {"estimator": "ksg", "estimator_config": {}, "dataset": _TINY_MODEL, "ksg": {"k": "5"}},
        {"estimator": "ksg", "estimator_config": {}, "dataset": _TINY_MODEL, "ksg": [5]},
        # load-time z-scoring is rejected before the (missing) file is read
        {"estimator": "ksg", "estimator_config": {}, "dataset": {
            "kind": "csv", "path": "never-written.csv", "dims": [1, 1, 1], "mapping": None,
            "semicolon": False, "shuffle_seed": None, "normalize": "zscore",
        }},
        {"estimator": "ksg", "estimator_config": {}, "dataset": {
            "kind": "csv", "path": "never-written.csv", "dims": ["1", "1", "1"], "mapping": None,
            "semicolon": False, "shuffle_seed": None,
        }},
        # RMSProp's rho is a constant now; only its old default replays
        {"estimator": "cmigan", "dataset": _TINY_MODEL, "estimator_config": {
            "rmsprop_rho": 0.5, "batch_size": 32, "training_steps": 1, "eval_passes": 1,
        }},
        {"estimator": "magic", "estimator_config": {}, "dataset": _TINY_MODEL},
        {"estimator": ["ksg"], "estimator_config": {}, "dataset": _TINY_MODEL},
        *[doc for _, doc, _ in _ILL_TYPED_REPLAYS],
    ], ids=[
        "missing-keys", "unknown-config-key", "non-object", "incomplete-dataset",
        "ill-typed-config-value", "ill-typed-k", "non-object-ksg", "zscore-normalize",
        "ill-typed-dims", "changed-rmsprop-rho", "unknown-estimator", "non-string-estimator",
        *[name for name, _, _ in _ILL_TYPED_REPLAYS],
    ])
    def test_malformed_replay_config_is_usage_error(self, tmp_path, capsys, doc):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["-q", "estimate", "--config", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("doc, key", [row[1:] for row in _ILL_TYPED_REPLAYS + _UNNAMED_REPLAYS],
                             ids=[row[0] for row in _ILL_TYPED_REPLAYS + _UNNAMED_REPLAYS])
    def test_ill_typed_replay_value_is_usage_error_naming_its_key(self, tmp_path, capsys, caplog, doc, key):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert main(["-q", "estimate", "--config", path, "--jobs", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"{key} must be" in caplog.text

    def test_column_mapping_input(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        main(["-q", "datagen", "--model", "gauss", "--n", "2000", "--d", "1",
              "--rho", "0.8", "--seed", "2", "--out", data])
        capsys.readouterr()
        code = main([
            "-q", "estimate", "--estimator", "ksg", "--data", data,
            "--x-cols", "x0", "--y-cols", "y0",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        doc = json.loads(out)
        truth = -0.5 * math.log(1.0 - 0.64)
        assert doc["report"]["mean"] == pytest.approx(truth, abs=0.1)

    def test_usage_errors(self, tmp_path, capsys):
        # no input at all
        assert main(["-q", "estimate", "--estimator", "ksg"]) == EXIT_USAGE
        # both csv and model
        data = str(tmp_path / "x.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("x0,y0\n1,2\n")
        assert main([
            "-q", "estimate", "--estimator", "ksg", "--data", data,
            "--dims", "1,1,0", "--model", "linear1", "--n", "10",
        ]) == EXIT_USAGE
        # bad dims arity
        assert main([
            "-q", "estimate", "--estimator", "ksg", "--data", data, "--dims", "1,1",
        ]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("estimator, data, rule", [
        ("cmigan", ["--model", "gauss", "--d", "1", "--rho", "0.5"], "dz >= 1"),
        ("midiffgan", ["--model", "gauss", "--d", "1", "--rho", "0.5"], "dz >= 1"),
        ("midiff-fmine", ["--model", "gauss", "--d", "1", "--rho", "0.5"], "dz >= 1"),
        ("migan", ["--model", "linear1", "--dz", "1"], "dz == 0"),
        ("fmine", ["--model", "linear1", "--dz", "1"], "dz == 0"),
    ])
    def test_wrong_dz_is_usage_error(self, capsys, caplog, estimator, data, rule):
        code = main(["-q", "estimate", "--estimator", estimator, *data, "--n", "100", *TINY_NET])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"{estimator} needs data with {rule}" in caplog.text

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "0"), ("--lr-decay", "1"), ("--lr-interval", "0"),
        ("--lr", "nan"), ("--lr", "inf"), ("--lr-decay", "nan"), ("--lr-decay", "inf"),
    ])
    def test_bad_schedule_is_usage_error_before_loading(self, tmp_path, capsys, flag, value):
        # the CSV does not exist: loading it first would exit 3
        missing = str(tmp_path / "absent.csv")
        code = main([
            "-q", "estimate", "--estimator", "cmigan", "--data", missing, "--dims", "1,1,0",
            flag, value,
        ])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_out_of_memory_is_usage_error(self, capsys, caplog, monkeypatch):
        # generating 1e11 rows would need about 745 GiB; the stub raises
        # numpy's error without allocating anything
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "generate", too_big)
        code = main([
            "-q", "estimate", "--estimator", "ksg", "--model", "gauss",
            "--n", "100000000000", "--d", "1", "--rho", "0.5",
        ])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "usage: out of memory: Unable to allocate 745. GiB" in caplog.text

    def test_data_errors(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.csv")
        assert main([
            "-q", "estimate", "--estimator", "ksg", "--data", missing, "--dims", "1,1,0",
        ]) == EXIT_DATA
        # dims not covering the file's columns
        data = str(tmp_path / "three.csv")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("a,b,c\n1,2,3\n")
        assert main([
            "-q", "estimate", "--estimator", "ksg", "--data", data, "--dims", "1,1,0",
        ]) == EXIT_DATA
        capsys.readouterr()

    def test_all_runs_failing_exits_numerical(self, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "-q", "estimate", "--estimator", "cmigan",
                "--model", "linear1", "--n", "256", "--dz", "1",
                "--runs", "1", "--seed", "0",
                "--steps", "10", "--batch-size", "64",
                "--reg-hidden", "8,4", "--gen-hidden", "8,4",
                "--lr", "1e154",
            ])
        capsys.readouterr()
        assert code == EXIT_NUMERICAL

    @pytest.mark.parametrize("env_seed", ["9", "-1", "abc"])
    def test_env_seed_is_ignored(self, tmp_path, capsys, monkeypatch, env_seed):
        # a CMIGAN_SEED left in the shell changes no output
        cmigan = ["-q", "estimate", "--estimator", "cmigan", "--model", "linear1", "--n", "256",
                  "--dz", "1", *TINY_NET, "--jobs", "1"]
        outputs = []
        for name in ("unset", "set"):
            if name == "set":
                monkeypatch.setenv("CMIGAN_SEED", env_seed)
            else:
                monkeypatch.delenv("CMIGAN_SEED", raising=False)
            data, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            assert main(["-q", "datagen", "--model", "linear1", "--n", "20", "--out", str(data)]) == EXIT_OK
            assert main(["-q", "estimate", "--estimator", "ksg", "--model", "linear1", "--n", "300"]) == EXIT_OK
            assert main([*cmigan, "--out", str(report)]) == EXIT_OK
            outputs.append((data.read_bytes(), [v.hex() for v in _read_json(report)["report"]["per_run"]]))
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestGradcheck:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = str(tmp_path / "grad.json")
        code = main(["-q", "gradcheck", "--nets", "5", "--out", out])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(out)
        assert doc["passed"] is True
        assert doc["num_nets"] == 5
        assert doc["worst_rel_err"] < 1e-4

    def test_failed_check_prints_its_report_and_exits_4(self, capsys, caplog):
        # the same nets pass at the default --tol 1e-4
        code = main(["-q", "gradcheck", "--nets", "3", "--tol", "1e-12"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_NUMERICAL
        assert doc["passed"] is False
        assert len(doc["failures"]) == 36
        assert "gradient check FAILED" in caplog.text

    @pytest.mark.parametrize("flag, value", [
        ("--h", "0"), ("--h", "nan"), ("--tol", "nan"), ("--nets", "0"), ("--nets", "-1"),
    ])
    def test_bad_settings_are_usage_errors(self, capsys, flag, value):
        code = main(["-q", "gradcheck", "--nets", "2", flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "Traceback" not in captured.err


class TestBenchAndCitest:
    def test_generate_only_then_citest(self, tmp_path, capsys):
        outdir = str(tmp_path / "suite")
        code = main([
            "-q", "bench", "--outdir", outdir, "--n-ci", "2", "--n-cd", "2",
            "--dz", "1", "--n", "500", "--suite-seed", "0", "--generate-only",
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        names = sorted(os.listdir(outdir))
        assert "manifest.json" in names
        csvs = [n for n in names if n.endswith(".csv")]
        assert csvs == ["cit_cd_002.csv", "cit_cd_003.csv", "cit_ci_000.csv", "cit_ci_001.csv"]
        assert all(os.path.isfile(os.path.join(outdir, c + ".json")) for c in csvs)

        manifest = os.path.join(outdir, "manifest.json")
        report_path = str(tmp_path / "cit.json")
        code = main([
            "-q", "citest", "--manifest", manifest, "--estimator", "ksg",
            "--out", report_path,
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(report_path)
        rep = doc["report"]
        assert len(rep["entries"]) == 4
        assert {e["label"] for e in rep["entries"]} == {"CI", "CD"}
        assert 0.0 <= rep["auroc"] <= 1.0
        assert rep["excluded"] == []
        assert {e["dataset_id"] for e in rep["entries"]} == set(csvs)

    def test_bench_suite_csv_bytes_pinned(self, tmp_path, capsys):
        # the default 20-dataset suite at 5000 rows: every file spans more
        # than one of save_csv's row blocks
        outdir = tmp_path / "suite"
        assert main(["-q", "bench", "--generate-only", "--outdir", str(outdir), "--n", "5000"]) == EXIT_OK
        capsys.readouterr()
        digest = hashlib.sha256()
        for entry in _read_json(outdir / "manifest.json")["datasets"]:
            digest.update(entry["csv"].encode() + b"\0" + (outdir / entry["csv"]).read_bytes())
        assert digest.hexdigest() == "738e0d9ded1e4d0c88efad8625aea0a3cc1c90fa82d9ebfb9bf6261bd349ca06"

    def test_bench_end_to_end_with_ksg(self, tmp_path, capsys):
        outdir = str(tmp_path / "suite")
        report_path = str(tmp_path / "bench.json")
        code = main([
            "-q", "bench", "--outdir", outdir, "--n-ci", "2", "--n-cd", "2",
            "--dz", "1", "--n", "1000", "--suite-seed", "1",
            "--estimator", "ksg", "--out", report_path,
        ])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(report_path)
        assert doc["run_config"]["command"] == "bench"
        assert len(doc["report"]["entries"]) == 4

    @pytest.mark.parametrize("estimator, flags", [
        ("ksg", []),
        ("cmigan", ["--cit-defaults", "--steps", "3", "--batch-size", "64",
                    "--reg-hidden", "8,4", "--gen-hidden", "8,4", "--eval-passes", "1"]),
    ], ids=["ksg", "cmigan"])
    def test_bench_report_equals_citest_on_its_manifest(self, tmp_path, capsys, estimator, flags):
        # bench scores the files it wrote, through the loader citest uses
        outdir = str(tmp_path / "suite")
        bench, cit = str(tmp_path / "bench.json"), str(tmp_path / "cit.json")
        scoring = ["--estimator", estimator, "--seed", "3", *flags]
        code = main(["-q", "bench", "--outdir", outdir, "--n-ci", "2", "--n-cd", "2", "--n", "300",
                     *scoring, "--out", bench])
        assert code == EXIT_OK
        manifest = os.path.join(outdir, "manifest.json")
        assert main(["-q", "citest", "--manifest", manifest, *scoring, "--out", cit]) == EXIT_OK
        capsys.readouterr()
        a, b = _read_json(bench), _read_json(cit)
        assert [e["dataset_id"] for e in a["report"]["entries"]] == [
            "cit_ci_000.csv", "cit_ci_001.csv", "cit_cd_002.csv", "cit_cd_003.csv"
        ]
        assert hex_floats(a["report"]) == hex_floats(b["report"])
        assert (a["run_config"]["command"], b["run_config"]["command"]) == ("bench", "citest")
        assert a["run_config"]["manifest"] == b["run_config"]["manifest"]

    def test_citest_threshold_decides_every_entry(self, tmp_path, capsys):
        outdir = str(tmp_path / "suite")
        assert main(["-q", "bench", "--outdir", outdir, "--n-ci", "3", "--n-cd", "3",
                     "--n", "500", "--generate-only"]) == EXIT_OK
        report_path = str(tmp_path / "cit.json")
        code = main(["-q", "citest", "--manifest", os.path.join(outdir, "manifest.json"),
                     "--estimator", "ksg", "--threshold", "0.3", "--out", report_path])
        capsys.readouterr()
        assert code == EXIT_OK
        doc = _read_json(report_path)
        assert doc["run_config"]["threshold"] == doc["report"]["threshold"] == 0.3
        entries = doc["report"]["entries"]
        assert len(entries) == 6
        for e in entries:
            assert e["decision"] == ("CD" if e["score"] > 0.3 else "CI")
        # at the default threshold of 0.01 these would be CD
        assert any(0.01 < e["score"] <= 0.3 for e in entries)

    @pytest.mark.parametrize("command", ["estimate", "citest"])
    @pytest.mark.parametrize("estimator", ["ksg", "cmigan"])
    def test_run_config_holds_what_the_estimator_reads(self, tmp_path, capsys, command, estimator):
        if command == "estimate":
            argv = ["estimate", "--model", "linear1", "--n", "300", "--dz", "1"]
            inputs = {"dataset"}
        else:
            outdir = str(tmp_path / "suite")
            assert main(["-q", "bench", "--outdir", outdir, "--n-ci", "1", "--n-cd", "1",
                         "--n", "300", "--generate-only"]) == EXIT_OK
            argv = ["citest", "--manifest", os.path.join(outdir, "manifest.json")]
            inputs = {"manifest", "threshold"}
        flags = ["--k", "3"] if estimator == "ksg" else ["--seed", "4", *TINY_NET]
        report_path = str(tmp_path / "r.json")
        assert main(["-q", *argv, "--estimator", estimator, *flags, "--out", report_path]) == EXIT_OK
        capsys.readouterr()
        run_config = _read_json(report_path)["run_config"]
        if estimator == "ksg":
            assert set(run_config) == {"command", "estimator", "estimator_config", "ksg", *inputs}
            assert run_config["estimator_config"] == {"standardize": True}
            assert run_config["ksg"] == {"k": 3}
        else:
            assert set(run_config) == {"command", "estimator", "estimator_config", *inputs}
            assert run_config["estimator_config"] == cli.EstimatorConfig(
                reg_hidden=(8, 4), gen_hidden=(8, 4), batch_size=64, training_steps=10,
                eval_passes=2, initial_lr=1e-3, seed=4,
            ).to_dict()

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main([
            "-q", "citest", "--manifest", str(tmp_path / "none.json"),
            "--estimator", "ksg",
        ])
        capsys.readouterr()
        assert code == EXIT_DATA


# the parser pin: per subcommand, each action as (option strings, dest,
# default, choices, repr of its type's result on "3", action class)
_HELP = (("--help", "-h"), "help", "==SUPPRESS==", None, None, "_HelpAction")
_OUT = (("--out", "-o"), "out", None, None, None, "_StoreAction")
_ESTIMATOR_IDS = ("cmigan", "migan", "midiffgan", "fmine", "midiff-fmine", "ksg")
_MODEL_FLAG_ROWS = {
    (("--model",), "model", None, ("linear1", "linear2", "linear3", "nonlinear", "cit", "gauss"),
     None, "_StoreAction"),
    (("--n",), "n", None, None, "3", "_StoreAction"),
    (("--dz",), "dz", None, None, "3", "_StoreAction"),
    (("--d",), "d", None, None, "3", "_StoreAction"),
    (("--rho",), "rho", None, None, "3.0", "_StoreAction"),
    (("--dependent",), "dependent", None, None, None, "_StoreTrueAction"),
    (("--independent",), "dependent", None, None, None, "_StoreFalseAction"),
}
_ESTIMATOR_FLAG_ROWS = {
    (("--runs",), "runs", None, None, "3", "_StoreAction"),
    (("--seed",), "seed", None, None, "3", "_StoreAction"),
    (("--steps",), "training_steps", None, None, "3", "_StoreAction"),
    (("--batch-size",), "batch_size", None, None, "3", "_StoreAction"),
    (("--lr",), "initial_lr", None, None, "3.0", "_StoreAction"),
    (("--reg-hidden",), "reg_hidden", None, None, None, "_StoreAction"),
    (("--gen-hidden",), "gen_hidden", None, None, None, "_StoreAction"),
    (("--ratio",), "reg_training_ratio", None, None, "3", "_StoreAction"),
    (("--noise-dim",), "noise_dim", None, None, "3", "_StoreAction"),
    (("--eval-passes",), "eval_passes", None, None, "3", "_StoreAction"),
    (("--lr-interval",), "lr_interval_steps", None, None, "3", "_StoreAction"),
    (("--lr-decay",), "lr_decay_factor", None, None, "3.0", "_StoreAction"),
    (("--lr-mode",), "lr_mode", None, ("total_decay", "per_interval"), None, "_StoreAction"),
    (("--cit-defaults",), "cit_defaults", None, None, None, "_StoreTrueAction"),
    (("--no-standardize",), "no_standardize", None, None, None, "_StoreTrueAction"),
    (("--k",), "k", None, None, "3", "_StoreAction"),
    (("--jobs",), "jobs", None, None, "3", "_StoreAction"),
    _OUT,
}
_PARSER_PIN = {
    "cmigan": {
        _HELP,
        (("--version",), "version", "==SUPPRESS==", None, None, "_VersionAction"),
        (("--quiet", "-q"), "quiet", False, None, None, "_StoreTrueAction"),
    },
    "datagen": {
        _HELP, *_MODEL_FLAG_ROWS, _OUT,
        (("--seed",), "seed", 0, None, "3", "_StoreAction"),
    },
    "estimate": {
        _HELP, *_MODEL_FLAG_ROWS, *_ESTIMATOR_FLAG_ROWS,
        (("--estimator",), "estimator", None, _ESTIMATOR_IDS, None, "_StoreAction"),
        (("--data",), "data", None, None, None, "_StoreAction"),
        (("--dims",), "dims", None, None, None, "_StoreAction"),
        (("--x-cols",), "x_cols", None, None, None, "_StoreAction"),
        (("--y-cols",), "y_cols", None, None, None, "_StoreAction"),
        (("--z-cols",), "z_cols", None, None, None, "_StoreAction"),
        (("--semicolon",), "semicolon", None, None, None, "_StoreTrueAction"),
        (("--data-seed",), "data_seed", None, None, "3", "_StoreAction"),
        (("--config",), "config", None, None, None, "_StoreAction"),
        (("--trace",), "trace", None, None, None, "_StoreAction"),
    },
    "citest": {
        _HELP, *_ESTIMATOR_FLAG_ROWS,
        (("--manifest",), "manifest", None, None, None, "_StoreAction"),
        (("--estimator",), "estimator", None, _ESTIMATOR_IDS, None, "_StoreAction"),
        (("--threshold",), "threshold", 0.01, None, "3.0", "_StoreAction"),
    },
    "gradcheck": {
        _HELP, _OUT,
        (("--nets",), "nets", 100, None, "3", "_StoreAction"),
        (("--seed",), "seed", 0, None, "3", "_StoreAction"),
        (("--h",), "h", 0.0001, None, "3.0", "_StoreAction"),
        (("--tol",), "tol", 0.0001, None, "3.0", "_StoreAction"),
    },
    "bench": {
        _HELP, *_ESTIMATOR_FLAG_ROWS,
        (("--outdir",), "outdir", None, None, None, "_StoreAction"),
        (("--n-ci",), "n_ci", 10, None, "3", "_StoreAction"),
        (("--n-cd",), "n_cd", 10, None, "3", "_StoreAction"),
        (("--dz",), "dz", 1, None, "3", "_StoreAction"),
        (("--n",), "n", 5000, None, "3", "_StoreAction"),
        (("--suite-seed",), "suite_seed", 0, None, "3", "_StoreAction"),
        (("--estimator",), "estimator", "ksg", _ESTIMATOR_IDS, None, "_StoreAction"),
        (("--threshold",), "threshold", 0.01, None, "3.0", "_StoreAction"),
        (("--generate-only",), "generate_only", False, None, None, "_StoreTrueAction"),
    },
}


def _parser_rows(parser) -> set:
    """The pin rows of ``parser``'s own actions, its subcommands left out."""
    return {
        (tuple(sorted(a.option_strings)), a.dest, a.default,
         None if a.choices is None else tuple(a.choices),
         None if a.type is None else repr(a.type("3")), type(a).__name__)
        for a in parser._actions if a.option_strings
    }


class TestParser:
    def test_parser_pinned(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if not a.option_strings)
        got = {"cmigan": _parser_rows(parser)}
        got.update((name, _parser_rows(p)) for name, p in sub.choices.items())
        assert got == _PARSER_PIN

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cmigan" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    @pytest.mark.parametrize("command", [
        ["estimate", "--estimator", "ksg", "--model", "linear1", "--n", "50"],
        ["citest", "--manifest", "none.json", "--estimator", "ksg"],
    ], ids=["estimate", "citest"])
    def test_bad_jobs_is_usage_error(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["-q", *command, "--jobs", jobs])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


_DATAGEN = ["datagen", "--out", "{tmp}/d.csv", "--model"]
_KSG_ON_MODEL = ["estimate", "--estimator", "ksg", "--model", "linear1", "--n", "50"]
_CMIGAN_ON_MODEL = ["estimate", "--estimator", "cmigan", "--model", "linear1", "--n", "50"]
_KSG_ON_CSV = ["estimate", "--estimator", "ksg", "--data", "{tmp}/ci.csv", "--dims", "1,1,1"]
_CITEST = ["citest", "--manifest", "{tmp}/manifest.json", "--estimator", "ksg"]
_BENCH = ["bench", "--outdir", "{tmp}/suite", "--n", "100"]
_REPLAY = ["estimate", "--config", "{tmp}/replay.json"]
_NEGATIVE_SEED = "seed must be non-negative, got -1"
_NO_DATASETS = "--n-ci and --n-cd must be non-negative and not both 0"
_NO_SUCH_FILE = "No such file or directory"
_BAD_DIMS = "dims must be three integers, need dx >= 1, dy >= 1, dz >= 0, got "

# files that rows below read, besides ci.csv, cd.csv and manifest.json
_FILES = {
    # a quoted cell longer than csv's 131072-character field limit
    "long-cell.csv": 'a,b,c\n"' + "x" * 200_000 + '",2,3\n4,5,6\n',
    # the open quote would swallow the last two rows
    "open-quote.csv": 'a,b,c\n1,2,3\n4,",6\n7,8,9\n10,11,12\n',
    # a lax reader reads the first cell as 12
    "text-after-quote.csv": 'a,b,c\n"1"2,3,4\n5,6,7\n',
    # dims that leave the z column of the 3-column ci.csv unread
    "narrow-manifest.json": json.dumps(
        {"datasets": [{"csv": "ci.csv", "label": "CI", "dims": [1, 1, 0]}]}
    ),
    "numeric-csv-manifest.json": json.dumps(
        {"datasets": [{"csv": 5, "label": "CI", "dims": [1, 1, 1]}]}
    ),
    "two-dims-manifest.json": json.dumps(
        {"datasets": [{"csv": "ci.csv", "label": "CI", "dims": [1, 1]}]}
    ),
    # a bare run_config that replays ksg on a generated dataset
    "replay.json": json.dumps({
        "command": "estimate", "estimator": "ksg", "dataset": _TINY_MODEL,
        "estimator_config": {}, "ksg": {"k": 5}, "threshold": None,
    }),
    "replay-bad-kind.json": json.dumps({
        "command": "estimate", "estimator": "ksg", "dataset": {"kind": "bogus"},
        "estimator_config": {},
    }),
    "replay-non-object.json": json.dumps({"run_config": [1]}),
    # a dataset key that generate does not take, a misspelt dz
    "replay-Dz.json": json.dumps({"estimator": "ksg", "estimator_config": {}, "dataset": {
        "kind": "model", "model": "linear1", "n": 300, "seed": 0, "Dz": 3}}),
    # a CSV spec split by two dims; the file is never read
    "replay-two-dims.json": json.dumps({
        "command": "estimate", "estimator": "ksg", "estimator_config": {}, "dataset": {
            "kind": "csv", "path": "never-written.csv", "dims": [1, 1], "mapping": None,
            "semicolon": False,
        },
    }),
    # an older report of a shuffled CSV; the file is never read
    "replay-shuffled.json": json.dumps({
        "command": "estimate", "estimator": "ksg", "estimator_config": {}, "dataset": {
            "kind": "csv", "path": "never-written.csv", "dims": [1, 1, 1], "mapping": None,
            "semicolon": False, "shuffle_seed": 3,
        },
    }),
}

# each row: an id, the argv after "-q", where "{tmp}" stands for the test's
# directory, CMIGAN_SEED, which nothing reads (None leaves it unset), the
# exit code and text the log must hold; {tmp} holds ci.csv, cd.csv,
# manifest.json and _FILES
_EXIT_CODES = [
    ("datagen-negative-seed", [*_DATAGEN, "linear1", "--n", "10", "--seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("datagen-n-0", [*_DATAGEN, "gauss", "--rho", "0.5", "--n", "0"],
     None, EXIT_USAGE, "n must be positive"),
    ("midiffgan-negative-seed", ["estimate", "--estimator", "midiffgan", "--model", "linear1",
                                 "--n", "50", "--seed", "-1"], None, EXIT_USAGE, _NEGATIVE_SEED),
    ("ksg-ignores-env-seed", _KSG_ON_MODEL, "-1", EXIT_OK, ""),
    ("ksg-negative-data-seed", [*_KSG_ON_MODEL, "--data-seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("cmigan-negative-seed", ["estimate", "--estimator", "cmigan", "--model", "linear1",
                              "--n", "100", *TINY_NET, "--jobs", "1", "--seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("shuffle-seed-is-gone", [*_KSG_ON_CSV, "--shuffle-seed", "3"],
     None, EXIT_USAGE, "unrecognized arguments: --shuffle-seed 3"),
    ("ksg-k-0", [*_KSG_ON_MODEL, "--k", "0"], None, EXIT_USAGE, "k must be positive"),
    ("runs-0", [*_CMIGAN_ON_MODEL, "--runs", "0"], None, EXIT_USAGE, "runs must be positive"),
    ("lr-decay-1", [*_CMIGAN_ON_MODEL, "--lr-decay", "1"],
     None, EXIT_USAGE, "lr_decay_factor must be finite and exceed 1, got 1.0"),
    ("jobs-0", [*_KSG_ON_MODEL, "--jobs", "0"], None, EXIT_USAGE, "--jobs"),
    ("gradcheck-negative-seed", ["gradcheck", "--nets", "1", "--seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("gradcheck-h-0", ["gradcheck", "--nets", "1", "--h", "0"],
     None, EXIT_USAGE, "h must be positive and finite"),
    ("bench-negative-n-ci", [*_BENCH, "--n-ci", "-3", "--n-cd", "2"],
     None, EXIT_USAGE, _NO_DATASETS),
    ("bench-no-datasets", [*_BENCH, "--n-ci", "0", "--n-cd", "0"], None, EXIT_USAGE, _NO_DATASETS),
    ("bench-nan-threshold", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--threshold", "nan"],
     None, EXIT_USAGE, "threshold must be finite, got nan"),
    ("bench-generate-only-nan-threshold",
     [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--threshold", "nan", "--generate-only"],
     None, EXIT_USAGE, "threshold must be finite, got nan"),
    ("datagen-dz-on-linear3", [*_DATAGEN, "linear3", "--dz", "5", "--n", "10"],
     None, EXIT_USAGE, "--dz does not apply to the linear3 model, which takes --d"),
    ("datagen-d-on-linear1", [*_DATAGEN, "linear1", "--d", "2", "--n", "10"],
     None, EXIT_USAGE, "--d does not apply to the linear1 model, which takes --dz"),
    ("datagen-rho-on-cit", [*_DATAGEN, "cit", "--rho", "0.5", "--n", "10"],
     None, EXIT_USAGE, "--rho does not apply to the cit model, which takes --dz"),
    ("estimate-d-on-nonlinear", [*_KSG_ON_MODEL[:4], "nonlinear", "--n", "50", "--d", "2"],
     None, EXIT_USAGE, "--d does not apply to the nonlinear model, which takes --dz"),
    ("estimate-dz-on-gauss", [*_KSG_ON_MODEL[:4], "gauss", "--n", "50", "--rho", "0.5", "--dz", "1"],
     None, EXIT_USAGE, "--dz does not apply to the gauss model, which takes --d, --rho"),
    ("estimate-rho-on-linear1", [*_KSG_ON_MODEL, "--rho", "0.5"],
     None, EXIT_USAGE, "--rho does not apply to the linear1 model, which takes --dz"),
    ("citest-nan-threshold", [*_CITEST, "--threshold", "nan"],
     None, EXIT_USAGE, "threshold must be finite, got nan"),
    ("citest-inf-threshold", [*_CITEST, "--threshold", "inf"],
     None, EXIT_USAGE, "threshold must be finite, got inf"),
    ("missing-manifest", ["citest", "--manifest", "{tmp}/none.json", "--estimator", "ksg"],
     None, EXIT_DATA, "no such manifest"),
    ("bench-negative-suite-seed", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--suite-seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("bench-n-0", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--n", "0"],
     None, EXIT_USAGE, "n must be positive"),
    ("bench-dz-0", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--dz", "0"],
     None, EXIT_USAGE, "dz must be positive"),
    ("datagen-dependent-on-linear1", [*_DATAGEN, "linear1", "--n", "10", "--dependent"],
     None, EXIT_USAGE, "--dependent does not apply to the linear1 model, which takes --dz"),
    ("estimate-independent-on-gauss",
     [*_KSG_ON_MODEL[:4], "gauss", "--rho", "0.5", "--n", "50", "--independent"],
     None, EXIT_USAGE, "--independent does not apply to the gauss model, which takes --d, --rho"),
    ("estimate-out-in-missing-dir", [*_KSG_ON_MODEL, "--out", "{tmp}/missing/r.json"],
     None, EXIT_DATA, _NO_SUCH_FILE),
    ("csv-cell-over-field-limit", ["estimate", "--estimator", "ksg", "--data",
                                   "{tmp}/long-cell.csv", "--dims", "1,1,1"],
     None, EXIT_DATA, "long-cell.csv: line 2: field larger than field limit"),
    ("csv-open-quote", ["estimate", "--estimator", "ksg", "--data", "{tmp}/open-quote.csv",
                        "--dims", "1,1,1"],
     None, EXIT_DATA, "open-quote.csv: line 5: unexpected end of data"),
    ("csv-text-after-quote", ["estimate", "--estimator", "ksg", "--data",
                              "{tmp}/text-after-quote.csv", "--dims", "1,1,1"],
     None, EXIT_DATA, "text-after-quote.csv: line 2: ',' expected after '\"'"),
    ("manifest-dims-narrower-than-csv",
     ["citest", "--manifest", "{tmp}/narrow-manifest.json", "--estimator", "ksg"],
     None, EXIT_DATA, "--dims 1,1,0 does not cover the 3 CSV columns"),
    # a bad --dims value is a usage error, bad manifest dims a data error
    ("dims-negative-dz", [*_KSG_ON_CSV[:-1], "1,1,-1"], None, EXIT_USAGE, _BAD_DIMS + "[1, 1, -1]"),
    ("dims-zero-dx", [*_KSG_ON_CSV[:-1], "0,1,1"], None, EXIT_USAGE, _BAD_DIMS + "[0, 1, 1]"),
    # an empty part is no integer, not one to drop
    ("dims-empty-part", [*_KSG_ON_CSV[:-1], "1,,1,1"],
     None, EXIT_USAGE, "expected comma-separated integers, got '1,,1,1'"),
    ("reg-hidden-empty-part", [*_CMIGAN_ON_MODEL, "--steps", "1", "--batch-size", "16", "--eval-passes", "1",
                               "--jobs", "1", "--reg-hidden", "8,,4"],
     None, EXIT_USAGE, "expected comma-separated integers, got '8,,4'"),
    ("manifest-two-dims", ["citest", "--manifest", "{tmp}/two-dims-manifest.json", "--estimator", "ksg"],
     None, EXIT_DATA, "malformed dataset entry 0: " + _BAD_DIMS + "[1, 1]"),
    ("manifest-numeric-csv",
     ["citest", "--manifest", "{tmp}/numeric-csv-manifest.json", "--estimator", "ksg"],
     None, EXIT_DATA, "malformed dataset entry 0: manifest csv must be a non-empty string"),
    ("citest-trace", [*_CITEST, "--trace", "{tmp}/t.csv"],
     None, EXIT_USAGE, "unrecognized arguments: --trace"),
    ("bench-trace", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--trace", "{tmp}/t.csv"],
     None, EXIT_USAGE, "unrecognized arguments: --trace"),
    # bench checks its estimator flags before it writes the suite
    ("bench-lr-nan", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--lr", "nan"],
     None, EXIT_USAGE, "initial_lr must be positive and finite, got nan"),
    ("bench-negative-seed", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--seed", "-1"],
     None, EXIT_USAGE, _NEGATIVE_SEED),
    ("bench-runs-0", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--runs", "0"],
     None, EXIT_USAGE, "runs must be positive"),
    ("bench-k-0", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--k", "0"],
     None, EXIT_USAGE, "k must be positive"),
    ("bench-reg-hidden-0", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--estimator", "cmigan",
                            "--reg-hidden", "0"],
     None, EXIT_USAGE, "reg_hidden widths must be positive integers, got (0,)"),
    # and the rows each estimator needs against --n
    ("bench-migan", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--estimator", "migan",
                     "--batch-size", "64", "--steps", "2"],
     None, EXIT_USAGE, "migan needs data with dz == 0, got dz=1"),
    ("bench-batch-over-n", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--estimator", "cmigan",
                            "--batch-size", "4096"],
     None, EXIT_USAGE, "batch_size 4096 exceeds sample count 100"),
    ("bench-ksg-n-5", ["bench", "--outdir", "{tmp}/suite", "--n", "5", "--n-ci", "1", "--n-cd", "1"],
     None, EXIT_USAGE, "need more than k+1=6 samples, got 5"),
    ("bench-ksg-n-at-k-plus-1", [*_BENCH, "--n-ci", "1", "--n-cd", "1", "--k", "99"],
     None, EXIT_USAGE, "need more than k+1=100 samples, got 100"),
    # a flag that only the other kind of input reads; --data-seed 0 is its default value
    *[(f"data-input{flag}", [*_KSG_ON_CSV, flag, *values], None, EXIT_USAGE,
       f"{flag} applies to --model input, not --data")
      for flag, *values in (["--n", "5"], ["--dz", "1"], ["--d", "1"], ["--rho", "0.5"],
                            ["--dependent"], ["--independent"], ["--data-seed", "0"])],
    *[(f"model-input{flag}", [*_KSG_ON_MODEL, flag, *values], None, EXIT_USAGE,
       f"{flag} applies to --data input, not --model")
      for flag, *values in (["--dims", "1,1,1"], ["--x-cols", "x0"], ["--y-cols", "y0"],
                            ["--z-cols", "z0"], ["--semicolon"])],
    # --dims splits the columns itself, so a column selection beside it is unread
    *[(f"dims-with{flag}", [*_KSG_ON_CSV, flag, "nope"], None, EXIT_USAGE,
       f"{flag} does not apply with --dims")
      for flag in ("--x-cols", "--y-cols", "--z-cols")],
    # the replayed run configuration fixes everything but --out, --trace and --jobs
    *[(f"config-with{flag}", [*_REPLAY, flag, *values], None, EXIT_USAGE,
       f"{flag} does not apply to --config")
      for flag, *values in (["--dims", "1,1,1"], ["--n", "50"], ["--lr", "nan"],
                            ["--seed", "3"], ["--runs", "3"], ["--k", "3"])],
    # ksg trains no network, and the network estimators find no neighbours
    *[(f"ksg-with{flag}", [*_KSG_ON_MODEL, flag, *values], None, EXIT_USAGE,
       f"{flag} applies to the network estimators, not ksg")
      for flag, *values in (["--runs", "2"], ["--seed", "3"], ["--steps", "5"], ["--batch-size", "16"],
                            ["--lr", "0.5"], ["--reg-hidden", "4"], ["--gen-hidden", "4"],
                            ["--ratio", "1"], ["--noise-dim", "1"], ["--eval-passes", "1"],
                            ["--lr-interval", "1"], ["--lr-decay", "2"],
                            ["--lr-mode", "per_interval"], ["--cit-defaults"])],
    ("cmigan-with--k", [*_CMIGAN_ON_MODEL, "--k", "3"], None, EXIT_USAGE,
     "--k applies to ksg, not cmigan"),
    ("ksg-jobs-no-standardize-k-out-trace",
     [*_KSG_ON_MODEL, "--jobs", "1", "--no-standardize", "--k", "3", "--out", "{tmp}/r.json",
      "--trace", "{tmp}/t.csv"],
     None, EXIT_OK, ""),
    ("config-with-out-trace-jobs",
     [*_REPLAY, "--out", "{tmp}/r.json", "--trace", "{tmp}/t.csv", "--jobs", "1"],
     None, EXIT_OK, ""),
    ("no-estimator", ["estimate", "--model", "linear1", "--n", "50"],
     None, EXIT_USAGE, "--estimator is required unless --config is given"),
    ("replay-bad-kind", ["estimate", "--config", "{tmp}/replay-bad-kind.json"],
     None, EXIT_USAGE, "unknown dataset kind 'bogus'"),
    ("replay-non-object", ["estimate", "--config", "{tmp}/replay-non-object.json"],
     None, EXIT_USAGE, "replay-non-object.json: run_config must be a JSON object"),
    ("replay-two-dims", ["estimate", "--config", "{tmp}/replay-two-dims.json"],
     None, EXIT_USAGE, _BAD_DIMS + "[1, 1]"),
    ("replay-unknown-dataset-key", ["estimate", "--config", "{tmp}/replay-Dz.json"],
     None, EXIT_USAGE, "unexpected keyword argument 'Dz'"),
    ("replay-shuffled-csv", ["estimate", "--config", "{tmp}/replay-shuffled.json"],
     None, EXIT_USAGE, "dataset shuffle_seed=3 is no longer supported"),
]


@pytest.mark.parametrize(
    "argv, env_seed, code, message", [row[1:] for row in _EXIT_CODES],
    ids=[row[0] for row in _EXIT_CODES],
)
def test_exit_codes(tmp_path, capsys, caplog, monkeypatch, argv, env_seed, code, message):
    entries = []
    for name, dependent in (("ci.csv", False), ("cd.csv", True)):
        samples, _, label = gen_cit(200, 1, dependent, seed=0)
        save_csv(samples, str(tmp_path / name))
        entries.append(ManifestEntry(name, label, samples.dims))
    write_manifest(str(tmp_path / "manifest.json"), entries)
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    if env_seed is None:
        monkeypatch.delenv("CMIGAN_SEED", raising=False)
    else:
        monkeypatch.setenv("CMIGAN_SEED", env_seed)
    try:
        got = main(["-q", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv)])
    except SystemExit as exc:  # argparse's own usage errors
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    # only a success prints its report
    assert (captured.out == "") == (code != EXIT_OK)
    assert "Traceback" not in captured.err
    assert message in caplog.text + captured.err
    # a rejected bench or datagen writes nothing
    assert not (tmp_path / "suite").exists()
    assert not (tmp_path / "d.csv").exists()


# values for each estimate flag, valid and not, by the input that reads it
_SWEEP_CSV_FLAGS = {
    "--dims": ["1,1,1", "1,1,0", "1,1", "a"],
    "--x-cols": ["x0", "nope", "0"],
    "--y-cols": ["y0", "1", ""],
    "--z-cols": ["z0", "x0"],
    "--semicolon": [],
}
_SWEEP_MODEL_FLAGS = {
    "--n": ["-1", "0", "1", "30", "300"],
    "--dz": ["0", "1", "2"],
    "--d": ["0", "1", "2"],
    "--rho": ["0.5", "1.5", "nan"],
    "--dependent": [],
    "--independent": [],
    "--data-seed": ["-1", "0", "2"],
}
_SWEEP_ESTIMATOR_FLAGS = {
    "--runs": ["0", "1", "2"],
    "--seed": ["-1", "0", "4"],
    "--batch-size": ["0", "16", "4096"],
    "--lr": ["0", "1e-3", "nan", "1e100"],
    "--reg-hidden": ["4", "4,2", "x", ""],
    "--gen-hidden": ["4", "0"],
    "--ratio": ["0", "1", "2"],
    "--noise-dim": ["0", "1"],
    "--eval-passes": ["0", "1"],
    "--lr-interval": ["0", "1"],
    "--lr-decay": ["1", "2", "inf"],
    "--lr-mode": ["per_interval", "bogus"],
    "--cit-defaults": [],
    "--no-standardize": [],
    "--k": ["0", "1", "3"],
    "--trace": ["{tmp}/t.csv", "{tmp}/missing/t.csv"],
    "--out": ["{tmp}/r.json", "{tmp}/missing/r.json"],
}
_SWEEP_FLAGS = {**_SWEEP_CSV_FLAGS, **_SWEEP_MODEL_FLAGS, **_SWEEP_ESTIMATOR_FLAGS}
# each input's arguments, and the flags it reads besides the estimator flags
_SWEEP_INPUTS = {
    "config": (["--config", "{tmp}/replay.json"], {}),
    "csv-dims": (["--data", "{tmp}/ci.csv", "--dims", "1,1,1"], _SWEEP_CSV_FLAGS),
    "csv-cols": (["--data", "{tmp}/ci.csv", "--x-cols", "x0", "--y-cols", "y0"], _SWEEP_CSV_FLAGS),
    "absent-csv": (["--data", "{tmp}/absent.csv", "--dims", "1,1,1"], _SWEEP_CSV_FLAGS),
    "model": (["--n", "200"], _SWEEP_MODEL_FLAGS),
    "none": ([], {}),
    "csv-and-model": (["--data", "{tmp}/ci.csv", "--model", "cit"], {}),
}


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_estimate_flag_sweep_ends_in_an_exit_code(tmp_path, capsys, data):
    if not (tmp_path / "replay.json").exists():
        samples, _, _ = gen_cit(200, 1, True, seed=0)
        save_csv(samples, str(tmp_path / "ci.csv"))
        (tmp_path / "replay.json").write_text(_FILES["replay.json"], encoding="utf-8")
    argv = ["-q", "estimate", "--jobs", "1"]
    input_name = data.draw(st.sampled_from(sorted(_SWEEP_INPUTS)))
    input_args, input_flags = _SWEEP_INPUTS[input_name]
    argv += input_args
    if input_args[:1] == ["--n"]:
        argv += ["--model", data.draw(st.sampled_from(cli.MODEL_IDS))]
    # --config names its own estimator
    estimator = None if input_name == "config" else data.draw(
        st.sampled_from([None, "ksg", "ksg", "cmigan", "migan", "midiff-fmine"]))
    if estimator is not None:
        argv += ["--estimator", estimator]
        if estimator != "ksg":
            # a network id trains for a few steps only
            argv += ["--steps", data.draw(st.sampled_from(["0", "1", "3"]))]
    # mostly flags the input reads, sometimes one it does not
    readable = sorted({**input_flags, **(_SWEEP_ESTIMATOR_FLAGS if input_flags else {})})
    flags = data.draw(st.lists(st.sampled_from(readable), max_size=4, unique=True)) if readable else []
    if data.draw(st.integers(0, 3)) == 0:
        flags.append(data.draw(st.sampled_from(sorted(_SWEEP_FLAGS))))
    for flag in flags:
        values = _SWEEP_FLAGS[flag]
        argv += [flag, *([data.draw(st.sampled_from(values))] if values else [])]
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    try:
        with np.errstate(all="ignore"):
            code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL), argv
    assert "Traceback" not in captured.err
    if code != EXIT_OK:
        assert captured.out == "", argv


# JSON values of every type, each kind of number near the config bounds
_SWEEP_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([0.5, 1.5, 2.0, -1.0, 1e-3, 1e308]),
    st.floats(), st.sampled_from(["", "5", "no", "total_decay", "x0"]), st.lists(st.integers(-1, 3), max_size=4),
    st.dictionaries(st.sampled_from(["x_cols", "y_cols", "z_cols", "k"]), st.lists(st.text(max_size=2))),
)
# each replayed section, a valid value of it, and the keys a sweep may set
# in it, an unknown key among them
_SWEEP_SECTIONS = {
    "estimator_config": (_TINY_NET_CONFIG, [f.name for f in dataclasses.fields(EstimatorConfig)]),
    "ksg": ({"k": 3}, ["k"]),
    "model": (_TINY_MODEL, ["kind", "model", "n", "seed", "dz", "d", "rho", "dependent"]),
    "csv": ({**_CSV_MAPPING_SPEC, "path": "{tmp}/ci.csv"},
            ["path", "dims", "mapping", "semicolon", "shuffle_seed", "normalize"]),
}


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replayed_value_sweep_ends_in_an_exit_code(tmp_path, capsys, data):
    if not (tmp_path / "ci.csv").exists():
        save_csv(gen_cit(200, 1, True, seed=0)[0], str(tmp_path / "ci.csv"))
    sections = {name: dict(base) for name, (base, _) in _SWEEP_SECTIONS.items()}
    sections["csv"]["path"] = str(tmp_path / "ci.csv")
    for name in data.draw(st.lists(st.sampled_from(sorted(sections)), min_size=1, max_size=2, unique=True)):
        keys = data.draw(st.lists(st.sampled_from(_SWEEP_SECTIONS[name][1] + ["bogus"]), min_size=1,
                                  max_size=2, unique=True))
        sections[name].update((key, data.draw(_SWEEP_JSON)) for key in keys)
    doc = _replay_doc(data.draw(st.sampled_from(["ksg", "cmigan"])), sections["estimator_config"],
                      sections[data.draw(st.sampled_from(["model", "csv"]))], sections["ksg"])
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with np.errstate(all="ignore"):
        code = main(["-q", "estimate", "--config", str(path), "--jobs", "1"])
    captured = capsys.readouterr()
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERICAL), doc
    assert "Traceback" not in captured.err
    if code != EXIT_OK:
        assert captured.out == "", doc
