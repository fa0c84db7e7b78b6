"""Self-test of the benchmark: every workload in quick mode, traced and not.

Run from the repository root (about half a minute on 2 cores):

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# every metric the benchmark defines, end to end and per layer
NAMED_END_TO_END = (
    "setup_s", "wall_s", "steps_per_s", "ksg_s", "datasets_per_s", "auroc_cmigan",
    "auroc_ksg", "abs_err_nats", "peak_rss_mb", "failed_ratio",
)
NAMED_PER_LAYER = (
    "neuralnet.forward_s", "neuralnet.forward_calls", "neuralnet.forward_rows",
    "neuralnet.backward_s", "neuralnet.backward_calls", "neuralnet.add_grads_s",
    "neuralnet.flops", "neuralnet.gflops_per_s", "neuralnet.rmsprop_s",
    "neuralnet.rmsprop_calls", "bounds.objective_s", "bounds.objective_calls",
    "estimators.self_s", "estimators.eval_s", "estimators.runs_attempted",
    "estimators.runs_failed", "knn.marginal_count_s", "knn.marginal_neighbors",
    "knn.joint_query_s", "knn.tree_build_s", "knn.tree_builds", "knn.digamma_s",
    "datagen.generate_s", "dataio.write_s", "dataio.bytes_written", "dataio.read_s",
    "dataio.bytes_read", "citest.dataset_s_p50", "citest.dataset_s_max", "citest.self_s",
    "cli.self_s", "trace.overhead_ratio",
)
SPECIFIC_BY_WORKLOAD = {
    "train-ref": {"steps_per_s", "failed_ratio"},
    "cit-suite": {"steps_per_s", "ksg_s", "datasets_per_s", "auroc_cmigan", "auroc_ksg", "failed_ratio"},
    "ksg-d5": {"ksg_s", "abs_err_nats", "failed_ratio"},
    "runner-mix": {"steps_per_s", "failed_ratio"},
}


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_named_metric_has_a_unit_and_direction():
    registry = run.END_TO_END | run.WORKLOAD_SPECIFIC | run.PER_LAYER
    for name in NAMED_END_TO_END + NAMED_PER_LAYER:
        unit, better, meaning = registry[name]
        assert unit and meaning, name
        assert better in ("higher", "lower"), name


def test_benchmark_json_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == {name: (unit, better) for name, (unit, better, _) in table.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_run(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--quick"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])

    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

    assert set(detail["workload_metrics"]) == SPECIFIC_BY_WORKLOAD[workload]
    printed = {line.split(" = ")[0] for line in lines[:-2]}
    assert set(result["metrics"]) | set(detail["workload_metrics"]) <= printed
    assert all(c["ok"] for c in detail["checks"])
    assert detail["env"]["nproc"] >= 1 and "jobs_note" in detail["env"]
    assert all("per_run" in e for e in detail["estimates"])

    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        parts = sum(m[name] for name in run.ADDITIVE)
        assert parts == pytest.approx(m["trace.wall_s"], rel=1e-9)
        assert m["trace.overhead_ratio"] > 0


def test_same_seed_gives_same_estimates():
    runs = [
        _bench(["--workload", "runner-mix", "--seed", "5", "--seconds", "0.1", "--quick"])
        for _ in range(2)
    ]
    estimates = [json.loads(p.stdout.splitlines()[-2])["estimates"] for p in runs]
    assert estimates[0] == estimates[1]


def test_refuses_to_run_without_the_package_source():
    os.makedirs(run.WORK, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "train-ref", "--seed", "0", "--seconds", "1"], cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass  # a benchmark run is using it
