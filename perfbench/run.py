"""Benchmark of cmigan: four workloads, end-to-end metrics, traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload train-ref --seed 0 --seconds 20 --trace 0

``--workload`` is one of train-ref, cit-suite, ksg-d5, runner-mix (see
workloads.py for why each exists). The inputs are generated from
``--seed``; the package receives only the generated inputs. A run sets up
three times (importing cmigan in a fresh interpreter, then generating the
inputs), then repeats units of the workload's measured calls until
``--seconds`` would be exceeded, at least once. ``--trace 1`` alternates
untraced and traced units and reports the per-layer split of the traced
ones; ``--trace 0`` runs untraced units only and reports the end-to-end
metrics. ``--quick`` runs the same code at toy sizes, in seconds.

Every metric is printed as a line ``name = value unit (better)``; then
one JSON line carries the environment, every per-run estimate, the
workload-specific metrics and the checks; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every check passes, 1 when one fails and 2 on a
usage error or when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

LOADAVG_START = os.getloadavg()  # before this process adds any load
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = ("train-ref", "cit-suite", "ksg-d5", "runner-mix")
SETUP_REPEATS = {"full": 3, "quick": 1}

# name -> (unit, better, meaning). BENCHMARK.json lists the same
# end-to-end and per-layer names and units; the self-test keeps them equal.
END_TO_END = {
    "setup_s": ("s", "lower", "import cmigan in a fresh interpreter plus generating the inputs; median of the set-ups"),
    "wall_s": ("s", "lower", "wall time of one unit of the measured calls, tracing off; median over units"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of the benchmark process"),
}
# printed on the workloads they apply to; not every workload has them, so
# they are not in BENCHMARK.json's end_to_end list
WORKLOAD_SPECIFIC = {
    "steps_per_s": ("1/s", "higher", "training steps per second of the calls that trained them, eval passes included"),
    "ksg_s": ("s", "lower", "wall time of the KSG calls of one unit"),
    "datasets_per_s": ("1/s", "higher", "datasets scored (both estimators) per second of wall_s"),
    "auroc_cmigan": ("auroc", "higher", "AuROC of the adversarial estimator over the non-excluded datasets"),
    "auroc_ksg": ("auroc", "higher", "AuROC of KSG over the non-excluded datasets"),
    "abs_err_nats": ("nats", "lower", "|KSG estimate - 2.5 ln 2|"),
    "failed_ratio": ("ratio", "lower", "failed runs plus excluded datasets over the number attempted"),
}
PER_LAYER = {
    "neuralnet.forward_s": ("s", "lower", "mlp_forward and mlp_forward_cached calls"),
    "neuralnet.forward_calls": ("count", "lower", "forward calls"),
    "neuralnet.forward_rows": ("count", "lower", "rows passed forward"),
    "neuralnet.backward_s": ("s", "lower", "mlp_backward_cached calls"),
    "neuralnet.backward_calls": ("count", "lower", "backward calls"),
    "neuralnet.add_grads_s": ("s", "lower", "add_grads calls"),
    "neuralnet.flops": ("flop", "lower", "computed from layer shapes x rows: 2 per multiply-add of the forward and backward matmuls"),
    "neuralnet.gflops_per_s": ("GFLOP/s", "higher", "neuralnet.flops over forward_s + backward_s"),
    "neuralnet.rmsprop_s": ("s", "lower", "rmsprop_step calls"),
    "neuralnet.rmsprop_calls": ("count", "lower", "rmsprop_step calls"),
    "bounds.objective_s": ("s", "lower", "log_mean_exp, softmax_weights, dv/fdiv objectives and ScorePair checks"),
    "bounds.objective_calls": ("count", "lower", "bounds calls"),
    "estimators.self_s": ("s", "lower", "estimate calls minus their neuralnet, bounds and knn calls"),
    "estimators.eval_s": ("s", "lower", "forward calls over all n rows (part of neuralnet.forward_s)"),
    "estimators.runs_attempted": ("count", "higher", "estimator runs attempted"),
    "estimators.runs_failed": ("count", "lower", "failed runs plus excluded datasets"),
    "knn.marginal_count_s": ("s", "lower", "query_ball_point calls"),
    "knn.marginal_neighbors": ("count", "lower", "sum of the returned ball counts"),
    "knn.joint_query_s": ("s", "lower", "kNN query in the joint space"),
    "knn.tree_build_s": ("s", "lower", "cKDTree construction"),
    "knn.tree_builds": ("count", "lower", "cKDTree constructions"),
    "knn.digamma_s": ("s", "lower", "digamma calls"),
    "knn.self_s": ("s", "lower", "KSG calls minus their tree, query and digamma calls"),
    "datagen.generate_s": ("s", "lower", "input generation in one set-up"),
    "dataio.write_s": ("s", "lower", "CSV, sidecar and manifest writes in one set-up"),
    "dataio.bytes_written": ("B", "lower", "bytes written in one set-up"),
    "dataio.read_s": ("s", "lower", "manifest and CSV reads"),
    "dataio.bytes_read": ("B", "lower", "bytes read"),
    "citest.dataset_s_p50": ("s", "lower", "median time to score one dataset with the adversarial estimator"),
    "citest.dataset_s_max": ("s", "lower", "slowest dataset scored with the adversarial estimator"),
    "citest.self_s": ("s", "lower", "run_cit_benchmark minus its estimate calls"),
    "cli.self_s": ("s", "lower", "cmigan.cli.main minus its dataio and citest calls"),
    "harness.self_s": ("s", "lower", "benchmark code between the measured calls"),
    "trace.wall_s": ("s", "lower", "traced wall time of one unit; the self times above add up to it"),
    "trace.overhead_ratio": ("ratio", "lower", "median traced unit wall over median untraced unit wall"),
}
# the per-layer times whose sum is the traced wall time of a unit
ADDITIVE = (
    "harness.self_s", "cli.self_s", "dataio.read_s", "citest.self_s", "estimators.self_s",
    "neuralnet.forward_s", "neuralnet.backward_s", "neuralnet.add_grads_s", "neuralnet.rmsprop_s",
    "bounds.objective_s", "knn.self_s", "knn.tree_build_s", "knn.joint_query_s",
    "knn.marginal_count_s", "knn.digamma_s",
)
JOBS_NOTE = (
    "serial runs only (jobs=1): --jobs > 1 is deliberately not a workload yet; with the "
    "default 2 BLAS threads per worker on 2 cores it would oversubscribe the machine"
)

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cmigan; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time ``import cmigan`` in a fresh interpreter, as a user pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def _blas_runtime():
    """(threads, config string) from the loaded OpenBLAS, or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _blas_runtime()
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": config,
        "blas_threads": threads,
        "loadavg_start": [round(v, 2) for v in LOADAVG_START],
        "jobs": 1,
        "jobs_note": JOBS_NOTE,
    }


def _measure_unit(workload, traced):
    from spans import Tracer, instrument
    from workloads import Unit

    if traced:
        tracer = Tracer()
        with instrument(tracer):
            calls = tracer.call("harness", workload.measure, tracer)
        unit = Unit(tracer.total["harness"], calls)
    else:
        tracer = None
        start = perf_counter()
        calls = workload.measure(None)
        unit = Unit(perf_counter() - start, calls)
    workload.summarize(unit)
    return unit, tracer


def _per_layer(tracers, setup_tracers, traced, untraced) -> dict:
    """Per-layer metrics as means per traced unit (per set-up for the
    set-up layers), so the additive times sum to trace.wall_s."""
    k = len(tracers)

    def total(name):
        return sum(t.total[name] for t in tracers) / k

    def self_time(name):
        return sum(t.self_time[name] for t in tracers) / k

    def calls(name):
        return sum(t.calls[name] for t in tracers) / k

    def count(name, among=tracers):
        return sum(t.counts[name] for t in among) / len(among)

    dataset_s = [d for t in tracers for est, d in t.dataset_s if est != "ksg"]
    nn_s = total("neuralnet.forward") + total("neuralnet.backward")
    flops = count("neuralnet.flops")
    return {
        "neuralnet.forward_s": total("neuralnet.forward"),
        "neuralnet.forward_calls": calls("neuralnet.forward"),
        "neuralnet.forward_rows": count("neuralnet.forward_rows"),
        "neuralnet.backward_s": total("neuralnet.backward"),
        "neuralnet.backward_calls": calls("neuralnet.backward"),
        "neuralnet.add_grads_s": total("neuralnet.add_grads"),
        "neuralnet.flops": flops,
        "neuralnet.gflops_per_s": flops / nn_s / 1e9 if nn_s > 0 else 0.0,
        "neuralnet.rmsprop_s": total("neuralnet.rmsprop"),
        "neuralnet.rmsprop_calls": calls("neuralnet.rmsprop"),
        "bounds.objective_s": total("bounds.objective"),
        "bounds.objective_calls": calls("bounds.objective"),
        "estimators.self_s": self_time("estimators"),
        "estimators.eval_s": count("estimators.eval_s"),
        "estimators.runs_attempted": sum(u.attempted for u in traced) / k,
        "estimators.runs_failed": sum(u.failed for u in traced) / k,
        "knn.marginal_count_s": total("knn.marginal_count"),
        "knn.marginal_neighbors": count("knn.marginal_neighbors"),
        "knn.joint_query_s": total("knn.joint_query"),
        "knn.tree_build_s": total("knn.tree_build"),
        "knn.tree_builds": calls("knn.tree_build"),
        "knn.digamma_s": total("knn.digamma"),
        "knn.self_s": self_time("knn"),
        "datagen.generate_s": sum(t.total["datagen.generate"] for t in setup_tracers) / len(setup_tracers),
        "dataio.write_s": sum(t.total["dataio.write"] for t in setup_tracers) / len(setup_tracers),
        "dataio.bytes_written": count("dataio.bytes_written", setup_tracers),
        "dataio.read_s": total("dataio.read"),
        "dataio.bytes_read": count("dataio.bytes_read"),
        "citest.dataset_s_p50": statistics.median(dataset_s) if dataset_s else 0.0,
        "citest.dataset_s_max": max(dataset_s) if dataset_s else 0.0,
        "citest.self_s": self_time("citest"),
        "cli.self_s": self_time("cli"),
        "harness.self_s": self_time("harness"),
        "trace.wall_s": total("harness"),
        "trace.overhead_ratio": statistics.median(u.wall_s for u in traced)
        / statistics.median(u.wall_s for u in untraced),
    }


def _workload_specific(untraced, units) -> dict:
    first = untraced[0]
    m = {}
    if first.steps:
        m["steps_per_s"] = statistics.median(u.steps / u.train_wall_s for u in untraced)
    if any(c.estimator == "ksg" for c in first.calls):
        m["ksg_s"] = statistics.median(u.ksg_wall_s for u in untraced)
    if "datasets" in first.extra:
        m["datasets_per_s"] = statistics.median(u.extra["datasets"] / u.wall_s for u in untraced)
    for key in ("auroc_cmigan", "auroc_ksg", "abs_err_nats"):
        if key in first.extra:
            m[key] = first.extra[key]
    m["failed_ratio"] = sum(u.failed for u in units) / sum(u.attempted for u in units)
    return m


def _checks(units, per_layer) -> list[dict]:
    results = {}
    for u in units:
        for name, ok, detail in u.checks:
            if name not in results or (results[name]["ok"] and not ok):
                results[name] = {"check": name, "ok": ok, "detail": detail}
    first = units[0].estimates
    same = all(u.estimates == first for u in units[1:])
    results["repeat units give identical estimates"] = {
        "check": "repeat units give identical estimates",
        "ok": same,
        "detail": f"{len(units)} units, traced and untraced",
    }
    if per_layer is not None:
        parts = sum(per_layer[name] for name in ADDITIVE)
        wall = per_layer["trace.wall_s"]
        results["traced self times add up to trace.wall_s"] = {
            "check": "traced self times add up to trace.wall_s",
            "ok": abs(parts - wall) <= 1e-9 * max(wall, 1.0),
            "detail": f"sum {parts!r} vs wall {wall!r}",
        }
    return list(results.values())


def run(args, workdir) -> int:
    from spans import Tracer, instrument
    from workloads import SIZES, WORKLOADS

    mode = "quick" if args.quick else "full"
    workload = WORKLOADS[args.workload](SIZES[mode][args.workload], args.seed, workdir)

    setup_s, setup_tracers = [], []
    for _ in range(SETUP_REPEATS[mode]):
        imported = import_seconds()
        start = perf_counter()
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                workload.setup(tracer)
            setup_tracers.append(tracer)
        else:
            workload.setup(None)
        setup_s.append(imported + perf_counter() - start)

    units, untraced, traced, tracers = [], [], [], []
    start = perf_counter()
    longest = 0.0
    while True:
        use_trace = bool(args.trace) and len(untraced) > len(traced)
        unit, tracer = _measure_unit(workload, use_trace)
        units.append(unit)
        (traced if use_trace else untraced).append(unit)
        if tracer is not None:
            tracers.append(tracer)
        longest = max(longest, unit.wall_s)
        done = untraced and (traced or not args.trace)
        if done and perf_counter() - start + longest > args.seconds:
            break

    per_layer = _per_layer(tracers, setup_tracers, traced, untraced) if args.trace else None
    if args.trace:
        metrics, table = per_layer, PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(u.wall_s for u in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = END_TO_END
    specific = _workload_specific(untraced, units)
    checks = _checks(units, per_layer)
    correct = all(c["ok"] for c in checks)

    for name, value in [*metrics.items(), *specific.items()]:
        unit, better, meaning = (table | WORKLOAD_SPECIFIC)[name]
        print(f"{name} = {value:.6g} {unit} ({better} is better; {meaning})")
    for c in checks:
        if not c["ok"]:
            print(f"CHECK FAILED: {c['check']}: {c['detail']}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": {"untraced": len(untraced), "traced": len(traced)},
        "unit_walls_s": [u.wall_s for u in units],
        "setup_s": setup_s,
        "env": environment(),
        "estimates": units[0].estimates,
        "workload_metrics": {
            name: {"value": v, "unit": WORKLOAD_SPECIFIC[name][0], "better": WORKLOAD_SPECIFIC[name][1]}
            for name, v in specific.items()
        },
        "checks": checks,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": v, "unit": table[name][0]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="toy sizes, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cmigan", "__init__.py")):
        print(f"perfbench: no cmigan package source under {os.path.relpath(SRC)}/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
