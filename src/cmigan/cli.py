"""Command-line interface.

Subcommands: datagen (synthetic datasets + sidecars), estimate (MI/CMI
on generated or CSV data), citest (manifest-driven benchmark), gradcheck
(finite-difference audit of the network engine), bench (generate a
labeled CIT suite and score it end to end).

Exit codes: 0 success, 2 usage error (running out of memory included),
3 data error, 4 numerical failure.
Progress goes to stderr; results go to stdout and report files, with the
run configuration the estimator read embedded in every JSON report so a
run can be replayed bit-for-bit from its own output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .citest import DEFAULT_THRESHOLD, run_cit_benchmark
from .datagen import _MODELS, MODEL_IDS, gen_cit, generate, true_cmi
from .dataio import (
    ColumnMapping,
    DataError,
    ManifestEntry,
    load_csv,
    read_manifest,
    save_csv,
    write_manifest,
    write_sidecar,
)
from .estimators import ESTIMATOR_IDS, EstimatorConfig, blas_core, check_rows, estimate
from .knn import KSGConfig
from .neuralnet import RMSPROP_EPS, RMSPROP_RHO, NumericalError, gradient_check

log = logging.getLogger("cmigan")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _jobs(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _threshold(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"threshold must be finite, got {value}")
    return value


def _cols(text: str | None) -> list:
    if text is None:
        return []
    return [part.strip() for part in text.split(",") if part.strip() != ""]


def _configs(args, record_trace: bool = False) -> tuple[EstimatorConfig, KSGConfig]:
    """The :class:`EstimatorConfig` and :class:`KSGConfig` of the flags: the
    base config with each given flag applied to the field its ``dest`` names."""
    base = EstimatorConfig.cit_defaults() if args.cit_defaults else EstimatorConfig()
    overrides = dict(standardize=not args.no_standardize, record_trace=record_trace)
    for f in dataclasses.fields(EstimatorConfig):
        if (value := getattr(args, f.name, None)) is not None:
            overrides[f.name] = tuple(_int_list(value)) if f.type.startswith("tuple") else value
    return dataclasses.replace(base, **overrides), KSGConfig() if args.k is None else KSGConfig(k=args.k)


# what reads each input- or estimator-specific flag, by argparse dest: a
# CSV (--data), a CSV split by column names rather than by --dims, any
# model (--model), a model that takes that argument, ksg, or the network
# estimators (--cit-defaults and each flag whose dest is an EstimatorConfig
# field; --no-standardize is not one). Every other flag is read by --data
# and --model input and by every estimator, and --config reads only
# _REPLAY_READS.
_READ_BY = {
    **dict.fromkeys(("dims", "semicolon"), "--data"),
    **dict.fromkeys(("x_cols", "y_cols", "z_cols"), "columns"),
    **dict.fromkeys(("n", "data_seed"), "--model"),
    **{arg: "model" for _, takes, _ in _MODELS.values() for arg in takes},
    **dict.fromkeys([f.name for f in dataclasses.fields(EstimatorConfig)] + ["cit_defaults"],
                    "the network estimators"),
    "k": "ksg",
}
_REPLAY_READS = ("command", "func", "quiet", "config", "out", "trace", "jobs")


def _check_flags(args, given: str):
    """Reject, naming it, the first flag given that the input ``given``
    ("--config", "--data" or "--model") or the ``--estimator`` given does
    not read; a flag that is not given is None."""
    estimator = getattr(args, "estimator", None)  # datagen has no estimator
    field_flags = {f.name: f.metadata.get("flag") for f in dataclasses.fields(EstimatorConfig)}
    for name, value in vars(args).items():
        if value is None or name in _REPLAY_READS:
            continue
        flag = "--independent" if value is False else field_flags.get(name) or "--" + name.replace("_", "-")
        reader = _READ_BY.get(name)
        if given == "--config":
            raise ValueError(f"{flag} does not apply to --config, which replays its run configuration")
        if reader in ("ksg", "the network estimators"):
            if estimator is not None and (reader == "ksg") != (estimator == "ksg"):
                raise ValueError(f"{flag} applies to {reader}, not {estimator}")
            continue
        if reader is None:
            continue
        kind = "--model" if reader in ("--model", "model") else "--data"
        if kind != given:
            raise ValueError(f"{flag} applies to {kind} input, not {given}")
        if reader == "columns" and args.dims is not None:
            raise ValueError(f"{flag} does not apply with --dims, which splits the columns as [x|y|z]")
        if reader == "model" and name not in (takes := _MODELS[args.model][1]):
            flags = ", ".join(f"--{arg}" for arg in takes if arg != "dependent")
            raise ValueError(f"{flag} does not apply to the {args.model} model, which takes {flags}")


def _dataset_spec_from_args(args) -> dict:
    if args.data is not None:
        mapping = dims = None
        if args.dims is not None:
            dims = _int_list(args.dims)
        elif args.x_cols and args.y_cols:
            mapping = {key: _cols(getattr(args, key)) for key in ("x_cols", "y_cols", "z_cols")}
        else:
            raise ValueError("CSV input needs --dims, or --x-cols and --y-cols (and --z-cols)")
        return dict(kind="csv", path=os.path.abspath(args.data), dims=dims, mapping=mapping,
                    semicolon=bool(args.semicolon))
    return dict(kind="model", model=args.model, n=args.n, dz=args.dz, d=args.d, rho=args.rho,
                dependent=bool(args.dependent), seed=0 if args.data_seed is None else args.data_seed)


def csv_dataset(path, dims=None, mapping=None, semicolon=False):
    """The samples of a CSV file split by ``dims`` or by a column
    ``mapping``, which holds the ColumnMapping fields."""
    by_dims = dims is not None
    columns = ColumnMapping.from_dims(dims) if by_dims else ColumnMapping(**mapping)
    loaded = load_csv(path, columns, semicolon=semicolon, whole_header=by_dims)
    log.info("loaded %s: %d rows kept, %d dropped", path, loaded.kept_rows, loaded.dropped_rows)
    return loaded.samples


def _load_dataset(spec: dict):
    """The samples of a dataset ``spec``: ``generate`` or :func:`csv_dataset`,
    as its ``kind`` says, called with its other keys as keyword arguments."""
    args = dict(spec)
    kind = args.pop("kind", None)
    if kind == "model":
        return _call(generate, "dataset", args)[0]
    if kind == "csv":
        return _call(csv_dataset, "dataset", args)
    raise ValueError(f"unknown dataset kind {kind!r}")


def _write_json(path: str | None, doc: dict):
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", path)
    print(text)


def _run_config(command: str, estimator: str, cfg: EstimatorConfig, ksg_cfg: KSGConfig, **inputs) -> dict:
    """The run configuration a report embeds: ``inputs`` (the ``dataset``
    spec, or the ``manifest`` and ``threshold``), then what ``estimator``
    reads of ``cfg`` and ``ksg_cfg``: ``ksg`` only ``standardize`` and k,
    a network id the whole :class:`EstimatorConfig`."""
    if estimator == "ksg":
        read = {"estimator_config": {"standardize": cfg.standardize}, "ksg": {"k": ksg_cfg.k}}
    else:
        read = {"estimator_config": cfg.to_dict()}
    return {"command": command, "estimator": estimator, **inputs, **read}


def _write_report(path: str | None, run_config: dict, report_dict: dict, wall: float):
    # the BLAS kernel and numpy decide the last bits of a report; they are
    # named outside ``report``, which a replay must reproduce bit for bit
    doc = {"run_config": run_config, "report": report_dict, "wall_time_s": wall, "version": __version__,
           "blas_core": blas_core(), "numpy": np.__version__}
    _write_json(path, doc)


def _write_trace(path: str, report_dict: dict, seed: int):
    """Move each successful run's bulky trace rows from ``report_dict`` to
    the CSV ``path``, labelled "0", "1", ... by its run index, which is its
    seed minus the config's ``seed``. A failed run has no diagnostics, so
    its index is missing."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "step", "reg_loss", "gen_loss"])
        for run in report_dict["diagnostics"].get("runs", []):
            for step, reg, gen in run.pop("trace", []):
                writer.writerow([run["seed"] - seed, step, format(reg, ".17g"), format(gen, ".17g")])
    log.info("wrote %s", path)


def cmd_datagen(args) -> int:
    _check_flags(args, "--model")
    samples, params, label = generate(
        args.model, args.n, args.seed, dz=args.dz, d=args.d, rho=args.rho, dependent=args.dependent
    )
    save_csv(samples, args.out)
    truth = true_cmi(params)
    sidecar = write_sidecar(args.out, params, truth)
    summary = {
        "csv": args.out,
        "sidecar": sidecar,
        "n": samples.n,
        "dims": list(samples.dims),
        "true_cmi": truth,
    }
    if label is not None:
        summary["label"] = label
    _write_json(None, summary)
    return EXIT_OK


# keys of older reports, by run_config section, with the one value each
# may still hold: RMSProp's rho and eps became constants, and a CSV's
# load-time z-scoring and row shuffle were removed
_RETIRED = {
    ("estimator_config", "rmsprop_rho"): RMSPROP_RHO,
    ("estimator_config", "rmsprop_eps"): RMSPROP_EPS,
    ("dataset", "normalize"): "none",
    ("dataset", "shuffle_seed"): None,
}


def _replay_config(path: str) -> dict:
    """The ``run_config`` of a report (or a bare run_config), with its
    shape and retired keys checked; the code that reads each dataset
    value checks its type, before any file is read."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    run_config = doc.get("run_config", doc)
    if not isinstance(run_config, dict):
        raise ValueError(f"{path}: run_config must be a JSON object")
    missing = [key for key in ("estimator", "estimator_config", "dataset") if key not in run_config]
    if missing:
        raise ValueError(f"{path}: run_config lacks {', '.join(missing)}")
    for key in ("estimator_config", "dataset", "ksg"):
        if not isinstance(run_config.get(key, {}), dict):
            raise ValueError(f"{path}: run_config.{key} must be a JSON object")
    for (section, key), value in _RETIRED.items():
        if (given := run_config[section].get(key, value)) != value:
            raise ValueError(f"{path}: {section} {key}={json.dumps(given)} is no longer supported; "
                             f"only {json.dumps(value)} replays")
    return run_config


def _call(func, section: str, values: dict, **overrides):
    """``func`` called with the keyword arguments ``values``, a ``section``
    of a run configuration less its retired keys, and ``overrides``; a key
    it does not take or lacks, or a value of another type, is a usage error."""
    values = {key: v for key, v in values.items() if (section, key) not in _RETIRED}
    try:
        return func(**values | overrides)
    except TypeError as exc:
        raise ValueError(f"{section}: {exc}") from None


def cmd_estimate(args) -> int:
    inputs = [f"--{name}" for name in ("config", "data", "model") if getattr(args, name) is not None]
    if len(inputs) != 1:
        raise ValueError("give exactly one input: --config JSON, --data CSV or --model NAME")
    _check_flags(args, inputs[0])
    if args.config is not None:
        replayed = _replay_config(args.config)
        estimator, spec = replayed["estimator"], replayed["dataset"]
        # a replay writes the trace its own --trace asks for
        cfg = _call(EstimatorConfig, "estimator_config", replayed["estimator_config"],
                    record_trace=args.trace is not None)
        ksg_cfg = _call(KSGConfig, "ksg", replayed.get("ksg", {}))
    elif args.estimator is None:
        raise ValueError("--estimator is required unless --config is given")
    else:
        estimator, spec = args.estimator, _dataset_spec_from_args(args)
        cfg, ksg_cfg = _configs(args, args.trace is not None)
    samples = _load_dataset(spec)

    start = time.monotonic()
    report = estimate(samples, estimator, cfg, jobs=args.jobs, ksg_config=ksg_cfg)
    wall = time.monotonic() - start
    log.info("%s done in %.1fs: mean=%s std=%s", estimator, wall, report.mean, report.std)

    report_dict = report.to_dict()
    if args.trace is not None:
        _write_trace(args.trace, report_dict, cfg.seed)
    run_config = _run_config("estimate", estimator, cfg, ksg_cfg, dataset=spec)
    _write_report(args.out, run_config, report_dict, wall)
    if report.all_failed:
        log.error("all %d runs failed", cfg.runs)
        return EXIT_NUMERICAL
    return EXIT_OK


def _score_manifest(args, command: str, manifest: str, cfg: EstimatorConfig, ksg_cfg: KSGConfig) -> int:
    """Load every dataset ``manifest`` lists, score the suite with
    ``args.estimator`` under ``cfg`` and ``ksg_cfg`` and write the report."""
    base = os.path.dirname(os.path.abspath(manifest))
    entries = read_manifest(manifest)
    datasets = [(csv_dataset(os.path.join(base, e.csv), e.dims), e.label) for e in entries]
    run_config = _run_config(command, args.estimator, cfg, ksg_cfg,
                             manifest=os.path.abspath(manifest), threshold=args.threshold)
    start = time.monotonic()
    report = run_cit_benchmark(
        datasets, args.estimator, cfg, threshold=args.threshold, ksg_config=ksg_cfg,
        ids=[e.csv for e in entries], jobs=args.jobs,
    )
    wall = time.monotonic() - start
    log.info("%s done in %.1fs: auroc=%s", command, wall, report.auroc)
    _write_report(args.out, run_config, report.to_dict(), wall)
    return EXIT_OK


def cmd_citest(args) -> int:
    return _score_manifest(args, "citest", args.manifest, *_configs(args))


def cmd_gradcheck(args) -> int:
    report = gradient_check(num_nets=args.nets, seed=args.seed, h=args.h, tol=args.tol)
    doc = report.to_dict()
    _write_json(args.out, doc)
    if report.passed:
        log.info("gradient check passed: worst rel err %.3g", report.worst_rel_err)
        return EXIT_OK
    log.error("gradient check FAILED: worst rel err %.3g", report.worst_rel_err)
    return EXIT_NUMERICAL


def _write_suite(outdir: str, suite: list) -> str:
    """Write ``suite`` with its sidecars and manifest under ``outdir`` and
    return the manifest path."""
    os.makedirs(outdir, exist_ok=True)
    entries = []
    for i, (samples, params, label) in enumerate(suite):
        name = f"cit_{label.lower()}_{i:03d}.csv"
        path = os.path.join(outdir, name)
        save_csv(samples, path)
        write_sidecar(path, params, true_cmi(params))
        entries.append(ManifestEntry(name, label, samples.dims))
    manifest = os.path.join(outdir, "manifest.json")
    write_manifest(manifest, entries)
    log.info("wrote %d datasets and %s", len(entries), manifest)
    return manifest


def cmd_bench(args) -> int:
    # the flags, the suite and, when it is scored, whether the estimator can score
    # it (every dataset has one n and dz) are checked before --outdir is made
    cfg, ksg_cfg = _configs(args)
    if min(args.n_ci, args.n_cd) < 0 or args.n_ci + args.n_cd == 0:
        raise ValueError("--n-ci and --n-cd must be non-negative and not both 0")
    suite = [
        gen_cit(args.n, args.dz, i >= args.n_ci, args.suite_seed + i)
        for i in range(args.n_ci + args.n_cd)
    ]
    if args.generate_only:
        _write_json(None, {"manifest": _write_suite(args.outdir, suite), "datasets": len(suite)})
        return EXIT_OK
    check_rows(args.estimator, suite[0][0], cfg, ksg_cfg)
    return _score_manifest(args, "bench", _write_suite(args.outdir, suite), cfg, ksg_cfg)


def _add_estimator_flags(p: argparse.ArgumentParser):
    # the flags that default to a value are None unless given, so that
    # estimate can reject one its input does not read; widths stay text
    for f in dataclasses.fields(EstimatorConfig):
        if "flag" in f.metadata:
            p.add_argument(f.metadata["flag"], dest=f.name, default=None, help=f.metadata["help"],
                           type={"int": int, "float": float}.get(f.type.removesuffix(" | None")),
                           choices=f.metadata.get("choices"))
    p.add_argument("--cit-defaults", action="store_true", default=None,
                   help="start from the conditional-independence-testing hyperparameters")
    p.add_argument("--no-standardize", action="store_true", default=None,
                   help="skip per-column z-scoring")
    p.add_argument("--k", type=int, default=None, help="kNN order for the ksg estimator (default: 5)")
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="worker processes, one BLAS thread each, over the network runs "
                        "(of every dataset, for citest and bench); default: the usable CPUs")
    p.add_argument("--out", "-o", default=None, metavar="JSON", help="write the report here")


def _add_model_flags(p: argparse.ArgumentParser, required: bool):
    p.add_argument("--model", required=required, choices=MODEL_IDS, default=None,
                   help="synthetic data model")
    p.add_argument("--n", type=int, required=required, default=None, help="rows to generate")
    p.add_argument("--dz", type=int, default=None, help="conditioning dimension (linear1/2, nonlinear, cit)")
    p.add_argument("--d", type=int, default=None, help="per-block dimension (linear3, gauss)")
    p.add_argument("--rho", type=float, default=None, help="pair correlation (gauss)")
    dep = p.add_mutually_exclusive_group()
    # None when neither is given, so that a model that takes no label can reject both
    dep.add_argument("--dependent", dest="dependent", action="store_true", default=None,
                     help="conditionally dependent data (cit)")
    dep.add_argument("--independent", dest="dependent", action="store_false", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmigan",
        description="Conditional mutual information estimation and independence testing.",
    )
    parser.add_argument("--version", action="version", version=f"cmigan {__version__}")
    parser.add_argument("-q", "--quiet", action="store_true", help="only warnings on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic dataset with a JSON sidecar")
    _add_model_flags(p, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", required=True, metavar="CSV")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("estimate", help="estimate MI or CMI on a dataset")
    p.add_argument("--estimator", choices=ESTIMATOR_IDS, default=None)
    p.add_argument("--data", default=None, metavar="CSV")
    p.add_argument("--dims", default=None, help="dx,dy,dz for CSVs whose columns are ordered [x|y|z]")
    p.add_argument("--x-cols", default=None, help="comma-separated names or indices")
    p.add_argument("--y-cols", default=None)
    p.add_argument("--z-cols", default=None)
    p.add_argument("--semicolon", action="store_true", default=None,
                   help="CSV uses ';' separators and ',' decimals")
    _add_model_flags(p, required=False)
    p.add_argument("--data-seed", type=int, default=None, help="seed for inline generation (default: 0)")
    p.add_argument("--config", default=None, metavar="JSON",
                   help="replay the run configuration embedded in an earlier report")
    p.add_argument("--trace", default=None, metavar="CSV", help="write per-step losses here")
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("citest", help="run a manifest of labeled datasets through a CI test")
    p.add_argument("--manifest", required=True, metavar="JSON")
    p.add_argument("--estimator", choices=ESTIMATOR_IDS, required=True)
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD,
                   help="decision threshold in nats (strict >)")
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_citest)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the network gradients")
    p.add_argument("--nets", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", "-o", default=None, metavar="JSON")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="generate a labeled CIT suite and score it")
    p.add_argument("--outdir", required=True)
    p.add_argument("--n-ci", type=int, default=10)
    p.add_argument("--n-cd", type=int, default=10)
    p.add_argument("--dz", type=int, default=1)
    p.add_argument("--n", type=int, default=5000)
    p.add_argument("--suite-seed", type=int, default=0, help="dataset i uses suite-seed+i")
    p.add_argument("--estimator", choices=ESTIMATOR_IDS, default="ksg")
    p.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)
    p.add_argument("--generate-only", action="store_true")
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DataError as exc:
        log.error("data: %s", exc)
        return EXIT_DATA
    except NumericalError as exc:
        log.error("numerical: %s", exc)
        return EXIT_NUMERICAL
    except ValueError as exc:
        log.error("usage: %s", exc)
        return EXIT_USAGE
    except OSError as exc:
        log.error("data: %s", exc)
        return EXIT_DATA
    except MemoryError as exc:
        log.error("usage: out of memory: %s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
