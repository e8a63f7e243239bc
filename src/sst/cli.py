"""Command-line entry point: train, transfer, inspect-edf, variance, synth.

Exit codes: 0 success, 1 usage or configuration, 2 data or parsing,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_run_config, resolve_seed
from .edf import annotation_hypnogram, parse_edf
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    NumericalError,
    ParseError,
)
from .ingest import export_edf, load_store
from .metrics import STAGE_NAMES, MetricsReport
from .training import train, transfer_evaluate, variance_experiment


def format_stage_table(report: MetricsReport) -> str:
    names = (*STAGE_NAMES, "Mean")
    values = [*report.per_class_f1, report.macro_f1]
    head = f"{'':6s}" + "".join(f"{n:>8s}" for n in names) + f"{'Acc':>8s}{'Kappa':>8s}"
    row = f"{'F1':6s}" + "".join(f"{v:8.3f}" for v in values)
    row += f"{report.accuracy:8.3f}{report.kappa:8.3f}"
    return head + "\n" + row


def format_variance_table(results: dict) -> str:
    head = f"{'sampling mode':16s}" + "".join(f"{c:>16s}" for c in ("F1", "Acc", "Kappa"))
    lines = [head]
    for mode, payload in results.items():
        summary = payload["summary"]
        cells = "".join(
            f"{summary[k]['mean']:8.3f} ± {summary[k]['sd']:5.3f}"
            for k in ("macro_f1", "accuracy", "kappa")
        )
        lines.append(f"{mode:16s}{cells}")
    return "\n".join(lines)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metrics_payload(report: MetricsReport, history: list) -> dict:
    payload = report.to_dict()
    payload["history"] = history
    return payload


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    run.check_sequence_length(run.model.S, "[model] S")
    run.train.seed = resolve_seed(run.train.seed, args.seed)
    store = load_store(run.data, run.model, role="train")
    params, summary = train(store, run.train, run.model)

    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.ckpt"), params)
    run_summary = summary.to_dict()
    run_summary["seed"] = run.train.seed
    run_summary["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_json(os.path.join(args.out, "run_summary.json"), run_summary)
    if summary.final_report is not None:
        _write_json(os.path.join(args.out, "metrics.json"),
                    _metrics_payload(summary.final_report, summary.history))
        print(format_stage_table(summary.final_report))
    print(f"trained {summary.steps_trained} steps"
          + (", stopped early" if summary.stopped_early else ""))
    if summary.best_val_metric is not None:
        print(f"best validation macro-F1 {summary.best_val_metric:.3f} at step {summary.best_step}")
    print(f"outputs in {args.out}")
    return 0


def cmd_transfer(args) -> int:
    params = load_checkpoint(args.checkpoint)
    run = load_run_config(args.config)
    run.check_sequence_length(params.config.S, "the checkpoint's S")
    store = load_store(run.data, params.config, role="test", resample_to=args.resample_to)
    report = transfer_evaluate(params, store, run.train, params.config)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "metrics.json"), _metrics_payload(report, []))
    print(format_stage_table(report))
    print(f"outputs in {args.out}")
    return 0


def cmd_inspect_edf(args) -> int:
    with open(args.path, "rb") as fh:
        data = fh.read()
    header, traces, warnings = parse_edf(data, strict=not args.lenient)
    print(f"version: {header.version!r}")
    print(f"patient: {header.patient!r}")
    print(f"recording: {header.recording!r}")
    print(f"start: {header.start_date} {header.start_time}")
    print(f"n_signals: {header.n_signals}, n_records: {header.n_records}, "
          f"record duration: {header.record_duration_s} s")
    for i, (sig, trace) in enumerate(zip(header.signals, traces)):
        print(f"signal {i}: {sig.label!r} fs={trace.fs:g} Hz spr={sig.samples_per_record} "
              f"phys=[{sig.phys_min:g}, {sig.phys_max:g}] {sig.phys_dim} "
              f"dig=[{sig.dig_min}, {sig.dig_max}]")
    hyp = annotation_hypnogram(traces)
    if hyp is not None:
        print(f"annotations: {len(hyp.entries)} entries")
        for onset, duration, stage in hyp.entries[:5]:
            name = STAGE_NAMES[stage] if stage is not None else "?"
            print(f"  +{onset:g}s {duration:g}s {name}")
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_variance(args) -> int:
    run = load_run_config(args.config)
    run.check_sequence_length(run.model.S, "[model] S")
    run.train.seed = resolve_seed(run.train.seed, args.seed)
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    store = load_store(run.data, run.model, role="train")
    test_store = load_store(run.data, run.model, role="test")
    results = variance_experiment(store, test_store, run.train, run.model,
                                  n_runs=args.runs, seeds=seeds)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "variance.json"), results)
    print(format_variance_table(results))
    print(f"outputs in {args.out}")
    return 0


def cmd_synth(args) -> int:
    run = load_run_config(args.config)
    if run.data.source != "synth":
        raise ConfigError("synth command needs [data] source = synth")
    store = load_store(run.data, run.model, role="train")
    export_edf(store, run.model.fs, args.out)
    print(f"wrote {len(store.subjects)} EDF subjects to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sst", description="Siamese sleep transformer toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a run config")
    p_train.add_argument("--config", required=True, help="run config file")
    p_train.add_argument("--out", default="run", help="output directory")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config and SST_SEED seed")
    p_train.set_defaults(func=cmd_train)

    p_transfer = sub.add_parser("transfer", help="evaluate a checkpoint on test data")
    p_transfer.add_argument("checkpoint", help="checkpoint file from train")
    p_transfer.add_argument("--config", required=True, help="run config with the test data")
    p_transfer.add_argument("--out", default="transfer", help="output directory")
    p_transfer.add_argument("--resample-to", type=float, default=None,
                            help="resample test signals to this rate first")
    p_transfer.set_defaults(func=cmd_transfer)

    p_inspect = sub.add_parser("inspect-edf", help="print an EDF file's structure")
    p_inspect.add_argument("path")
    p_inspect.add_argument("--lenient", action="store_true",
                           help="repair sloppy ASCII instead of failing")
    p_inspect.set_defaults(func=cmd_inspect_edf)

    p_var = sub.add_parser("variance", help="repeat training across seeds and sampling modes")
    p_var.add_argument("--config", required=True)
    p_var.add_argument("--runs", type=int, default=5, help="training runs per sampling mode")
    p_var.add_argument("--seeds", default=None,
                       help="comma-separated seeds, one per run (repeats allowed)")
    p_var.add_argument("--out", default="variance", help="output directory")
    p_var.add_argument("--seed", type=int, default=None, help="base seed override")
    p_var.set_defaults(func=cmd_variance)

    p_synth = sub.add_parser("synth", help="write the synthetic dataset as EDF files")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", default="synth", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (ConfigError, ContractError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
