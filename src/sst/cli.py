"""Command-line entry point: train, transfer, inspect-edf, variance, synth.

Exit codes: 0 on success, 1 when the arguments do not parse, 2 when a file
cannot be read, and otherwise the exit_code of the SstError raised (errors.py
holds that table).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time

from .checkpoint import load_checkpoint, replacing, save_checkpoint
from .config import load_run_config
from .edf import EdfReader, annotation_hypnogram
from .errors import ConfigError, SstError
from .ingest import export_edf, load_store
from .metrics import STAGE_NAMES, MetricsReport
from .training import train, transfer_evaluate, variance_experiment, variance_seeds


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def set_malloc_policy() -> None:
    """Set glibc's allocator for the process; a no-op where libc has no mallopt.

    One heap for every thread, so memory a pool thread frees goes back to the
    heap all of them use and peak RSS does not grow. Blocks under 32 MiB come
    from the heap, and the heap top is given back only past 64 MiB free, so a
    training step reuses the pages the step before it freed instead of faulting
    them in again. Both thresholds or neither: setting the trim threshold alone
    turns off glibc's dynamic mmap threshold, which then maps and unmaps every
    large array.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):
        return
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    # mallopt returns 0 for a value it refuses (32 MiB is the most a 64-bit
    # glibc takes), and the trim threshold must not then be set alone
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


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
    with replacing(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metrics_payload(report: MetricsReport, history: list) -> dict:
    payload = report.to_dict()
    payload["history"] = history
    return payload


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    run.check_sequence_length(run.model.S, "[model] S")
    store = load_store(run.data, run.model, role="train")
    params, summary = train(store, run.train, run.model)
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
    if args.resample_to is not None and args.resample_to != params.config.fs:
        raise ConfigError(f"--resample-to {args.resample_to:g} must equal the checkpoint's "
                          f"fs = {params.config.fs}: test data is read at that rate")
    store = load_store(run.data, params.config, role="test")
    report = transfer_evaluate(params, store, run.train, params.config)
    _write_json(os.path.join(args.out, "metrics.json"), _metrics_payload(report, []))
    print(format_stage_table(report))
    print(f"outputs in {args.out}")
    return 0


def cmd_inspect_edf(args) -> int:
    with open(args.path, "rb") as fh:
        reader = EdfReader(fh)
        traces = reader.traces()
        hyp = annotation_hypnogram(traces)
    header = reader.header
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
    if hyp is not None:
        print(f"annotations: {len(hyp.entries)} entries")
        for onset, duration, stage in hyp.entries[:5]:
            name = STAGE_NAMES[stage] if stage is not None else "?"
            print(f"  +{onset:g}s {duration:g}s {name}")
    return 0


def cmd_variance(args) -> int:
    run = load_run_config(args.config)
    run.check_sequence_length(run.model.S, "[model] S")
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ConfigError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    seeds = variance_seeds(run.train, args.runs, seeds)
    if run.data.source == "edf" and not run.data.test_path:
        raise ConfigError("variance on EDF data needs [data] test_path: its test nights "
                          "must not be the training nights at [data] path")
    store = load_store(run.data, run.model, role="train")
    test_store = load_store(run.data, run.model, role="test")
    results = variance_experiment(store, test_store, run.train, run.model,
                                  n_runs=args.runs, seeds=seeds)
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
    p_train.set_defaults(func=cmd_train)

    p_transfer = sub.add_parser("transfer", help="evaluate a checkpoint on test data")
    p_transfer.add_argument("checkpoint", help="checkpoint file from train")
    p_transfer.add_argument("--config", required=True, help="run config with the test data")
    p_transfer.add_argument("--out", default="transfer", help="output directory")
    p_transfer.add_argument("--resample-to", type=float, default=None,
                            help="the checkpoint's fs, restated; data is read at it")
    p_transfer.set_defaults(func=cmd_transfer)

    p_inspect = sub.add_parser("inspect-edf", help="print an EDF file's structure")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=cmd_inspect_edf)

    # no abbreviations, so a --seed (which variance does not take) is not read as --seeds
    p_var = sub.add_parser("variance", help="repeat training across seeds and sampling modes",
                           allow_abbrev=False)
    p_var.add_argument("--config", required=True)
    p_var.add_argument("--runs", type=int, default=5, help="training runs per sampling mode")
    p_var.add_argument("--seeds", default=None,
                       help="comma-separated seeds, one per run (repeats allowed); "
                            "default [train] seed + run index")
    p_var.add_argument("--out", default="variance", help="output directory")
    p_var.set_defaults(func=cmd_variance)

    p_synth = sub.add_parser("synth", help="write the synthetic dataset as EDF files")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out", default="synth", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    set_malloc_policy()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    # --out is made before the command reads any data, and a command that
    # fails takes the --out it made away again while that is still empty
    out = getattr(args, "out", None)
    made = out is not None and not os.path.isdir(out)
    try:
        if out is not None:
            os.makedirs(out, exist_ok=True)
        return args.func(args)
    except (SstError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if made and os.path.isdir(out) and not os.listdir(out):
            os.rmdir(out)
        return exc.exit_code if isinstance(exc, SstError) else 2


if __name__ == "__main__":
    sys.exit(main())
