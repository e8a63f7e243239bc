"""Benchmark of the `sst` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's inputs from the seed in a fresh process, three
times, and checks that the three copies are byte-identical; `setup_s` is the
median of the three set-up times, each the `sst` import plus the program calls
that write the inputs. The measurement then starts one worker process that
imports `sst` and forks one child per `sst.cli.main(argv)` call, call after
call for SECONDS, checking every call's outputs (see worker.py). With
--trace 0 the last stdout line holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 the calls come in pairs of one untraced and one traced call
(see spans.py), and the last line holds the per-layer metrics. Every result,
with the pinned environment, is also written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 3
# A run must end within 180 s: each set-up may take GEN_TIMEOUT_S, and the last
# call (the last pair, when traced) may run GRACE_S past --seconds.
GEN_TIMEOUT_S = 20
GRACE_S = 60
BLAS_THREADS = 1   # steadier than the default on a shared 2-core host; at most nproc


def _env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _tree_digest(path: str) -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(path)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def _commit(root: str) -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def environment(root: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": openblas, "blas_threads": BLAS_THREADS,
            "commit": _commit(root), "src_sha256": _tree_digest(os.path.join(root, "src"))}


def setup(name: str, seed: int, inputs: str, scale: str, env: dict) -> tuple[list[float], list[str]]:
    """Write the inputs SETUP_REPS times; return each one's set-up time (see
    worker.py: `sst` import plus program calls) and any failures."""
    times, digests, failures = [], [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "gen", name, str(seed), inputs, scale],
                env=env, capture_output=True, text=True, timeout=GEN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"input generation took over {GEN_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise SystemExit(f"input generation failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        digests.append(_tree_digest(inputs))
    if len(set(digests)) != 1:
        failures.append("the same seed wrote different inputs")
    return times, failures


def measure(name: str, inputs: str, work: str, seconds: float, trace: bool,
            env: dict) -> tuple[list[dict], str]:
    """All calls of the run (see worker.py), and the tail of the worker's stderr."""
    result_path = os.path.join(work, "measure.json")
    args = ["measure", name, inputs, work, str(seconds), "1" if trace else "0", result_path]
    # The worker forks its calls: a new session lets a timeout stop them all.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stderr = f"worker killed after {seconds + GRACE_S} s"
    stderr = "\n".join(stderr.strip().splitlines()[-5:])
    try:
        with open(result_path, encoding="ascii") as fh:
            return json.load(fh)["calls"], stderr
    except (OSError, ValueError):
        return [{"rc": None, "traced": False, "failures": ["worker wrote no result"]}], stderr


def _check_repeats(calls: list[dict]) -> None:
    """Calls of one run use one seed, so their checkpoints must be byte-identical."""
    first = next((c["checkpoint_sha256"] for c in calls if "checkpoint_sha256" in c), None)
    for c in calls:
        if "checkpoint_sha256" in c and c["checkpoint_sha256"] != first:
            c["failures"].append("checkpoint differs from the first call's with the same seed")


def end_to_end(calls: list[dict], setup_times: list[float]) -> dict:
    good = [c for c in calls if not c["failures"]]
    return {
        "setup_s": statistics.median(setup_times),
        "epochs_per_s": sum(c["epochs"] for c in good) / sum(c["wall_s"] for c in good) if good else 0.0,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in good) if good else 0.0,
        "ok_frac": len(good) / len(calls),
    }


def _units(expect: dict, call: dict) -> float:
    """Train steps, or inference batches, in one call."""
    if expect["kind"] == "train":
        return call["epochs"] / (expect["batch_size"] * expect["S"])
    return math.ceil(call["windows"] / expect["batch_size"])


def per_layer_of_call(expect: dict, call: dict) -> dict:
    table, counts = call["trace"]["table"], call["trace"]["counts"]
    units = _units(expect, call)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "step_calls": 0, "step_total_s": 0.0})

    def per_unit(name, key="step_total_s"):
        return row(name)[key] / units

    draws = counts.get("sampling.draws", 0.0)
    parsed = row("edf.parse")["total_s"]
    sliced = counts.get("ingest.kept", 0.0) + counts.get("ingest.dropped", 0.0)
    ckpt_files = row("checkpoint.save")["calls"] + row("checkpoint.load")["calls"]
    ckpt_bytes = counts.get("checkpoint.save_bytes", 0.0) + counts.get("checkpoint.load_bytes", 0.0)
    return {
        "autodiff.conv1d_fwd_s": per_unit("autodiff.conv1d"),
        "autodiff.conv1d_calls": per_unit("autodiff.conv1d", "step_calls"),
        "autodiff.gelu_fwd_s": per_unit("autodiff.gelu"),
        "autodiff.backward_s": per_unit("autodiff.backward"),
        "autodiff.matmul_fwd_s": per_unit("autodiff.matmul"),
        "autodiff.layernorm_fwd_s": per_unit("autodiff.layernorm"),
        "autodiff.softmax_fwd_s": per_unit("autodiff.softmax"),
        "autodiff.nodes_per_step": counts.get("autodiff.nodes", 0.0) / units,
        "model.forward_s": per_unit("model.forward"),
        "model.forward_calls": per_unit("model.forward", "step_calls"),
        "model.cnn_s": per_unit("model.cnn"),
        "model.cnn_calls": per_unit("model.cnn", "step_calls"),
        "model.cross_attn_s": per_unit("model.cross_attn"),
        "model.seq_attn_s": per_unit("model.seq_attn"),
        "losses.total_s": per_unit("losses.total"),
        "optim.clip_s": per_unit("optim.clip"),
        "optim.adam_s": per_unit("optim.adam"),
        "sampling.draw_s": per_unit("sampling.draw"),
        "sampling.reuse_frac": counts.get("sampling.reuse_draws", 0.0) / draws if draws else 0.0,
        "training.validate_s": per_unit("training.validate", "total_s"),
        "training.val_macro_f1": call.get("val_macro_f1", 0.0),
        "checkpoint.save_s": row("checkpoint.save")["total_s"],
        "checkpoint.load_s": row("checkpoint.load")["total_s"],
        "checkpoint.bytes": ckpt_bytes / ckpt_files if ckpt_files else 0.0,
        "edf.parse_s": parsed,
        "edf.parse_mb_per_s": counts.get("edf.bytes", 0.0) / 1e6 / parsed if parsed else 0.0,
        "edf.tal_s": row("edf.tal")["total_s"],
        "ingest.resample_s": row("ingest.resample")["total_s"],
        "ingest.slice_s": row("ingest.slice")["total_s"],
        "ingest.dropped_frac": counts.get("ingest.dropped", 0.0) / sliced if sliced else 0.0,
        "sampling.store_build_s": row("sampling.store_build")["total_s"],
        "sampling.store_mb": counts.get("sampling.store_bytes_max", 0.0) / 1e6,
        "trace.missing_targets": float(len(call["trace"]["missing"])),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of p50/p75/p90/p95/p99 with at least
    ten samples beyond it, or the maximum (p100) when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return ordered[min(n - 1, math.ceil(n * pct / 100.0) - 1)], pct
    return (ordered[-1] if ordered else 0.0), 100.0


def per_layer(expect: dict, calls: list[dict]) -> dict:
    traced = [c for c in calls if c["traced"] and not c["failures"]]
    plain = [c for c in calls if not c["traced"] and not c["failures"]]
    if not traced or not plain:
        return {}
    rows = [per_layer_of_call(expect, c) for c in traced]
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    steps = [t for c in traced for t in c["trace"]["step_times"]]
    tail_s, tail_pct = tail(steps)
    metrics.update({
        "training.step_s": statistics.median(steps) if steps else 0.0,
        "training.step_tail_s": tail_s,
        "training.step_tail_pct": tail_pct,
        "training.step_samples": float(len(steps)),
        "trace.overhead_frac": overhead(calls),
    })
    return metrics


def overhead(calls: list[dict]) -> float:
    """Median over the pairs of calls (see worker.py) of traced over untraced
    wall time, minus 1."""
    ratios = []
    for a, b in zip(calls[0::2], calls[1::2]):
        if not (a["failures"] or b["failures"]):
            traced, plain = (a, b) if a["traced"] else (b, a)
            ratios.append(traced["wall_s"] / plain["wall_s"])
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def self_time_report(calls: list[dict]) -> str:
    traced = [c for c in calls if c["traced"] and "trace" in c]
    if not traced:
        return ""
    table = traced[0]["trace"]["table"]
    top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    lines = [f"{'span':24s}{'calls':>8s}{'total_s':>10s}{'self_s':>10s}  (first traced call)"]
    lines += [f"{k:24s}{v['calls']:8d}{v['total_s']:10.3f}{v['self_s']:10.3f}" for k, v in top]
    if traced[0]["trace"]["missing"]:
        lines.append("missing trace targets: " + ", ".join(traced[0]["trace"]["missing"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'smoke' is the self-test's minimum size")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sst", "cli.py")):
        print(f"error: no sst source under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    env = _env(root)
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    try:
        setup_times, setup_failures = setup(args.workload, args.seed, inputs, args.scale, env)
        calls, stderr = measure(args.workload, inputs, work, args.seconds, bool(args.trace), env)
        expect = workloads.load_expect(inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _check_repeats(calls)

    values = per_layer(expect, calls) if args.trace else end_to_end(calls, setup_times)
    failed = sum(1 for c in calls if c["failures"])
    for c in calls:
        for failure in c["failures"]:
            print(f"check failed: {failure}", file=sys.stderr)
    for failure in setup_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if failed:
        print(f"worker stderr (tail):\n{stderr}", file=sys.stderr)
    report = self_time_report(calls)
    if report:
        print(report, file=sys.stderr)

    env_record = environment(root)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env_record,
              "setup_s": setup_times, "calls": calls,
              "metrics": values}
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"),
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print("environment: " + json.dumps(env_record, sort_keys=True))
    line = {
        "correct": failed == 0 and not setup_failures and set(values) == set(units),
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
