"""The benchmark's own processes: input generation, and the measured calls.

    python3 perfbench/worker.py gen     WORKLOAD SEED ROOT SCALE
    python3 perfbench/worker.py measure WORKLOAD ROOT WORK SECONDS TRACE RESULT_JSON

`gen` writes a workload's inputs under ROOT and prints, as its last stdout
line, `{"setup_s": ...}`: the seconds spent importing `sst.cli` and inside the
program calls that write the inputs (interpreter start and the benchmark's own
signal synthesis excluded).

`measure` imports `sst` once and then forks one child per call. A child times
one `sst.cli.main(argv)`, checks its outputs and reports its peak RSS. Every
child starts from the state right after `import sst`, as a command-line call
does, so a call's time, page faults and high-water mark do not depend on the
calls before it; forking spares each call the import. Calls go on until
SECONDS have passed (a call is started only while the median call so far still
fits). With TRACE=1 they come in pairs of one untraced and one traced call
(under `spans.Tracer`), untraced first in even pairs and traced first in odd
ones, and the run ends on a whole pair.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import spans
import workloads


def _import_cli():
    import sst.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(sst.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sst was imported from {sst.cli.__file__}, not from {src}")
    return sst.cli


def gen(name: str, seed: str, root: str, scale: str) -> int:
    start = time.perf_counter()
    _import_cli()
    imported = time.perf_counter() - start
    program_s = workloads.generate(name, root, int(seed), scale)
    print(json.dumps({"setup_s": imported + program_s}))
    return 0


def one_call(cli, name: str, root: str, out: str, traced: bool) -> dict:
    argv = workloads.argv(name, root, out)
    # The tracer is active only around the call: the output checks below load
    # the checkpoint through module functions it would otherwise count.
    with (spans.Tracer() if traced else contextlib.nullcontext()) as tracer:
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    call = {"rc": rc, "wall_s": wall, "traced": traced, "epochs": 0, "failures": []}
    if tracer is not None:
        call["trace"] = {"table": tracer.summary(), "counts": dict(tracer.counts),
                         "step_times": tracer.step_times(), "missing": tracer.missing}
    if rc != 0:
        call["failures"].append(f"sst {argv[0]} exited {rc}")
    else:
        call["epochs"], call["failures"], extras = workloads.check(root, out)
        call.update(extras)
    return call


def _is_traced(index: int) -> bool:
    pair, second = divmod(index, 2)
    return bool(second) != bool(pair % 2)


def forked_call(cli, name: str, root: str, work: str, traced: bool) -> dict:
    out = os.path.join(work, "out")
    result_path = os.path.join(work, "call.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                result = one_call(cli, name, root, out, traced)
            except Exception as exc:  # a crash inside sst is a failed call, reported
                traceback.print_exc()
                result = {"rc": None, "traced": traced,
                          "failures": [f"{type(exc).__name__}: {exc}"]}
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with open(result_path, "w", encoding="ascii") as fh:
                json.dump(result, fh)
            code = 0
        finally:
            shutil.rmtree(out, ignore_errors=True)
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.waitpid(pid, 0)
    try:
        with open(result_path, encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"rc": None, "traced": traced, "failures": ["call process wrote no result"]}


def measure(name: str, root: str, work: str, seconds: str, trace: str, result_path: str) -> int:
    cli = _import_cli()
    budget, traced_too = float(seconds), trace == "1"
    calls, durations = [], []
    start = time.perf_counter()
    while not calls or (traced_too and len(calls) % 2) or (
            time.perf_counter() - start + statistics.median(durations) <= budget):
        began = time.perf_counter()
        calls.append(forked_call(cli, name, root, work, traced_too and _is_traced(len(calls))))
        durations.append(time.perf_counter() - began)
        if calls[-1]["rc"] is None:
            break
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump({"calls": calls}, fh)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"gen": gen, "measure": measure}[mode](*rest))
