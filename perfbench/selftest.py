"""Fast self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at the minimum ("smoke") size, untraced and traced, and
asserts that each run passes its output checks and prints every metric of
BENCHMARK.json with its unit, and that a directory holding only the benchmark
refuses to run. Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    for name in workloads.NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--scale", "smoke"], root)
            assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
            assert line["correct"] and line["failed"] == 0, f"{name} trace={trace}:\n{proc.stderr}"
            for metric in spec[section]:
                got = line["metrics"].get(metric["name"])
                assert got is not None, f"{name}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], f"{name}: {metric['name']} unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), f"{name}: {metric['name']} not a number"
            print(f"ok  {name:16s} trace={trace}  attempted={line['attempted']}")

    bare = os.path.join(HERE, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = run(["--workload", "desk_train", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  a directory without the program is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
