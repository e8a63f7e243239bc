"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1] [--out FILE] [--compare FILE]

Each (workload of BENCHMARK.json, seed) is one `run.py` run of its
run_seconds. For every metric it reports the median, the quartiles of
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median; an end-to-end spread of a third of the metric's bound or more is
marked. With --out the summary is written as JSON (baseline.json is one).
With --compare each end-to-end median is set against that of an earlier
summary, as a share of it, and a change for the worse beyond the metric's
bound is marked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None, help="an earlier --out summary")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    summary: dict = {"seeds": parse_seeds(args.seeds), "trace": args.trace,
                     "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            summary["environment"] = json.loads(lines[-2].partition(": ")[2])
            line = json.loads(lines[-1])
            runs.append(line)
            print(f"{name} seed {seed}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}", flush=True)
        metrics = {key: summarise([r["metrics"][key]["value"] for r in runs])
                   for key in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for key, row in metrics.items():
            flag = "  <-- spread >= bound/3" if key in bounds and key != "setup_s" \
                and row["spread"] >= bounds[key] / 3 else ""
            print(f"  {name:16s}{key:28s}median {row['median']:<12.6g}spread {row['spread']:.4f}{flag}",
                  flush=True)
    if args.compare:
        with open(args.compare, encoding="ascii") as fh:
            before = json.load(fh)["workloads"]
        print("median change against " + args.compare)
        for name in names:
            for key, bound in bounds.items():
                old, new = before[name]["metrics"][key]["median"], \
                    summary["workloads"][name]["metrics"][key]["median"]
                change = (new - old) / old
                worse = change if lower_is_better[key] else -change
                flag = "  <-- worse by more than the bound" if worse > bound else ""
                print(f"  {name:16s}{key:28s}{change:+.4f} (bound {bound}){flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
