#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise the spread of every metric.

Run from the repository root:

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workload W ...]
                                  [--out perfbench/baseline.json]

For each workload this makes `--runs` untraced runs at consecutive seeds and
reports, per end-to-end metric, the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.  It then
makes two traced runs at the first seed and checks that the deterministic
counts of the two are identical.  With `--out` the summary, the per-layer
numbers of the first traced run and the run metadata are written as JSON.
One benchmark process runs at a time.  Exits 1 when a spread other than
that of `setup_s` exceeds a third of its bound or a count does not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import DETERMINISTIC  # noqa: E402


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported incorrect outputs:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list, bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
            "bound": bound, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    summary = {}
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(bench, workload, seed, 0) for seed in seeds]
        entry = {"seeds": list(seeds), "end_to_end": {}}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = spread([r[name] for r in runs], metric["bound"])
            entry["end_to_end"][name] = s
            within = name == "setup_s" or s["spread"] <= s["bound"] / 3
            steady &= within
            print(f"{workload:14s} {name:12s} median {s['median']:10.4g} {metric['unit']:3s} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{'' if within else '  > bound/3'}")
        first, second = (run_once(bench, workload, args.first_seed, 1) for _ in range(2))
        repeat = {name: first[name] == second[name] for name in DETERMINISTIC}
        steady &= all(repeat.values())
        entry["per_layer"] = first
        entry["counts_repeat"] = repeat
        print(f"{workload:14s} counts repeat: {all(repeat.values())} "
              f"({', '.join(f'{n}={first[n]:g}' for n in DETERMINISTIC)})")
        summary[workload] = entry

    if args.out:
        report = ROOT / ".perfbench_out" / f"report-{workload}-seed{args.first_seed}-trace0.json"
        meta = json.loads(report.read_text())["metadata"]
        payload = {"run_seconds": bench["run_seconds"], "metadata": meta, "workloads": summary}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
