#!/usr/bin/env python3
"""Before/after benchmark of two checkouts, written to a BENCH_<n>.json file.

Run from anywhere, with two checkouts of the repository (the parent commit
and the change):

    python3 tools/bench_pairs.py PARENT CHANGE --workload stokes-curved \\
        --pairs 10 --seconds 20 --out BENCH_23.json [--traced] [--probe SCRIPT] \\
        [--fresh "foliate --config configs/fig4.ini"]

For each workload it runs `--pairs` alternating pairs of untraced

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one in each checkout, with seeds 11, 12, ...; the change runs first on even
seeds and the parent on odd ones, so that drift on a shared host falls on
both sides.  Each run's result is the JSON object on the last line of its
standard output.  For every end-to-end metric of the change's
`BENCHMARK.json` the file gets the per-pair values, both medians and
quartiles, and the number of pairs the change won (by the metric's
`better` direction); failed operations are summed per side.

`--traced` adds one `--trace 1` round per side (seed 2, TRACED_SECONDS),
recording every per-layer metric before and after, counts apart from
timings.  `--probe SCRIPT` runs `python3 SCRIPT` once in each checkout and
records the JSON object on its last line as deterministic counts.
`--fresh ARGS` times `--pairs` alternating pairs of fresh processes

    python3 -m heisgeo.cli ARGS -o TMP

(PYTHONPATH the checkout's src, outputs to a temporary directory), in the
same order as the untraced runs; the wall times, interpreter start and
imports included, go to `probes.fresh_s`.

An existing output file is updated: only the sections of the workloads and
probes run this time (and `--description`, when given) are replaced, so one
file can collect several runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TRACED_SECONDS = 5
FIRST_SEED = 11
# units of the per-layer metrics that count work rather than time it
COUNT_UNITS = ("count", "pt", "B")


def _last_json(argv, cwd: Path) -> dict:
    """The JSON object on the last stdout line of a command run in `cwd`."""
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    return _last_json([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)], checkout)


def _summary(parent: list, change: list, better: str) -> dict:
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    quartiles = lambda xs: [round(q, 4) for q in (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else xs)]
    return {
        "parent": [round(x, 4) for x in parent],
        "change": [round(x, 4) for x in change],
        "parent_median": round(statistics.median(parent), 4),
        "change_median": round(statistics.median(change), 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_wins": wins,
    }


def _sides(seed: int, parent: Path, change: Path):
    """The two checkouts in the order they run for `seed`: the change first on even seeds."""
    if seed % 2 == 0:
        return ("change", change), ("parent", parent)
    return ("parent", parent), ("change", change)


def untraced(parent: Path, change: Path, workload: str, pairs: int, seconds: float, metrics: dict) -> dict:
    runs = {"parent": [], "change": []}
    seeds = list(range(FIRST_SEED, FIRST_SEED + pairs))
    for seed in seeds:
        for side, checkout in _sides(seed, parent, change):
            result = _run(checkout, workload, seed, seconds, 0)
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4f}" for name in metrics), file=sys.stderr)
    section = {"pairs": pairs, "seeds": seeds, "seconds": seconds}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        section[name] = _summary(values["parent"], values["change"], better)
    section["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    return section


def fresh(parent: Path, change: Path, args: str, pairs: int) -> dict:
    """Wall seconds of fresh `heisgeo ARGS` processes, alternating between the checkouts."""
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(FIRST_SEED, FIRST_SEED + pairs):
            for side, checkout in _sides(seed, parent, change):
                env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
                argv = [sys.executable, "-m", "heisgeo.cli", *args.split(), "-o", str(Path(tmp) / side)]
                start = time.perf_counter()
                subprocess.run(argv, cwd=checkout, env=env, capture_output=True, check=True)
                times[side].append(time.perf_counter() - start)
                print(f"fresh {args!r} {side}: {times[side][-1]:.3f} s", file=sys.stderr)
    return _summary(times["parent"], times["change"], "lower")


def traced(parent: Path, change: Path, workload: str) -> dict:
    before, after = (_run(checkout, workload, 2, TRACED_SECONDS, 1) for checkout in (parent, change))
    section = {"failed": {"before": before["failed"], "after": after["failed"]}, "counts": {}, "timings": {}}
    for name, entry in before["metrics"].items():
        values = entry["value"], after["metrics"][name]["value"]
        if entry["unit"] in COUNT_UNITS:
            kind = "counts"
        else:
            kind, values = "timings", [round(x, 4) for x in values]
        section[kind][name] = {"unit": entry["unit"], "before": values[0], "after": values[1]}
    return section


def src_lines(checkout: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (checkout / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[], help="workload to run (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--traced", action="store_true", help="add one traced round per side")
    parser.add_argument("--probe", action="append", default=[], help="count script to run in each checkout")
    parser.add_argument("--fresh", action="append", default=[], help="heisgeo arguments to time in fresh processes")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or update")
    parser.add_argument("--description", help="what the change is and which metric it claims")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bench = json.loads(args.out.read_text()) if args.out.is_file() else {}
    if args.description is not None:
        bench["description"] = args.description
    bench["commands"] = {
        "untraced": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0 (last stdout line; "
                    f"seeds {FIRST_SEED}, {FIRST_SEED + 1}, ...; the change runs first on even seeds)",
        "traced": f"python3 perfbench/run.py --workload W --seed 2 --seconds {TRACED_SECONDS} --trace 1",
        "fresh": "PYTHONPATH=src python3 -m heisgeo.cli ARGS -o TMP (wall seconds; pairs in the untraced order)",
        "written_by": "tools/bench_pairs.py",
    }
    bench["src_lines"] = {"before": src_lines(parent), "after": src_lines(change)}
    for workload in args.workload:
        bench.setdefault("untraced", {})[workload] = untraced(parent, change, workload, args.pairs,
                                                              args.seconds, metrics)
        if args.traced:
            bench.setdefault("traced", {})[workload] = traced(parent, change, workload)
    for probe in args.probe:
        script = Path(probe).resolve()
        before, after = (_last_json([sys.executable, str(script)], checkout) for checkout in (parent, change))
        bench.setdefault("probes", {})[script.name] = {
            name: {"before": before.get(name), "after": after[name]} for name in after}
    for command in args.fresh:
        bench.setdefault("probes", {}).setdefault("fresh_s", {})[command] = fresh(parent, change, command, args.pairs)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
