#!/usr/bin/env python3
"""heisgeo benchmark: end-to-end and per-layer cost of the `heisgeo` command.

Run from the repository root:

    python3 perfbench/run.py --workload stokes-flat --seed 1 --seconds 30 --trace 0

Workloads.  Each is a closed loop: one client in this process calls
`heisgeo.cli.main` with the argv a user would type, and each operation
starts when the previous one has ended.

* `stokes-flat`: the first 10 forms of criterion 10's half-plane sweep, so
  that a run holds about five repeats.  The surface map is affine, so the
  form jet and the quadtree dominate.
* `stokes-curved`: criterion 7's first form on the sigma cylinder and its
  first form on the band.  Both surface maps evaluate a `PrefixIntegral` at
  every point, and the kink on the support sphere costs refinement.
* `figures`: the six `configs/fig*.ini` runs.  Leaf tracing on the n = 2
  and n = 11 tori dominates; there are no forms and no 2-d quadrature.

The forms are always drawn at criterion 7's heisgeo seed 0x5EED, not at
`--seed`: one form costs from 0.2 s to 21 s depending on its draw, so a run
of bounded length over seeded draws would measure the draw, not the code.
`--seed` only sets the order in which the operations first run.

A run first times `setup_s` (three fresh interpreters that import heisgeo and
build the workload's scenes), then repeats the operations until `--seconds`
are used up, starting an operation only if its median duration still fits.
Every operation runs at least once.  After each operation its outputs are
re-read and checked (see `check_*`), and repeats of an operation must write
byte-identical files.  `wall_s` is the sum over the operations of their
median duration.

With `--trace 1` each operation runs once more with spans recorded at the
layer boundaries (see `tracer.py`), and the per-layer metrics are printed
instead.
Run metadata, per-operation times and the spans go to `.perfbench_out/`.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CRITERION_SEED = "0x5EED"
SETUP_PROBES = 3
RESIDUAL_TOL = 1e-6      # stokes --tolerance default, criterion 7
ESTIMATE_BOUND = 2e-7    # combined quadrature estimate, criterion 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Op(NamedTuple):
    name: str
    argv: list
    check: Callable[[Path], list]   # output base -> problems found


# -- output checks ------------------------------------------------------------


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path: Path) -> list[list[float]]:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return [[float(x) for x in line.split(",")] for line in lines]


def check_stokes(forms: int):
    def check(base: Path) -> list:
        report = _read_json(base.with_suffix(".json"))
        problems = []
        if len(report["forms"]) != forms:
            problems.append(f"{len(report['forms'])} forms, want {forms}")
        for entry in report["forms"]:
            if not entry["residual"] <= RESIDUAL_TOL:
                problems.append(f"form {entry['index']}: residual {entry['residual']}")
            # written as not-<= so that a NaN estimate fails
            if not entry["estimate"] <= ESTIMATE_BOUND:
                problems.append(f"form {entry['index']}: estimate {entry['estimate']}")
        return problems
    return check


def expected_windings(n: int) -> list:
    """Winding pair of the closed leaf on the torus R^2 = 1 + n^(2/3), r = 1.

    A leaf advances v by -4 pi / n per u-loop, so it first closes after p
    u-loops with p * 2 / n = q an integer: p = n / g, q = 2 / g, g = gcd(n, 2).
    """
    g = math.gcd(n, 2)
    return [n // g, 2 // g]


def check_foliate(cfg):
    n = int(cfg["n"])
    tolerance = float(cfg.get("tolerance", "1e-6"))
    samples = int(cfg.get("samples", "2048"))

    def check(base: Path) -> list:
        leaf = _read_json(base.with_suffix(".json"))
        problems = []
        if not leaf["closure_residual"] <= tolerance:
            problems.append(f"closure residual {leaf['closure_residual']} > {tolerance}")
        if leaf["windings"] != expected_windings(n):
            problems.append(f"windings {leaf['windings']}, want {expected_windings(n)}")
        if leaf["truncated"]:
            problems.append("trace truncated")
        if len(_csv_rows(base.with_suffix(".csv"))) != samples:
            problems.append("leaf polyline has the wrong sample count")
        if base.with_suffix(".obj").stat().st_size == 0:
            problems.append("empty torus mesh")
        return problems
    return check


def check_lift(cfg):
    samples = int(cfg.get("samples", "1024"))

    def check(base: Path) -> list:
        lift = _read_json(base.with_suffix(".json"))
        problems = []
        if not lift["closure_defect"] <= 1e-10:
            problems.append(f"closure defect {lift['closure_defect']}")
        gap = lift["self_intersection_gap"]
        if gap is None or not abs(gap - 2.0 / 3.0) <= 1e-6:
            problems.append(f"self-intersection gap {gap}, want 2/3")
        if len(_csv_rows(base.with_suffix(".csv"))) != samples:
            problems.append("lift polyline has the wrong sample count")
        return problems
    return check


def check_mesh(cfg):
    samples = int(cfg.get("samples", "1024"))

    def check(base: Path) -> list:
        problems = []
        with open(base.with_suffix(".obj")) as fh:
            kinds = {line[:2] for line in fh}
        if not {"v ", "f "} <= kinds:
            problems.append("mesh lacks vertices or faces")
        for tag in ("plus", "minus"):
            rows = _csv_rows(base.parent / f"{base.name}_boundary_{tag}.csv")
            if len(rows) != samples:
                problems.append(f"{tag} rim has {len(rows)} samples, want {samples}")
            elif max(abs(a - b) for a, b in zip(rows[0][1:], rows[-1][1:])) > 1e-8:
                problems.append(f"{tag} rim does not close")
        return problems
    return check


# -- workloads ----------------------------------------------------------------


def _stokes_op(out: Path, scene: str, forms: int) -> Op:
    name = f"stokes-{scene}"
    return Op(name, ["stokes", "--scene", scene, "--forms", str(forms),
                     "--seed", CRITERION_SEED, "-o", str(out / name)], check_stokes(forms))


FIGURES = (("fig1", "lift", check_lift), ("fig2", "lift", check_lift),
           ("fig3", "export-mesh", check_mesh), ("fig4", "foliate", check_foliate),
           ("fig5", "export-mesh", check_mesh), ("fig6", "foliate", check_foliate))


def _figure_op(out: Path, fig: str, command: str, checker) -> Op:
    path = ROOT / "configs" / f"{fig}.ini"
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read(path)
    return Op(fig, [command, "--config", str(path), "-o", str(out / fig)], checker(cfg["run"]))


WORKLOADS = {
    "stokes-flat": lambda out: [_stokes_op(out, "halfplane", 10)],
    "stokes-curved": lambda out: [_stokes_op(out, "sigma-cylinder", 1), _stokes_op(out, "band", 1)],
    "figures": lambda out: [_figure_op(out, *fig) for fig in FIGURES],
}


# -- running ------------------------------------------------------------------


def _outputs(base: Path) -> list[Path]:
    return sorted(base.parent.glob(base.name + ".*")) + sorted(base.parent.glob(base.name + "_*"))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.digests = {}

    def run(self, op: Op, call=None) -> tuple[float, float]:
        """Run one operation; returns (wall seconds, CPU seconds)."""
        base = Path(op.argv[-1])
        for path in _outputs(base):
            path.unlink()
        self.attempted += 1
        code = None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = call(op.argv) if call else self.main(op.argv)
        except Exception:  # an escaped exception is a failed operation, not a crashed run
            traceback.print_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                problems = op.check(base)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            digest = _digest(_outputs(base))
            if self.digests.setdefault(op.name, digest) != digest:
                problems.append("outputs differ from the first repeat")
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}: {'; '.join(problems)}", file=sys.stderr)
        return wall, cpu

    def loop(self, ops: list, seconds: float, rng: random.Random) -> dict:
        """Run ops for `seconds`; returns name -> [(wall, cpu), ...].

        Every op runs once, in seeded order.  After that the next op is the
        one with the fewest runs, the longest first, among those whose
        median duration still fits in the time left.
        """
        times = {op.name: [] for op in ops}
        start = time.perf_counter()
        for op in rng.sample(ops, len(ops)):
            times[op.name].append(self.run(op))
        while True:
            left = seconds - (time.perf_counter() - start)
            median = {op.name: statistics.median(w for w, _ in times[op.name]) for op in ops}
            fits = [op for op in ops if median[op.name] <= left]
            if not fits:
                return times
            op = min(fits, key=lambda op: (len(times[op.name]), -median[op.name]))
            times[op.name].append(self.run(op))


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of import plus scene construction."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), workload], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def _median_sum(times: dict, index: int) -> float:
    return sum(statistics.median(t[index] for t in runs) for runs in times.values())


# -- metadata -----------------------------------------------------------------


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# -- entry point --------------------------------------------------------------


def _import_cli():
    if not (ROOT / "src" / "heisgeo" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"perfbench: no heisgeo sources under {ROOT}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from heisgeo import cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        sys.exit(f"perfbench: imported heisgeo from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    cli = _import_cli()
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[args.workload](out)
    rng = random.Random(args.seed)
    runner = Runner(cli.main)

    setup_s = None if args.trace else measure_setup(args.workload)
    times = runner.loop(ops, args.seconds, rng)
    wall_s = _median_sum(times, 0)
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        with tracer.patched():
            start = time.perf_counter()
            for op in rng.sample(ops, len(ops)):
                runner.run(op, lambda argv: tracer.call("cli", "main", cli.main, (argv,), {}))
            elapsed = time.perf_counter() - start
        metrics = layer_metrics(tracer, elapsed, wall_s, _median_sum(times, 1))
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": metadata(), "result": result,
        "op_times": {name: [list(t) for t in runs] for name, runs in times.items()},
    }
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={report['metadata']['nproc']} src_lines={report['metadata']['src_lines']}")
    print(f"  fail_frac {runner.failed / runner.attempted} ({runner.failed}/{runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
