#!/usr/bin/env python3
"""Level and integrand work of the three seeded Stokes runs, their page faults
and the time per integrand point.

Run from the root of a checkout:

    python3 tools/count_level_work.py

For each scene it runs

    heisgeo stokes --scene SCENE --seed 0x5EED

CALLS times in this process.  On the first run it counts the calls of
the jet of every level that `heisgeo.integrate` builds (`Level` as that
module sees it: one-line or multi-line, on surfaces, rims and truncation
edges alike) and the points they evaluate, each evaluation once: a level
whose jet calls another's (a per-form view of a batched level) is not
counted again.  It also counts the root searches (`support_roots` calls),
and reads the integrand points of both sides from the report (`lhs_stats`
and `rhs_stats`).  Around every run it reads the minor page faults of this
process from `resource.getrusage`, and it times every call of the surface
integrand (the callable that `integrate._surface_integrand` returns) in
process CPU time, per point it evaluates.  It reports the median of each
over the runs after the first, when the caches are warm.  It prints one
JSON line, {scene: {"level_calls", "level_points", "searches",
"integrand_points", "minflt_per_call", "integrand_us_per_pt"}}.  The
counts are deterministic; the page faults and the times are not.  It reads
the levels through `integrate.Level`, the searches through `support_roots`
in `quadrature` and, where it has one, `integrate`, the integrand through
`integrate._surface_integrand` and the reports through the CLI, so it runs
on any commit that has those.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli, integrate, quadrature  # noqa: E402

SCENES = ("halfplane", "sigma-cylinder", "band")
CALLS = 5


def main() -> int:
    counts = dict.fromkeys(("level_calls", "level_points", "searches"), 0)
    level, search = integrate.Level, quadrature.support_roots
    integrand, spent = integrate._surface_integrand, {"s": 0.0, "points": 0}

    depth = [0]

    def counted(jet, *args):
        def counted_jet(x, *rest, **kw):
            # only the outermost jet of a call chain evaluates anything
            if not depth[0]:
                counts["level_calls"] += 1
                counts["level_points"] += int(np.size(x))
            depth[0] += 1
            try:
                return jet(x, *rest, **kw)
            finally:
                depth[0] -= 1

        return level(counted_jet, *args)

    def counted_search(*args):
        counts["searches"] += 1
        return search(*args)

    def timed_integrand(form, S):
        f = integrand(form, S)

        def timed(u, owner, v):
            start = time.process_time()
            try:
                return f(u, owner, v)
            finally:
                spent["s"] += time.process_time() - start
                spent["points"] += int(np.size(v))

        return timed

    integrate.Level = counted
    integrate._surface_integrand = timed_integrand
    quadrature.support_roots = counted_search
    if hasattr(integrate, "support_roots"):
        integrate.support_roots = counted_search
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            out = os.path.join(tmp, f"{scene}.json")
            argv = ["stokes", "--scene", scene, "--seed", "0x5EED", "-o", out]
            faults, us_per_pt = [], []
            for call in range(CALLS):
                if call == 0:
                    counts.update(dict.fromkeys(counts, 0))
                spent.update(s=0.0, points=0)
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                code = cli.main(argv)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                us_per_pt.append(1e6 * spent["s"] / max(spent["points"], 1))
                if code:
                    return code
                if call == 0:
                    work = dict(counts)
            with open(out) as fh:
                forms = json.load(fh)["forms"]
            work["integrand_points"] = sum(f["lhs_stats"].get("points", 0) + f["rhs_stats"].get("points", 0)
                                           for f in forms)
            work["minflt_per_call"] = statistics.median(faults[1:])
            work["integrand_us_per_pt"] = round(statistics.median(us_per_pt[1:]), 4)
            result[scene] = work
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
