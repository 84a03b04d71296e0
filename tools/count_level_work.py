#!/usr/bin/env python3
"""Level and integrand work of the three seeded Stokes runs, and their page faults.

Run from the root of a checkout:

    python3 tools/count_level_work.py

For each scene it runs

    heisgeo stokes --scene SCENE --seed 0x5EED

CALLS times in this process.  On the first run it counts the calls of
the jet of every level that `heisgeo.integrate` builds (`Level` as that
module sees it: one-line or multi-line, on surfaces, rims and truncation
edges alike) and the points they evaluate, each evaluation once: a level
whose jet calls another's (a per-form view of a batched level) is not
counted again, the root searches
(`support_roots` calls), and the calls and points at which a lift's height
is evaluated (`PrefixIntegral.__call__`), and reads the integrand points of
both sides from the report (`lhs_stats` and `rhs_stats`).  Around every
run it reads the minor page faults of this process from
`resource.getrusage`, and reports their median over the runs after the
first, when the caches are warm.  It prints one JSON line,
{scene: {"level_calls", "level_points", "searches", "height_calls",
"height_points", "integrand_points", "minflt_per_call"}}.  The counts are
deterministic; the page faults are not.  It reads the levels through
`integrate.Level`, the searches through `support_roots` in `quadrature`
and, where it has one, `integrate`, the heights through
`quadrature.PrefixIntegral` and the reports through the CLI, so it runs on
any commit that has those.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli, integrate, quadrature  # noqa: E402

SCENES = ("halfplane", "sigma-cylinder", "band")
CALLS = 4


def main() -> int:
    counts = dict.fromkeys(("level_calls", "level_points", "searches", "height_calls", "height_points"), 0)
    level, search, height = integrate.Level, quadrature.support_roots, quadrature.PrefixIntegral.__call__

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

    def counted_height(self, tau):
        counts["height_calls"] += 1
        counts["height_points"] += int(np.size(tau))
        return height(self, tau)

    integrate.Level = counted
    quadrature.support_roots = counted_search
    if hasattr(integrate, "support_roots"):
        integrate.support_roots = counted_search
    quadrature.PrefixIntegral.__call__ = counted_height
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            out = os.path.join(tmp, f"{scene}.json")
            argv = ["stokes", "--scene", scene, "--seed", "0x5EED", "-o", out]
            faults = []
            for call in range(CALLS):
                if call == 0:
                    counts.update(dict.fromkeys(counts, 0))
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                code = cli.main(argv)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                if code:
                    return code
                if call == 0:
                    work = dict(counts)
            with open(out) as fh:
                forms = json.load(fh)["forms"]
            work["integrand_points"] = sum(f["lhs_stats"].get("points", 0) + f["rhs_stats"].get("points", 0)
                                           for f in forms)
            work["minflt_per_call"] = statistics.median(faults[1:])
            result[scene] = work
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
