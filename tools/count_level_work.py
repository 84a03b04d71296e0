#!/usr/bin/env python3
"""Level and integrand work of the three seeded Stokes runs, and their page faults.

Run from the root of a checkout:

    python3 tools/count_level_work.py

For each scene it runs

    heisgeo stokes --scene SCENE --seed 0x5EED

CALLS times in this process.  On the first run it counts the calls of
every level jet that `integrate._ball_level` returns (on surfaces, rims and
truncation edges alike) and the points they evaluate, and reads the
integrand points of both sides from the report (`lhs_stats` and
`rhs_stats`).  Around every run it reads the minor page faults of this
process from `resource.getrusage`, and reports their median over the runs
after the first, when the caches are warm.  It prints one JSON line,
{scene: {"level_calls", "level_points", "integrand_points",
"minflt_per_call"}}.  The counts are deterministic; the page faults are
not.  It reads the levels through `integrate._ball_level` and the reports
through the CLI, so it runs on any commit that has that helper.
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

from heisgeo import cli, integrate  # noqa: E402

SCENES = ("halfplane", "sigma-cylinder", "band")
CALLS = 4


def main() -> int:
    counts = {"level_calls": 0, "level_points": 0}
    ball_level = integrate._ball_level

    def counted(*args, **kwargs):
        level = ball_level(*args, **kwargs)

        def jet(*x, **kw):
            counts["level_calls"] += 1
            counts["level_points"] += int(np.size(x[0]))
            return level.jet(*x, **kw)

        return level._replace(jet=jet)

    integrate._ball_level = counted
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scene in SCENES:
            out = os.path.join(tmp, f"{scene}.json")
            argv = ["stokes", "--scene", scene, "--seed", "0x5EED", "-o", out]
            faults = []
            for call in range(CALLS):
                if call == 0:
                    counts.update(level_calls=0, level_points=0)
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
