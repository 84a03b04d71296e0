#!/usr/bin/env python3
"""Area-integrand points of one seeded Stokes operation on the sigma cylinder.

Run from the root of a checkout:

    python3 tools/count_area_points.py

It counts the points at which the signed-area integrand (the `f` that
`curves._area_integrand` returns) is evaluated during

    heisgeo stokes --scene sigma-cylinder --forms 1 --seed 0x5EED

and prints one JSON line, {"sigma_area_points": n}.  The count is
deterministic.  Only `lift_closed_defect` evaluates that integrand: a lift
reads its height from the curve's closed-form area.  It reads the
integrand through `curves._area_integrand`, so it runs on any commit that
has that helper.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli, curves  # noqa: E402


def main() -> int:
    points = 0
    area_integrand = curves._area_integrand

    def counted(curve):
        f = area_integrand(curve)

        def g(tau):
            nonlocal points
            points += int(np.size(tau))
            return f(tau)
        return g

    curves._area_integrand = counted
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["stokes", "--scene", "sigma-cylinder", "--forms", "1", "--seed", "0x5EED",
                "-o", os.path.join(tmp, "sigma.json")]
        code = cli.main(argv)
    print(json.dumps({"sigma_area_points": points}))
    return code


if __name__ == "__main__":
    sys.exit(main())
