"""Set-up probe: a fresh interpreter imports heisgeo and builds one workload's scenes.

    python3 perfbench/setup_probe.py WORKLOAD

Prints `time.monotonic()` once the scenes exist.  CLOCK_MONOTONIC is
system-wide, so the parent subtracts the reading it took just before
starting this process and gets interpreter start, import and scene
construction together.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heisgeo import cli  # noqa: E402
from heisgeo.curves import lemniscate, lift_horizontal  # noqa: E402
from heisgeo.surfaces import (  # noqa: E402
    lift_cylinder, revolve_curve, torus_characteristic_loop, torus_surface, vertical_halfplane)


def _radius(n):
    return math.sqrt(1.0 + n ** (2.0 / 3.0))


def _sigma_cylinder():
    return lift_cylinder(lift_horizontal(lemniscate(), sign=+1), cli.SIGMA_HEIGHT)


def _band():
    return revolve_curve(torus_characteristic_loop(_radius(2), 1.0), cli.BAND_ANGLE)


SCENES = {
    "stokes-flat": lambda: [vertical_halfplane()],
    "stokes-curved": lambda: [_sigma_cylinder(), _band()],
    "figures": lambda: [
        lift_horizontal(lemniscate(), sign=-1), _sigma_cylinder(), _band(),
        torus_surface(_radius(2), 1.0), torus_surface(_radius(11), 1.0),
    ],
}

if __name__ == "__main__":
    SCENES[sys.argv[1]]()
    print(repr(time.monotonic()))
