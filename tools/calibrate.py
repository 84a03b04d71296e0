#!/usr/bin/env python3
"""Calibration of the Stokes verifier: which forms it flags, gets right, or gets silently wrong.

Run from the repository root (about 4 s on two cores):

    python3 tools/calibrate.py

It runs four sets of cases, each the Stokes check of a bump form, with one
`stokes_residuals` call per scene of the sweep and per half of the patch:

* `sweep`: 600 forms, 200 per scene.  For each scene in (halfplane,
  sigma-cylinder, band) and each seed in range(200), rng =
  default_rng(5000 + seed), c = draw(rng, seed % 2) from
  `cli._stokes_scene`, r = rng.uniform(0.05, 1.0).
* `grazing`: the ball of radius 0.3 centred 0.3 below the sigma cylinder's
  bottom rim at tau = 1.1.
* `band_78`: sweep form 78 on the band, whose ball misses the band.
* `half_patch`: the intrinsic patch (s, y) -> (s^3, y, s|s|^3 - y s^3/2),
  the curve gamma(s) = (s^3, 0, s|s|^3) swept by left translation along
  Y, cut at s = 0.  Its upper half is s in [0, 1], its lower half s in
  [-1, 0], and the rim of both is the y-axis, a horizontal curve, so the
  line integral is an oracle for the surface side.  The parameter order
  (s, y) makes the rim the edge s = 0, oriented -1 on the upper half and
  +1 on the lower.  Forty balls from default_rng(1): y, s ~ U(-0.5, 0.5),
  c = S(s, y) + N(0, 0.05)^3, r ~ U(0.03, 0.3), each on both halves.

A case is flagged when either side is flagged or their combined estimate
exceeds STOKES_BUDGET (as `heisgeo stokes` decides), and uncovered when it
is not flagged and its residual exceeds the combined estimate: a silently
wrong value.  Each set reports the flagged ids, grouped by the faults that
the sides' stats name (`budget` when none is named), the uncovered cases
with their balls, the sides whose estimate is exactly 0.0 and how many of
them are proved misses, the median and p90 of estimate / residual over the
unflagged cases with a nonzero residual, and the median and max of the
surface side's integrand points.

The one JSON line printed holds the deterministic fields first and the
wall times last.  It uses only the package's public names,
`cli._stokes_scene` and `cli._keep_freed_memory`, the allocator setting
that `heisgeo` makes before its first run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heisgeo import HCurve, bump_form, stokes_residuals  # noqa: E402
from heisgeo.cli import _keep_freed_memory, _stokes_scene  # noqa: E402
from heisgeo.integrate import STOKES_BUDGET  # noqa: E402
from heisgeo.surfaces import LEFT_Y, swept  # noqa: E402


def _cases(S, balls: dict) -> dict:
    """The case of each (center, radius) of `balls` on S, by id, checked in one call."""
    reports = stokes_residuals(S, [bump_form(center, radius) for center, radius in balls.values()])
    cases = {}
    for (key, (center, radius)), report in zip(balls.items(), reports):
        estimate = report.lhs.estimate + report.rhs.estimate
        cases[key] = {
            "center": [float(x) for x in center],
            "radius": float(radius),
            "report": report,
            "estimate": estimate,
            # not-<= instead of > so a NaN estimate counts as untrusted
            "flagged": not (estimate <= STOKES_BUDGET) or report.lhs.flagged or report.rhs.flagged,
        }
    return cases


def _summary(cases: dict) -> dict:
    """The deterministic fields of a set of cases, keyed by id."""
    trusted = {key: c for key, c in cases.items() if not c["flagged"]}
    ratios = [c["estimate"] / c["report"].residual for c in trusted.values() if c["report"].residual > 0.0]
    points = [c["report"].lhs.stats.get("points", 0) for c in cases.values()]
    faults = {}
    for key, c in cases.items():
        named = {f for side in (c["report"].lhs, c["report"].rhs) for f in side.stats.get("faults", ())}
        for name in sorted(named) or ["budget"] if c["flagged"] else ():
            faults.setdefault(name, []).append(key)
    sides = [getattr(c["report"], side) for c in cases.values() for side in ("lhs", "rhs")]
    return {
        "cases": len(cases),
        "right": sum(c["report"].residual <= c["estimate"] for c in trusted.values()),
        "flagged": [key for key, c in cases.items() if c["flagged"]],
        "flagged_by_fault": faults,
        "uncovered": {
            key: {"center": c["center"], "radius": c["radius"],
                  "residual": c["report"].residual, "estimate": c["estimate"]}
            for key, c in trusted.items() if c["report"].residual > c["estimate"]},
        "zero_estimate": [f"{key}/{side}" for key, c in cases.items()
                          for side in ("lhs", "rhs") if getattr(c["report"], side).estimate == 0.0],
        "proved_miss": sum(side.stats.get("miss") == "proved" for side in sides),
        "estimate_over_residual": {"median": float(np.median(ratios)) if ratios else None,
                                   "p90": float(np.percentile(ratios, 90)) if ratios else None},
        "points": {"median": float(np.median(points)), "max": int(max(points))},
    }


def sweep() -> dict:
    cases = {}
    for scene in ("halfplane", "sigma-cylinder", "band"):
        S, draw = _stokes_scene(scene)
        balls = {}
        for seed in range(200):
            rng = np.random.default_rng(5000 + seed)
            center = draw(rng, seed % 2)
            balls[f"{scene}-{seed}"] = (center, rng.uniform(0.05, 1.0))
        cases.update(_cases(S, balls))
    return cases


def _sides(case) -> dict:
    report = case["report"]
    return {"lhs": [report.lhs.value, report.lhs.estimate], "rhs": [report.rhs.value, report.rhs.estimate],
            "residual": report.residual, "estimate": case["estimate"], "flagged": case["flagged"],
            "points": report.lhs.stats.get("points", 0) + report.rhs.stats.get("points", 0)}


def grazing() -> dict:
    S, _ = _stokes_scene("sigma-cylinder")
    center = S.boundary[0][0].position(1.1) - np.array([0.0, 0.0, 0.3])
    return _sides(_cases(S, {"grazing": (center, 0.3)})["grazing"])


def _gamma(s):
    s = np.asarray(s, dtype=float)
    return np.stack([s**3, np.zeros_like(s), s * np.abs(s) ** 3], axis=-1)


def _gamma_velocity(s):
    s = np.asarray(s, dtype=float)
    return np.stack([3.0 * s**2, np.zeros_like(s), 4.0 * np.abs(s) ** 3], axis=-1)


def half_patch() -> dict:
    # |gamma'|^2 = 9 s^4 + 16 s^6 <= 25 on |s| <= 1
    upper, lower = (swept(HCurve(a, b, _gamma, _gamma_velocity, 5.0), LEFT_Y, (-1.0, 1.0))
                    for a, b in ((0.0, 1.0), (-1.0, 0.0)))
    rim = upper.edge(0, 0.0, 1.0)  # the y-axis (0, y, 0)
    halves = {"upper": replace(upper, boundary=((rim, -1),)), "lower": replace(lower, boundary=((rim, 1),))}
    rng = np.random.default_rng(1)
    balls = []
    for k in range(40):
        y, s = rng.uniform(-0.5, 0.5, 2)
        balls.append((upper.position(s, y) + rng.normal(0.0, 0.05, 3), rng.uniform(0.03, 0.3)))
    cases = {}
    for name, S in halves.items():
        cases.update(_cases(S, {f"{name}-{k}": ball for k, ball in enumerate(balls)}))
    # reported in the order of the draws: ball by ball, upper half first
    return {f"{name}-{k}": cases[f"{name}-{k}"] for k in range(40) for name in halves}


def main() -> None:
    _keep_freed_memory()  # as `heisgeo` runs: freed temporaries stay mapped for the next case
    start = time.perf_counter()
    swept = sweep()
    after_sweep = time.perf_counter()
    result = {
        "sweep": _summary(swept),
        "grazing": grazing(),
        "band_78": _sides(swept["band-78"]),
    }
    before_patch = time.perf_counter()
    result["half_patch"] = _summary(half_patch())
    end = time.perf_counter()
    result["wall_s"] = {"sweep": round(after_sweep - start, 2), "half_patch": round(end - before_patch, 2),
                        "total": round(end - start, 2)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
