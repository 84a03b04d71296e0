"""Command line driver: figure geometry exports and verification runs.

Subcommands: lift | foliate | stokes | export-mesh | selftest.  Each accepts
--config FILE, an INI file with a single [run] section.  A config key is its
long flag without the dashes, with `_` for `-` (start_u for --start-u), and
enters as that flag: a value gets the same parser, message and exit code
from either source.  The order is defaults < config file < HEIS_SEED (the
stokes seed) < flags.  Long flags must be spelled in full.  Exit codes: 0
success, 1 configuration error, 2 numerical abort (characteristic guard or
untrusted quadrature), 3 verification failure (a residual above tolerance,
including a foliation leaf that does not close or strays from its closed
form; its outputs are still written).
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import functools
import math
import os
import sys

import numpy as np

from .curves import lemniscate, lift_horizontal, horizontality_residual, self_intersection_gap
from .foliation import detect_period, trace_foliation
from .forms import bump_form
from .integrate import STOKES_BUDGET, stokes_residuals
from .surfaces import (lift_cylinder, revolve_curve, torus_characteristic_loop, torus_leaf_angle, torus_surface,
                       vertical_halfplane)
from .export import surface_mesh, write_csv, write_json, write_obj

__all__ = ["main"]

DEFAULT_SEED = 0x5EED
SIGMA_HEIGHT = 1.0 / 3.0
BAND_ANGLE = math.pi / 12.0
# theta residual up to which a lift counts as horizontal
HORIZONTAL_TOL = 1e-8


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class NumericalAbort(Exception):
    """Numerical trust problem; maps to exit code 2."""


class VerificationFailure(Exception):
    """Residual above tolerance; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}; want an integer (hex ok)")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nu, nv = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; want NUxNV like 256x16")
    if nu < 2 or nv < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2x2")
    return nu, nv


def _parse_sign(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sign {text!r}; want +1 or -1")
    if value not in (-1, 1):
        raise argparse.ArgumentTypeError(f"sign must be +1 or -1, got {value}")
    return value


# scene defaults of the export-mesh keys; a key that some scene reads and the
# chosen one does not is a configuration error, not a value to drop silently
_SCENE_KEYS = {
    "sigma-cylinder": {"grid": (256, 16), "h": SIGMA_HEIGHT},
    "band": {"grid": (256, 24), "r": 1.0, "R": None, "n": 2, "phi_max": BAND_ANGLE},
    "torus": {"grid": (128, 64), "r": 1.0, "R": None, "n": 2},
}


def _config_words(path: str) -> list[str]:
    """The [run] items of an INI file as `--key=value` flags."""
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case: r and R are different knobs
    if not cp.read(path):
        raise CliError(f"cannot read config file {path}")
    if cp.sections() != ["run"]:
        raise CliError("config must contain exactly one [run] section")
    words = []
    for key, raw in cp.items("run"):
        # a key is spelled with `_`; `config` would name a second file
        if key == "config" or "-" in key:
            raise CliError(f"unknown config key {key!r}")
        words.append(f"--{key.replace('_', '-')}={raw}")
    return words


def _out_base(output: str) -> str:
    for ext in (".csv", ".json", ".obj"):
        if output.endswith(ext):
            return output[: -len(ext)]
    return output


def _torus_radii(r: float, big_r, n):
    if n is not None and n < 1:
        raise CliError("n must be a positive integer")
    if big_r is None:
        if n is None:
            raise CliError("give either R or n (R = sqrt(1 + n^(2/3)))")
        big_r = math.sqrt(1.0 + float(n) ** (2.0 / 3.0))
    # a finite R bounds r, so this also rejects an infinite or NaN r
    if not math.inf > big_r > r > 0:
        raise CliError(f"need finite R > r > 0, got R={big_r}, r={r}")
    return float(big_r), float(r)


def _surface(scene: str, **keys):
    """The surface of a scene; a scene key not given takes its `_SCENE_KEYS`
    default, and a key the scene does not read is ignored.

    `scene` is halfplane or an export-mesh scene; the half-plane reads no key.
    """
    if scene == "halfplane":
        return vertical_halfplane()
    keys = {**_SCENE_KEYS[scene], **keys}
    if scene == "sigma-cylinder":
        if not 0.0 < keys["h"] < math.inf:
            raise CliError("h must be positive and finite")
        return lift_cylinder(lift_horizontal(lemniscate(), sign=+1), keys["h"])
    big_r, r = _torus_radii(keys["r"], keys["R"], keys["n"])
    if scene == "torus":
        return torus_surface(big_r, r)
    if not 0.0 < keys["phi_max"] <= 2.0 * math.pi:
        raise CliError("phi_max must lie in (0, 2*pi]")
    sigma = torus_characteristic_loop(big_r, r)
    if sigma.closure_defect() > 1e-8:
        raise NumericalAbort("characteristic loop does not close at these radii")
    return revolve_curve(sigma, keys["phi_max"])


def cmd_lift(args) -> int:
    if args.output is None:
        raise CliError("lift needs --output")
    if args.samples < 2:
        raise CliError("samples must be at least 2")

    lifted = lift_horizontal(lemniscate(), sign=args.sign)
    tau = np.linspace(lifted.a, lifted.b, args.samples)
    pts = lifted.position(tau)
    base = _out_base(args.output)
    write_csv(base + ".csv", ["tau", "x", "y", "t"], np.column_stack([tau, pts]))
    gap = self_intersection_gap(lifted)
    residual = horizontality_residual(lifted)
    write_json(base + ".json", {
        "curve": args.curve,
        "sign": args.sign,
        "closure_defect": lifted.closure_defect(),
        "horizontal": residual <= HORIZONTAL_TOL,
        "horizontality_residual": residual,
        "self_intersection_gap": None if math.isinf(gap) else gap,
    })
    return 0


def cmd_foliate(args) -> int:
    n, arclen, tolerance = args.n, args.arclen, args.tolerance
    start = (args.start_u, args.start_v)
    if args.output is None:
        raise CliError("foliate needs --output")
    if not 0.0 < tolerance < math.inf:
        raise CliError("tolerance must be positive and finite")
    if not all(map(math.isfinite, start)):
        raise CliError("start-u and start-v must be finite")
    if arclen is not None and not 0.0 < arclen < math.inf:
        raise CliError("arclen must be positive and finite")
    if args.samples < 2:
        raise CliError("samples must be at least 2")
    big_r, r = _torus_radii(args.r, args.R, n)
    if arclen is None:
        loops = n if n is not None else 8
        arclen = 2.0 * math.pi * r * 1.15 * loops + 10.0

    torus = torus_surface(big_r, r)
    try:
        trace = trace_foliation(torus, start, arclen, samples=args.samples)
    except ValueError as exc:
        raise NumericalAbort(str(exc))
    if trace.truncated:
        raise NumericalAbort("trace aborted near a characteristic point")
    try:
        residual, windings = detect_period(trace, axis=0, close_tol=tolerance)
    except ValueError as exc:
        raise NumericalAbort(f"period detection inconclusive: {exc}")
    # the leaf's true error against its closed form v0 + V(u) - V(u0)
    angle = torus_leaf_angle(big_r, r)
    leaf_error = float(np.max(np.abs(trace.uv[:, 1] - start[1] - angle(trace.uv[:, 0]) + angle(start[0]))))
    # a NaN residual or leaf error compares false, so it counts as not closed
    closed = bool(residual <= tolerance and leaf_error <= tolerance)

    base = _out_base(args.output)
    write_csv(
        base + ".csv",
        ["u", "v", "x", "y", "t"],
        np.column_stack([trace.uv, trace.points]),
    )
    write_json(base + ".json", {
        "R": big_r,
        "r": r,
        "n": n,
        "start": list(start),
        "arclength": trace.arclength,
        "closure_residual": residual,
        "leaf_error": leaf_error,
        "windings": [windings[0], windings[1]],
        "closed": closed,
        "truncated": trace.truncated,
        "nfev": trace.step_stats["nfev"],
        "steps": trace.step_stats["steps"],
        "rejected": trace.step_stats["rejected"],
    })
    verts, faces = surface_mesh(torus, *args.grid)
    write_obj(base + ".obj", verts, faces)
    if not closed:
        raise VerificationFailure(
            f"leaf did not close: closure residual {residual:.3e} or leaf error {leaf_error:.3e} "
            f"> {tolerance:.3e}; windings {windings} are those of the best return"
        )
    return 0


def _stokes_scene(scene: str):
    """Surface plus a deterministic bump-center sampler hugging the boundary.

    `scene` is halfplane, sigma-cylinder or band; the parser admits no other.
    A curved scene's centers lie near its rims, in turn.
    """
    S = _surface(scene)
    if scene == "halfplane":
        def draw(rng, index):
            y = rng.uniform(-1.5, 1.5)
            dy, dt = rng.uniform(-0.15, 0.15, 2)
            return np.array([0.0, y + dy, dt])
    else:
        def draw(rng, index):
            rim = S.boundary[index % 2][0]
            return rim.position(rng.uniform(rim.a, rim.b)) + rng.uniform(-0.15, 0.15, 3)

    return S, draw


def _stokes_entries(S, draw, rng, forms: int) -> list:
    """Report entries of `forms` bumps drawn from `rng`, center then radius per form, checked in one call."""
    balls = [(draw(rng, index), rng.uniform(0.2, 0.6)) for index in range(forms)]
    reports = stokes_residuals(S, [bump_form(center, radius) for center, radius in balls])
    entries = []
    for index, ((center, radius), report) in enumerate(zip(balls, reports)):
        estimate = report.lhs.estimate + report.rhs.estimate
        entries.append({
            "index": index,
            "center": [float(c) for c in center],
            "radius": float(radius),
            "lhs": report.lhs.value,
            "rhs": report.rhs.value,
            "residual": report.residual,
            "estimate": estimate,
            # not-<= instead of > so a NaN estimate counts as untrusted
            "flagged": not (estimate <= STOKES_BUDGET) or report.lhs.flagged or report.rhs.flagged,
            "lhs_stats": dict(report.lhs.stats),
            "rhs_stats": dict(report.rhs.stats),
        })
    return entries


def cmd_stokes(args) -> int:
    scene, tolerance = args.scene, args.tolerance
    if scene is None:
        raise CliError("stokes needs --scene")
    if args.forms < 0:
        raise CliError("forms must be nonnegative")
    # no residual exceeds a NaN or infinite tolerance, so both are rejected
    if not 0.0 <= tolerance < math.inf:
        raise CliError("tolerance must be nonnegative and finite")

    entries = _stokes_entries(*_stokes_scene(scene), np.random.default_rng(args.seed), args.forms)

    payload = {
        "scene": scene,
        "seed": args.seed,
        "tolerance": tolerance,
        "forms": entries,
        # np.max, unlike max, keeps a NaN wherever it falls in the list
        "max_residual": float(np.max([e["residual"] for e in entries], initial=0.0)),
    }
    if args.output is not None:
        write_json(_out_base(args.output) + ".json", payload)

    flagged = [e["index"] for e in entries if e["flagged"]]
    if flagged:
        raise NumericalAbort(f"quadrature estimate not trusted for forms {flagged}")
    failing = [e for e in entries if e["residual"] > tolerance]
    if failing:
        for e in failing:
            print(
                f"form {e['index']}: residual {e['residual']:.3e} > {tolerance:.3e}",
                file=sys.stderr,
            )
        raise VerificationFailure(f"{len(failing)} of {len(entries)} residuals above tolerance")
    return 0


def cmd_export_mesh(args) -> int:
    if args.scene is None:
        raise CliError("export-mesh needs --scene")
    if args.output is None:
        raise CliError("export-mesh needs --output")
    if args.samples < 2:
        raise CliError("samples must be at least 2")
    defaults = _SCENE_KEYS[args.scene]
    unread = sorted({key for keys in _SCENE_KEYS.values() for key in keys
                     if key not in defaults and getattr(args, key) is not None})
    if unread:
        raise CliError(f"scene {args.scene!r} does not read {', '.join(unread)}")
    keys = {key: getattr(args, key) for key in defaults if getattr(args, key) is not None}
    S = _surface(args.scene, **keys)

    base = _out_base(args.output)
    verts, faces = surface_mesh(S, *keys.get("grid", defaults["grid"]))
    write_obj(base + ".obj", verts, faces)
    tags = {1: "plus", -1: "minus"}
    for curve, orientation in S.boundary:
        tau = np.linspace(curve.a, curve.b, args.samples)
        pts = curve.position(tau)
        write_csv(
            f"{base}_boundary_{tags[orientation]}.csv",
            ["tau", "x", "y", "t"],
            np.column_stack([tau, pts]),
        )
    return 0


def cmd_selftest(args) -> int:
    failures = []

    def check(name, ok, detail):
        line = f"{'ok' if ok else 'FAIL'} {name}: {detail}"
        print(line)
        if not ok:
            failures.append(name)

    lifted = lift_horizontal(lemniscate(), sign=+1)
    defect = lifted.closure_defect()
    check("lift-closure", defect <= 1e-10, f"closure defect {defect:.3e}")
    resid = horizontality_residual(lifted)
    check("lift-horizontality", resid <= HORIZONTAL_TOL, f"theta residual {resid:.3e}")
    gap = self_intersection_gap(lifted)
    check("lift-gap", abs(gap - 2.0 / 3.0) <= 1e-6, f"vertical gap {gap:.9f}")

    trace = trace_foliation(_surface("torus"), (0.0, 0.0), 18.0)
    residual, windings = detect_period(trace, axis=0)
    check(
        "foliation-period",
        residual <= 1e-6 and not trace.truncated,
        f"closure {residual:.3e}, windings {windings}, nfev {trace.step_stats['nfev']}",
    )

    rng = np.random.default_rng(DEFAULT_SEED)
    for scene in ("halfplane", "sigma-cylinder", "band"):
        entry, = _stokes_entries(*_stokes_scene(scene), rng, 1)
        check(
            f"stokes-{scene}",
            not entry["flagged"] and entry["residual"] <= 1e-6,
            f"residual {entry['residual']:.3e}, estimate {entry['estimate']:.2e}, "
            f"points {entry['lhs_stats']['points']} + {entry['rhs_stats']['points']}",
        )

    if failures:
        raise VerificationFailure(f"selftest failures: {', '.join(failures)}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing does not change it, and no test, tool or tracer
    replaces a `cli.cmd_*`, which it binds when built."""
    parser = _Parser(prog="heisgeo", description="Heisenberg geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, fn, help_text):
        p = sub.add_parser(name, prog=f"heisgeo {name}", help=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="INI file with a [run] section")
        return p

    p = subcommand("lift", cmd_lift, "export a planar curve's horizontal lift")
    p.add_argument("--curve", default="lemniscate", choices=("lemniscate",), help="curve name")
    p.add_argument("--sign", default=-1, type=_parse_sign, help="lift sign, +1 or -1 (default %(default)s)")
    p.add_argument("--samples", default=1024, type=int, help="polyline sample count (default %(default)s)")
    p.add_argument("-o", "--output", help="output base path (writes .csv and .json)")

    p = subcommand("foliate", cmd_foliate, "trace a characteristic leaf on a torus")
    p.add_argument("--r", default=1.0, type=float, help="tube radius (default %(default)s)")
    p.add_argument("--R", type=float, help="center radius (overrides --n)")
    p.add_argument("--n", type=int, help="sets R = sqrt(1 + n^(2/3))")
    p.add_argument("--start-u", default=0.0, type=float, help="start u (default %(default)s)")
    p.add_argument("--start-v", default=0.0, type=float, help="start v (default %(default)s)")
    p.add_argument("--arclen", type=float, help="trace arclength (default auto)")
    p.add_argument("--samples", default=2048, type=int, help="trace polyline samples (default %(default)s)")
    p.add_argument("--grid", default="128x64", type=_parse_grid, help="torus mesh grid NUxNV (default %(default)s)")
    p.add_argument("--tolerance", default=1e-6, type=float, help="closure tolerance (default %(default)s)")
    p.add_argument("-o", "--output", help="output base path (.csv, .json, .obj)")

    p = subcommand("stokes", cmd_stokes, "run the Stokes verification sweep")
    p.add_argument("--scene", choices=("halfplane", "sigma-cylinder", "band"), help="surface to verify on")
    p.add_argument("--forms", default=20, type=int, help="number of random test forms (default %(default)s)")
    p.add_argument("--seed", default=DEFAULT_SEED, type=_parse_seed,
                   help="RNG seed, hex ok (default %(default)#x; HEIS_SEED overrides the config file)")
    p.add_argument("--tolerance", default=1e-6, type=float, help="residual tolerance (default %(default)s)")
    p.add_argument("-o", "--output", help="JSON report path")

    p = subcommand("export-mesh", cmd_export_mesh, "export a surface mesh with boundary polylines")
    p.add_argument("--scene", choices=tuple(_SCENE_KEYS), help="surface to mesh")
    # the scene keys stay None here, so that a key the scene does not read is seen
    p.add_argument("--grid", type=_parse_grid, help="mesh grid NUxNV (default per scene)")
    p.add_argument("--h", type=float, help="cylinder height (default 1/3)")
    p.add_argument("--r", type=float, help="tube radius (default 1)")
    p.add_argument("--R", type=float, help="center radius (overrides --n)")
    p.add_argument("--n", type=int, help="sets R = sqrt(1 + n^(2/3)) (default 2)")
    p.add_argument("--phi-max", type=float, help="band sweep angle (default pi/12)")
    p.add_argument("--samples", default=1024, type=int, help="boundary polyline samples (default %(default)s)")
    p.add_argument("-o", "--output", help="output base path")

    subcommand("selftest", cmd_selftest, "run the built-in verification checks")

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed heap memory on glibc: a 6 MiB trim threshold (4 left the sigma cylinder 5,768 faults, 5 its 60-form
    run 1,864) and 4 MiB mmap threshold (least peak RSS) take warm seeded runs from 7,799/13,766/9,714 to 4/6/4."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt
            mallopt(-1, 6 << 20)  # M_TRIM_THRESHOLD
            mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    except (AttributeError, OSError, ValueError):
        pass


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # the config file and HEIS_SEED enter as flags ahead of the user's
        # own; the last flag wins, so defaults < file < HEIS_SEED < flags
        words = _config_words(args.config) if args.config else []
        if args.command == "stokes" and "HEIS_SEED" in os.environ:
            words.append(f"--seed={os.environ['HEIS_SEED']}")
        if words:
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + words + argv[at:])
        return args.fn(args)
    except (CliError, ValueError, OSError, configparser.Error) as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"heisgeo: numerical abort: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
