"""Command line driver: figure geometry exports and verification runs.

Subcommands: lift | foliate | stokes | export-mesh | selftest.  Each accepts
--config FILE, an INI file with a single [run] section whose keys mirror the
long flags; explicit flags win over the file, the file over built-in
defaults.  The random seed additionally honors the HEIS_SEED environment
variable between those two.  Exit codes: 0 success, 1 configuration error,
2 numerical abort (characteristic guard or untrusted quadrature), 3
verification failure (a residual above tolerance, including a foliation
leaf that does not close; its outputs are still written).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from .core import rotate_t_axis
from .curves import lemniscate, lift_horizontal, horizontality_residual, self_intersection_gap
from .foliation import detect_period, trace_foliation
from .forms import bump_form
from .integrate import stokes_residual
from .surfaces import lift_cylinder, revolve_curve, torus_characteristic_loop, torus_surface, vertical_halfplane
from .export import surface_mesh, write_csv, write_json, write_obj

__all__ = ["main"]

DEFAULT_SEED = 0x5EED
SIGMA_HEIGHT = 1.0 / 3.0
BAND_ANGLE = math.pi / 12.0
# combined quadrature estimate a stokes run may carry before it aborts
ESTIMATE_BOUND = 2e-7


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class NumericalAbort(Exception):
    """Numerical trust problem; maps to exit code 2."""


class VerificationFailure(Exception):
    """Residual above tolerance; maps to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_seed(text: str) -> int:
    try:
        return int(str(text), 0)
    except ValueError:
        raise CliError(f"bad seed {text!r}; want an integer (hex ok)")


def _parse_grid(text: str) -> tuple[int, int]:
    parts = str(text).lower().split("x")
    try:
        nu, nv = (int(p) for p in parts)
    except ValueError:
        raise CliError(f"bad grid {text!r}; want NUxNV like 256x16")
    if nu < 2 or nv < 2:
        raise CliError("grid must be at least 2x2")
    return nu, nv


def _parse_sign(text: str) -> int:
    try:
        value = int(str(text), 10)
    except ValueError:
        raise CliError(f"bad sign {text!r}; want +1 or -1")
    if value not in (-1, 1):
        raise CliError(f"sign must be +1 or -1, got {value}")
    return value


# per-subcommand config schema: key -> parser of its raw value; the ranges
# are checked by the command, so a flag and a config key are checked alike
_SCHEMAS = {
    "lift": {
        "curve": str,
        "sign": _parse_sign,
        "samples": int,
        "output": str,
    },
    "foliate": {
        "r": float,
        "R": float,
        "n": int,
        "start_u": float,
        "start_v": float,
        "arclen": float,
        "samples": int,
        "grid": _parse_grid,
        "tolerance": float,
        "output": str,
    },
    "stokes": {
        "scene": str,
        "forms": int,
        "seed": _parse_seed,
        "tolerance": float,
        "output": str,
    },
    "export-mesh": {
        "scene": str,
        "grid": _parse_grid,
        "h": float,
        "sign": _parse_sign,
        "r": float,
        "R": float,
        "n": int,
        "phi_max": float,
        "samples": int,
        "output": str,
    },
    "selftest": {},
}

# the export-mesh keys that only some scenes read; giving one to another
# scene is a configuration error, not a value to drop silently
_SCENE_KEYS = {
    "sigma-cylinder": ("h", "sign"),
    "band": ("r", "R", "n", "phi_max"),
    "torus": ("r", "R", "n"),
}


def _load_config(path: str, schema: dict) -> dict:
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep key case: r and R are different knobs
    if not cp.read(path):
        raise CliError(f"cannot read config file {path}")
    if cp.sections() != ["run"]:
        raise CliError("config must contain exactly one [run] section")
    out = {}
    for key, raw in cp.items("run"):
        if key not in schema:
            raise CliError(f"unknown config key {key!r}")
        try:
            out[key] = schema[key](raw)
        except CliError:
            raise
        except ValueError:
            raise CliError(f"bad value {raw!r} for config key {key!r}")
    return out


def _resolve(args, key: str, config: dict, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HEIS_SEED")
    if env is not None:
        return _parse_seed(env)
    if "seed" in config:
        return config["seed"]
    return DEFAULT_SEED


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


def cmd_lift(args, config) -> int:
    curve_name = _resolve(args, "curve", config, "lemniscate")
    sign = _resolve(args, "sign", config, -1)
    samples = _resolve(args, "samples", config, 1024)
    output = _resolve(args, "output", config, None)
    if curve_name != "lemniscate":
        raise CliError(f"unknown curve {curve_name!r}; available: lemniscate")
    if output is None:
        raise CliError("lift needs --output")
    if samples < 2:
        raise CliError("samples must be at least 2")

    planar = lemniscate()
    lifted = lift_horizontal(planar, sign=sign)
    tau = np.linspace(lifted.a, lifted.b, samples)
    pts = lifted.position(tau)
    base = _out_base(output)
    write_csv(base + ".csv", ["tau", "x", "y", "t"], np.column_stack([tau, pts]))
    gap = self_intersection_gap(lifted)
    write_json(base + ".json", {
        "curve": curve_name,
        "sign": sign,
        "closure_defect": lifted.closure_defect(),
        "horizontality_residual": horizontality_residual(lifted),
        "self_intersection_gap": None if math.isinf(gap) else gap,
    })
    return 0


def cmd_foliate(args, config) -> int:
    r = _resolve(args, "r", config, 1.0)
    big_r = _resolve(args, "R", config, None)
    n = _resolve(args, "n", config, None)
    start_u = _resolve(args, "start_u", config, 0.0)
    start_v = _resolve(args, "start_v", config, 0.0)
    arclen = _resolve(args, "arclen", config, None)
    samples = _resolve(args, "samples", config, 2048)
    grid = _resolve(args, "grid", config, (128, 64))
    tolerance = _resolve(args, "tolerance", config, 1e-6)
    output = _resolve(args, "output", config, None)
    if output is None:
        raise CliError("foliate needs --output")
    if not 0.0 < tolerance < math.inf:
        raise CliError("tolerance must be positive and finite")
    if not (math.isfinite(start_u) and math.isfinite(start_v)):
        raise CliError("start-u and start-v must be finite")
    if arclen is not None and not 0.0 < arclen < math.inf:
        raise CliError("arclen must be positive and finite")
    if samples < 2:
        raise CliError("samples must be at least 2")
    big_r, r = _torus_radii(r, big_r, n)
    if arclen is None:
        loops = n if n is not None else 8
        arclen = 2.0 * math.pi * r * 1.15 * loops + 10.0

    torus = torus_surface(big_r, r)
    try:
        trace = trace_foliation(torus, (start_u, start_v), arclen, samples=samples)
    except ValueError as exc:
        raise NumericalAbort(str(exc))
    if trace.truncated:
        raise NumericalAbort("trace aborted near a characteristic point")
    try:
        residual, windings = detect_period(trace, axis=0, close_tol=tolerance)
    except ValueError as exc:
        raise NumericalAbort(f"period detection inconclusive: {exc}")
    # a NaN residual compares false, so it counts as not closed
    closed = bool(residual <= tolerance)

    base = _out_base(output)
    write_csv(
        base + ".csv",
        ["u", "v", "x", "y", "t"],
        np.column_stack([trace.uv, trace.points]),
    )
    write_json(base + ".json", {
        "R": big_r,
        "r": r,
        "n": n,
        "start": [start_u, start_v],
        "arclength": trace.arclength,
        "closure_residual": residual,
        "windings": [windings[0], windings[1]],
        "closed": closed,
        "truncated": trace.truncated,
        "nfev": trace.step_stats["nfev"],
        "steps": trace.step_stats["steps"],
    })
    verts, faces = surface_mesh(torus, grid[0], grid[1])
    write_obj(base + ".obj", verts, faces)
    if not closed:
        raise VerificationFailure(
            f"leaf did not close: closure residual {residual:.3e} > {tolerance:.3e}; "
            f"windings {windings} are those of the best return"
        )
    return 0


def _stokes_scene(scene: str):
    """Surface plus a deterministic bump-center sampler hugging the boundary."""
    if scene == "halfplane":
        S = vertical_halfplane()

        def draw(rng, index):
            y = rng.uniform(-1.5, 1.5)
            dy, dt = rng.uniform(-0.15, 0.15, 2)
            return np.array([0.0, y + dy, dt])

        return S, draw
    if scene == "sigma-cylinder":
        curve = lift_horizontal(lemniscate(), sign=+1)
        S = lift_cylinder(curve, SIGMA_HEIGHT)

        def draw(rng, index):
            tau = rng.uniform(0.0, 2.0 * math.pi)
            jit = rng.uniform(-0.15, 0.15, 3)
            rim = np.array([0.0, 0.0, SIGMA_HEIGHT * (index % 2)])
            return curve.position(np.asarray(tau)) + rim + jit

        return S, draw
    if scene == "band":
        big_r = math.sqrt(1.0 + 2.0 ** (2.0 / 3.0))
        sigma = torus_characteristic_loop(big_r, 1.0)
        S = revolve_curve(sigma, BAND_ANGLE)

        def draw(rng, index):
            u = rng.uniform(0.0, 2.0 * math.pi)
            jit = rng.uniform(-0.15, 0.15, 3)
            return rotate_t_axis(BAND_ANGLE * (index % 2), sigma.position(np.asarray(u))) + jit

        return S, draw
    raise CliError(f"unknown scene {scene!r}; available: halfplane, sigma-cylinder, band")


def cmd_stokes(args, config) -> int:
    scene = _resolve(args, "scene", config, None)
    forms = _resolve(args, "forms", config, 20)
    tolerance = _resolve(args, "tolerance", config, 1e-6)
    output = _resolve(args, "output", config, None)
    seed = _resolve_seed(args, config)
    if scene is None:
        raise CliError("stokes needs --scene")
    if forms < 0:
        raise CliError("forms must be nonnegative")
    # no residual exceeds a NaN or infinite tolerance, so both are rejected
    if not 0.0 <= tolerance < math.inf:
        raise CliError("tolerance must be nonnegative and finite")

    S, draw = _stokes_scene(scene)
    rng = np.random.default_rng(seed)
    entries = []
    for index in range(forms):
        center = draw(rng, index)
        radius = rng.uniform(0.2, 0.6)
        report = stokes_residual(S, bump_form(center, radius))
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
            "flagged": not (estimate <= ESTIMATE_BOUND) or report.lhs.flagged or report.rhs.flagged,
            "lhs_stats": dict(report.lhs.stats),
            "rhs_stats": dict(report.rhs.stats),
        })

    payload = {
        "scene": scene,
        "seed": seed,
        "tolerance": tolerance,
        "forms": entries,
        "max_residual": max((e["residual"] for e in entries), default=0.0),
    }
    if output is not None:
        write_json(_out_base(output) + ".json", payload)

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


def cmd_export_mesh(args, config) -> int:
    scene = _resolve(args, "scene", config, None)
    output = _resolve(args, "output", config, None)
    samples = _resolve(args, "samples", config, 1024)
    if scene is None:
        raise CliError("export-mesh needs --scene")
    if output is None:
        raise CliError("export-mesh needs --output")
    if samples < 2:
        raise CliError("samples must be at least 2")
    scene_keys = {key for keys in _SCENE_KEYS.values() for key in keys}
    unread = sorted(key for key in scene_keys - set(_SCENE_KEYS.get(scene, scene_keys))
                    if _resolve(args, key, config, None) is not None)
    if unread:
        raise CliError(f"scene {scene!r} does not read {', '.join(unread)}")
    base = _out_base(output)

    if scene == "sigma-cylinder":
        grid = _resolve(args, "grid", config, (256, 16))
        height = _resolve(args, "h", config, SIGMA_HEIGHT)
        sign = _resolve(args, "sign", config, +1)
        if not 0.0 < height < math.inf:
            raise CliError("h must be positive and finite")
        curve = lift_horizontal(lemniscate(), sign=sign)
        S = lift_cylinder(curve, height)
    elif scene == "band":
        grid = _resolve(args, "grid", config, (256, 24))
        r = _resolve(args, "r", config, 1.0)
        big_r = _resolve(args, "R", config, None)
        n = _resolve(args, "n", config, 2)
        phi_max = _resolve(args, "phi_max", config, BAND_ANGLE)
        big_r, r = _torus_radii(r, big_r, n)
        if not 0.0 < phi_max <= 2.0 * math.pi:
            raise CliError("phi_max must lie in (0, 2*pi]")
        sigma = torus_characteristic_loop(big_r, r)
        if sigma.closure_defect() > 1e-8:
            raise NumericalAbort("characteristic loop does not close at these radii")
        S = revolve_curve(sigma, phi_max)
    elif scene == "torus":
        grid = _resolve(args, "grid", config, (128, 64))
        r = _resolve(args, "r", config, 1.0)
        big_r = _resolve(args, "R", config, None)
        n = _resolve(args, "n", config, 2)
        big_r, r = _torus_radii(r, big_r, n)
        S = torus_surface(big_r, r)
    else:
        raise CliError(f"unknown scene {scene!r}; available: sigma-cylinder, band, torus")

    verts, faces = surface_mesh(S, grid[0], grid[1])
    write_obj(base + ".obj", verts, faces)
    tags = {1: "plus", -1: "minus"}
    for curve, orientation in S.boundary:
        tau = np.linspace(curve.a, curve.b, samples)
        pts = curve.position(tau)
        write_csv(
            f"{base}_boundary_{tags[orientation]}.csv",
            ["tau", "x", "y", "t"],
            np.column_stack([tau, pts]),
        )
    return 0


def cmd_selftest(args, config) -> int:
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
    check("lift-horizontality", resid <= 1e-8, f"theta residual {resid:.3e}")
    gap = self_intersection_gap(lifted)
    check("lift-gap", abs(gap - 2.0 / 3.0) <= 1e-6, f"vertical gap {gap:.9f}")

    big_r = math.sqrt(1.0 + 2.0 ** (2.0 / 3.0))
    torus = torus_surface(big_r, 1.0)
    trace = trace_foliation(torus, (0.0, 0.0), 18.0)
    residual, windings = detect_period(trace, axis=0)
    check(
        "foliation-period",
        residual <= 1e-6 and not trace.truncated,
        f"closure {residual:.3e}, windings {windings}, nfev {trace.step_stats['nfev']}",
    )

    rng = np.random.default_rng(DEFAULT_SEED)
    for scene in ("halfplane", "sigma-cylinder", "band"):
        S, draw = _stokes_scene(scene)
        center = draw(rng, 0)
        radius = rng.uniform(0.2, 0.6)
        report = stokes_residual(S, bump_form(center, radius))
        estimate = report.lhs.estimate + report.rhs.estimate
        check(
            f"stokes-{scene}",
            report.residual <= 1e-6 and estimate <= ESTIMATE_BOUND,
            f"residual {report.residual:.3e}, estimate {estimate:.2e}, "
            f"points {report.lhs.stats['points']} + {report.rhs.stats['points']}",
        )

    if failures:
        raise VerificationFailure(f"selftest failures: {', '.join(failures)}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="heisgeo", description="Heisenberg geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, fn, help_text):
        p = sub.add_parser(name, prog=f"heisgeo {name}", help=help_text)
        p.set_defaults(fn=fn, command=name)
        p.add_argument("--config", default=None, help="INI file with a [run] section")
        return p

    p = subcommand("lift", cmd_lift, "export a planar curve's horizontal lift")
    p.add_argument("--curve", default=None, help="curve name (lemniscate)")
    p.add_argument("--sign", default=None, type=_parse_sign, help="lift sign, +1 or -1 (default -1)")
    p.add_argument("--samples", default=None, type=int, help="polyline sample count (default 1024)")
    p.add_argument("-o", "--output", default=None, help="output base path (writes .csv and .json)")

    p = subcommand("foliate", cmd_foliate, "trace a characteristic leaf on a torus")
    p.add_argument("--r", default=None, type=float, help="tube radius (default 1)")
    p.add_argument("--R", default=None, type=float, help="center radius (overrides --n)")
    p.add_argument("--n", default=None, type=int, help="sets R = sqrt(1 + n^(2/3))")
    p.add_argument("--start-u", dest="start_u", default=None, type=float, help="start u (default 0)")
    p.add_argument("--start-v", dest="start_v", default=None, type=float, help="start v (default 0)")
    p.add_argument("--arclen", default=None, type=float, help="trace arclength (default auto)")
    p.add_argument("--samples", default=None, type=int, help="trace polyline samples (default 2048)")
    p.add_argument("--grid", default=None, type=_parse_grid, help="torus mesh grid NUxNV (default 128x64)")
    p.add_argument("--tolerance", default=None, type=float, help="closure tolerance (default 1e-6)")
    p.add_argument("-o", "--output", default=None, help="output base path (.csv, .json, .obj)")

    p = subcommand("stokes", cmd_stokes, "run the Stokes verification sweep")
    p.add_argument("--scene", default=None, help="halfplane | sigma-cylinder | band")
    p.add_argument("--forms", default=None, type=int, help="number of random test forms (default 20)")
    p.add_argument("--seed", default=None, type=_parse_seed, help="RNG seed (hex ok; default 0x5EED)")
    p.add_argument("--tolerance", default=None, type=float, help="residual tolerance (default 1e-6)")
    p.add_argument("-o", "--output", default=None, help="JSON report path")

    p = subcommand("export-mesh", cmd_export_mesh, "export a surface mesh with boundary polylines")
    p.add_argument("--scene", default=None, help="sigma-cylinder | band | torus")
    p.add_argument("--grid", default=None, type=_parse_grid, help="mesh grid NUxNV")
    p.add_argument("--h", default=None, type=float, help="cylinder height (default 1/3)")
    p.add_argument("--sign", default=None, type=_parse_sign, help="cylinder lift sign (default +1)")
    p.add_argument("--r", default=None, type=float, help="tube radius (default 1)")
    p.add_argument("--R", default=None, type=float, help="center radius (overrides --n)")
    p.add_argument("--n", default=None, type=int, help="sets R = sqrt(1 + n^(2/3)) (default 2)")
    p.add_argument("--phi-max", dest="phi_max", default=None, type=float, help="band sweep angle (default pi/12)")
    p.add_argument("--samples", default=None, type=int, help="boundary polyline samples (default 1024)")
    p.add_argument("-o", "--output", default=None, help="output base path")

    subcommand("selftest", cmd_selftest, "run the built-in verification checks")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    schema = _SCHEMAS[args.command]
    try:
        config = _load_config(args.config, schema) if args.config else {}
        return args.fn(args, config)
    except CliError as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"heisgeo: numerical abort: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"heisgeo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
