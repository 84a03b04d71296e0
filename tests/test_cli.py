"""Command line driver: exit codes, config layering, output files."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heisgeo.cli
from heisgeo.cli import BAND_ANGLE, DEFAULT_SEED, SIGMA_HEIGHT, _stokes_scene, main
from heisgeo.core import rotate_t_axis
from heisgeo.curves import lemniscate, lift_horizontal
from heisgeo.integrate import IntegralResult, StokesReport
from heisgeo.surfaces import torus_characteristic_loop


def run(*argv):
    return main(list(argv))


def write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_lift_default_sign_outputs(tmp_path):
    base = tmp_path / "lift"
    assert run("lift", "-o", str(base)) == 0
    rows = np.loadtxt(base.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (1024, 4)
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["sign"] == -1
    assert meta["closure_defect"] <= 1e-10
    # the sign -1 lift (t negated) is not horizontal; its residual is order
    # one, the JSON says so, and the run still exits 0
    assert meta["horizontality_residual"] > 0.5
    assert meta["horizontal"] is False
    assert abs(meta["self_intersection_gap"] - 2.0 / 3.0) <= 1e-6


def test_lift_positive_sign_is_horizontal(tmp_path):
    base = tmp_path / "lift"
    assert run("lift", "--sign", "+1", "-o", str(base)) == 0
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["horizontality_residual"] <= 1e-8
    assert meta["horizontal"] is True


def test_configuration_errors_exit_1(tmp_path):
    out = str(tmp_path / "x")
    assert run("lift") == 1  # no output target
    assert run("lift", "--curve", "cardioid", "-o", out) == 1
    assert run("stokes", "--scene", "klein", "-o", out) == 1
    assert run("foliate", "--R", "0.5", "-o", out) == 1  # needs R > r
    assert run("foliate", "-o", out) == 1  # neither R nor n
    assert run("export-mesh", "--scene", "plane", "-o", out) == 1
    assert run("stokes", "--scene", "halfplane", "--config", str(tmp_path / "missing.ini")) == 1


def test_config_file_validation(tmp_path):
    bad_key = write_config(tmp_path, "[run]\nbogus = 3\n", "a.ini")
    assert run("stokes", "--config", bad_key) == 1
    no_section = write_config(tmp_path, "[other]\nscene = halfplane\n", "b.ini")
    assert run("stokes", "--config", no_section) == 1
    # a malformed file cannot be read: no section header, a repeated key
    for name, body in (("c.ini", "scene = halfplane\n"), ("g.ini", "[run]\nforms = 1\nforms = 2\n")):
        assert run("stokes", "--config", write_config(tmp_path, body, name)) == 1, body
    bad_value = write_config(tmp_path, "[run]\nforms = many\n", "d.ini")
    assert run("stokes", "--config", bad_value) == 1
    # each would run cleanly but for its key: an abbreviated flag name, and
    # a second config file named from inside the first
    for name, key in (("e.ini", "out = x"), ("f.ini", "config = b.ini")):
        cfg = write_config(tmp_path, f"[run]\nscene = halfplane\nforms = 0\n{key}\n", name)
        assert run("stokes", "--config", cfg) == 1, key
    # a key is spelled with `_`, as the config files always had it
    dashed = write_config(tmp_path, "[run]\nn = 2\nstart-u = 0\n", "h.ini")
    assert run("foliate", "--config", dashed, "-o", str(tmp_path / "leaf")) == 1


def test_flag_and_config_give_the_same_exit_code(tmp_path, capsys):
    # each value is checked once, by its command, whatever its source; a
    # key that the export-mesh scene does not read is an error, not ignored;
    # the key that failed is named on stderr either way
    out = str(tmp_path / "x")
    for command, values, code, named in (
        ("foliate", {"R": "2.5", "n": "-1"}, 1, "n"),
        ("export-mesh", {"scene": "torus", "R": "2.5", "n": "-1"}, 1, "n"),
        ("export-mesh", {"scene": "sigma-cylinder", "n": "-1", "R": "0.1", "phi_max": "-5"}, 1, "phi_max"),
        ("export-mesh", {"scene": "torus", "h": "-1", "sign": "-1"}, 1, "sign"),
        # the cylinder is built on the horizontal +1 lift only; --sign is lift's
        ("export-mesh", {"scene": "sigma-cylinder", "sign": "+1"}, 1, "sign"),
        ("stokes", {"scene": "halfplane", "forms": "1", "tolerance": "0"}, 3, "tolerance"),
        ("foliate", {"n": "2", "grid": "1x1"}, 1, "grid"),
        ("lift", {"sign": "2"}, 1, "sign"),
        ("lift", {"samples": "many"}, 1, "samples"),
        ("stokes", {"scene": "halfplane", "seed": "elephant"}, 1, "seed"),
    ):
        flags = [word for key, value in values.items() for word in (f"--{key.replace('_', '-')}", value)]
        cfg = write_config(tmp_path, "[run]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        for source, argv in (("flags", flags), ("config", ["--config", cfg])):
            assert run(command, *argv, "-o", out) == code, (command, values, source)
            assert named in capsys.readouterr().err, (command, values, source)
    assert not (tmp_path / "x.obj").exists()
    assert not (tmp_path / "x.csv").exists()


def test_config_keys_are_case_sensitive(tmp_path):
    # r and R are different knobs; swapped capitalization would make R < r
    # a config error, so a clean run with the right radii proves the case
    # of each key survived parsing
    cfg = write_config(
        tmp_path,
        "[run]\nscene = torus\nR = 2.5\nr = 0.5\ngrid = 12x6\noutput = %s\n"
        % (tmp_path / "torus"),
    )
    assert run("export-mesh", "--config", cfg) == 0
    verts = []
    for line in (tmp_path / "torus.obj").read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(w) for w in line.split()[1:]])
    radial = np.hypot(*np.array(verts).T[:2])
    assert abs(radial.max() - 3.0) < 1e-6
    assert abs(radial.min() - 2.0) < 1e-6


def test_foliate_short_trace_aborts_exit_2(tmp_path):
    assert run("foliate", "--n", "2", "--arclen", "0.5", "-o", str(tmp_path / "f")) == 2
    assert not (tmp_path / "f.json").exists()


def test_foliate_bad_arclen_or_samples_exit_1(tmp_path, capsys):
    out = str(tmp_path / "f")
    for arclen in ("-1", "0", "nan", "inf"):
        assert run("foliate", "--n", "2", "--arclen", arclen, "-o", out) == 1, arclen
        assert "arclen" in capsys.readouterr().err
    for samples in ("0", "1"):
        assert run("foliate", "--n", "2", "--samples", samples, "-o", out) == 1, samples
        assert "samples" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


def test_foliate_full_run(tmp_path):
    base = tmp_path / "leaf"
    code = run(
        "foliate", "--n", "2", "--grid", "8x4", "--samples", "128", "-o", str(base)
    )
    assert code == 0
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["windings"] == [1, 1]
    assert meta["closure_residual"] <= 1e-6
    assert meta["closed"] is True
    assert not meta["truncated"]
    for key in ("nfev", "steps", "rejected"):
        assert type(meta[key]) is int and meta[key] > 0, key
    assert meta["leaf_error"] <= 1e-8
    rows = np.loadtxt(base.with_suffix(".csv"), delimiter=",", skiprows=1)
    assert rows.shape == (128, 5)
    assert base.with_suffix(".obj").exists()
    # the solver counters are deterministic, so a repeat is byte-identical
    again = tmp_path / "again"
    assert run(
        "foliate", "--n", "2", "--grid", "8x4", "--samples", "128", "-o", str(again)
    ) == 0
    for ext in (".csv", ".json", ".obj"):
        assert base.with_suffix(ext).read_bytes() == again.with_suffix(ext).read_bytes(), ext


def test_foliate_unclosed_leaf_exit_3(tmp_path):
    # R = 2.5 is not one of the closing radii and 30 units of arclength end
    # far from the start: the best return is reported but flagged
    base = tmp_path / "leaf"
    code = run(
        "foliate", "--R", "2.5", "--arclen", "30", "--grid", "8x4", "--samples", "128",
        "-o", str(base),
    )
    assert code == 3
    # the outputs are still written before the verdict
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["closed"] is False
    assert meta["closure_residual"] > 1e-6
    assert base.with_suffix(".obj").exists()


def test_foliate_leaf_error_is_bounded(tmp_path):
    # every torus leaf is v = v0 + V(u) - V(u0) in closed form, so the JSON's
    # leaf_error is the samples' true error
    for n, start in ((1, (0, 0)), (2, (0, 0)), (3, (0, 0)), (11, (0, 0)), (5, (2, -1))):
        base = tmp_path / f"leaf{n}"
        code = run("foliate", "--n", str(n), "--start-u", str(start[0]), "--start-v", str(start[1]),
                   "--grid", "8x4", "-o", str(base))
        assert code == 0, n
        meta = json.loads(base.with_suffix(".json").read_text())
        assert 0.0 < meta["leaf_error"] <= 1e-8, (n, meta["leaf_error"])


def test_foliate_leaf_error_above_tolerance_exit_3(tmp_path):
    # at n = 2 the leaf returns to 1.4e-11 but its samples stray 9e-10 from
    # the closed form: a tolerance between the two fails the leaf
    base = tmp_path / "leaf"
    assert run("foliate", "--n", "2", "--grid", "8x4", "--tolerance", "1e-10", "-o", str(base)) == 3
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["closure_residual"] <= 1e-10 < meta["leaf_error"]
    assert meta["closed"] is False


def test_stokes_zero_tolerance_exit_3(tmp_path):
    code = run(
        "stokes", "--scene", "halfplane", "--forms", "1", "--tolerance", "0", "-o",
        str(tmp_path / "s"),
    )
    assert code == 3
    # the report is still written before the verdict
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["forms"][0]["residual"] > 0.0


def test_stokes_nan_tolerance_exit_1(tmp_path, capsys):
    # no residual is above a NaN or infinite tolerance, so it could never fail a form
    out = tmp_path / "s"
    for tolerance in ("nan", "inf"):
        assert run(
            "stokes", "--scene", "halfplane", "--forms", "1", "--tolerance", tolerance, "-o", str(out)
        ) == 1, tolerance
        assert "tolerance" in capsys.readouterr().err
    cfg = write_config(tmp_path, "[run]\nscene = halfplane\nforms = 1\ntolerance = inf\n")
    assert run("stokes", "--config", cfg, "-o", str(out)) == 1
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_stokes_nan_residual_reaches_max_residual(tmp_path, monkeypatch):
    # a NaN after a finite residual must not drop out of the summary
    real = heisgeo.cli.stokes_residuals

    def second_form_nan(S, forms):
        reports = real(S, forms)
        report = reports[1]
        nan = IntegralResult(math.nan, math.nan, True, report.lhs.stats)
        reports[1] = StokesReport(nan, report.rhs, abs(nan.value - report.rhs.value))
        return reports

    monkeypatch.setattr(heisgeo.cli, "stokes_residuals", second_form_nan)
    out = tmp_path / "s"
    assert run("stokes", "--scene", "halfplane", "--forms", "2", "-o", str(out)) == 2
    payload = json.loads((tmp_path / "s.json").read_text())
    assert math.isfinite(payload["forms"][0]["residual"])
    assert math.isnan(payload["forms"][1]["residual"])
    assert math.isnan(payload["max_residual"])


def test_foliate_infinite_tolerance_exit_1(tmp_path, capsys):
    # this leaf does not close (test_foliate_unclosed_leaf_exit_3), so an
    # infinite tolerance would pass it as closed
    base = str(tmp_path / "leaf")
    leaf = ("foliate", "--R", "2.5", "--arclen", "30", "--grid", "8x4", "--samples", "128")
    assert run(*leaf, "--tolerance", "inf", "-o", base) == 1
    assert "tolerance" in capsys.readouterr().err
    cfg = write_config(tmp_path, "[run]\ntolerance = inf\n")
    assert run(*leaf, "--config", cfg, "-o", base) == 1
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "leaf.json").exists()


def test_non_finite_geometry_exit_1(tmp_path, capsys):
    out = tmp_path / "out" / "x"
    for argv in (
        ("export-mesh", "--scene", "sigma-cylinder", "--h", "inf"),
        ("export-mesh", "--scene", "torus", "--R", "inf"),
        ("export-mesh", "--scene", "band", "--R", "inf"),
        ("foliate", "--R", "inf"),
        ("foliate", "--n", "2", "--start-u", "nan"),
        ("foliate", "--n", "2", "--start-v", "inf"),
    ):
        assert run(*argv, "-o", str(out)) == 1, argv
        assert "finite" in capsys.readouterr().err, argv
    assert not out.parent.exists()


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "heisgeo.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    assert module("lift", "-o", "X").returncode == 0
    assert (tmp_path / "X.csv").is_file() and (tmp_path / "X.json").is_file()
    res = module("stokes")
    assert res.returncode == 1 and "--scene" in res.stderr


def test_no_command_loads_scipy(tmp_path):
    # scipy.integrate alone costs most of a second of start-up, and nothing
    # in heisgeo needs it: lift, Stokes, mesh-export, foliate and selftest
    # runs must not import it.  One process runs each command in turn and
    # lists the scipy modules loaded so far after each one.
    env = {k: v for k, v in os.environ.items() if k != "HEIS_SEED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    configs = Path(__file__).resolve().parents[1] / "configs"
    runs = [
        ["lift", "-o", str(tmp_path / "l")],
        ["stokes", "--scene", "halfplane", "--forms", "1", "-o", str(tmp_path / "s")],
        ["export-mesh", "--scene", "sigma-cylinder", "--grid", "8x4", "-o", str(tmp_path / "m")],
        ["export-mesh", "--scene", "band", "--grid", "8x4", "-o", str(tmp_path / "b")],
        ["foliate", "--config", str(configs / "fig4.ini"), "-o", str(tmp_path / "f")],
        ["selftest"],
    ]
    probe = (
        "import json, sys\n"
        "from heisgeo.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = main(argv)\n"
        "    print(json.dumps([argv[0], code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = [json.loads(line) for line in res.stdout.splitlines() if line.startswith("[")]
    assert [(name, code) for name, code, _ in lines] == [(argv[0], 0) for argv in runs]
    for name, _, scipy_modules in lines:
        assert scipy_modules == [], name


def test_seed_precedence(tmp_path, monkeypatch):
    def seed_of(*argv):
        out = tmp_path / "seed.json"
        assert run("stokes", "--scene", "halfplane", "--forms", "0", "-o", str(out), *argv) == 0
        return json.loads(out.read_text())["seed"]

    monkeypatch.delenv("HEIS_SEED", raising=False)
    assert seed_of() == DEFAULT_SEED
    cfg = write_config(tmp_path, "[run]\nseed = 7\n")
    assert seed_of("--config", cfg) == 7
    monkeypatch.setenv("HEIS_SEED", "0x9")
    assert seed_of("--config", cfg) == 9
    assert seed_of("--config", cfg, "--seed", "11") == 11
    monkeypatch.setenv("HEIS_SEED", "elephant")
    assert run("stokes", "--scene", "halfplane", "--forms", "0") == 1


def test_the_parser_is_built_once_and_runs_leave_nothing_in_it(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, "[run]\nsign = 1\nsamples = 64\n")
    runs = [
        ({}, ["lift", "--config", cfg]),
        ({}, ["export-mesh", "--scene", "sigma-cylinder", "--grid", "8x3", "--samples", "16"]),
        ({"HEIS_SEED": "0x9"}, ["stokes", "--scene", "halfplane", "--forms", "1"]),
        ({}, ["foliate", "--n", "two"]),
    ]

    def play(out, fresh):
        """Exit codes, stderr and output files of the runs in order, and the parser cache's (misses, hits)."""
        heisgeo.cli._build_parser.cache_clear()
        results = []
        for index, (env, argv) in enumerate(runs):
            monkeypatch.delenv("HEIS_SEED", raising=False)
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            if fresh:
                heisgeo.cli._build_parser.cache_clear()
            results.append((main(argv + ["-o", str(out / f"run{index}")]), capsys.readouterr().err))
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        info = heisgeo.cli._build_parser.cache_info()
        return results, files, (info.misses, info.hits)

    reused, fresh = play(tmp_path / "reused", False), play(tmp_path / "fresh", True)
    assert reused[2] == (1, len(runs) - 1)
    assert reused[:2] == fresh[:2]
    assert [code for code, _ in reused[0]] == [0, 0, 0, 1]
    assert json.loads(reused[1]["run2.json"])["seed"] == 9
    assert sorted(reused[1]) == ["run0.csv", "run0.json", "run1.obj", "run1_boundary_minus.csv",
                                 "run1_boundary_plus.csv", "run2.json"]


def test_stokes_report_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.delenv("HEIS_SEED", raising=False)
    outs = [tmp_path / f"rep{i}.json" for i in (0, 1)]
    for out in outs:
        assert run("stokes", "--scene", "halfplane", "--forms", "2", "-o", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    payload = json.loads(outs[0].read_text())
    assert payload["seed"] == DEFAULT_SEED
    assert len(payload["forms"]) == 2
    assert payload["max_residual"] <= 1e-6
    # each side says which rule ran and how many integrand points it took
    for form in payload["forms"]:
        assert form["lhs_stats"]["rule"] == form["rhs_stats"]["rule"] == "conforming"
        assert form["lhs_stats"]["points"] > 0 and form["lhs_stats"]["pieces"] >= 1


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the allocator setting applies to glibc only")
def test_repeated_stokes_runs_reuse_freed_memory(tmp_path, monkeypatch):
    # at glibc's defaults each form's freed temporaries go back to the kernel
    # and the next form faults them in again: about 3,270 faults a call
    monkeypatch.delenv("HEIS_SEED", raising=False)
    argv = ["stokes", "--scene", "halfplane", "--forms", "10", "-o", str(tmp_path / "rep")]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 300


@pytest.mark.parametrize("missing", ["confstr", "libc_version", "mallopt"])
def test_allocator_setting_is_skipped_quietly_without_mallopt(tmp_path, monkeypatch, missing):
    monkeypatch.delenv("HEIS_SEED", raising=False)
    argv = ["stokes", "--scene", "halfplane", "--forms", "2", "-o"]
    assert main(argv + [str(tmp_path / "with")]) == 0
    loaded = []

    class NoMallopt:
        def __init__(self, name):
            loaded.append(name)

    def unrecognized(name):
        raise ValueError("unrecognized configuration name")

    if missing == "confstr":  # as on macOS
        monkeypatch.setattr(os, "confstr", unrecognized)
    else:  # None as on musl; glibc's answer, but a libc without mallopt
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36" if missing == "mallopt" else None)
    monkeypatch.setattr(heisgeo.cli.ctypes, "CDLL", NoMallopt)
    heisgeo.cli._keep_freed_memory.cache_clear()
    try:
        assert heisgeo.cli._keep_freed_memory() is None
        assert main(argv + [str(tmp_path / "without")]) == 0
    finally:
        heisgeo.cli._keep_freed_memory.cache_clear()
    assert loaded == ([None] if missing == "mallopt" else [])
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


def test_export_mesh_sigma_cylinder(tmp_path):
    base = tmp_path / "sigma"
    code = run(
        "export-mesh", "--scene", "sigma-cylinder", "--grid", "16x4",
        "--samples", "16", "-o", str(base),
    )
    assert code == 0
    text = base.with_suffix(".obj").read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 16 * 4
    for tag in ("plus", "minus"):
        rows = np.loadtxt(
            tmp_path / f"sigma_boundary_{tag}.csv", delimiter=",", skiprows=1
        )
        assert rows.shape == (16, 4)


def test_export_mesh_too_few_samples_exit_1(tmp_path, capsys):
    base = tmp_path / "band"
    for samples in ("0", "1"):
        code = run(
            "export-mesh", "--scene", "band", "--grid", "8x4", "--samples", samples, "-o", str(base)
        )
        assert code == 1, samples
        assert "samples" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_export_mesh_band_loop_not_closing_exit_2(tmp_path, capsys):
    base = tmp_path / "band"
    for radius in (("--n", "3"), ("--R", "2.5")):
        code = run("export-mesh", "--scene", "band", *radius, "-o", str(base))
        assert code == 2, radius
        assert "does not close" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out.splitlines()
    leaf = [line for line in out if "foliation-period" in line]
    assert len(leaf) == 1 and int(leaf[0].rsplit("nfev ", 1)[1]) > 0
    stokes = [line for line in out if line.startswith("ok stokes-")]
    assert len(stokes) == 3 and all(" points " in line for line in stokes)


def _reference_draw(scene):
    # the bump-center draws with each rim built by hand, as they were
    # written before the draws read the surface's own rims
    if scene == "halfplane":
        def draw(rng, index):
            y = rng.uniform(-1.5, 1.5)
            dy, dt = rng.uniform(-0.15, 0.15, 2)
            return np.array([0.0, y + dy, dt])
    elif scene == "sigma-cylinder":
        curve = lift_horizontal(lemniscate(), sign=+1)

        def draw(rng, index):
            tau = rng.uniform(0.0, 2.0 * math.pi)
            jit = rng.uniform(-0.15, 0.15, 3)
            rim = np.array([0.0, 0.0, SIGMA_HEIGHT * (index % 2)])
            return curve.position(np.asarray(tau)) + rim + jit
    else:
        sigma = torus_characteristic_loop(math.sqrt(1.0 + 2.0 ** (2.0 / 3.0)), 1.0)

        def draw(rng, index):
            u = rng.uniform(0.0, 2.0 * math.pi)
            jit = rng.uniform(-0.15, 0.15, 3)
            return rotate_t_axis(BAND_ANGLE * (index % 2), sigma.position(np.asarray(u))) + jit
    return draw


def test_draws_match_the_hand_built_rims():
    # each center, and each radius drawn after it as cmd_stokes draws it,
    # bit for bit over 200 forms at five seeds
    for scene in ("halfplane", "sigma-cylinder", "band"):
        draws = (_stokes_scene(scene)[1], _reference_draw(scene))
        for seed in (DEFAULT_SEED, 1, 2, 3, 5000):
            rngs = (np.random.default_rng(seed), np.random.default_rng(seed))
            for index in range(200):
                got, want = (draw(rng, index) for draw, rng in zip(draws, rngs))
                assert got.tobytes() == want.tobytes(), (scene, seed, index)
                assert rngs[0].uniform(0.2, 0.6) == rngs[1].uniform(0.2, 0.6)
