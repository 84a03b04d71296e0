"""Command line driver: exit codes, config layering, output files."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import heisgeo.cli
from heisgeo.cli import DEFAULT_SEED, main
from heisgeo.integrate import IntegralResult, StokesReport


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
    # the mirrored lift is not horizontal; its residual is order one
    assert meta["horizontality_residual"] > 0.5
    assert abs(meta["self_intersection_gap"] - 2.0 / 3.0) <= 1e-6


def test_lift_positive_sign_is_horizontal(tmp_path):
    base = tmp_path / "lift"
    assert run("lift", "--sign", "+1", "-o", str(base)) == 0
    meta = json.loads(base.with_suffix(".json").read_text())
    assert meta["horizontality_residual"] <= 1e-8


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
    for key in ("nfev", "steps"):
        assert type(meta[key]) is int and meta[key] > 0, key
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
    real = heisgeo.cli.stokes_residual
    calls = []

    def second_form_nan(S, form):
        report = real(S, form)
        calls.append(form)
        if len(calls) == 2:
            nan = IntegralResult(math.nan, math.nan, True, report.lhs.stats)
            return StokesReport(nan, report.rhs, abs(nan.value - report.rhs.value))
        return report

    monkeypatch.setattr(heisgeo.cli, "stokes_residual", second_form_nan)
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


def test_stokes_does_not_load_scipy(tmp_path):
    # scipy.integrate alone costs most of a second of start-up; only leaf
    # tracing needs it, so a Stokes run must not import it
    env = {k: v for k, v in os.environ.items() if k != "HEIS_SEED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    probe = (
        "import json, sys\n"
        "from heisgeo.cli import main\n"
        "code = main(['stokes', '--scene', 'halfplane', '--forms', '1', '-o', sys.argv[1]])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "s")],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    code, scipy_modules = json.loads(res.stdout.splitlines()[-1])
    assert code == 0
    assert scipy_modules == []


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


def test_selftest_passes(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out.splitlines()
    leaf = [line for line in out if "foliation-period" in line]
    assert len(leaf) == 1 and int(leaf[0].rsplit("nfev ", 1)[1]) > 0
    stokes = [line for line in out if line.startswith("ok stokes-")]
    assert len(stokes) == 3 and all(" points " in line for line in stokes)
