"""Golden outputs: the figure runs and the seeded Stokes reports, byte for byte.

Each of the six `configs/fig*.ini` runs and `heisgeo stokes --seed 0x5EED`
on the three scenes writes files whose SHA-256 is pinned here.  A change
that moves any byte of these reports must re-baseline them on purpose and
list every moved value.
"""

import hashlib
from pathlib import Path

import pytest

from heisgeo.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

RUNS = {
    "fig1": "lift",
    "fig2": "lift",
    "fig3": "export-mesh",
    "fig4": "foliate",
    "fig5": "export-mesh",
    "fig6": "foliate",
}

SCENES = ("halfplane", "sigma-cylinder", "band")

SHA256 = {
    "fig1.csv": "ed5851ed968aff7542810ae3ffe5d0f4212ac6d2fc2bb47b868bbb8f27a84398",
    "fig1.json": "64f876bb3f0ec31b573562a85f9166d4408e7c19e96eaf9b12ec5e5a83283126",
    "fig2.csv": "c96d40ac34c09e1cb586d8ff543037d070a94e32e25e8b4ef2818516e7e2d319",
    "fig2.json": "64f876bb3f0ec31b573562a85f9166d4408e7c19e96eaf9b12ec5e5a83283126",
    "fig3.obj": "7bc77ba225a6ca1aa5b75ceabe52b51227ae0e865860517f66f31d9b036c0770",
    "fig3_boundary_minus.csv": "826767c74694a445b72f2fc4fa3dc8efa891161775335d186d1cf51a1329873d",
    "fig3_boundary_plus.csv": "031b39d64dbbbf142514053363261bc1920bd647ba0f5978cd5d27b80e5388f4",
    "fig4.csv": "9926f5c3e22e0c396c0b2fd33748678291fe721b9a3539c5487854906f448382",
    "fig4.json": "13cc914854c5238cd8acae7ea0af25ab04bfabec3b8cff2313b1a8c5d8792407",
    "fig4.obj": "2f932b2523e875b1c25e60dfae0036df9ceed49502404e9b63b41b5c0c8048a3",
    "fig5.obj": "0b4b7797fff43691cf925e1b99e32c5f0f41e374dde5c9b094089a181febfdf0",
    "fig5_boundary_minus.csv": "334f4393c7a79bb366bb5fd60a8a1a5659bebb971abc10ea82a16def82a6d544",
    "fig5_boundary_plus.csv": "9b9f90409f03823bf348f8e6f38092b6b3ffa2ee1ca6b6eb6966e7acf0656b94",
    "fig6.csv": "f510a70331bb5a7ef29fbd4d59b852ca9c6a3ee22434341bd681e39e7113b26e",
    "fig6.json": "4a97f4dc35ba8c2455ee1b7eb65aa290fc8bf1017ecef5e96ca9c2df42eed7d2",
    "fig6.obj": "bfbd646e4abdc6e0af6cf1d657919fd5770e084cab13a3950e3e2f5ac8bbadc3",
    "stokes_band.json": "2032e13f9c52e31d846c4f9e5fcaf43d0d224cbd3fdbe8c91232189aa9a6fa7c",
    "stokes_halfplane.json": "d72ac07170dc3406528f0d562ad836eba0731da763dfbbb21f18c811743bf30b",
    "stokes_sigma-cylinder.json": "4f11fb9fc6f5fd25438a52220db26ee5d745cc6a39ce1c19447f42d6c2092e3b",
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run every golden command once into a fresh directory; name -> sha256."""
    out = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("HEIS_SEED", raising=False)
        for fig, command in RUNS.items():
            config = str(CONFIGS / f"{fig}.ini")
            assert main([command, "--config", config, "--output", str(out / fig)]) == 0, fig
        for scene in SCENES:
            argv = ["stokes", "--scene", scene, "--seed", "0x5EED", "-o", str(out / f"stokes_{scene}.json")]
            assert main(argv) == 0, scene
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


def test_runs_write_exactly_the_golden_files(outputs):
    assert sorted(outputs) == sorted(SHA256)


@pytest.mark.parametrize("name", sorted(SHA256))
def test_golden_output_bytes(outputs, name):
    assert outputs.get(name) == SHA256[name]
