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
    "fig1.csv": "69f02cdba67731df191b5d749efbd3c8bb070a217bfa90efc7d4fbce1236cc8d",
    "fig1.json": "cf016c7fa73ffc4ae3a1e163ec8b6a3029f688eefe44c4d7329546a2384ff346",
    "fig2.csv": "d3619c64fa3cd526c1a78997bcb075d7d069ffeba3b26feb44413855468afba9",
    "fig2.json": "cf016c7fa73ffc4ae3a1e163ec8b6a3029f688eefe44c4d7329546a2384ff346",
    "fig3.obj": "cfa040e7ca4f469441953215f7c112cde6c45d6dd33a5a042315a819d026b57e",
    "fig3_boundary_minus.csv": "3f0edeaeb1831c823ecb95480ff762ebd92ddf0e7de304497b3fed37f5a8d300",
    "fig3_boundary_plus.csv": "c4f79bdf279a9d3fadfef8d92498968bd04613f25a26b7cc3458fd09da5adfd6",
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
    "stokes_sigma-cylinder.json": "44899d1ea93a73a7e2d8ca03dde9026b40e65578de0d976ad67b343fae3dd457",
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
