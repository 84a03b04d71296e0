"""File emitters: byte determinism, formats, mesh topology."""

import dataclasses
import json
import math

import numpy as np

from heisgeo import surface_mesh, torus_surface, write_csv, write_json, write_obj
from heisgeo.export import FLOAT_FORMAT
from heisgeo.curves import lemniscate, lift_horizontal
from heisgeo.surfaces import lift_cylinder, revolve_curve, torus_characteristic_loop, vertical_halfplane

# doubles whose text is easy to get wrong: signed zero, the shortest decimal
# that is not exact, huge and subnormal magnitudes, non-finite and integral values
AWKWARD = np.array([[-0.0, 0.1, 1e300], [5e-324, np.inf, -np.inf], [np.nan, 3.0, -2.0], [0.0, 1e16, 7.0]])


def test_format_float_roundtrips_doubles():
    rng = np.random.default_rng(7)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(FLOAT_FORMAT % x) == x
    assert FLOAT_FORMAT % 0.1 == "0.10000000000000001"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], np.array([[1.0, 0.5], [2.0, 0.25]]))
    text = path.read_text()
    assert text == "a,b\n1,0.5\n2,0.25\n"


def test_writers_match_per_number_formatting(tmp_path):
    # formatting each number on its own is the reference for the block writers
    write_csv(tmp_path / "a.csv", ["x", "y", "t"], AWKWARD)
    lines = ["x,y,t"] + [",".join(FLOAT_FORMAT % x for x in row) for row in AWKWARD]
    assert (tmp_path / "a.csv").read_text() == "\n".join(lines) + "\n"

    faces = np.array([[0, 1, 2], [2, 3, 0], [1, 3, 2]])
    write_obj(tmp_path / "a.obj", AWKWARD, faces)
    lines = ["v " + " ".join(FLOAT_FORMAT % x for x in row) for row in AWKWARD]
    lines += ["f " + " ".join(str(i + 1) for i in face) for face in faces]
    assert (tmp_path / "a.obj").read_text() == "\n".join(lines) + "\n"


def _reference_faces(S, nu, nv):
    per_u, per_v = S.periodic

    def idx(i, j):
        return (i % nu if per_u else i) * nv + (j % nv if per_v else j)

    faces = []
    for i in range(nu if per_u else nu - 1):
        for j in range(nv if per_v else nv - 1):
            a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
            faces += [(a, b, c), (a, c, d)]
    return np.asarray(faces, dtype=int)


def test_surface_mesh_faces_match_the_double_loop():
    torus = torus_surface(np.sqrt(2.0), 1.0)
    band = revolve_curve(torus_characteristic_loop(math.sqrt(1.0 + 2.0 ** (2.0 / 3.0)), 1.0), 0.3)
    surfaces = [
        torus,
        lift_cylinder(lift_horizontal(lemniscate(), sign=1), 1.0 / 3.0),
        vertical_halfplane(),
        band,
        # the only periodic axis is v
        dataclasses.replace(torus, periodic=(False, True)),
    ]
    assert {S.periodic for S in surfaces} == {(a, b) for a in (False, True) for b in (False, True)}
    for S in surfaces:
        for nu, nv in ((2, 2), (7, 5), (4, 9)):
            faces = surface_mesh(S, nu, nv)[1]
            np.testing.assert_array_equal(faces, _reference_faces(S, nu, nv))


def test_write_csv_rejects_shape_mismatch(tmp_path):
    try:
        write_csv(tmp_path / "bad.csv", ["a", "b"], np.zeros((3, 4)))
    except ValueError:
        return
    raise AssertionError("column mismatch accepted")


def test_write_json_layout(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"b": 1, "a": [1.5, None, "s"]})
    text = path.read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted
    assert json.loads(text) == {"b": 1, "a": [1.5, None, "s"]}


def test_writers_are_byte_deterministic(tmp_path):
    rows = np.linspace(0.0, 1.0, 30).reshape(10, 3) * np.pi
    paths = [tmp_path / f"{i}.csv" for i in (0, 1)]
    for p in paths:
        write_csv(p, ["x", "y", "t"], rows)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    torus = torus_surface(np.sqrt(2.0), 1.0)
    verts, faces = surface_mesh(torus, 16, 8)
    objs = [tmp_path / f"{i}.obj" for i in (0, 1)]
    for p in objs:
        write_obj(p, verts, faces)
    assert objs[0].read_bytes() == objs[1].read_bytes()


def test_writers_create_parent_dirs(tmp_path):
    nested = tmp_path / "deep" / "er" / "out.json"
    write_json(nested, {"ok": True})
    assert json.loads(nested.read_text()) == {"ok": True}


def test_surface_mesh_counts_doubly_periodic():
    torus = torus_surface(np.sqrt(2.0), 1.0)
    verts, faces = surface_mesh(torus, 12, 7)
    assert verts.shape == (12 * 7, 3)
    assert faces.shape == (2 * 12 * 7, 3)
    assert faces.min() == 0 and faces.max() == 12 * 7 - 1


def test_surface_mesh_counts_mixed_axes():
    # cylinder over a closed curve: u periodic, v bounded
    cyl = lift_cylinder(lift_horizontal(lemniscate(), sign=1), 1.0 / 3.0)
    verts, faces = surface_mesh(cyl, 256, 16)
    assert verts.shape == (256 * 16, 3)
    assert faces.shape == (2 * 256 * 15, 3)

    hp = vertical_halfplane()
    verts, faces = surface_mesh(hp, 5, 4)
    assert verts.shape == (20, 3)
    assert faces.shape == (2 * 4 * 3, 3)


def test_surface_mesh_seam_wraps_without_duplicates():
    torus = torus_surface(np.sqrt(2.0), 1.0)
    verts, faces = surface_mesh(torus, 8, 8)
    # every vertex appears in some face and no face index is out of range
    assert set(faces.ravel()) == set(range(len(verts)))
    # no two vertices coincide: the seam is shared, not duplicated
    d = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-6


def test_surface_mesh_triangles_wind_counterclockwise():
    # on the flat sheet (u, v, 0) the z component of each triangle normal
    # is positive exactly when winding is counterclockwise in (u, v)
    def pos(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        out = np.zeros(u.shape + (3,))
        out[..., 0] = u
        out[..., 1] = v
        return out

    def constant(vec):
        return lambda u, v: np.broadcast_to(vec, np.broadcast(u, v).shape + (3,)).copy()

    from heisgeo import ParamSurface

    sheet = ParamSurface(u_dom=(0.0, 1.0), v_dom=(0.0, 2.0), position=pos,
                         tangent_u=constant([1.0, 0.0, 0.0]), tangent_v=constant([0.0, 1.0, 0.0]))
    verts, faces = surface_mesh(sheet, 6, 6)
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross_z = np.cross(b - a, c - a)[:, 2]
    assert np.all(cross_z > 0)


def test_surface_mesh_rejects_tiny_grid():
    torus = torus_surface(np.sqrt(2.0), 1.0)
    try:
        surface_mesh(torus, 1, 8)
    except ValueError:
        return
    raise AssertionError("1 x n grid accepted")


def test_write_obj_records(tmp_path):
    path = tmp_path / "two.obj"
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]])
    faces = np.array([[0, 1, 2]])
    write_obj(path, verts, faces)
    lines = path.read_text().splitlines()
    assert lines[0] == "v 0 0 0"
    assert lines[1] == "v 1 0 0"
    assert lines[2] == "v 0 1 0.5"
    assert lines[3] == "f 1 2 3"  # indices are 1-based
