"""Deterministic file emitters: CSV polylines, OBJ meshes, JSON reports.

Numbers are written with 17 significant digits and '.' decimal so outputs
round-trip doubles exactly and identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .surfaces import ParamSurface

__all__ = [
    "write_csv",
    "write_json",
    "surface_mesh",
    "write_obj",
]


FLOAT_FORMAT = "%.17g"


def _lines(row: str, a: np.ndarray) -> str:
    """One `row` template line per row of `a`, filled by a single `%`."""
    return ((row + "\n") * len(a)) % tuple(a.ravel().tolist())


def _open_out(path):
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path, header, rows) -> None:
    """CSV with one header row; `rows` is an (N, k) array matching the header."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != len(header):
        raise ValueError("rows must be (N, k) with k matching the header")
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n" + _lines(",".join([FLOAT_FORMAT] * rows.shape[1]), rows))


def write_json(path, payload) -> None:
    """JSON with sorted keys and stable layout; no timestamps, no randomness."""
    with _open_out(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def surface_mesh(S: ParamSurface, nu: int, nv: int):
    """Triangulated parameter grid: (vertices (N,3), faces (M,3) 0-based).

    A periodic axis gets `n` distinct samples and faces that wrap around the
    seam, so no vertex is duplicated; a bounded axis gets `n` samples
    including both ends.  Triangles wind counterclockwise in (u, v).
    """
    if nu < 2 or nv < 2:
        raise ValueError("grid must be at least 2x2")
    per_u, per_v = S.periodic

    def axis_samples(dom, n, periodic):
        if periodic:
            return dom[0] + (dom[1] - dom[0]) * np.arange(n) / n
        return np.linspace(dom[0], dom[1], n)

    u = axis_samples(S.u_dom, nu, per_u)
    v = axis_samples(S.v_dom, nv, per_v)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    verts = S.position(uu, vv).reshape(-1, 3)

    def idx(i, j):
        return (i % nu if per_u else i) * nv + (j % nv if per_v else j)

    ni = nu if per_u else nu - 1
    nj = nv if per_v else nv - 1
    i, j = (x.ravel() for x in np.meshgrid(np.arange(ni), np.arange(nj), indexing="ij"))
    a, b, c, d = idx(i, j), idx(i + 1, j), idx(i + 1, j + 1), idx(i, j + 1)
    # (a, b, c) then (a, c, d) for each cell, i outer: the OBJ bytes depend on this order
    return verts, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def write_obj(path, vertices, faces) -> None:
    """Minimal OBJ: v records then 1-based f records, nothing else."""
    vertices = np.asarray(vertices, dtype=float)
    faces = np.asarray(faces, dtype=int)
    with _open_out(path) as fh:
        fh.write(_lines("v " + " ".join([FLOAT_FORMAT] * vertices.shape[1]), vertices)
                 + _lines("f %d %d %d", faces + 1))
