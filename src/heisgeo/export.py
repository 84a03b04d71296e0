"""Deterministic file emitters: CSV polylines, OBJ meshes, JSON reports.

Numbers are written with 17 significant digits and '.' decimal, a float as
`FLOAT_FORMAT % x` writes it (see `_lines`), so outputs round-trip doubles
exactly and identical runs produce identical bytes.
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
# rows per `_float_block` call, which bounds its temporaries
BLOCK_ROWS = 2048


def _lines(prefix: str, sep: str, a: np.ndarray) -> str:
    """One line per row of `a`: `prefix`, then the row's numbers joined by the one character `sep`.

    Ints are written with `%d`, floats as `FLOAT_FORMAT % x` writes them: by `_float_block` where
    that is fixed notation (1e-4 <= |x| < 1e17 after rounding), by that `%` for every other float.
    """
    if a.dtype.kind != "f" or not a.size:
        return ((prefix + sep.join(["%d"] * a.shape[1]) + "\n") * len(a)) % tuple(a.ravel().tolist())
    return "".join(_float_block(prefix, sep, a[i:i + BLOCK_ROWS]) for i in range(0, len(a), BLOCK_ROWS))


def _float_block(prefix: str, sep: str, a: np.ndarray) -> str:
    """`_lines` of a float array `a`: sorted by exponent, laid out with one slice per byte plane.

    k = floor(log10 |x|) is exact, as for -4 <= j <= 17 the double nearest 10^j is the least
    double >= 10^j.  Then hi + lo = |x|·10^(16-k) lies in [1e16, 1e17), exactly: Dekker's
    two-product (Numer. Math. 18, 1971), with 10^(16-k) <= 1e20 an exact double.  hi is an even
    integer (it exceeds 2^53), so D = hi + rint(lo) is the 17-digit mantissa rounded half to even,
    as the correctly rounded dtoa of `%` rounds it, and k its exponent: no double from 1e-4 to
    1e17 lies within 8 units of the 17th digit below a power of ten, so none rounds up to it.
    """
    x, cols = a.reshape(-1), a.shape[1]
    mag = np.abs(x)
    k = np.searchsorted(np.array([float(f"1e{j}") for j in range(-4, 18)]), mag, side="right") - 5
    odd = (k < -4) | (k > 16)  # written by `%`: zero, tiny, 1e17 and up, NaN, ±inf
    mag[odd], k[odd] = 1.0, 0  # before any arithmetic, which keeps numpy's warnings off
    s = np.array([float(10 ** i) for i in range(21)])[16 - k]
    hi = mag * s
    m1, s1 = mag * 134217729.0, s * 134217729.0  # 2^27 + 1 splits a double into 26-bit halves
    m1 -= m1 - mag
    s1 -= s1 - s
    lo = ((m1 * s1 - hi) + m1 * (s - s1) + (mag - m1) * s1) + (mag - m1) * (s - s1)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    exp = np.where(odd, 17, k).astype(np.int8)
    order = np.argsort(exp, kind="stable")
    exp, d = exp[order], d[order]
    bounds = np.searchsorted(exp, np.arange(-4, 19))
    # digit planes, first digit first: D // 10^i - 10·(D // 10^(i+1)) taken mod 256 is a digit
    q = (d // np.array([10 ** i for i in range(17, -1, -1)])[:, None]).astype(np.uint8)
    digits = q[1:] - q[:-1] * np.uint8(10)
    ends = np.max((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None], axis=0).astype(np.int8)
    digits += ord("0")
    # planes: a row's `prefix`, the sign, the text, then `sep` or the row's newline
    column, p = order % cols, len(prefix)
    text = np.zeros((p + 25, len(x)), np.uint8)
    text[:p] = np.where(column == 0, np.frombuffer(prefix.encode(), np.uint8)[:, None], 0)
    text[p] = np.signbit(x[order]) * np.uint8(ord("-"))
    text[-1] = np.where(column == cols - 1, ord("\n"), ord(sep))
    for e in range(-4, 17):
        t, digs = text[p + 1:, bounds[e + 4]:bounds[e + 5]], digits[:, bounds[e + 4]:bounds[e + 5]]
        if e >= 0:
            t[:e + 1], t[e + 1], t[e + 2:18] = digs[:e + 1], ord("."), digs[e + 1:]
        else:
            t[:2 - e], t[1], t[1 - e:18 - e] = ord("0"), ord("."), digs
    # kept: the integer digits, and the fraction up to its last nonzero digit
    cut = np.where(exp >= 0, np.where(ends > exp + 1, ends + 1, exp + 1), ends + 1 - exp)
    text[p + 1:-1] *= np.arange(23, dtype=np.int8)[:, None] < cut
    numbers = np.ascontiguousarray(text.T)
    words = (" ".join([FLOAT_FORMAT] * (len(x) - bounds[21])) % tuple(x[order[bounds[21]:]].tolist())).split()
    numbers[bounds[21]:, p:-1] = np.array(words, "S24").view(np.uint8).reshape(-1, 24)
    back = np.empty_like(order)
    back[order] = np.arange(len(x))
    block = np.take(numbers, back, axis=0)
    return block[block != 0].tobytes().decode("ascii")  # one mask drops the padding


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
        fh.write(",".join(header) + "\n" + _lines("", ",", rows))


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
        fh.write(_lines("v ", " ", vertices) + _lines("f ", " ", faces + 1))
