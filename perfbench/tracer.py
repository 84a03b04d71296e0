"""Span recorder for the traced benchmark pass.

Spans are recorded from outside the package: while `Tracer.patched()` is
active, the names that one layer looks up in another are replaced by
timing wrappers, and the original objects are put back on exit.  Nothing
under `src/` changes.  The layer boundaries wrapped are

* the names `heisgeo.cli` imports from the other modules (scene
  constructors, `stokes_residual`, `trace_foliation`, `detect_period`,
  lifts and curve diagnostics, the writers and `surface_mesh`);
* `adaptive_integrate_2d` and `boundary_integral` as `heisgeo.integrate`
  sees them, with timers on the integrand, the support feature and the
  boundary one-form they receive;
* the position and tangent callables of every surface a scene constructor
  returns, rebuilt with `dataclasses.replace`;
* `contact` as `heisgeo.forms` sees it (batched calls from the integrand)
  and `contact` and `frame_norm` as `heisgeo.foliation` sees them (scalar
  calls from the leaf solver).

Every wrapped call is a span with a layer, a name, start and end times, its
parent span and the number of points it evaluated.  Calls on a single point
(the leaf solver's right-hand side makes tens of thousands) are folded into
one record per (parent, name) so the trace stays small.  A span's self time
is its duration minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
from contextlib import contextmanager
from functools import partial
from time import perf_counter

import numpy as np

LAYERS = ("cli", "integrate", "quadrature", "forms", "surfaces",
          "foliation", "curves", "core", "export")

# (name, layer) of call boundaries in `heisgeo.cli` that are only timed
_PLAIN = (
    ("stokes_residual", "integrate"),
    ("detect_period", "foliation"),
    ("lemniscate", "curves"),
    ("lift_horizontal", "curves"),
    ("horizontality_residual", "curves"),
    ("self_intersection_gap", "curves"),
    ("torus_characteristic_loop", "surfaces"),
    ("surface_mesh", "export"),
)
_WRITERS = ("write_csv", "write_json", "write_obj")
_SURFACE_CONSTRUCTORS = ("vertical_halfplane", "lift_cylinder", "revolve_curve", "torus_surface")
_SURFACE_MAPS = ("position", "tangent_u", "tangent_v")


# points evaluated by one call: (u, v) parameter arrays, or (..., 3) group points
def _params(u, v):
    return np.size(u)


def _base_points(p, v):
    return np.size(p) // 3


def _pair_points(p, v):
    return max(np.size(p), np.size(v)) // 3


class _Stat:
    __slots__ = ("calls", "seconds", "self_s", "points", "child")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_s = 0.0
        self.points = 0
        self.child = dict.fromkeys(LAYERS, 0.0)   # time of child spans by layer


class Tracer:
    """In-memory spans plus per-(layer, name) totals and counters."""

    def __init__(self):
        self.spans = []     # [id, parent, layer, name, start, end, points]
        self.folded = {}    # (parent, layer, name) -> [calls, seconds]
        self.stats = {}     # (layer, name) -> _Stat
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = {"foliation.rhs_calls": 0, "foliation.steps": 0, "export.bytes": 0}
        # open spans as [id, child seconds, child seconds by layer or None]
        self._stack = [[None, 0.0, None]]
        self._next_id = 0

    def call(self, layer, name, fn, args, kwargs, points=0):
        """Run fn(*args, **kwargs) as a span of `layer`."""
        parent = self._stack[-1]
        frame = [self._next_id, 0.0, None]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            seconds = end - start
            own = seconds - frame[1]
            parent[1] += seconds
            if parent[2] is None:
                parent[2] = dict.fromkeys(LAYERS, 0.0)
            parent[2][layer] += seconds
            self.self_s[layer] += own
            stat = self.stats.get((layer, name))
            if stat is None:
                stat = self.stats[(layer, name)] = _Stat()
            stat.calls += 1
            stat.seconds += seconds
            stat.self_s += own
            stat.points += points
            if frame[2] is not None:
                for key, value in frame[2].items():
                    stat.child[key] += value
            if points == 1:
                rec = self.folded.get((parent[0], layer, name))
                if rec is None:
                    rec = self.folded[(parent[0], layer, name)] = [0, 0.0]
                rec[0] += 1
                rec[1] += seconds
            else:
                self.spans.append([frame[0], parent[0], layer, name, start, end, points])

    def stat(self, layer, name) -> _Stat:
        return self.stats.get((layer, name)) or _Stat()

    # -- wrappers ---------------------------------------------------------

    def _timed(self, layer, name, fn, count=None):
        """fn as a span of `layer`; count(*args) is the number of points of a call."""
        def wrapper(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, count(*args) if count else 0)
        return wrapper

    def _writer(self, name, fn):
        def wrapper(path, *args, **kwargs):
            out = self.call("export", name, fn, (path,) + args, kwargs)
            self.counts["export.bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def _trace_foliation(self, fn):
        def wrapper(*args, **kwargs):
            trace = self.call("foliation", "trace_foliation", fn, args, kwargs)
            stats = getattr(trace, "step_stats", {})
            self.counts["foliation.rhs_calls"] += int(stats.get("nfev", 0))
            self.counts["foliation.steps"] += int(stats.get("steps", 0))
            return trace
        return wrapper

    def timed_surface(self, S):
        """The same surface with timed position and tangent callables."""
        return dataclasses.replace(S, **{
            name: self._timed("surfaces", name, getattr(S, name), _params)
            for name in _SURFACE_MAPS})

    def _surface_constructor(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.timed_surface(self.call("surfaces", name, fn, args, kwargs))
        return wrapper

    def _with_timed_args(self, layer, name, fn, timed_args):
        """Wrap fn so that the callables it receives as `timed_args` are timed too.

        `timed_args` maps a parameter name to (layer, name, count) as in `_timed`.
        """
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for arg, timed in timed_args.items():
                if bound.arguments.get(arg) is not None:
                    bound.arguments[arg] = self._timed(*timed[:2], bound.arguments[arg], timed[2])
            return self.call(layer, name, fn, bound.args, bound.kwargs)
        return wrapper

    def _wrappers(self):
        """(module, name, make_wrapper) for every boundary; make_wrapper(original)."""
        cli = importlib.import_module("heisgeo.cli")
        integrate = importlib.import_module("heisgeo.integrate")
        forms = importlib.import_module("heisgeo.forms")
        foliation = importlib.import_module("heisgeo.foliation")
        for name, layer in _PLAIN:
            yield cli, name, partial(self._timed, layer, name)
        for name in _WRITERS:
            yield cli, name, partial(self._writer, name)
        for name in _SURFACE_CONSTRUCTORS:
            yield cli, name, partial(self._surface_constructor, name)
        yield cli, "trace_foliation", self._trace_foliation
        yield integrate, "adaptive_integrate_2d", lambda fn: self._with_timed_args(
            "quadrature", "adaptive_integrate_2d", fn,
            {"f": ("forms", "integrand", _params), "feature": ("quadrature", "feature", _params)})
        yield integrate, "boundary_integral", lambda fn: self._with_timed_args(
            "integrate", "boundary_integral", fn, {"form": ("forms", "boundary_form", _base_points)})
        yield forms, "contact", lambda fn: self._timed("core", "forms.contact", fn, _pair_points)
        for name in ("contact", "frame_norm"):
            yield foliation, name, partial(self._timed, "core", f"foliation.{name}", count=_pair_points)

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block.

        A boundary whose name a module no longer has is skipped, and its
        metrics read 0.
        """
        saved = []
        try:
            for module, name, make_wrapper in self._wrappers():
                if hasattr(module, name):
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, make_wrapper(original))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def dump(self) -> dict:
        """Spans and folded single-point calls, for writing out at the end."""
        return {
            "fields": ["id", "parent", "layer", "name", "start", "end", "points"],
            "spans": self.spans,
            "folded": [
                {"parent": parent, "layer": layer, "name": name, "calls": calls, "seconds": seconds}
                for (parent, layer, name), (calls, seconds) in self.folded.items()
            ],
        }


def _per(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float, cpu_s: float) -> dict:
    """Per-layer numbers of one traced cycle: metric name -> (value, unit).

    `traced_wall` is the traced cycle's elapsed time, `untraced_wall` and
    `cpu_s` the untraced wall and CPU time of the same operations.
    """
    integrand = tr.stat("forms", "integrand")
    adaptive = tr.stat("quadrature", "adaptive_integrate_2d")
    maps = [tr.stat("surfaces", name) for name in _SURFACE_MAPS]
    map_s = sum(s.seconds for s in maps)
    scalar_core = [tr.stat("core", "foliation.contact"), tr.stat("core", "foliation.frame_norm")]
    core_calls = sum(s.calls for s in scalar_core)
    forms_contact = tr.stat("core", "forms.contact")
    forms_eval = integrand.seconds - integrand.child["surfaces"]
    trace_s = tr.stat("foliation", "trace_foliation").seconds
    rhs_calls = tr.counts["foliation.rhs_calls"]
    ops_wall = tr.stat("cli", "main").seconds
    m = {
        "forms.eval_s": (forms_eval, "s"),
        "forms.eval_us_per_pt": (_per(forms_eval, integrand.points, 1e6), "us/pt"),
        "surfaces.map_s": (map_s, "s"),
        "surfaces.map_us_per_pt": (_per(map_s, maps[0].points, 1e6), "us/pt"),
        "surfaces.map_calls": (sum(s.calls for s in maps), "count"),
        "quadrature.pts_per_form": (_per(integrand.points, adaptive.calls), "pt"),
        "quadrature.integrand_calls": (integrand.calls, "count"),
        "quadrature.bookkeeping_s": (adaptive.self_s, "s"),
        "quadrature.bookkeeping_share": (_per(adaptive.self_s, adaptive.seconds), "ratio"),
        "quadrature.feature_s": (tr.stat("quadrature", "feature").seconds, "s"),
        "integrate.stokes_s": (tr.stat("integrate", "stokes_residual").seconds, "s"),
        "integrate.boundary_s": (tr.stat("integrate", "boundary_integral").seconds, "s"),
        "integrate.boundary_pts": (tr.stat("forms", "boundary_form").points, "pt"),
        "foliation.trace_s": (trace_s, "s"),
        "foliation.rhs_calls": (rhs_calls, "count"),
        "foliation.steps": (tr.counts["foliation.steps"], "count"),
        "foliation.us_per_rhs": (_per(trace_s, rhs_calls, 1e6), "us"),
        "foliation.detect_s": (tr.stat("foliation", "detect_period").seconds, "s"),
        "core.calls": (core_calls, "count"),
        "core.us_per_call": (_per(sum(s.seconds for s in scalar_core), core_calls, 1e6), "us"),
        "core.us_per_pt": (_per(forms_contact.seconds, forms_contact.points, 1e6), "us/pt"),
        "curves.lift_s": (tr.stat("curves", "lift_horizontal").seconds, "s"),
        "curves.gap_s": (tr.stat("curves", "self_intersection_gap").seconds, "s"),
        "export.write_s": (sum(tr.stat("export", name).seconds for name in _WRITERS), "s"),
        "export.bytes": (tr.counts["export.bytes"], "B"),
        "export.mesh_s": (tr.stat("export", "surface_mesh").seconds, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - sum(tr.self_s.values()), "s")
    m["trace.overhead"] = (ops_wall / untraced_wall - 1.0, "ratio")
    m["cpu_s"] = (cpu_s, "s")
    return m


# counts that must repeat exactly at a fixed seed
DETERMINISTIC = (
    "surfaces.map_calls", "quadrature.pts_per_form", "quadrature.integrand_calls",
    "integrate.boundary_pts", "foliation.rhs_calls", "foliation.steps",
    "core.calls", "export.bytes",
)
