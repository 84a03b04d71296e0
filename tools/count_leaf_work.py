#!/usr/bin/env python3
"""Solver work and closure of the two figure leaves, fig4 (n = 2) and fig6 (n = 11).

Run from the root of a checkout:

    python3 tools/count_leaf_work.py

It runs `heisgeo foliate --config configs/fig4.ini` and `fig6.ini` into a
temporary directory and prints one JSON line with each leaf JSON's `nfev`,
`steps`, `rejected` (on commits that write it) and `closure_residual`, as
`fig4_nfev`, `fig4_steps`, and so on, and `scipy_modules`, the number of
scipy modules loaded once both leaves are traced.  `fig4_map_calls` and
`fig6_map_calls` count the calls to the torus's three maps in each run,
with `cli.torus_surface` returning the torus rebuilt by
`dataclasses.replace` around counting maps, as `perfbench/tracer.py`
rebuilds it.  Every value is deterministic.  Apart from that wrapper it
reads only the leaf JSON, so it runs on any commit that has the two configs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli  # noqa: E402

KEYS = ("nfev", "steps", "rejected", "closure_residual")
MAPS = ("position", "tangent_u", "tangent_v")


def counting_torus(calls: list):
    """`cli.torus_surface` whose torus adds one to calls[0] per map call."""
    build = cli.torus_surface

    def counted(f):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return f(*args, **kwargs)
        return wrapper

    def torus_surface(*args, **kwargs):
        S = build(*args, **kwargs)
        return dataclasses.replace(S, **{name: counted(getattr(S, name)) for name in MAPS})

    return torus_surface


def main() -> int:
    counts = {}
    calls = [0]
    cli.torus_surface = counting_torus(calls)
    with tempfile.TemporaryDirectory() as tmp:
        for fig in ("fig4", "fig6"):
            base = os.path.join(tmp, fig)
            calls[0] = 0
            code = cli.main(["foliate", "--config", f"configs/{fig}.ini", "--output", base])
            if code != 0:
                return code
            leaf = json.loads(Path(base + ".json").read_text())
            counts.update({f"{fig}_{key}": leaf[key] for key in KEYS if key in leaf})
            counts[f"{fig}_map_calls"] = calls[0]
    counts["scipy_modules"] = sum(name.split(".")[0] == "scipy" for name in sys.modules)
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
