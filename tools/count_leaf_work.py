#!/usr/bin/env python3
"""Solver work and closure of the two figure leaves, fig4 (n = 2) and fig6 (n = 11).

Run from the root of a checkout:

    python3 tools/count_leaf_work.py

It runs `heisgeo foliate --config configs/fig4.ini` and `fig6.ini` into a
temporary directory and prints one JSON line with each leaf JSON's `nfev`,
`steps`, `rejected` (on commits that write it) and `closure_residual`, as
`fig4_nfev`, `fig4_steps`, and so on, and `scipy_modules`, the number of
scipy modules loaded once both leaves are traced.  Every value is
deterministic.  It reads only the leaf JSON, so it runs on any commit that
has the two configs.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli  # noqa: E402

KEYS = ("nfev", "steps", "rejected", "closure_residual")


def main() -> int:
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fig in ("fig4", "fig6"):
            base = os.path.join(tmp, fig)
            code = cli.main(["foliate", "--config", f"configs/{fig}.ini", "--output", base])
            if code != 0:
                return code
            leaf = json.loads(Path(base + ".json").read_text())
            counts.update({f"{fig}_{key}": leaf[key] for key in KEYS if key in leaf})
    counts["scipy_modules"] = sum(name.split(".")[0] == "scipy" for name in sys.modules)
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
