#!/usr/bin/env python3
"""Numbers and bytes that the six figure runs write, and the time their writers take.

Run from the root of a checkout:

    python3 tools/count_export_work.py

It runs `heisgeo COMMAND --config configs/figN.ini` for the six figure
configs into a temporary directory, RUNS times each in this process, with
`write_csv` and `write_obj` wrapped where `heisgeo.cli` looks them up.  For
each figure it reports, from the first run:

* `floats`: the floats handed to the two writers;
* `outside`: how many of them `%.17g` does not write in fixed notation
  with a nonzero digit (zero, NaN, ±inf, and a 17-digit rounding whose
  decimal exponent lies outside [-4, 16]), read from the arrays with
  `%.16e`;
* `ints`: the ints handed to them (OBJ face indices);
* `bytes`: the size of the CSV and OBJ files they wrote.

These are deterministic.  Apart from them, `write_s` holds per figure the
median over the RUNS runs of the seconds spent inside the two writers, and
`minflt_per_call` the median over the runs after the first of the minor
page faults of this process (`resource.getrusage`) around each run.
The last line of standard output is one JSON object, {"counts": {fig:
{...}}, "write_s": {fig: seconds}, "minflt_per_call": {fig: faults}}.  It
reads only the writers' arguments and outputs, so it runs on any commit
whose CLI calls `write_csv` and `write_obj` by those names.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

from heisgeo import cli  # noqa: E402

FIGURES = (("fig1", "lift"), ("fig2", "lift"), ("fig3", "export-mesh"),
           ("fig4", "foliate"), ("fig5", "export-mesh"), ("fig6", "foliate"))
RUNS = 5


def _outside(values: np.ndarray) -> int:
    """Floats that `%.17g` writes other than in fixed notation with a nonzero digit."""
    count = 0
    for x in values.ravel().tolist():
        text = "%.16e" % x
        count += x == 0.0 or "e" not in text or not -4 <= int(text.split("e")[1]) <= 16
    return count


def main() -> int:
    counts, write_s, minflt = {}, {}, {}
    writers = {"write_csv": cli.write_csv, "write_obj": cli.write_obj}
    calls = []

    def wrapped(name):
        def writer(path, *args):
            start = time.perf_counter()
            writers[name](path, *args)
            calls.append((name, time.perf_counter() - start, path, args))
        return writer

    for name in writers:
        setattr(cli, name, wrapped(name))
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for fig, command in FIGURES:
                seconds, faults = [], []
                for run in range(RUNS):
                    calls.clear()
                    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    code = cli.main([command, "--config", f"configs/{fig}.ini", "--output", os.path.join(tmp, fig)])
                    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                    if code != 0:
                        return code
                    seconds.append(sum(call[1] for call in calls))
                    if run == 0:
                        floats = [np.asarray(call[3][-1] if call[0] == "write_csv" else call[3][0], dtype=float)
                                  for call in calls]
                        counts[fig] = {
                            "floats": sum(a.size for a in floats),
                            "outside": sum(_outside(a) for a in floats),
                            "ints": sum(np.asarray(call[3][1]).size for call in calls if call[0] == "write_obj"),
                            "bytes": sum(os.path.getsize(call[2]) for call in calls),
                        }
                write_s[fig] = round(statistics.median(seconds), 6)
                minflt[fig] = statistics.median(faults[1:])
    finally:
        for name, fn in writers.items():
            setattr(cli, name, fn)
    print(json.dumps({"counts": counts, "write_s": write_s, "minflt_per_call": minflt}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
