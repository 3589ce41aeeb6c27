"""Record the summary figures every output check compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each named workload (default: all) once for every generator seed of
the pool and writes its figures into ``reference.json``, keeping the
entries of the other workloads. Run it only when a change is meant to move the
figures, and say so in the change: the recorded values are what makes a
wrong answer count as a failed run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import workloads
from run import RUN_LIMIT_S, Call


def main() -> int:
    os.makedirs(workloads.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=workloads.WORK)
    table = workloads.load_reference() if os.path.exists(workloads.REFERENCE) else {}
    try:
        for w in sys.argv[1:] or workloads.WORKLOADS:
            if w == "radial1000":
                Call("prepare", w, 0, work, "prepare", RUN_LIMIT_S, None)
            figures = {}
            for g in range(workloads.POOL):
                c = Call("run", w, g, work, f"{w}-{g}", RUN_LIMIT_S, None)
                if c.problems:
                    print(f"{w} seed {g}: {c.problems}", file=sys.stderr)
                    return 1
                with open(os.path.join(c.cfg["output_dir"], "summary.json"), encoding="utf-8") as fh:
                    figures[str(g)] = workloads.reference_figures(json.load(fh))
                print(w, g, figures[str(g)], flush=True)
            table[w] = figures
            with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
