"""One ``opftrack.cli.main(["run", ...])`` call in a fresh Python process.

Usage: python3 perfbench/worker.py {run|setup|trace|prepare} WORKLOAD CONFIG [SPANS]

- ``run``: time ``main()`` and the start of the CLI's call to
  ``run_closed_loop``.
- ``setup``: stop ``main()`` when it reaches ``run_closed_loop`` and time
  the part before it, so set-up can be sampled without running the loop.
- ``trace``: rebind the layer functions (see tracing.py), run ``main()``
  and write the spans to SPANS.
- ``prepare``: write the radial1000 feeder with ``save_feeder``.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class _Stop(Exception):
    """Ends a sampling call early; none of main()'s handlers catch it."""


def _import_package():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy
    import scipy

    import opftrack.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(opftrack.__file__).startswith(SRC + os.sep):
        raise ImportError(f"opftrack imported from {opftrack.__file__}, not {SRC}")
    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    return opftrack, import_s, versions


def main(argv: list[str]) -> int:
    mode, workload, config = argv[:3]
    opftrack, import_s, versions = _import_package()
    cli = opftrack.cli
    out: dict = {"mode": mode, "rc": 0, "import_s": import_s, "versions": versions}
    if mode == "prepare":
        sys.path.insert(0, HERE)
        import workloads

        workloads.write_radial_feeder()
        print(json.dumps(out))
        return 0

    marks: dict[str, float] = {}
    if mode in ("run", "setup"):
        inner = cli.run_closed_loop

        def timed_loop(*args, **kwargs):
            marks["loop_start"] = time.perf_counter()
            if mode == "setup":
                raise _Stop
            return inner(*args, **kwargs)

        cli.run_closed_loop = timed_loop
    elif mode == "trace":
        sys.path.insert(0, HERE)
        from tracing import MAIN_SPAN, Tracer

        tracer = Tracer(run_id=f"{workload}-{os.getpid()}")
        tracer.install(opftrack)
        entry = tracer.wrap(MAIN_SPAN, cli.main)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    log = io.StringIO()
    t0 = time.perf_counter()
    rc = None
    with contextlib.redirect_stdout(log):
        try:
            rc = (entry if mode == "trace" else cli.main)(["run", "--config", config])
        except _Stop:
            rc = 0
    t1 = time.perf_counter()

    out["rc"] = rc
    out["wall_s"] = t1 - t0
    if mode == "trace":
        tracer.write(argv[3])
    elif rc == 0:
        out["setup_s"] = marks["loop_start"] - t0
        if mode == "run":
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
