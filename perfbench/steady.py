"""Steadiness of the benchmark: repeat runs over seeds and compare two sets.

    python3 perfbench/steady.py run --workload loop36 --seeds 1-10 --seconds 30 --out A.jsonl
    python3 perfbench/steady.py compare A.jsonl [B.jsonl]

``run`` calls run.py once per seed (untraced) and appends each result to
``--out``. ``compare`` takes, per workload and end-to-end metric, the
median of the runs' values and their spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median. With two sets of runs of one commit, a metric *agrees* when
both spreads and the change of the median stay within the metric's bound in
BENCHMARK.json, and is *unresolved* otherwise; the spread of ``setup_s`` is
shown but not judged. ``steady`` marks spreads below a third of the bound.
Exits 1 when any metric is unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNJUDGED_SPREAD = {"setup_s"}


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,8"``."""
    if "-" in text.strip("-"):
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def load_values(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value of each run]}}`` from a run.py --out file."""
    out: dict[str, dict[str, list[float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if not rec["result"]["correct"]:
                print(f"warning: {path}: a run of seed {rec['meta']['seed']} failed its checks")
            for workload, values in rec["values"].items():
                for name, value in values.items():
                    out.setdefault(workload, {}).setdefault(name, []).append(value)
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(paths: list[str], bench: dict) -> int:
    sets = [load_values(p) for p in paths]
    unresolved = 0
    header = f"{'workload':11s} {'metric':17s} {'bound':>5s}"
    for i in range(len(sets)):
        header += f" {'median' + str(i + 1):>11s} {'spread' + str(i + 1):>8s} {'n':>3s}"
    if len(sets) == 2:
        header += f" {'change':>8s}  verdict"
    print(header)
    for workload in sorted(sets[0]):
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            runs = [s.get(workload, {}).get(name, []) for s in sets]
            if not all(runs):
                continue
            line = f"{workload:11s} {name:17s} {bound:5.2f}"
            ok = True
            for values in runs:
                sp = spread(values)
                line += f" {statistics.median(values):11.5g} {sp:8.3f} {len(values):3d}"
                if name not in UNJUDGED_SPREAD and not sp <= bound:
                    ok = False
            if len(sets) == 2:
                a, b = (statistics.median(v) for v in runs)
                change = (b - a) / a
                ok = ok and abs(change) <= bound
                line += f" {change:+8.3f}  {'agree' if ok else 'unresolved'}"
            steady = all(spread(v) < bound / 3 for v in runs)
            line += "  steady" if steady else ""
            if not ok:
                unresolved += 1
                if len(sets) == 1:
                    line += "  spread over bound"
            print(line)
    return 1 if unresolved else 0


def run_sets(args) -> int:
    for seed in parse_seeds(args.seeds):
        for workload in args.workload:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                "--out", args.out,
            ]
            with subprocess.Popen(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            ) as proc:
                try:
                    out, err = proc.communicate()
                except BaseException:
                    # SIGTERM lets run.py stop its own worker before it exits
                    proc.terminate()
                    proc.wait()
                    raise
            last = out.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0]}", flush=True)
            if proc.returncode != 0:
                print(err, file=sys.stderr)
                return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the benchmark once per seed")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="spread of one set, or agreement of two")
    c.add_argument("files", nargs="+")
    args = p.parse_args(argv)
    # end by SystemExit so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.command == "run":
        return run_sets(args)
    if len(args.files) > 2:
        p.error("compare takes one or two files")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return compare(args.files, bench)


if __name__ == "__main__":
    sys.exit(main())
