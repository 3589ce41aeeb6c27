"""Run one benchmark workload (or all) and print its metrics.

    python3 perfbench/run.py --workload {certify36,loop36,radial1000,all}
        --seed N --seconds S --trace {0,1} [--out FILE]

Each ``main()`` call runs in a fresh Python process (worker.py), one after
another, so the loop is closed: the next call starts when the previous one
has ended. Calls repeat until the next one would end after ``--seconds``;
set-up is then sampled by extra calls that stop when the loop would start,
until there are ``SETUP_SAMPLES`` of it. Every metric is the median over a
run's calls.

With ``--trace 1`` the calls come in pairs, one untraced and one traced on
the same input; the pair's trajectories must be byte-identical. The
per-layer metrics are the medians over the traced calls, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Every call's outputs are checked (workloads.check_outputs). The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
metric names and units come from BENCHMARK.json. ``--out`` appends the
result, its samples and the run metadata to a JSON-lines file, which
steady.py compares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads
from workloads import ROOT, WORK

WORKER = os.path.join(workloads.HERE, "worker.py")
SETUP_SAMPLES = 7
# a workload's run must end within 180 s; a call that would run past this is cut
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
REQUIRED = ("src/opftrack/cli.py", "data/config36.json", "data/feeder36.json", "BENCHMARK.json")


class Call:
    """One worker process: its parsed output and the problems found."""

    def __init__(
        self, mode: str, workload: str, gen_seed: int, work: str, tag: str, limit: float,
        reference: dict,
    ):
        self.mode = mode
        out_dir = os.path.join(work, f"out-{tag}")
        self.cfg = workloads.run_config(workload, gen_seed, out_dir)
        cfg_path = os.path.join(work, f"config-{tag}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=2)
        self.spans_path = os.path.join(work, f"spans-{tag}.jsonl")
        self.problems: list[str] = []
        self.data: dict = {}
        argv = [sys.executable, WORKER, mode, workload, cfg_path, self.spans_path]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=limit
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} call exceeded {limit:.0f} s")
            return
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{mode} worker exited {proc.returncode}: {tail[0]}")
            return
        self.data = json.loads(lines[-1])
        if self.data["rc"] != 0:
            self.problems.append(f"main() returned exit code {self.data['rc']}")
        elif mode in ("run", "trace"):
            try:
                self.problems += workloads.check_outputs(workload, self.cfg, reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self.problems.append(f"outputs unreadable: {exc!r}")

    def trajectory_sha(self) -> str:
        path = os.path.join(self.cfg["output_dir"], "trajectory.csv")
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def worker_env() -> dict:
    """The caller's environment, with BLAS thread counts capped at nproc."""
    env = dict(os.environ)
    nproc = os.cpu_count() or 1
    for key in BLAS_ENV:
        if key in env and env[key].isdigit() and int(env[key]) > nproc:
            env[key] = str(nproc)
    return env


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """All calls of one workload; returns samples, counts and metadata."""
    t_start = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    calls: list[Call] = []

    def call(mode: str, repeat: int, tag: str) -> Call:
        limit = max(5.0, RUN_LIMIT_S - (time.perf_counter() - t_start))
        gen_seed = workloads.generator_seed(seed, repeat)
        c = Call(mode, workload, gen_seed, work, tag, limit, reference)
        calls.append(c)
        return c

    def budget_left(t0: float, n: int) -> bool:
        elapsed = time.perf_counter() - t0
        return elapsed + elapsed / n <= seconds

    samples: dict[str, list[float]] = {}
    layer_runs: list[dict] = []
    try:
        if workload == "radial1000":
            prep = Call("prepare", workload, 0, work, "prepare", RUN_LIMIT_S, reference)
            if prep.problems:
                raise RuntimeError(f"{workload}: writing the feeder failed: {prep.problems[0]}")
        t0 = time.perf_counter()
        n = 0
        while True:
            plain = call("run", n, f"{n}-run")
            _collect(samples, plain)
            if trace:
                traced = call("trace", n, f"{n}-trace")
                if not traced.problems:
                    if not plain.problems and traced.trajectory_sha() != plain.trajectory_sha():
                        traced.problems.append("traced trajectory.csv differs from untraced")
                    spans = tracing.read_spans(traced.spans_path)
                    layer_runs.append(tracing.layer_metrics(spans))
                    samples.setdefault("traced_wall_s", []).append(traced.data["wall_s"])
                    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
                    shutil.copyfile(
                        traced.spans_path, os.path.join(WORK, "traces", f"{workload}.spans.jsonl")
                    )
            n += 1
            if not budget_left(t0, n):
                break
        while not trace and len(samples.get("setup_s", [])) < SETUP_SAMPLES:
            probe = call("setup", n, f"{n}-setup")
            _collect(samples, probe)
            n += 1
            if probe.problems:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{c.cfg['generator']['seed']}: {p}" for c in calls for p in c.problems]
    return {
        "workload": workload,
        "samples": samples,
        "layers": layer_runs,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.problems),
        "problems": problems,
        "generator_seeds": sorted({c.cfg["generator"]["seed"] for c in calls}),
        "import_s": [c.data["import_s"] for c in calls if "import_s" in c.data],
        "versions": next((c.data["versions"] for c in calls if "versions" in c.data), {}),
    }


def _collect(samples: dict, c: Call) -> None:
    if c.problems:
        return
    d = c.data
    samples.setdefault("setup_s", []).append(d["setup_s"])
    if c.mode == "run":
        samples.setdefault("wall_s", []).append(d["wall_s"])
        samples.setdefault("peak_rss_mb", []).append(d["peak_rss_mb"])


def metric_values(res: dict, trace: bool) -> dict[str, float]:
    """Median of each metric over the run's calls."""
    if not trace:
        return {k: statistics.median(v) for k, v in res["samples"].items()}
    if not res["layers"]:
        return {}
    out = tracing.median_metrics(res["layers"])
    s = res["samples"]
    if s.get("wall_s"):
        out["trace.overhead_s"] = statistics.median(s["traced_wall_s"]) - statistics.median(s["wall_s"])
    return out


def print_table(res: dict, values: dict, spec: list[dict], trace: bool) -> None:
    print(f"== {res['workload']}  (generator seeds {res['generator_seeds']})")
    n_by_metric = {k: len(v) for k, v in res["samples"].items()}
    for m in spec:
        name = m["name"]
        if name not in values:
            continue
        n = len(res["layers"]) if trace else n_by_metric[name]
        line = f"  {name:44s} {values[name]:14.6g} {m['unit']:6s} n={n}"
        if not trace and n >= 2:
            q = statistics.quantiles(res["samples"][name], n=4)
            line += f"  q1={q[0]:.6g} q3={q[2]:.6g}"
        print(line)
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'fail_ratio':44s} {ratio:14.6g} {'1':6s} n={res['attempted']}")
    for p in res["problems"]:
        print(f"  FAILED {p}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="append the result and its samples to this JSON-lines file")
    args = p.parse_args(argv)
    # end by SystemExit so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [f for f in REQUIRED if not os.path.isfile(os.path.join(ROOT, f))]
    if missing:
        print(f"error: not an opftrack checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    reference = workloads.load_reference()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in names:
        try:
            res = run_workload(w, args.seed, args.seconds, bool(args.trace), reference)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        values = metric_values(res, bool(args.trace))
        print_table(res, values, spec, bool(args.trace))
        results.append((res, values))

    metrics: dict[str, dict] = {}
    for res, values in results:
        prefix = f"{res['workload']}." if args.workload == "all" else ""
        for m in spec:
            if m["name"] in values:
                metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    complete = all(m["name"] in v for _, v in results for m in spec)
    final = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    meta = {
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "versions": results[0][0]["versions"],
        "nproc": os.cpu_count(),
        "blas_env": {k: worker_env().get(k) for k in BLAS_ENV},
        "workloads": {
            r["workload"]: {"generator_seeds": r["generator_seeds"], "import_s": r["import_s"]}
            for r, _ in results
        },
    }
    print(json.dumps({"meta": meta}))
    if args.out:
        record = {
            "result": final,
            "meta": meta,
            "values": {r["workload"]: v for r, v in results},
            "samples": {r["workload"]: r["samples"] for r, _ in results},
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
