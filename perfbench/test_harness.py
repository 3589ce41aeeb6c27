"""Smoke test of the benchmark harness; runs no workload."""

import json
import os
import shutil
import subprocess
import sys
import types

import steady
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _span(name, start, end, parent, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t", **attrs}


def test_layer_metrics_match_the_benchmark_and_derive_self_time():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("sim.run_closed_loop", 1.0, 7.0, 0),
        _span("powerflow.solve_ac", 1.0, 1.5, 1, iters=3, residual=1e-10),
        _span("powerflow.solve_ac", 3.0, 3.5, 1, iters=5, residual=2e-10),
        _span("controller.primal_step", 4.0, 5.0, 1),
        _span("sim.write_trajectory", 8.0, 9.0, 0, bytes=1234),
    ]
    m = tracing.layer_metrics(spans)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [x["name"] for x in json.load(fh)["per_layer"]]
    assert sorted(m) == sorted(n for n in names if n != "trace.overhead_s")
    assert m["cli.self_s"] == 3.0
    assert m["sim.run_closed_loop.self_s"] == 4.0
    assert m["sim.step_ms_p50"] == 2000.0
    assert m["powerflow.solve_ac.iters_total"] == 8
    assert m["powerflow.solve_ac.residual_max"] == 2e-10
    assert m["sim.write_trajectory.bytes"] == 1234
    assert m["controller.solve_saddle_oracle.calls"] == 0


def test_tracer_rebinds_every_site_and_nests_spans(monkeypatch):
    def inner(x):
        return x + 1

    def outer(x):
        return pkg.feeder.inner(x) * 2

    mods = {s: types.SimpleNamespace() for s in tracing.SITES}
    mods["feeder"].inner = inner
    mods["sim"].outer = mods["cli"].outer = outer
    pkg = types.SimpleNamespace(**mods)
    monkeypatch.setattr(tracing, "TRACED", (("feeder", "inner", None), ("sim", "outer", None)))
    tracer = tracing.Tracer("t")
    tracer.install(pkg)
    assert pkg.cli.outer(1) == 4
    assert [s["name"] for s in tracer.spans] == ["sim.outer", "feeder.inner"]
    assert tracer.spans[1]["parent"] == 0


def test_spread_is_interquartile_range_over_median():
    assert steady.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert abs(steady.spread([8.0, 9.0, 10.0, 11.0, 12.0]) - 0.3) < 1e-12
    assert steady.parse_seeds("3-5") == [3, 4, 5]


def test_generator_seeds_stay_in_the_recorded_pool():
    seeds = {workloads.generator_seed(s, r) for s in range(-5, 100) for r in range(8)}
    assert seeds == set(range(workloads.POOL))


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop36", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
