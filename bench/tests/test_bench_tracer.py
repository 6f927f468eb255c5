"""Self-tests of the benchmark's tracer, layer table and run harness.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import math
import shutil
import subprocess
import sys
import threading
import time

import pytest

import run
from layers import COUNT_METRICS, PER_LAYER_UNITS, install
from tracer import Tracer
from workloads import Invocation, _cfg, _grid

TINY = [
    Invocation("compare-wishart", "compare", _cfg("wishart", 5, (8,), 2, (0.0, 0.02), alpha=2.5),
               threads=2, n=8),
    Invocation("simulate-wigner", "simulate", _cfg("wigner", 5, (8,), 2, _grid(0.02, 3)), n=8),
    Invocation("residual", "residual",
               _cfg("wishart_nonunique", 5, (100,), 1, _grid(0.1, 21), alpha=0.5)),
    Invocation("moments-jacobi", "moments",
               _cfg("jacobi", 5, (50,), 1, _grid(0.02, 3), p=3.0, q=3.0, a=0.5)),
]


def test_restore_puts_back_every_original_binding():
    from eigenflow import flows
    from eigenflow.empirical import EmpiricalMeasureProcess

    tracer = Tracer()
    install(tracer)
    patched = list(tracer._patched)
    try:
        assert len(patched) >= 18
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        assert isinstance(EmpiricalMeasureProcess.__dict__["from_law"], staticmethod)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    assert not hasattr(flows.eigen, "__wrapped__")


def test_spans_nest_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    barrier = threading.Barrier(2, timeout=10)

    def body():
        barrier.wait()
        inner()
        time.sleep(0.01)
        inner()

    outer = tracer.wrap("outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    by_id = {s.span_id: s for s in tracer.spans}
    outers = [s for s in tracer.spans if s.name == "outer"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    assert len(outers) == 2 and len(inners) == 4
    assert all(s.parent_id == 0 for s in outers)
    assert outers[0].thread != outers[1].thread
    for s in inners:
        parent = by_id[s.parent_id]
        assert parent.name == "outer" and parent.thread == s.thread
        assert parent.start <= s.start <= s.end <= parent.end
    for o in outers:
        children = sum(s.duration for s in inners if s.parent_id == o.span_id)
        assert o.self_s == pytest.approx(o.duration - children, abs=1e-9)
        assert o.self_s >= 0.009  # the sleep between the two inner calls


def test_tracer_loses_no_update_under_thread_contention():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None, count=lambda a, k: {"hits": 1})
    node = tracer.wrap("node", lambda: leaf())
    calls, workers = 300, 6

    def hammer():
        for _ in range(calls):
            node()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tracer.calls() == {"node": calls * workers, "leaf": calls * workers}
    assert tracer.counters["hits"] == calls * workers
    assert len({s.span_id for s in tracer.spans}) == 2 * calls * workers


def _traced_run(tmp_path, name):
    bench_run = run.Run(TINY, tmp_path / name)
    metrics = run.measure(bench_run, seconds=0.01, trace=True)
    return bench_run, metrics


def test_traced_run_checks_pass_and_reports_every_layer(tmp_path):
    bench_run, metrics = _traced_run(tmp_path, "a")
    failed = [c for c in bench_run.checks if not c[1]]
    assert not failed
    names = {c[0] for c in bench_run.checks}
    assert any("traced outputs identical" in n for n in names)
    assert any("rerun outputs identical" in n for n in names)
    assert any(n.startswith("count ") for n in names)
    assert set(PER_LAYER_UNITS) <= set(metrics)
    assert math.isfinite(metrics["trace.overhead"])
    assert metrics["flows.steps"] == 2 * 20 + 2 * 20
    assert metrics["linalg.eigen.calls_per_step"] == 0.5  # wishart steps only
    assert metrics["limits.rk4_steps"] == 10 + 20


def test_counts_repeat_exactly_across_two_traced_runs(tmp_path):
    _, first = _traced_run(tmp_path, "a")
    _, second = _traced_run(tmp_path, "b")
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "law_side", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
