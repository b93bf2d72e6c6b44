"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import math
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


def _span(name, start, end, parent=None, thread=1, is_async=False):
    return tracing.Span(name=name, start=start, end=end, parent=parent,
                        thread=thread, is_async=is_async)


def test_self_times_on_a_hand_built_tree():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 5.0, 9.0, root)
    leaf = _span("leaf", 6.0, 7.0, b)
    other_thread = _span("elsewhere", 2.0, 8.0, root, thread=2)
    waiting = _span("request", 0.5, 9.5, root, is_async=True)
    spans = [root, a, b, leaf, other_thread, waiting]

    selfs = tracing.self_times(spans)
    assert selfs[root] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[a] == pytest.approx(3.0)
    assert selfs[b] == pytest.approx(4.0 - 1.0)
    assert selfs[leaf] == pytest.approx(1.0)
    assert waiting not in selfs  # async spans are latencies, not work

    acct = tracing.account(spans, wall=12.0, thread=1)
    assert acct["self"] == pytest.approx(
        {"root": 3.0, "a": 3.0, "b": 3.0, "leaf": 1.0}
    )
    assert acct["unattributed"] == pytest.approx(2.0)
    assert acct["error"] == pytest.approx(0.0)


def test_overlapping_children_are_counted_once():
    root = _span("root", 0.0, 10.0)
    spans = [root, _span("x", 1.0, 5.0, root), _span("x", 3.0, 6.0, root)]
    assert tracing.self_times(spans)[root] == pytest.approx(10.0 - 5.0)


def test_wrap_records_nesting_and_restores_originals():
    class Layer:
        def outer(self):
            time.sleep(0.002)
            return self.inner() + 1

        def inner(self):
            time.sleep(0.002)
            return 1

        @classmethod
        def build(cls):
            return cls()

    tracer = tracing.Tracer()
    originals = dict(vars(Layer))
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "build", "build")
    assert Layer.build().outer() == 2
    tracer.uninstall()
    assert all(vars(Layer)[k] is originals[k] for k in ("outer", "inner", "build"))

    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent is by_name["outer"]
    assert by_name["outer"].parent is None
    selfs = tracing.self_times(tracer.spans)
    assert selfs[by_name["outer"]] == pytest.approx(
        by_name["outer"].duration - by_name["inner"].duration
    )


# ----------------------------------------------------------------------
# Open-loop accounting
# ----------------------------------------------------------------------


def test_a_stalled_request_delays_the_requests_due_after_it():
    stall = 0.08
    stall_end: list[float] = []

    async def handle(reader, writer):
        await reader.read()
        if not stall_end:
            time.sleep(stall)  # blocks the loop, as a CPU-bound handler does
            stall_end.append(asyncio.get_running_loop().time())
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

    bodies = iter((i, b"x") for i in range(10_000))
    phase = asyncio.run(loadgen.run_phase(
        handle, bodies, rate=400.0, duration=0.3, rng=random.Random(1)
    ))
    first = phase.requests[0]
    during = [r for r in phase.requests[1:] if r.due < stall_end[0]]
    assert during, "no request fell due during the stall"
    for r in during:
        # Timed from when it was due, so the stall counts in full.
        assert r.latency >= (stall_end[0] - r.due) - 1e-3
        assert r.late > 0
    assert first.latency >= stall
    assert all(r.status == 200 for r in phase.requests)


def test_poisson_schedule_is_seeded_and_in_range():
    one = loadgen.poisson_schedule(100.0, 2.0, random.Random(7))
    two = loadgen.poisson_schedule(100.0, 2.0, random.Random(7))
    assert one == two
    assert all(0 <= t < 2.0 for t in one)
    assert 150 < len(one) < 250


def test_typical_sums_each_units_median():
    assert harness.typical([[1.0, 2.0, 9.0], [4.0]]) == 6.0


def test_speed_probe_slowdown_covers_the_samples_since():
    probe = harness.SpeedProbe()
    probe.samples[:] = [1.0, 1.0, 3.0 * probe.REF_S, 5.0 * probe.REF_S]
    assert probe.slowdown(2) == pytest.approx(4.0 ** probe.SENSITIVITY)
    probe.sample()
    assert len(probe.samples) == 5 and probe.samples[-1] > 0


def test_speed_probe_records_cpu_other_threads_use_during_it():
    probe = harness.SpeedProbe()
    probe.sample()
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    worker = threading.Thread(target=spin)
    worker.start()
    try:
        probe.sample()
    finally:
        stop.set()
        worker.join()
    assert probe.foreign[-1] > probe.FOREIGN_CPU_LIMIT * probe.samples[-1]
    assert gc.isenabled()


def test_peak_rss_restarts_from_the_current_rss_when_reset():
    start = harness.reset_peak_rss()
    block = bytearray(64 * 1024 * 1024)
    block[::4096] = b"x" * len(block[::4096])  # touch every page
    high = harness.peak_rss_mb()
    assert high >= start + 60
    del block
    again = harness.reset_peak_rss()
    assert again < high - 30
    assert harness.peak_rss_mb() < high - 30


def test_tail_picks_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 1001))
    assert harness.tail(values) == (99.0, 990)
    assert harness.tail(values[:100])[0] == 90.0
    assert harness.tail([5.0, 1.0]) == (50.0, 1.0)
    assert math.isinf(harness.percentile([1.0, float("inf")], 99))


# ----------------------------------------------------------------------
# Tiny-scale smoke runs of every workload, traced, with their checks
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployed():
    return harness.train_deployed()


def _tiny(cls):
    workload = cls()
    for attr, value in {
        "BATCH": 30, "CHECK_SAMPLE": 3, "POOL": 300, "ZONE": 80, "JOBS": 30,
        "LABELS": 3, "LIGHT_S": 0.1, "NOMINAL_S": 0.1, "WARMUP_N": 32, "SEQUENTIAL_N": 8,
        "SATURATE_N": 32,
    }.items():
        if hasattr(workload, attr):
            setattr(workload, attr, value)
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_run(name, deployed, tmp_path):
    workload = _tiny(workloads.WORKLOADS[name])
    kwargs = {"workdir": tmp_path} if name == "survey_ingest" else {}
    workload.setup(deployed, 3, **kwargs)
    tracer = tracing.Tracer()
    hooks = workload.trace_hooks(tracer) if hasattr(workload, "trace_hooks") else {}
    layers.install(tracer, **hooks)
    try:
        started = time.perf_counter()
        m = workload.measure(1.5, harness.SpeedProbe(), tracer)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    workload.finish(m)
    assert workload.check(m) == []
    assert m.attempted >= 1 and m.failed == 0
    for value in (m.rate_rps, m.latency_ms, m.line_error):
        assert math.isfinite(value) and value > 0

    thread = (
        workload.work_thread(tracer) if hasattr(workload, "work_thread")
        else threading.get_ident()
    )
    per_layer = layers.layer_metrics(tracer, thread=thread, wall=wall)
    self_total = sum(per_layer[metric] for metric in layers.SELF_TIME_METRICS.values())
    self_total += per_layer["survey.parse_s"]
    assert self_total + per_layer["trace.unattributed_s"] == pytest.approx(wall, rel=0.01)
    # The layer the workload exists to exercise did work.
    busy = {
        "bulk_parse": "parser.bulk.encode_s",
        "serve_parse": "parser.bulk.encode_s",
        "survey_ingest": "resilience.gate_s",
        "warm_retrain": "crf.train.objective_s",
    }[name]
    assert per_layer[busy] > 0
    declared = {
        m_["name"] for m_ in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    assert set(per_layer) | set(m.extras) <= declared | {"trace.overhead_frac"}


def test_checks_catch_a_wrong_parse(deployed):
    workload = _tiny(workloads.BulkParse)
    workload.setup(deployed, 4)
    m = workload.measure(0.1, harness.SpeedProbe())
    broken = m.evidence["samples"][0][0][0]
    m.evidence["samples"][0][0][0] = dataclasses.replace(
        broken, registrar="Not The Registrar"
    )
    assert workload.check(m)


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------


def test_entry_point_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "bulk_parse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
