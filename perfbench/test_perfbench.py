"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from layers import LayerTrace  # noqa: E402
from spans import Tracer  # noqa: E402
from summary import (join_requests, nearest_rank, tail_percentile,  # noqa: E402
                     windowed_percentile)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990, 1000)
    # One sample fewer leaves only 9 beyond p99: fall back to p98.
    assert tail_percentile(values[:999]) == (98.0, 980, 999)


def test_percentile_falls_back_to_median_then_gives_up():
    assert tail_percentile(range(20)) == (50.0, 9, 20)
    assert tail_percentile(range(19)) is None


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert tail_percentile(values) == tail_percentile(sorted(values))
    assert nearest_rank(sorted(values), 50.0) == 3.0


def test_windowed_percentile_adds_quietest_windows_until_supported():
    windows = [list(range(1, 101)), list(range(101, 201)),
               list(range(201, 301))]
    assert windowed_percentile(windows, 50.0, [2, 0, 1], 2) == (
        100, "p50 of 200 samples from windows [0, 2]")
    # 200 samples leave 8 beyond p96: add the next window, whose 300
    # samples leave 12.
    assert windowed_percentile(windows, 96.0, [2, 0, 1], 2) == (
        288, "p96 of 300 samples from windows [0, 1, 2]")
    # No number of windows supports p99: the highest percentile all 300
    # samples support is p95 (15 beyond; p98 leaves 6).
    assert windowed_percentile(windows, 99.0, [2, 0, 1], 2) == (
        285, "p95 of 300 samples from all windows")


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def _fake_clock(step: int = 10):
    return itertools.count(0, step).__next__


def test_span_self_time_excludes_children():
    tracer = Tracer(clock=_fake_clock())

    def leaf():
        return "leaf"

    traced_leaf = tracer.span("leaf", leaf)

    def parent():
        return traced_leaf(), traced_leaf()

    assert tracer.span("parent", parent)() == ("leaf", "leaf")
    by_name = {s[2]: s for s in tracer.spans()}
    parent_span = by_name["parent"]
    leaves = [s for s in tracer.spans() if s[2] == "leaf"]
    # Each leaf reads the clock twice, 10 apart.
    assert all(s[4] - s[3] == 10 and s[5] == 10 for s in leaves)
    assert all(s[1] == parent_span[0] for s in leaves)
    duration = parent_span[4] - parent_span[3]
    assert parent_span[5] == duration - 20
    totals = tracer.totals()
    assert totals["leaf"] == {"self_ns": 20, "calls": 2}
    assert totals["parent"]["self_ns"] == duration - 20


def test_light_and_counted_wrappers_feed_totals_without_spans():
    tracer = Tracer(clock=_fake_clock())
    counted = tracer.counted("tuple", lambda x: x)
    light = tracer.light("read", lambda: [counted(i) for i in range(3)])
    outer = tracer.span("scan", lambda: light())
    assert outer() == [0, 1, 2]
    assert [s[2] for s in tracer.spans()] == ["scan"]
    totals = tracer.totals()
    assert totals["tuple"] == {"self_ns": 0, "calls": 3}
    assert totals["read"] == {"self_ns": 10, "calls": 1}
    scan = tracer.spans()[0]
    assert scan[5] == (scan[4] - scan[3]) - 10


def test_self_time_survives_an_exception():
    tracer = Tracer(clock=_fake_clock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("outer", tracer.span("inner", boom))()
    assert tracer.totals()["inner"] == {"self_ns": 10, "calls": 1}
    assert tracer.state().stack == []


def test_layer_trace_restores_every_attribute():
    from repro.engine.latches import EngineLatch, Latch
    from repro.engine.session import Session
    from repro.server import protocol
    before = (EngineLatch.__dict__.get("acquire"), Session.select,
              protocol.decode_frame, protocol.encode_frame)
    layers = LayerTrace(Tracer())
    layers.install()
    assert Session.select is not before[1]
    assert "acquire" in EngineLatch.__dict__
    layers.uninstall()
    assert "acquire" not in EngineLatch.__dict__
    assert EngineLatch.acquire is Latch.acquire
    after = (EngineLatch.__dict__.get("acquire"), Session.select,
             protocol.decode_frame, protocol.encode_frame)
    assert after == before


# ----------------------------------------------------------------------
# cross-process span join
# ----------------------------------------------------------------------
def test_join_counts_coverage_missing_and_misplaced_spans():
    roots = {(1, 2): (110, 130), (1, 3): (140, 150), (2, 2): (500, 600)}
    txns = [(1, 2, 3, 100, 200),      # both requests found, inside
            (2, 2, 2, 100, 200),      # span starts after the txn ended
            (3, 2, 2, 100, 120)]      # no server span at all
    out = join_requests(txns, roots)
    assert out == {"coverage": (20 + 10) / 220, "matched": 3,
                   "missing": 1, "outside": 1}


def test_join_coverage_counts_overlapping_spans_once():
    # The first span ends (sendall returned) after the client read the
    # response and sent the next request; the last outlives the txn.
    roots = {(1, 1): (110, 160), (1, 2): (150, 215)}
    out = join_requests([(1, 1, 2, 100, 200)], roots)
    assert out["outside"] == 0 and out["coverage"] == 90 / 100


def test_server_request_spans_join_client_transactions(tmp_path):
    """End to end across two processes: every request of every client
    transaction finds its server root span, inside the client's
    interval, through (conn_id, request position)."""
    import time
    from repro.server.client import ReproClient
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "serverproc.py")], cwd=ROOT, env=env,
        text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def call(op, **kw):
        proc.stdin.write(json.dumps(dict(kw, op=op)) + "\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    try:
        port = json.loads(proc.stdout.readline())["port"]
        client = ReproClient(("127.0.0.1", port)).connect()
        client.sql("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        call("trace_on")
        txns = []
        for k in range(5):
            first, start = client._next_id + 1, time.monotonic_ns()
            client.run_transaction(
                lambda c, k=k: c.sql(f"INSERT INTO t (k, v) VALUES ({k}, 0)"))
            txns.append((client.hello["conn_id"], first, client._next_id,
                         start, time.monotonic_ns()))
        call("trace_off")
        dump = call("trace_dump", path=str(tmp_path / "spans.jsonl"))
        client.close()
        assert call("stop")["leaks"] == {"threads": [], "connections": []}
        assert proc.wait(30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    roots = {(c, n): (s, e) for c, n, s, e in dump["roots"]}
    out = join_requests(txns, roots)
    assert out["matched"] == 15 and out["missing"] == 0
    assert out["outside"] == 0 and 0 < out["coverage"] <= 1
    names = {json.loads(line)[2]
             for line in (tmp_path / "spans.jsonl").read_text().splitlines()}
    assert {"server.request", "server.decode", "server.queue_wait",
            "server.handle", "server.send", "sql.parse",
            "engine.write"} <= names


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def test_sibench_check_catches_an_unaccounted_update():
    from repro.engine.database import Database
    from repro.server import ReproServer, ServerConfig
    from repro.server.client import ReproClient
    from workloads import SIBench
    workload = SIBench(seed=3)
    with ReproServer(Database(), ServerConfig(port=0)) as server:
        with ReproClient(server.address) as client:
            for sql in workload.schema() + workload.load():
                client.sql(sql)
            assert workload.check(client) == []
            client.sql("UPDATE sibench SET v = v + 1 WHERE k = 7")
            assert len(workload.check(client)) == 1


def test_workload_inputs_come_from_the_seed():
    import random
    from workloads import WORKLOADS
    for name, cls in WORKLOADS.items():
        a, b, c = cls(seed=1), cls(seed=1), cls(seed=2)
        assert a.load() == b.load(), name
        assert a.load() != c.load(), name
        kinds = []
        for w in (a, b):
            rng = random.Random(5)
            state = w.thread_state(0)
            kinds.append([w.next_txn(rng, state).kind for _ in range(50)])
        assert kinds[0] == kinds[1], name
