"""The repository benchmark: SERIALIZABLE transactions over TCP.

Usage, from the repository root::

    python3 perfbench/run.py --workload sibench --seed 1 --seconds 10 \\
        --trace 0

The launcher starts ``repro.server`` (threaded transport, default
``EngineConfig``; durable for ``orders``) in a second process, builds
the workload's database over the wire, and drives it from this process
with a closed loop of 2 client threads on 2 connections and no think
time.  Workloads are described in ``workloads.py``.

``--trace 0`` measures what a client sees and prints the end-to-end
metrics.  ``--trace 1`` runs the same load in alternating untraced and
traced slices, wraps public functions of each layer from outside
(``layers.py``), reads the ``db.obs.metrics`` registry, and prints the
per-layer metrics, including the tracing overhead and how much of the
client-observed latency the server's request spans cover.

The last line of stdout is one JSON object; a human-readable report
goes to stderr and to ``.perfbench_out/``.  The exit status is non-zero
when an output check fails or any transaction ends uncommitted.

Out of scope, and why:

* ``repro.shard`` has no wire path, and thread-per-shard fan-out on 2
  cores would measure the scheduler;
* ``repro.replication`` and ``repro.s2pl`` are not on the served path;
* modeled flush latency (``DurabilityConfig.modeled_flush_latency``)
  times a sleep, not the program, and group commit can batch at most 2
  commits over 2 connections.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Client threads, one connection each.
CLIENTS = 2
#: Servers built per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: Load before measuring, so caches fill and the first VACUUM has run.
WARMUP_S = 1.5
#: Windows per measured run.  End-to-end figures come from the
#: ``QUIET_WINDOWS`` in which the hypervisor took the least CPU time,
#: and the windows show whether bloat levels off.
WINDOWS = 20
QUIET_WINDOWS = 6
#: Printed for reading, not reported as metrics: on a shared 2-core
#: host the quartile spread of p99 over ten seeds reached 0.36 of its
#: median, more than any bound the benchmark may set.
TAIL_REPORT_ONLY = ("read_p99_ms", "write_p99_ms")
#: Alternating untraced / traced slices of a traced run.
TRACE_SLICES = 4
#: Startup plus one request must answer within this many seconds.
PROCESS_TIMEOUT_S = 60


class ServerProcess:
    """``serverproc.py`` in a child process, driven over its stdin."""

    def __init__(self, durable_dir: Optional[Path], obs: bool) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "serverproc.py")]
        if durable_dir is not None:
            cmd += ["--durable", str(durable_dir)]
        if obs:
            cmd.append("--obs")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.address = ("127.0.0.1", self._read()["port"])

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited "
                               f"(status {self.proc.wait(10)})")
        return json.loads(line)

    def call(self, op: str, **kw: Any) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(dict(kw, op=op)) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> Dict[str, Any]:
        reply = self.call("stop")
        self.proc.wait(PROCESS_TIMEOUT_S)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def build_server(workload, statements: List[str], data_dir: Optional[Path],
                 obs: bool) -> Tuple[ServerProcess, float]:
    """Launch a server and load the workload's database over the wire;
    returns the server and the seconds from launch to ready."""
    from repro.server.client import ReproClient
    if data_dir is not None:
        shutil.rmtree(data_dir, ignore_errors=True)
    start = time.perf_counter()
    server = ServerProcess(data_dir, obs)
    try:
        with ReproClient(server.address, isolation="serializable") as client:
            for sql in workload.schema():
                client.sql(sql)
            for sql in statements:
                client.run_transaction(lambda c, s=sql: c.sql(s))
            client.sql("ANALYZE")
            client.sql("VACUUM")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


def calibrate() -> float:
    """A fixed pure-Python loop; its time is printed for reading only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def cpu_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def flush_policy(durable: bool) -> str:
    if not durable:
        return "in-memory engine: no WAL, no fsync"
    from repro.config import DurabilityConfig
    d = DurabilityConfig()
    return (f"durable: fsync={'on' if d.fsync else 'off'}, "
            f"synchronous_commit={'on' if d.synchronous_commit else 'off'}, "
            f"group_commit={'on' if d.group_commit else 'off'}, "
            f"commit_delay={d.commit_delay}s, "
            f"max_dirty_pages={d.max_dirty_pages}, "
            f"modeled_flush_latency={d.modeled_flush_latency}s")


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def run_untraced(workload, args, report: Dict[str, Any]):
    from loadgen import LoadGenerator
    statements = workload.load()
    server, setup_s = build_server(workload, statements,
                                   _data_dir(workload, 0), obs=False)
    setups = [setup_s]
    try:
        gen = LoadGenerator(server.address, workload, args.seed, CLIENTS)
        gen.run(WARMUP_S)
        marks: List[Dict[str, Any]] = []

        def boundary() -> None:
            marks.append({"t": time.monotonic_ns(),
                          "stats": server.call("stats"),
                          "selects": gen.selects, "ticks": cpu_ticks()})

        boundary()
        records = gen.run(args.seconds, WINDOWS, boundary)
        boundary()
        failures = _check(workload, server, gen, records)
        stop = server.stop()
        # The other set-ups run after the measurement, so their CPU use
        # does not precede it.
        for i in range(1, SETUP_REPEATS):
            server, setup_s = build_server(workload, statements,
                                           _data_dir(workload, i), obs=False)
            setups.append(setup_s)
            server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        for i in range(SETUP_REPEATS):
            _drop_data_dir(workload, i)

    metrics, windows, notes = window_metrics(records, marks)
    metrics["server_rss_mb"] = marks[-1]["stats"]["maxrss_kb"] / 1024.0
    metrics["setup_s"] = statistics.median(setups)
    if stop["leaks"]["threads"] or stop["leaks"]["connections"]:
        failures.append(f"server leaked on stop: {stop['leaks']}")
    report["host"]["steal_frac"] = _steal(marks[0], marks[-1])
    quarter = len(windows) // 4
    first, last = (sum(w["committed"] for w in part)
                   / sum(w["seconds"] for w in part)
                   for part in (windows[:quarter], windows[-quarter:]))
    notes.append(f"steady state: txn/s in the last {quarter} windows is "
                 f"{last / first:.3f} of the first {quarter} windows'")
    report.update(setup_runs_s=setups, windows=windows, notes=notes,
                  retries=sum(r.retries for r in records),
                  failed_frac=_failed_frac(records))
    return metrics, records, failures


def window_metrics(records, marks) -> Tuple[Dict[str, float],
                                            List[Dict[str, Any]], List[str]]:
    """End-to-end rates and latencies from the run's windows.

    The figures come from the windows in which the hypervisor took the
    least CPU time from the machine (``steal`` in /proc/stat): on a
    shared host, stolen time slows every thread of both processes and
    would otherwise decide the result.  Rates are pooled over the
    ``QUIET_WINDOWS`` quietest windows; latencies are percentiles of
    the pooled samples of those windows and, when they are too few for
    the percentile, of the next quietest ones
    (:func:`summary.windowed_percentile`)."""
    from summary import windowed_percentile
    windows: List[Dict[str, Any]] = []
    latencies: List[Dict[str, List[float]]] = []
    for m0, m1 in zip(marks, marks[1:]):
        done = [r for r in records
                if r.committed and m0["t"] <= r.end_ns < m1["t"]]
        s0, s1 = m0["stats"], m1["stats"]
        seconds = (m1["t"] - m0["t"]) / 1e9
        cpu_ms = (s1["cpu_s"] - s0["cpu_s"]) * 1e3
        windows.append({
            "committed": len(done), "seconds": seconds, "cpu_ms": cpu_ms,
            "txn_per_s": len(done) / seconds,
            "cpu_ms_per_txn": cpu_ms / max(1, len(done)),
            "tuples_read_per_select":
                (s1["metrics"]["engine.tuples_read"]
                 - s0["metrics"]["engine.tuples_read"])
                / max(1, m1["selects"] - m0["selects"]),
            "steal_frac": _steal(m0, m1)})
        latencies.append({
            label: [(r.end_ns - r.start_ns) / 1e6 for r in done
                    if r.read_only == read_only]
            for label, read_only in (("read", True), ("write", False))})
    order = sorted(range(len(windows)),
                   key=lambda k: windows[k]["steal_frac"])
    quiet = sorted(order[:QUIET_WINDOWS])
    for k in quiet:
        windows[k]["used"] = True
    committed = sum(windows[k]["committed"] for k in quiet)
    metrics = {
        "txn_per_s": committed / sum(windows[k]["seconds"] for k in quiet),
        "cpu_ms_per_txn": sum(windows[k]["cpu_ms"] for k in quiet)
        / max(1, committed)}
    notes = [f"rates from windows {quiet} (least stolen CPU time)"]
    for label in ("read", "write"):
        per_window = [w[label] for w in latencies]
        for name, p in ((f"{label}_p50_ms", 50.0), (f"{label}_p95_ms", 95.0),
                        (f"{label}_p99_ms", 99.0)):
            value, how = windowed_percentile(per_window, p, order,
                                             QUIET_WINDOWS)
            if name in TAIL_REPORT_ONLY:
                notes.append(f"{name} (report only): {value:.3f} ms, {how}")
            else:
                metrics[name] = value
                notes.append(f"{name}: {how}")
    return metrics, windows, notes


def _steal(m0: Dict[str, Any], m1: Dict[str, Any]) -> float:
    """Share of the machine's CPU time the hypervisor took between two
    boundaries."""
    return ((m1["ticks"][0] - m0["ticks"][0])
            / max(1, m1["ticks"][1] - m0["ticks"][1]))


def _failed_frac(records) -> float:
    return sum(not r.committed for r in records) / max(1, len(records))


def _check(workload, server, gen, records) -> List[str]:
    """Output checks: every transaction committed, then the workload's
    invariants over the final database."""
    from repro.server.client import ReproClient
    failures = [f"{r.kind}: {r.error}" for r in records if not r.committed]
    gen.close()
    with ReproClient(server.address, isolation="serializable") as client:
        failures += workload.check(client)
    return failures


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def run_traced(workload, args, report: Dict[str, Any]):
    from loadgen import LoadGenerator
    from spans import Tracer
    from summary import join_requests
    server, _setup_s = build_server(workload, workload.load(),
                                    _data_dir(workload, 0), obs=True)
    client_tracer = Tracer()
    traced_records: List[Any] = []
    untraced_records: List[Any] = []
    traced_s = untraced_s = 0.0
    delta: Dict[str, float] = {}
    try:
        gen = LoadGenerator(server.address, workload, args.seed, CLIENTS)
        gen.run(WARMUP_S)
        slice_s = args.seconds / TRACE_SLICES
        for k in range(TRACE_SLICES):
            if k % 2 == 0:
                t0 = time.monotonic()
                untraced_records += gen.run(slice_s)
                untraced_s += time.monotonic() - t0
                continue
            before = server.call("stats")
            costs = server.call("trace_on")["wrapper_ns"]
            saved = _client_wrappers_on(client_tracer)
            t0 = time.monotonic()
            traced_records += gen.run(slice_s)
            traced_s += time.monotonic() - t0
            _client_wrappers_off(saved)
            server.call("trace_off")
            after = server.call("stats")
            for key, value in after["metrics"].items():
                delta[key] = (delta.get(key, 0)
                              + value - before["metrics"].get(key, 0))
        delta["sireads.peak"] = after["metrics"].get("sireads.peak", 0)
        spans_path = OUT / f"spans-{workload.name}.jsonl"
        dump = server.call("trace_dump", path=str(spans_path))
        failures = _check(workload, server, gen,
                          untraced_records + traced_records)
        server.stop()
        server = None
    finally:
        if server is not None:
            server.kill()
        _drop_data_dir(workload, 0)

    roots = {(c, n): (s, e) for c, n, s, e in dump["roots"]}
    committed = [r for r in traced_records if r.committed]
    join = join_requests(((r.conn_id, r.first_request, r.last_request,
                           r.start_ns, r.end_ns) for r in committed), roots)
    tps_traced = len(committed) / traced_s
    tps_untraced = sum(r.committed for r in untraced_records) / untraced_s
    metrics, zero_reasons = layer_metrics(
        workload, dump["totals"], client_tracer.totals(), delta,
        traced_records)
    metrics.update({
        "trace.overhead_frac": 1.0 - tps_traced / tps_untraced,
        "trace.light_wrapper_ns": costs["light"],
        "trace.span_wrapper_ns": costs["span"],
        "trace.coverage": join["coverage"],
        "trace.join_missing": float(join["missing"] + join["outside"]),
    })
    report.update(join=join, spans_file=str(spans_path),
                  spans_recorded=dump["spans"],
                  txn_per_s_untraced=tps_untraced,
                  txn_per_s_traced=tps_traced, zero_reasons=zero_reasons,
                  self_ms_per_txn={
                      name: (v["self_ns"] / 1e6 / max(1, len(committed)),
                             v["calls"] / max(1, len(committed)))
                      for name, v in sorted(dump["totals"].items())},
                  failed_frac=_failed_frac(untraced_records
                                           + traced_records))
    if join["missing"] or join["outside"]:
        failures.append(f"span join: {join}")
    return metrics, untraced_records + traced_records, failures


def _client_wrappers_on(tracer):
    from repro.server import protocol
    saved = [(name, getattr(protocol, name))
             for name in ("encode_frame", "decode_frame")]
    for name, fn in saved:
        setattr(protocol, name, tracer.light("client.codec", fn))
    return saved


def _client_wrappers_off(saved) -> None:
    from repro.server import protocol
    for name, fn in saved:
        setattr(protocol, name, fn)


def layer_metrics(workload, totals, client_totals, delta, records
                  ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer numbers from the traced slices.  Times are self time
    in ms per committed transaction."""
    from repro.errors import AbortCause
    from summary import ratio
    n = sum(r.committed for r in records)
    attempts = sum(1 + r.retries for r in records)

    def ms(*names: str, source=totals) -> float:
        return sum(source.get(name, {}).get("self_ns", 0)
                   for name in names) / 1e6 / n

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def d(key: str) -> float:
        return delta.get(key, 0)

    m = {
        "server.decode_ms": ms("server.decode"),
        "server.encode_ms": ms("server.encode"),
        "server.send_ms": ms("server.send"),
        "server.queue_wait_ms": ms("server.queue_wait"),
        "server.latch_wait_ms": ms("server.latch_wait"),
        "server.latch_park_ms": ms("server.latch_park"),
        "server.latch_bow_ms": ms("server.latch_bow"),
        "server.latch_bows_per_txn": calls("server.latch_bow") / n,
        "server.requests_per_txn": calls("server.request") / n,
        "sql.parse_ms": ms("sql.parse"),
        "sql.parse_cache_hit_ratio": ratio(
            d("perf.parse_cache_hits"),
            d("perf.parse_cache_hits") + d("perf.parse_cache_misses")),
        "sql.execute_self_ms": ms("sql.execute"),
        "engine.plan_ms": ms("engine.plan"),
        "engine.plan_cache_hit_ratio": ratio(
            d("perf.plan_cache_hits"),
            d("perf.plan_cache_hits") + d("perf.plan_cache_misses")),
        "engine.scan_ms": ms("engine.scan"),
        "engine.tuples_read_per_txn": d("engine.tuples_read") / n,
        "engine.pages_touched_per_txn": d("pages.touched") / n,
        "engine.write_ms": ms("engine.write"),
        "engine.txn_boundary_ms": ms("engine.txn_boundary"),
        "engine.vacuum_ms": ms("engine.vacuum"),
        "mvcc.hint_hit_ratio": ratio(d("perf.hint_hits"),
                                     calls("mvcc.visibility")),
        "mvcc.vismap_skips_per_scan": ratio(d("perf.vismap_skips"),
                                            calls("engine.scan")),
        "ssi.read_ms": ms("ssi.read"),
        "ssi.siread_fastpath_ratio": ratio(d("perf.siread_fastpath_hits"),
                                           d("engine.tuples_read")),
        "ssi.safe_snapshot_ratio": ratio(
            d("ssi.safe_snapshots"),
            d("ssi.safe_snapshots") + d("ssi.unsafe_snapshots")),
        "ssi.sireads_peak": d("sireads.peak"),
        "ssi.commit_ms": ms("ssi.commit"),
        "ssi.conflicts_per_ktxn": d("ssi.conflicts_flagged") * 1e3 / n,
        "ssi.dangerous_structures_per_ktxn":
            d("ssi.dangerous_structures") * 1e3 / n,
        "ssi.useful_ratio": n / attempts,
        "locks.acquire_ms": ms("locks.acquire"),
        "locks.wait_ms": d("locks.wait_ns.sum") / 1e6 / n,
        "locks.deadlocks": d("locks.deadlocks"),
        "durable.wal_append_ms": ms("durable.wal_append"),
        "durable.wal_flush_ms": ms("durable.wal_flush"),
        "durable.fsync_ms": ms("durable.fsync"),
        "durable.fsyncs_per_commit": d("durable.wal_fsyncs") / n,
        "durable.wal_bytes_per_txn": d("durable.wal_end_lsn") / n,
        "durable.page_writebacks_per_ktxn":
            d("durable.page_writebacks") * 1e3 / n,
        "durable.checkpoints": d("durable.checkpoints"),
        "client.retries_per_txn": sum(r.retries for r in records) / n,
        "client.codec_ms": ms("client.codec", source=client_totals),
    }
    for cause in AbortCause:
        m[f"ssi.aborts_per_ktxn.{cause.value}"] = (
            d(f"ssi.aborts{{cause={cause.value}}}") * 1e3 / n)
    from repro.config import DurabilityConfig
    reasons = {}
    for name, value in m.items():
        if value:
            continue
        if name.startswith("durable.") and not workload.durable:
            reasons[name] = "engine is in-memory on this workload"
        elif (name == "durable.checkpoints"
              and not DurabilityConfig().checkpoint_wal_bytes):
            reasons[name] = ("automatic checkpoints are off "
                             "(DurabilityConfig.checkpoint_wal_bytes = 0)")
        else:
            reasons[name] = "no such event in the traced slices"
    return m, reasons


# ----------------------------------------------------------------------
def _data_dir(workload, i: int) -> Optional[Path]:
    if not workload.durable:
        return None
    return OUT / f"data-{os.getpid()}-{i}"


def _drop_data_dir(workload, i: int) -> None:
    path = _data_dir(workload, i)
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(WORKLOADS)})")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    report: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "flush_policy": flush_policy(workload.durable),
                 "calibration_s_start": calibrate()},
    }
    runner = run_traced if args.trace else run_untraced
    metrics, records, failures = runner(workload, args, report)
    report["host"]["calibration_s_end"] = calibrate()
    report["checks"] = failures or ["all passed"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": sum(not r.committed for r in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    report["result"] = result
    _print_report(report)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def _print_report(report: Dict[str, Any]) -> None:
    err = sys.stderr
    host = report["host"]
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}", file=err)
    print(f"  host: nproc={host['nproc']} python={host['python']} "
          f"calibration loop {host['calibration_s_start']:.3f}s at start, "
          f"{host.get('calibration_s_end', 0):.3f}s at end", file=err)
    print(f"  flush policy: {host['flush_policy']}", file=err)
    if "steal_frac" in host:
        print(f"  cpu time stolen by the hypervisor while measuring: "
              f"{host['steal_frac']:.3f}", file=err)
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:38s} {m['value']:14.4f} {m['unit']}", file=err)
    print(f"  failed_frac {report.get('failed_frac', 0):.4f} "
          f"(transactions ending uncommitted / attempted)", file=err)
    for note in report.get("notes", []):
        print(f"  {note}", file=err)
    for k, w in enumerate(report.get("windows", [])):
        print(f"  window {k}: {w['txn_per_s']:.1f} txn/s, "
              f"{w['tuples_read_per_select']:.1f} tuples read per SELECT, "
              f"{w['steal_frac']:.3f} steal"
              + (", used" if w.get("used") else ""), file=err)
    if "setup_runs_s" in report:
        print("  setup runs: " + ", ".join(
            f"{s:.3f}s" for s in report["setup_runs_s"]), file=err)
    if "join" in report:
        print(f"  span join: {report['join']}", file=err)
        print(f"  txn/s untraced {report['txn_per_s_untraced']:.1f}, "
              f"traced {report['txn_per_s_traced']:.1f}", file=err)
        for name, (ms, calls) in report["self_ms_per_txn"].items():
            print(f"  per txn: {name:24s} self {ms:8.4f} ms "
                  f"in {calls:8.2f} calls", file=err)
        for name, why in report["zero_reasons"].items():
            print(f"  zero: {name}: {why}", file=err)
    for line in report["checks"]:
        print(f"  check: {line}", file=err)


if __name__ == "__main__":
    sys.exit(main())
