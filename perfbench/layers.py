"""Outside-in instrumentation: wrap public functions of each layer.

Nothing here edits the program.  :class:`LayerTrace` replaces
attributes on the program's classes and modules with
:class:`spans.Tracer` wrappers while tracing is on and puts the
originals back when it is turned off.  Span names are
``<layer>.<boundary>``; the layer is the ``repro`` package the
function lives in.

The request root span (``server.request``) runs across two threads:
the connection's reader thread decodes the frame, its worker thread
handles the request and sends the response.  It is assembled from the
decode times, kept per payload object, and the worker's
handle-and-send, and its children are ``server.decode``,
``server.queue_wait`` (decode end to handling start), ``server.handle``
and ``server.send``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

from spans import Tracer

_MISSING = object()


def _targets() -> List[Tuple[Any, str, str, str]]:
    """``(owner, attribute, span name, wrapper kind)`` for every boundary.

    ``light`` marks per-tuple entry points (self time and count only),
    ``counted`` per-tuple entry points that are only counted."""
    from repro.engine import executor as engine_executor
    from repro.engine.database import Database
    from repro.engine.latches import EngineLatch
    from repro.engine.planner import Planner
    from repro.engine.session import Session
    from repro.locks.manager import LockManager
    from repro.server import protocol
    from repro.sql import executor as sql_executor
    from repro.ssi.lockmgr import SIReadLockManager
    from repro.ssi.manager import SSIManager
    from repro.storage.durable.io import DurableIO
    from repro.storage.durable.manager import DurabilityManager
    from repro.storage.durable.walfile import WALFile

    out = [
        (protocol, "encode_frame", "server.encode", "span"),
        (EngineLatch, "acquire", "server.latch_wait", "span"),
        (EngineLatch, "park", "server.latch_park", "span"),
        (EngineLatch, "bow", "server.latch_bow", "light"),
        (sql_executor, "parse", "sql.parse", "span"),
        (sql_executor.SQLSession, "execute", "sql.execute", "span"),
        (Planner, "plan_scan", "engine.plan", "span"),
        (Database, "vacuum", "engine.vacuum", "span"),
        (engine_executor, "tuple_visibility", "mvcc.visibility", "counted"),
        (SSIManager, "on_read_tuple", "ssi.read", "light"),
        (SSIManager, "read_page_covered", "ssi.read", "light"),
        (SSIManager, "precommit_check", "ssi.commit", "span"),
        (SSIManager, "commit", "ssi.commit", "span"),
        (LockManager, "acquire", "locks.acquire", "span"),
        (WALFile, "append", "durable.wal_append", "span"),
        (WALFile, "flush", "durable.wal_flush", "span"),
        (DurableIO, "fsync", "durable.fsync", "span"),
        (DurabilityManager, "_write_back", "durable.writeback", "span"),
    ]
    out += [(Session, name, "engine.scan", "span")
            for name in ("select", "scan_rows", "scan_aggregate",
                         "select_for_update")]
    out += [(Session, name, "engine.write", "span")
            for name in ("insert", "update", "delete")]
    out += [(Session, name, "engine.txn_boundary", "span")
            for name in ("begin", "commit", "rollback")]
    out += [(SIReadLockManager, name, "ssi.read", "light")
            for name in ("acquire_tuple", "acquire_page", "acquire_relation",
                         "acquire_index_page", "acquire_index_key",
                         "acquire_index_infinity", "acquire_index_relation")]
    return out


class LayerTrace:
    """Installs and removes the server-side wrappers."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []
        #: id(payload) -> (decode start, decode end), reader -> worker.
        self._decoded: Dict[int, Tuple[int, int]] = {}

    @property
    def on(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self.on:
            return
        from repro.server import protocol
        from repro.server.connection import ConnectionCore, ThreadedConnection
        tracer = self.tracer
        make = {"span": tracer.span, "light": tracer.light,
                "counted": tracer.counted}
        for owner, attr, name, kind in _targets():
            self._patch(owner, attr, make[kind](name, getattr(owner, attr)))
        self._patch(protocol, "decode_frame",
                    self._decode_wrapper(protocol.decode_frame))
        self._patch(ConnectionCore, "handle_request",
                    self._handle_wrapper(ConnectionCore.handle_request))
        self._patch(ThreadedConnection, "send", self._send_wrapper(
            tracer.span("server.send", ThreadedConnection.send)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []
        self._decoded.clear()

    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        # Inherited methods are shadowed on the subclass and later
        # deleted, so the base class is never touched.
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _decode_wrapper(self, fn: Callable) -> Callable:
        decoded = self._decoded
        clock = self.tracer.clock

        def decode_frame(line: bytes) -> Dict[str, Any]:
            start = clock()
            payload = fn(line)
            decoded[id(payload)] = (start, clock())
            return payload

        return decode_frame

    def _handle_wrapper(self, fn: Callable) -> Callable:
        tracer = self.tracer
        decoded = self._decoded
        handle = tracer.span("server.handle", fn)
        clock = tracer.clock

        def handle_request(core, payload):
            st = tracer.state()
            now = clock()
            if st.stack and st.stack[-1][0] == "server.request":
                _close_root(tracer, st, now)  # a request that sent nothing
            start, end = decoded.pop(id(payload), (now, now))
            rid = (core.conn_id, payload.get("id"))
            st.rid = rid
            root = tracer.new_sid(st)
            # The root frame stays open across handle and send; decode
            # and queue wait ran before it on the reader thread.
            st.stack.append(["server.request", start, now - start, root])
            tracer.record(st, tracer.new_sid(st), root, "server.decode",
                          start, end, end - start, rid)
            tracer.record(st, tracer.new_sid(st), root, "server.queue_wait",
                          end, now, now - end, rid)
            return handle(core, payload)

        return handle_request

    def _send_wrapper(self, send: Callable) -> Callable:
        """Close the request root once the response is on the wire."""
        tracer = self.tracer

        def traced_send(conn, payload):
            try:
                return send(conn, payload)
            finally:
                st = tracer.state()
                if st.stack and st.stack[-1][0] == "server.request":
                    _close_root(tracer, st, tracer.clock())

        return traced_send


def _close_root(tracer: Tracer, st, end: int) -> None:
    name, start, child, sid = st.stack.pop()
    tracer.record(st, sid, None, name, start, end, (end - start) - child,
                  st.rid)
    st.rid = None


def wrapper_cost_ns(calls: int = 200_000) -> Dict[str, float]:
    """Added cost per call of each wrapper kind, in ns, measured on a
    function that does nothing (on a throwaway tracer, so nothing is
    recorded into the run's spans)."""

    def noop(x):
        return x

    tracer = Tracer()
    out: Dict[str, float] = {}
    base = _time_calls(noop, calls)
    for kind in ("light", "span", "counted"):
        wrapped = getattr(tracer, kind)("calibration", noop)
        out[kind] = max(0.0, (_time_calls(wrapped, calls) - base) / calls)
    return out


def _time_calls(fn: Callable, calls: int) -> int:
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for i in range(calls):
            fn(i)
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best
