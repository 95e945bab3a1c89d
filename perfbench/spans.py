"""In-memory span recorder used by the traced benchmark run.

A :class:`Tracer` wraps callables from outside the program.  Each
wrapped call is timed on its own thread's stack, so a span's *self
time* is its duration minus the time its children on the same thread
took.  Three wrapper kinds exist:

* ``span`` -- records one span (name, start, end, parent span, request
  id, self time) per call; used at per-request and per-statement
  boundaries;
* ``light`` -- only accumulates self time and a call count, recording
  no span; used at per-tuple entry points, where one span per call
  would cost more than the work it times.  Its time still comes off
  the enclosing span's self time;
* ``counted`` -- only counts calls, for the hottest per-tuple entry
  points.

Spans stay in memory (one list per thread) until :meth:`Tracer.spans`
collects them at the end of a run.  A request id is ``(conn_id, n)``:
the connection id the server hands out in its hello response and the
request's position on that connection, which is how client-side and
server-side spans of one transaction are joined across processes.
Clocks are ``time.monotonic_ns`` on both sides, which on Linux reads
the same system-wide clock in every process.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

RequestId = Tuple[int, int]

#: A recorded span: (sid, parent_sid, name, start_ns, end_ns, self_ns,
#: request id).  ``sid`` is ``(thread slot, n)`` and unique per tracer.
Span = Tuple[Tuple[int, int], Optional[Tuple[int, int]], str, int, int, int,
             Optional[RequestId]]


class _ThreadState:
    __slots__ = ("slot", "stack", "spans", "self_ns", "calls", "next_sid",
                 "rid")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        #: Open frames: [name, start_ns, child_ns, sid-or-None].
        self.stack: List[list] = []
        self.spans: List[Span] = []
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.next_sid = 0
        #: Request the thread is serving (set by the request wrapper).
        self.rid: Optional[RequestId] = None


class Tracer:
    """Per-thread span stacks plus the wrappers that feed them."""

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        #: Shared call counts of ``counted`` wrappers.
        self._counts: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._states_lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    def new_sid(self, st: _ThreadState) -> Tuple[int, int]:
        st.next_sid += 1
        return (st.slot, st.next_sid)

    def record(self, st: _ThreadState, sid, parent, name: str, start: int,
               end: int, self_ns: int, rid: Optional[RequestId]) -> None:
        """Record a span built by the caller (cross-thread spans such as
        the request root, whose parts ran on two threads)."""
        st.spans.append((sid, parent, name, start, end, self_ns, rid))
        st.self_ns[name] = st.self_ns.get(name, 0) + self_ns
        st.calls[name] = st.calls.get(name, 0) + 1

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn``: every call records one span named ``name``."""
        local, state, clock = self._local, self.state, self.clock

        def traced(*args: Any, **kw: Any) -> Any:
            try:
                st = local.st
            except AttributeError:
                st = state()
            stack = st.stack
            st.next_sid += 1
            sid = (st.slot, st.next_sid)
            parent = None
            for frame in reversed(stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
            frame = [name, clock(), 0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self_ns = dur - frame[2]
                st.spans.append((sid, parent, name, frame[1], end, self_ns,
                                 st.rid))
                st.self_ns[name] = st.self_ns.get(name, 0) + self_ns
                st.calls[name] = st.calls.get(name, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def light(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-tuple entry point: self time and call count only."""
        local, state, clock = self._local, self.state, self.clock

        def timed(*args: Any, **kw: Any) -> Any:
            try:
                st = local.st
            except AttributeError:
                st = state()
            stack = st.stack
            frame = [name, clock(), 0, None]
            stack.append(frame)
            try:
                return fn(*args, **kw)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += dur
                st.self_ns[name] = st.self_ns.get(name, 0) + dur - frame[2]
                st.calls[name] = st.calls.get(name, 0) + 1

        timed.__wrapped__ = fn
        return timed

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-tuple entry point that is only counted, not timed.

        The count is shared by all threads, so ``fn`` must only run
        under a lock that serialises its callers (the engine latch)."""
        cell = self._counts.setdefault(name, [0])

        def counting(*args: Any, **kw: Any) -> Any:
            cell[0] += 1
            return fn(*args, **kw)

        counting.__wrapped__ = fn
        return counting

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """``{name: {"self_ns": .., "calls": ..}}`` over every thread."""
        out: Dict[str, Dict[str, int]] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, calls in st.calls.items():
                entry = out.setdefault(name, {"self_ns": 0, "calls": 0})
                entry["calls"] += calls
                entry["self_ns"] += st.self_ns.get(name, 0)
        for name, cell in self._counts.items():
            entry = out.setdefault(name, {"self_ns": 0, "calls": 0})
            entry["calls"] += cell[0]
        return out

    def quiesce(self, timeout: float = 5.0) -> bool:
        """Wait until no thread has an open frame: a response can reach
        the client before the server thread that sent it closes its
        spans.  Returns False on timeout."""
        deadline = time.monotonic() + timeout
        while any(st.stack for st in list(self._states)):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.001)
        return True

    def spans(self) -> List[Span]:
        with self._states_lock:
            states = list(self._states)
        out: List[Span] = []
        for st in states:
            out.extend(st.spans)
        return out
