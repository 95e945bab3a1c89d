"""Closed-loop load generator: one thread per connection, no think time.

Each worker owns one :class:`repro.server.ReproClient` and runs its
workload's transactions back to back through
:meth:`ReproClient.run_transaction`, which retries serialization
failures with jittered exponential backoff.  A transaction's latency
runs from its first BEGIN to its final COMMIT acknowledgement, so it
includes every retry and backoff sleep.  Each record also carries the
connection id and the range of request ids the transaction used, which
is how the traced run joins it to the server's request spans.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.errors import ReproError, RetryableError
from repro.server.client import ReproClient

from workloads import CheckFailed, Workload

#: Retries before a transaction counts as failed.  Two clients never
#: come near it; a run that does has a livelock worth failing on.
MAX_RETRIES = 50


class CountingClient(ReproClient):
    """A client that counts the SELECT statements it sends."""

    selects = 0

    def sql(self, statement: str) -> Any:
        if statement.startswith("SELECT"):
            self.selects += 1
        return super().sql(statement)


@dataclass
class TxnRecord:
    kind: str
    read_only: bool
    start_ns: int
    end_ns: int
    retries: int
    conn_id: int
    first_request: int
    last_request: int
    committed: bool
    error: Optional[str] = None


class Worker:
    """One client thread's connection, random stream and records."""

    def __init__(self, address, workload: Workload, seed: int,
                 index: int) -> None:
        self.workload = workload
        self.client = CountingClient(address, isolation="serializable")
        self.client.connect()
        self.conn_id = self.client.hello["conn_id"]
        self.rng = random.Random(f"{workload.name}-client-{seed}-{index}")
        self.state = workload.thread_state(index)
        self.records: List[TxnRecord] = []

    def run_one(self) -> None:
        txn = self.workload.next_txn(self.rng, self.state)
        client = self.client
        retries0 = client.retries
        first = client._next_id + 1
        start = time.monotonic_ns()
        error = None
        try:
            result = client.run_transaction(txn.body, read_only=txn.read_only,
                                            max_retries=MAX_RETRIES)
            committed = True
        except RetryableError as exc:
            committed, error = False, f"gave up after retries: {exc}"
        except (ReproError, CheckFailed) as exc:
            committed, error = False, f"{type(exc).__name__}: {exc}"
            if client.txn != "idle":
                client.sql("ROLLBACK")
        end = time.monotonic_ns()
        if committed and txn.on_commit is not None:
            txn.on_commit(result)
        # Request ids are numbered per connection from hello on; this
        # transaction used first.._next_id, which is how the traced run
        # finds its server spans.
        self.records.append(TxnRecord(
            txn.kind, txn.read_only, start, end, client.retries - retries0,
            self.conn_id, first, client._next_id, committed, error))

    def vacuum(self) -> None:
        table = self.workload.vacuum_table
        self.client.sql("VACUUM" + (f" {table}" if table else ""))

    def close(self) -> None:
        self.client.close()


class LoadGenerator:
    """Runs the workers for one phase at a time."""

    def __init__(self, address, workload: Workload, seed: int,
                 clients: int) -> None:
        self.workload = workload
        self.workers = [Worker(address, workload, seed, i)
                        for i in range(clients)]
        self._lock = threading.Lock()
        self._completed = 0
        self._errors: List[BaseException] = []

    def run(self, seconds: float, windows: int = 1,
            on_boundary: Optional[Callable[[], None]] = None
            ) -> List[TxnRecord]:
        """Run every worker for ``seconds``; returns the records of
        transactions started in this phase.  The phase is cut into
        ``windows`` equal windows and ``on_boundary()`` is called from
        this thread at each inner boundary."""
        stop = threading.Event()
        marks = [len(w.records) for w in self.workers]
        threads = [threading.Thread(target=self._loop, args=(w, stop),
                                    name=f"perfbench-client-{i}")
                   for i, w in enumerate(self.workers)]
        start = time.monotonic()
        for t in threads:
            t.start()
        try:
            for k in range(1, windows + 1):
                time.sleep(max(0.0, start + seconds * k / windows
                               - time.monotonic()))
                if k < windows and on_boundary is not None:
                    on_boundary()
        finally:
            stop.set()
            for t in threads:
                t.join()
        if self._errors:
            raise self._errors[0]
        return [r for w, mark in zip(self.workers, marks)
                for r in w.records[mark:]]

    def _loop(self, worker: Worker, stop: threading.Event) -> None:
        try:
            while not stop.is_set():
                worker.run_one()
                with self._lock:
                    self._completed += 1
                    due = self._completed % self.workload.vacuum_every == 0
                if due:
                    worker.vacuum()
        except BaseException as exc:  # surfaced by run() after the join
            with self._lock:
                self._errors.append(exc)

    @property
    def selects(self) -> int:
        return sum(w.client.selects for w in self.workers)

    def close(self) -> None:
        for w in self.workers:
            w.close()
