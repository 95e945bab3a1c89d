"""The physical write-ahead log.

A single append-only file of frames::

    <I I> payload_len crc32   +   compact-JSON payload

The LSN of a record is the byte offset of its frame -- strictly
monotonic, and "WAL through LSN x is durable" means "the first x bytes
of the file are durable", which is exactly what one fsync provides.

**Group commit** (leader/follower): a committing backend that needs
``flush(upto)`` while another backend's fsync is in flight parks on the
internal condition variable; the in-flight leader's fsync covers every
frame appended before it ran, so followers usually wake already
durable. One fsync amortizes over the whole batch -- the classic
PostgreSQL commit_delay-free group commit. With ``group_commit=False``
every committer performs its own serialized fsync (the ablation the
throughput bench measures).

Torn tails: a crash mid-append leaves a frame with a short body or a
CRC mismatch at the end of the file. :func:`read_wal` stops cleanly at
the first invalid frame; recovery then truncates the tail so new
appends stay contiguous. A commit is durable iff its complete frame
precedes the torn point -- the fsync boundary is the commit-visibility
guarantee, nothing stronger (see DESIGN.md "Durability").
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import DataCorruptionError
from repro.storage.durable.io import DurableIO

FRAME = struct.Struct("<II")


def encode_frame(record: Dict[str, Any]) -> bytes:
    body = json.dumps(record, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    return FRAME.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def read_wal(path: str) -> Tuple[List[Tuple[int, Dict[str, Any]]], int]:
    """Read every intact frame: ``([(lsn, record), ...], valid_end)``.

    Stops -- without raising -- at the first short or checksum-failing
    frame: a torn tail is the *expected* crash artifact, and everything
    before it is the recovered prefix. ``valid_end`` is the truncation
    point for subsequent appends.
    """
    frames: List[Tuple[int, Dict[str, Any]]] = []
    if not os.path.exists(path):
        return frames, 0
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0
    while pos + FRAME.size <= len(buf):
        length, crc = FRAME.unpack_from(buf, pos)
        body = buf[pos + FRAME.size:pos + FRAME.size + length]
        if len(body) < length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            break
        try:
            record = json.loads(body.decode("utf-8"))
        except ValueError:
            break
        frames.append((pos, record))
        pos += FRAME.size + length
    return frames, pos


class WALFile:
    """Append + group-commit flush over one log file.

    Thread-safe on its own lock (not an engine latch): the engine latch
    is *released* around ``flush`` by the server's flush gate, so
    followers park here while other backends keep executing -- that is
    what makes the batching real.
    """

    def __init__(self, path: str, io: DurableIO, *,
                 group_commit: bool = True) -> None:
        self.path = path
        self.io = io
        self.group_commit = group_commit
        exists = os.path.exists(path)
        self._f = open(path, "r+b" if exists else "w+b")
        self._f.seek(0, os.SEEK_END)
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        #: Next append offset == current end of log.
        self._end = self._f.tell()
        #: Everything below this offset has been fsynced. Pre-existing
        #: content counts as durable: recovery re-validated it.
        self._durable = self._end
        self._flushing = False
        self.records = 0
        self.flushes = 0
        #: Commits whose flush returned without issuing an fsync because
        #: a concurrent leader's batch already covered them.
        self.piggybacked = 0

    # ------------------------------------------------------------------
    @property
    def end_lsn(self) -> int:
        return self._end

    @property
    def durable_lsn(self) -> int:
        return self._durable

    def append(self, record: Dict[str, Any]) -> int:
        """Write one frame (to the OS, not yet fsynced); returns its LSN."""
        frame = encode_frame(record)
        with self._mu:
            lsn = self._end
            self.io.pwrite(self._f, self.path, lsn, frame)
            self._end += len(frame)
            self.records += 1
            return lsn

    def flush(self, upto: Optional[int] = None) -> None:
        """Make WAL through ``upto`` (default: everything appended so
        far) durable. Group commit: at most one fsync in flight; late
        arrivals ride on it or lead the next batch.

        With group commit off, a call with an explicit ``upto`` (a
        committer flushing its own record) never rides: it waits out
        any fsync in flight, then issues its own even if another
        backend's fsync already covered its target -- one fsync per
        committer. ``upto=None`` still returns once the log is durable.
        """
        with self._cv:
            target = self._end if upto is None else upto
            solo = upto is not None and not self.group_commit
            rode_along = False
            while True:
                if self._durable >= target and not solo:
                    if rode_along:
                        self.piggybacked += 1
                    return
                if self._flushing:
                    # Group commit: ride on the in-flight fsync. Off:
                    # serialize behind it.
                    rode_along = self.group_commit
                    self._cv.wait()
                    continue
                self._flushing = True
                end = self._end
                break
        ok = False
        try:
            self.io.fsync(self._f, self.path)
            ok = True
        finally:
            with self._cv:
                self._flushing = False
                if ok:
                    self._durable = max(self._durable, end)
                    self.flushes += 1
                self._cv.notify_all()

    def truncate_to(self, size: int) -> None:
        """Drop a torn tail found by recovery."""
        with self._mu:
            self.io.truncate(self._f, self.path, size)
            self._f.seek(0, os.SEEK_END)
            self._end = size
            self._durable = min(self._durable, size)

    def close(self) -> None:
        with self._mu:
            if not self._f.closed:
                self._f.close()
