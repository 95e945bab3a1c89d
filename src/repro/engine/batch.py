"""Batch-at-a-time execution primitives.

The vectorized executor (``PerfConfig.vectorized_executor``) moves the
per-tuple Python dispatch of the seed scan loop out of the hot path:

* a :class:`TupleBatch` is a thin view over the live tuples of one
  slotted heap page (or one chunk of an index scan's tid list) --
  tuples are shared with the heap, never copied;
* :func:`compile_batch_filter` specializes a predicate into a single
  list-comprehension closure over a batch, replicating the predicate's
  ``matches`` semantics exactly (including the None handling of the
  ordered comparisons) so batch filtering returns byte-identical rows
  to per-tuple ``pred.matches`` calls;
* :func:`chunks` slices long sequences into ``PerfConfig.batch_size``
  pieces for operators that are not naturally page-bounded.

SSI correctness: batching changes *when* checks run, never *whether*.
The executor still classifies every tuple's visibility (a page at a
time on covered sequential-scan pages, see
``repro.mvcc.visibility.page_visibility``) and takes the same SIREAD
locks; the only hoisted check is the read-coverage fast path
(`SSIManager.read_page_covered`), which is already tuple-independent
because it keys on (relation, page). See DESIGN.md, "Vectorized
execution".
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Sequence

from repro.engine.predicate import (AlwaysTrue, And, Between, Eq, Ge, Gt, Le,
                                    Lt, Ne, Predicate)
from repro.storage.tuple import HeapTuple

#: A compiled batch filter: list of tuples in, matching tuples out
#: (input order preserved).
BatchFilter = Callable[[Sequence[HeapTuple]], List[HeapTuple]]


class TupleBatch:
    """A columnar view over the live tuples of one page (or chunk).

    Tuples are borrowed from the heap; the batch owns nothing and must
    not outlive the statement that built it.
    """

    __slots__ = ("rel_oid", "page_no", "tuples", "all_visible")

    def __init__(self, rel_oid: int, page_no: int,
                 tuples: List[HeapTuple], all_visible: bool = False) -> None:
        self.rel_oid = rel_oid
        self.page_no = page_no
        self.tuples = tuples
        self.all_visible = all_visible

    def __len__(self) -> int:
        return len(self.tuples)

    def column(self, name: str) -> List[Any]:
        """One column of the batch as a list (columnar access)."""
        return [t.data.get(name) for t in self.tuples]

    def rows(self) -> List[dict]:
        """Zero-copy row views (the live heap dicts; read-only)."""
        return [t.data for t in self.tuples]


def compile_batch_filter(pred: Predicate) -> BatchFilter:
    """Specialize ``pred`` into one closure applied per batch.

    Each arm replicates the corresponding ``Predicate.matches``
    exactly; anything without a specialization (And/Or/Func/...) falls
    back to calling ``matches`` per tuple, which is still one Python
    call fewer than the seed loop's attribute lookups.
    """
    if isinstance(pred, AlwaysTrue):
        # Identity, not a copy: every consumer either extends its own
        # list from the result or reads it (aggregate sinks), so the
        # batch can be passed through unchanged.
        return lambda tups: tups
    if isinstance(pred, Eq):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups if t.data.get(c) == v]
    if isinstance(pred, Ne):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups if t.data.get(c) != v]
    if isinstance(pred, Lt):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x < v]
    if isinstance(pred, Le):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x <= v]
    if isinstance(pred, Gt):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x > v]
    if isinstance(pred, Ge):
        c, v = pred.column, pred.value
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None and x >= v]
    if isinstance(pred, Between):
        c, lo, hi = pred.column, pred.lo, pred.hi
        return lambda tups: [t for t in tups
                             if (x := t.data.get(c)) is not None
                             and lo <= x <= hi]
    if isinstance(pred, And):
        # One specialized sub-filter per conjunct, applied in order
        # (same short-circuit semantics as all(...)).
        subs = [compile_batch_filter(p) for p in pred.predicates]

        def conjunction(tups: Sequence[HeapTuple]) -> List[HeapTuple]:
            out = list(tups)
            for sub in subs:
                if not out:
                    break
                out = sub(out)
            return out

        return conjunction
    matches = pred.matches
    return lambda tups: [t for t in tups if matches(t.data)]


class BatchAggregator:
    """Folds COUNT/SUM/MIN/MAX/AVG over matched tuple batches, one page
    at a time (the vectorized aggregate pushdown: the scan never
    materializes a row list, it feeds each page's matches straight into
    these accumulators via the scan's ``sink`` hook).

    ``finalize`` replicates the SQL layer's per-row aggregation exactly:
    COUNT(*) counts rows, every other form skips NULL inputs, an empty
    input yields NULL (0 for COUNT), AVG uses true division. Equality
    holds bit-for-bit even for floats because the fold order is the
    scan order in both paths and partial sums chain through
    ``sum(values, acc)`` -- the same left-to-right ``(acc + v1) + v2``
    grouping a single ``sum()`` over the whole column would use. MIN and
    MAX keep the first-seen extremum (strict comparisons), matching
    ``min()``/``max()`` first-occurrence semantics across page splits.
    """

    __slots__ = ("specs", "_rows", "_states")

    def __init__(self, specs: Sequence[tuple]) -> None:
        #: (func, column) pairs; column None only for COUNT(*).
        self.specs = list(specs)
        self._rows = 0
        # Per spec: [non-null count, running sum, min, max].
        self._states: List[list] = [[0, 0, None, None] for _ in self.specs]

    def update(self, tups: Sequence[HeapTuple]) -> None:
        """Fold one batch of matched tuples (scan order)."""
        self._rows += len(tups)
        for (func, column), st in zip(self.specs, self._states):
            if column is None:  # COUNT(*) needs only the row count
                continue
            values = [v for t in tups
                      if (v := t.data.get(column)) is not None]
            if not values:
                continue
            st[0] += len(values)
            # Fold only what the func needs: MIN/MAX work over any
            # ordered type (strings too), where a sum would raise.
            if func in ("SUM", "AVG"):
                st[1] = sum(values, st[1])
            elif func == "MIN":
                lo = min(values)
                if st[2] is None or lo < st[2]:
                    st[2] = lo
            elif func == "MAX":
                hi = max(values)
                if st[3] is None or hi > st[3]:
                    st[3] = hi

    def finalize(self) -> List[Any]:
        """One value per spec, in spec order."""
        out: List[Any] = []
        for (func, column), st in zip(self.specs, self._states):
            if func == "COUNT":
                out.append(self._rows if column is None else st[0])
            elif st[0] == 0:
                out.append(None)
            elif func == "SUM":
                out.append(st[1])
            elif func == "MIN":
                out.append(st[2])
            elif func == "MAX":
                out.append(st[3])
            elif func == "AVG":
                out.append(st[1] / st[0])
            else:
                raise ValueError(f"unknown aggregate {func}")
        return out


def chunks(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Slice ``seq`` into consecutive pieces of at most ``size``."""
    size = max(1, size)
    for start in range(0, len(seq), size):
        yield seq[start:start + size]
