"""Pure functions that turn raw records into reported numbers."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail metric may fall back to, highest first.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def supported(n: int, p: float) -> bool:
    """True when ``n`` samples leave ``MIN_BEYOND`` beyond the p-th."""
    return n - math.ceil(p / 100.0 * n) >= MIN_BEYOND


def tail_percentile(values: Iterable[float], wanted: float = 99.0
                    ) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, sample count)`` for the highest percentile
    not above ``wanted`` that has at least ``MIN_BEYOND`` samples beyond
    it; None when even the median has fewer."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        if p <= wanted and supported(len(ordered), p):
            return p, nearest_rank(ordered, p), len(ordered)
    return None


def windowed_percentile(windows: Sequence[Sequence[float]], p: float,
                        order: Sequence[int], least: int
                        ) -> Tuple[float, str]:
    """The p-th percentile of a run cut into windows, with a label.

    Windows are pooled in ``order`` (every window, quietest first): at
    least ``least`` of them, then one more at a time until their
    samples support the p-th percentile.  When even every window's
    samples do not, the highest percentile (not above p) they support
    is reported."""
    picked: List[float] = []
    for count, k in enumerate(order, 1):
        picked.extend(windows[k])
        if count >= least and supported(len(picked), p):
            return (nearest_rank(sorted(picked), p),
                    f"p{p:g} of {len(picked)} samples from windows "
                    f"{sorted(order[:count])}")
    tail = tail_percentile(picked, p)
    if tail is None:
        raise ValueError(f"{len(picked)} samples: too few for a median")
    return tail[1], f"p{tail[0]:g} of {tail[2]} samples from all windows"


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was attempted."""
    return num / den if den else 0.0


def covered_ns(intervals: Iterable[Tuple[int, int]], start: int,
               end: int) -> int:
    """Length of ``[start, end)`` covered by the union of ``intervals``."""
    total, cursor = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def join_requests(txns: Iterable[Tuple[int, int, int, int, int]],
                  roots: Dict[Tuple[int, int], Tuple[int, int]]
                  ) -> Dict[str, float]:
    """Join client transactions to server request root spans.

    ``txns`` holds ``(conn_id, first request, last request, start_ns,
    end_ns)`` per committed transaction; ``roots`` maps a request id
    ``(conn_id, n)`` to its server span ``(start_ns, end_ns)``.  Returns
    the share of client-observed latency that server request spans
    cover, the requests found and missing, and the server spans that
    start outside their transaction's client interval (which would mean
    the join matched the wrong request).  A span may end after the
    client's interval, and after the next request began: the server
    closes it once ``sendall`` returns, which can be after the client
    has read the response.  Coverage therefore counts the union of a
    transaction's spans, clipped to the client's interval."""
    client_ns = server_ns = 0
    matched = missing = outside = 0
    for conn_id, first, last, start, end in txns:
        client_ns += end - start
        spans = []
        for n in range(first, last + 1):
            span = roots.get((conn_id, n))
            if span is None:
                missing += 1
                continue
            matched += 1
            spans.append(span)
            if not start <= span[0] <= end:
                outside += 1
        server_ns += covered_ns(spans, start, end)
    return {"coverage": ratio(server_ns, client_ns), "matched": matched,
            "missing": missing, "outside": outside}


def quartile_spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (the steadiness
    figure the benchmark is tuned against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
