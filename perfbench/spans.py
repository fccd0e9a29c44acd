"""In-memory spans, self time, percentiles and failure accounting.

Pure standard library, so the helpers can be tested without lrdwaved.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Tail percentiles considered, highest first, as the samples beyond them per
# mille (integers keep the ">= 10 samples beyond" test exact).
TAIL_PER_MILLE_BEYOND = (1, 10, 50, 100, 250)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    """One timed call: name, interval, index of the enclosing span, replication."""

    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    rep: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rep: int | None = None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.clock(), math.nan, parent, rep)
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children may overlap (concurrent work under one parent); the covered part
    of the parent's interval is counted once.  Child intervals are clipped to
    the parent's.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(idx)
    out = []
    for idx, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(idx, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[float, float]:
    """(q, value) for the highest ladder percentile with >= 10 samples beyond it.

    Falls back to the median when the sample is too small for any tail.
    """
    n = len(values)
    for beyond in TAIL_PER_MILLE_BEYOND:
        if n * beyond >= TAIL_MIN_BEYOND * 1000:
            q = 100.0 - beyond / 10.0
            return q, percentile(values, q)
    return 50.0, percentile(values, 50.0)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class FailureTally:
    """(replication, method) pairs attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def record(self, mse: float) -> None:
        """One pair that returned; a non-finite MSE counts as a failure."""
        self.attempted += 1
        if not math.isfinite(mse):
            self.failed += 1

    def record_error(self, pairs: int = 1) -> None:
        """Pairs that raised before yielding an estimate."""
        self.attempted += pairs
        self.failed += pairs

    @property
    def fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
