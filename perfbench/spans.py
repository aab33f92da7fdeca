"""In-memory spans, self time and the summary statistics the runner reports.

The benchmark records its own spans around each call it makes into a
layer's public function; nothing inside the program is instrumented.
A span is ``(name, start, end, parent, trace_id, attrs)``.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover (children are clipped to the parent and overlapping
children are counted once).
"""

from __future__ import annotations

import itertools
import json
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Metric and span-name grammar shared with ``BENCHMARK.json``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def valid_name(name: str) -> bool:
    """Whether ``name`` is a legal metric name (letters, digits, ``_.-``)."""
    return bool(NAME_RE.match(name))


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    trace_id: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    run_lo: Optional[float] = None
    run_hi = 0.0
    for lo, hi in clipped:
        if run_lo is None or lo > run_hi:
            if run_lo is not None:
                total += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_lo is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """span id → duration minus the covered union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.span_id: span.duration - covered(
            span.start, span.end, children.get(span.span_id, ())
        )
        for span in spans
    }


class Tracer:
    """Records spans in memory; a disabled tracer records nothing.

    Parents are tracked per thread, so spans opened by concurrent
    sender threads nest under their own thread's open span.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace_id: int = 0, record: bool = True,
             **attrs: object) -> Iterator[Optional[Span]]:
        """Record ``name`` around the block; ``record=False`` skips it
        (the untraced half of a traced run's A/B overhead comparison)."""
        if not (self.enabled and record):
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name=name, start=time.perf_counter(), end=0.0,
            span_id=next(self._ids),
            parent=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else trace_id,
            attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def self_by_trace(self, name: str, **attrs: object) -> Dict[int, float]:
        """trace id → summed self time of the spans called ``name``
        whose attrs match ``attrs``."""
        selfs = self_times(self.spans)
        totals: Dict[int, float] = {}
        for span in self.spans:
            if span.name == name and all(
                span.attrs.get(k) == v for k, v in attrs.items()
            ):
                totals[span.trace_id] = (
                    totals.get(span.trace_id, 0.0) + selfs[span.span_id]
                )
        return totals

    def phase_totals(self, name: str, phase: str,
                     **attrs: object) -> List[float]:
        """Per-trace summed self times of ``name`` within one phase.

        Trace ids encode the phase: set-up ``i`` is ``-i``, timed round
        (or request) ``i`` is ``+i`` and the untimed check phase is 0.
        """
        keep = {"setup": lambda t: t < 0, "timed": lambda t: t > 0,
                "check": lambda t: t == 0}[phase]
        return [
            total for trace, total in
            self.self_by_trace(name, **attrs).items() if keep(trace)
        ]

    def phase_median(self, name: str, phase: str, **attrs: object) -> float:
        """Median over traces of :meth:`phase_totals`; 0 when the run
        made no such call in that phase."""
        totals = self.phase_totals(name, phase, **attrs)
        return median(totals) if totals else 0.0

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {"name": s.name, "start": s.start, "end": s.end,
                     "id": s.span_id, "parent": s.parent,
                     "trace_id": s.trace_id, "attrs": s.attrs}
                    for s in sorted(self.spans, key=lambda s: s.start)
                ],
                handle,
            )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def reportable_tail(n_samples: int) -> Optional[float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples
    beyond it, or ``None`` when even p50 has fewer."""
    # (percentile, 1 / share of samples beyond it), in integers so that
    # exactly ten samples beyond still qualifies.
    for q, inverse_share in ((99.9, 1000), (99.0, 100), (90.0, 10),
                             (50.0, 2)):
        if n_samples >= 10 * inverse_share:
            return q
    return None
