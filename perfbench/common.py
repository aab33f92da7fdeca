"""Pieces every workload shares: host probe, memory, round-robin order."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: The Table-2 matrices the sweep and solve workloads run, in fixed order.
MIX = ("mycielskian12", "wiki-Vote", "as-caida", "c52")


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Every correctness check passed (ops and whole-run invariants).
    correct: bool = True
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result (sizing, flags).
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Record one whole-run check; a failure is printed loudly."""
        if not ok:
            self.correct = False
            self.notes.append(f"CHECK FAILED: {what}")
        return ok


_PROBE_DATA = np.random.default_rng(0).random(1 << 18)
_PY_PROBE_DATA = [(i * 7919) % 100003 for i in range(1 << 17)]


def host_probe_ms(repeats: int = 7) -> List[float]:
    """A fixed NumPy kernel (sort of 256k doubles), in ms per repeat.

    Recorded beside each run as context for host drift; never used to
    rescale a metric.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.sort(_PROBE_DATA, kind="quicksort")
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def python_probe_ms(repeats: int = 7) -> List[float]:
    """A fixed interpreter-bound kernel (dict counting over 128k ints),
    in ms per repeat.

    The workloads spend their time in the interpreter, not in NumPy, so
    this probe tells host drift that slows them apart from a slowdown of
    the program itself.  Context only, like :func:`host_probe_ms`.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for value in _PY_PROBE_DATA:
            counts[value & 4095] = counts.get(value & 4095, 0) + 1
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rotated(items: Sequence[T], offset: int) -> List[T]:
    """``items`` in round-robin order starting at ``offset``."""
    k = offset % len(items)
    return list(items[k:]) + list(items[:k])
