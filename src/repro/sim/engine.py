"""End-to-end execution of a schedule on the modelled datapath.

The engine plays a :class:`~repro.scheduling.base.TiledSchedule` through
PEGs, Reduction Units and the Rearrange Unit, producing both the output
vector y (functional correctness, verified against a float64 reference —
the §5.1 end-to-end check) and a cycle breakdown (the latency model):

======================  ====================================================
component               cycles
======================  ====================================================
x window load           ``ceil(window_cols / 16)`` per tile — one 512-bit
                        beat carries 16 FP32 x values
streaming               the tile's equalised data-list length (channels
                        stream in lockstep, one word per cycle at II=1)
pipeline drain          multiplier + accumulator latency per tile
Reduction-Unit sweep    ``rows_per_pe + tree levels + accumulator latency``
                        per row window (Chasoň only; §6.2.2 explains how
                        deeper URAMs grow this term for tall windows)
output merge            ``ceil(window_rows / 16)`` per row window — the
                        merged ``stream_Ax`` carries 16 FP32 per cycle
======================  ====================================================

Streaming dominates for every matrix in the evaluation; the fixed terms
keep small matrices honest and reproduce the paper's C5-vs-MY observation
that reduction latency can offset transfer savings (§6.2.2).

:func:`execute_schedule` is the object model: it instantiates the units
of Figs. 6–8 for every row window, which makes it the readable reference
and slow.  The pipeline executes the same schedules through a compiled
:class:`~repro.sim.plan.ExecutionPlan` instead, which the differential
tests hold byte-identical to this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..config import AcceleratorConfig
from ..errors import ShapeError, SimulationError
from ..scheduling.base import TiledSchedule
from .. import telemetry
from .peg import ProcessingElementGroup
from .rearrange import RearrangeUnit
from .reduction import ReductionUnit

#: FP32 lanes of one 512-bit beat (x loading and y output).
DENSE_LANES = 16

#: Cycle-model revision (pipeline cache fingerprint component): bump when
#: the accounting in this module changes so cached CycleResults cannot be
#: served across model revisions.
ENGINE_VERSION = "1"


@dataclass
class CycleBreakdown:
    """Cycle counts of one SpMV iteration."""

    stream: int = 0
    x_load: int = 0
    drain: int = 0
    reduction: int = 0
    output: int = 0
    #: Fixed per-invocation cost (instruction fetch, kernel start, flush).
    overhead: int = 0

    @property
    def total(self) -> int:
        return (
            self.stream + self.x_load + self.drain + self.reduction
            + self.output + self.overhead
        )

    def merge(self, other: "CycleBreakdown") -> None:
        self.stream += other.stream
        self.x_load += other.x_load
        self.drain += other.drain
        self.reduction += other.reduction
        self.output += other.output
        self.overhead += other.overhead


@dataclass
class SpMVExecution:
    """Result of executing one schedule."""

    y: np.ndarray
    cycles: CycleBreakdown
    config: AcceleratorConfig
    scheme: str
    nnz: int
    total_macs: int = 0
    shared_macs: int = 0
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def latency_seconds(self) -> float:
        return self.cycles.total / self.config.frequency_hz

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    def verify(self, reference: np.ndarray, rtol: float = 1e-4) -> bool:
        """End-to-end functional check against a reference y (§5.1)."""
        reference = np.asarray(reference, dtype=np.float64)
        if reference.shape != self.y.shape:
            raise ShapeError(
                f"reference of shape {reference.shape} vs y {self.y.shape}"
            )
        scale = np.maximum(np.abs(reference), 1.0)
        return bool(np.all(np.abs(self.y - reference) <= rtol * scale))


def _has_reduction_unit(config: AcceleratorConfig) -> bool:
    return getattr(config, "reduction_tree_levels", 0) > 0


def estimate_cycles(
    schedule: TiledSchedule,
    config: Optional[AcceleratorConfig] = None,
) -> CycleBreakdown:
    """The engine's cycle accounting without executing the datapath.

    Produces exactly the :class:`CycleBreakdown` that
    :func:`execute_schedule` reports, from schedule shape alone — used by
    the benchmark harness where only latency (not the output vector) is
    needed.
    """
    config = config or schedule.config
    cycles = CycleBreakdown(
        overhead=getattr(config, "invocation_overhead_cycles", 0)
    )
    windows: Dict[int, List] = {}
    for tile in schedule.tiles:
        windows.setdefault(tile.row_base, []).append(tile)
    for row_base, tiles in windows.items():
        window_rows = min(
            config.row_window, max(schedule.n_rows - row_base, 1)
        )
        any_shared = False
        for tile in tiles:
            tile_cols = min(
                config.column_window, max(schedule.n_cols - tile.col_base, 1)
            )
            cycles.x_load += math.ceil(tile_cols / DENSE_LANES)
            cycles.stream += tile.stream_cycles
            cycles.drain += (
                config.multiplier_latency + config.accumulator_latency
            )
            if tile.migrated_count:
                any_shared = True
        if _has_reduction_unit(config) and any_shared:
            rows_per_pe = math.ceil(window_rows / config.total_pes)
            cycles.reduction += (
                rows_per_pe
                + getattr(config, "reduction_tree_levels", 3)
                + config.accumulator_latency
            )
        cycles.output += math.ceil(window_rows / DENSE_LANES)
    return cycles


def execute_schedule(
    schedule: TiledSchedule,
    x: np.ndarray,
    config: Optional[AcceleratorConfig] = None,
) -> SpMVExecution:
    """Run one SpMV iteration of ``schedule`` over input vector ``x``."""
    t = telemetry.get()
    with t.span(
        "sim.execute", scheme=schedule.scheme, nnz=schedule.nnz
    ):
        execution = _execute_schedule(schedule, x, config, t)
    return execution


def _execute_schedule(
    schedule: TiledSchedule,
    x: np.ndarray,
    config: Optional[AcceleratorConfig],
    t: "telemetry.Telemetry",
) -> SpMVExecution:
    config = config or schedule.config
    x = np.asarray(x, dtype=np.float32)
    if schedule.n_cols and x.shape != (schedule.n_cols,):
        raise ShapeError(
            f"x of length {x.shape} incompatible with "
            f"{schedule.n_rows}x{schedule.n_cols} schedule"
        )

    y = np.zeros(schedule.n_rows, dtype=np.float64)
    cycles = CycleBreakdown(
        overhead=getattr(config, "invocation_overhead_cycles", 0)
    )
    rearrange = RearrangeUnit(config)
    total_macs = 0
    shared_macs = 0
    # Per-channel busy (MAC) and stall (idle) cycle totals across all
    # row windows — the per-PEG occupancy Figs. 12/13 report, surfaced
    # through telemetry counters.
    channel_busy = [0] * config.sparse_channels
    channel_idle = [0] * config.sparse_channels

    # Group tiles by row window, preserving column order within each.
    windows: Dict[int, List] = {}
    for tile in schedule.tiles:
        windows.setdefault(tile.row_base, []).append(tile)

    for row_base in sorted(windows):
        tiles = sorted(windows[row_base], key=lambda t: t.col_base)
        pegs = [
            ProcessingElementGroup(channel, config)
            for channel in range(config.sparse_channels)
        ]
        window_rows = 0
        for tile in tiles:
            n_cols = min(config.column_window, x.size - tile.col_base)
            if n_cols < 0:
                raise SimulationError(
                    f"tile at column base {tile.col_base} beyond x"
                )
            if len(tile.grids) > len(pegs):
                raise SimulationError(
                    f"tile with {len(tile.grids)} channel grids for "
                    f"{len(pegs)} PEGs"
                )
            window = x[tile.col_base : tile.col_base + n_cols]
            for peg in pegs:
                peg.load_x_window(window)
            cycles.x_load += math.ceil(max(n_cols, 1) / DENSE_LANES)
            for channel, grid in enumerate(tile.grids):
                pegs[channel].consume_grid(grid)
            cycles.stream += tile.stream_cycles
            cycles.drain += (
                config.multiplier_latency + config.accumulator_latency
            )
            window_rows = max(
                window_rows,
                min(config.row_window, schedule.n_rows - row_base),
            )

        reductions = {}
        if _has_reduction_unit(config):
            rows_per_pe = math.ceil(max(window_rows, 1) / config.total_pes)
            any_shared = False
            for channel, peg in enumerate(pegs):
                reduced = ReductionUnit(peg).reduce()
                if reduced.sums:
                    any_shared = True
                reductions[channel] = reduced
            if any_shared:
                cycles.reduction += (
                    rows_per_pe
                    + getattr(config, "reduction_tree_levels", 3)
                    + config.accumulator_latency
                )

        rearrange.merge(pegs, reductions, row_base, window_rows, y)
        cycles.output += math.ceil(max(window_rows, 1) / DENSE_LANES)

        for channel, peg in enumerate(pegs):
            total_macs += peg.total_macs
            shared_macs += sum(
                pe.stats.shared_accumulations for pe in peg.pes
            )
            channel_busy[channel] += peg.total_macs
            channel_idle[channel] += peg.total_idle

    if total_macs != schedule.nnz:
        raise SimulationError(
            f"executed {total_macs} MACs for a schedule of "
            f"{schedule.nnz} non-zeros"
        )

    if t.enabled:
        for channel in range(config.sparse_channels):
            t.counter(
                "sim.peg.busy_cycles", channel_busy[channel],
                channel=channel,
            )
            t.counter(
                "sim.peg.stall_cycles", channel_idle[channel],
                channel=channel,
            )
        t.gauge(
            "sim.fifo.high_water", rearrange.stream_ax.high_water,
            fifo=rearrange.stream_ax.name,
        )

    return SpMVExecution(
        y=y,
        cycles=cycles,
        config=config,
        scheme=schedule.scheme,
        nnz=schedule.nnz,
        total_macs=total_macs,
        shared_macs=shared_macs,
        stats={
            "shared_fraction": shared_macs / total_macs if total_macs else 0.0,
            "private_values": rearrange.stats.private_values,
            "shared_values": rearrange.stats.shared_values,
        },
    )
