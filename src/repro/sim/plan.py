"""Compiled execution plans: a schedule flattened into ordered arrays.

The object model (:func:`~repro.sim.engine.execute_schedule`) replays a
schedule through PE, PEG, URAM, Reduction-Unit and Rearrange-Unit
objects on every call: 128 PEs per row window, a bank-by-bank
accumulate, and a Python loop over the output values.  The hardware,
though, runs a *fixed* dataflow for a given schedule — the same slot
always multiplies the same value by the same x entry and lands in the
same bank.  :class:`ExecutionPlan` compiles that dataflow once: for every
non-zero the ``MultXVec`` record the stream carries (value, column,
destination bank), plus the bank → reduced-sum → output-row maps.  An
SpMV is then three ordered NumPy stages:

1. ``products = value × x[col]`` in float64, accumulated per
   (PE, bank, address) in stream order;
2. the ScUG fold: each shared bank summed per (donor, source PE,
   address) in PE order — the Reduction Unit's adder sweep;
3. the Rearrange merge: each row's private sum, then its shared sums
   channel by channel, into ``y``.

Bit-identity with the object model rests on keeping every addition
chain in its order.  Each stage is an ``np.bincount(weights=...)``,
which adds the weights into their bins one by one in array order, from
``0.0`` — exactly the object model's left-associated float64 chains —
and the arrays are laid out so array order *is* the object model's
order: elements in stream order, shared banks sorted (channel, row, PE),
output entries private-first then by channel.  A pairwise ``sum`` or
``np.add.reduceat`` would re-associate the chains and change low bits.

Every check the object model makes while executing runs at compile time
instead, with the same error type: the tile and x-window bounds, the
misrouted-private and Eq. 1 lane rules, URAM and ScUG capacity, the ScUG
count against ``migration_span``, the no-ScUG (Serpens) datapath, the
output-window bounds and the MAC count.  When a schedule breaks several
rules, the one the object model would meet first is raised.  The cycle
breakdown, MAC counts, stats and the per-channel telemetry counters are
computed at compile time too, so executing is pure arithmetic.

:func:`plan_for` memoizes the plan on the schedule and recompiles it
whenever the schedule (any grid's slots or length, the tiling), the
configuration or the x length changed since.  The object model stays as
the reference the differential tests compare the plan against.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..config import AcceleratorConfig
from ..errors import CapacityError, ShapeError, SimulationError
from ..scheduling.base import TiledSchedule
from .engine import (
    DENSE_LANES,
    CycleBreakdown,
    SpMVExecution,
    _has_reduction_unit,
)
from .memory import URAM_PARTIAL_SUMS
from .pe import lane_rule_error

_INT32_MAX = np.iinfo(np.int32).max


def _index_array(values: np.ndarray, bound: int) -> np.ndarray:
    """``values`` as int32 when every index fits, else int64."""
    return values.astype(np.int32 if bound <= _INT32_MAX else np.int64)


def _first(mask: np.ndarray, block: np.ndarray) -> int:
    """The ``True`` of ``mask`` the object model meets first, or -1.

    That is the least block, and within it the first in stream order —
    the object model runs a block's elements in stream order.
    """
    hits = np.flatnonzero(mask)
    if not hits.size:
        return -1
    return int(hits[np.argmin(block[hits])])


class ExecutionPlan:
    """One schedule's fixed dataflow, ready to execute against any x."""

    __slots__ = (
        "config", "scheme", "n_rows", "x_size", "nnz", "stamp",
        "cycles", "total_macs", "shared_macs", "private_values",
        "shared_values", "channel_busy", "channel_idle", "fifo_high_water",
        "_cols", "_values", "_bank", "_n_banks", "_fold", "_out_rows",
    )

    def __init__(self, config: AcceleratorConfig, scheme: str,
                 n_rows: int, x_size: int, nnz: int):
        self.config = config
        self.scheme = scheme
        self.n_rows = n_rows
        self.x_size = x_size
        self.nnz = nnz
        #: What the plan was compiled from (see :func:`_stamp`).
        self.stamp: Optional[tuple] = None

    # -- compile -------------------------------------------------------------

    @classmethod
    def compile(
        cls,
        schedule: TiledSchedule,
        config: Optional[AcceleratorConfig] = None,
        x_size: Optional[int] = None,
    ) -> "ExecutionPlan":
        """Flatten ``schedule`` for x vectors of length ``x_size``.

        ``x_size`` defaults to the schedule's column count; raises the
        error the object model would raise executing the schedule.
        """
        config = config or schedule.config
        if x_size is None:
            x_size = schedule.n_cols
        t = telemetry.get()
        with t.span("sim.plan.compile", scheme=schedule.scheme):
            plan = cls(config, schedule.scheme, schedule.n_rows, x_size,
                       schedule.nnz)
            plan._build(schedule)
        return plan

    def _build(self, schedule: TiledSchedule) -> None:
        config = self.config
        channels = config.sparse_channels
        pes = config.pes_per_channel
        total_pes = config.total_pes
        n_rows = self.n_rows
        cycles = CycleBreakdown(
            overhead=getattr(config, "invocation_overhead_cycles", 0)
        )
        busy = [0] * channels
        idle = [0] * channels
        #: Faults as (block, priority, error); the least one is raised.
        #: A block is one PE's share of one tile — the object model's unit
        #: of execution order — numbered (tile, channel, PE).
        faults: List[Tuple[int, int, Exception]] = []
        # Per-grid element arrays in stream order (cycle-major), in
        # (window, tile, channel) order.
        segments: List[Tuple[np.ndarray, ...]] = []
        # Per-segment scalars: (block base, window, x-window columns,
        # column base).
        seg_info: List[Tuple[int, int, int, int]] = []
        # Per-window (row base, rows, last block).
        window_info: List[Tuple[int, int, int]] = []

        windows: Dict[int, List] = {}
        for tile in schedule.tiles:
            windows.setdefault(tile.row_base, []).append(tile)
        sequence = 0
        for window, row_base in enumerate(sorted(windows)):
            tiles = sorted(windows[row_base], key=lambda t: t.col_base)
            window_rows = max(0, min(config.row_window, n_rows - row_base))
            for tile in tiles:
                tile_block = sequence * channels * pes
                n_cols = min(config.column_window,
                             self.x_size - tile.col_base)
                if n_cols < 0:
                    faults.append((tile_block, -3, SimulationError(
                        f"tile at column base {tile.col_base} beyond x"
                    )))
                if len(tile.grids) > channels:
                    faults.append((tile_block, -2, SimulationError(
                        f"tile with {len(tile.grids)} channel grids for "
                        f"{channels} PEGs"
                    )))
                cycles.x_load += math.ceil(max(n_cols, 1) / DENSE_LANES)
                cycles.stream += tile.stream_cycles
                cycles.drain += (
                    config.multiplier_latency + config.accumulator_latency
                )
                for channel, grid in enumerate(tile.grids[:channels]):
                    block = (sequence * channels + channel) * pes
                    if grid.channel_id != channel:
                        faults.append((block, -1, SimulationError(
                            f"grid of channel {grid.channel_id} streamed "
                            f"into PEG {channel}"
                        )))
                    arrays = grid.element_arrays()[1:]
                    # Lanes past the PEG's width are never processed (the
                    # MAC check catches them).
                    if arrays[0].size and int(arrays[0].max()) >= pes:
                        kept = arrays[0] < pes
                        arrays = tuple(a[kept] for a in arrays)
                    segments.append(arrays)
                    seg_info.append((block, window, n_cols, tile.col_base))
                    macs = int(arrays[0].size)
                    busy[channel] += macs
                    idle[channel] += pes * grid.length - macs
                sequence += 1
            cycles.output += math.ceil(max(window_rows, 1) / DENSE_LANES)
            window_info.append(
                (row_base, window_rows, sequence * channels * pes - 1)
            )

        if segments:
            sizes = np.array([s[0].size for s in segments], dtype=np.int64)
            pe_ids, rows, cols, values, och, ope = (
                np.concatenate([s[k] for s in segments]) for k in range(6)
            )
            info = np.array(seg_info, dtype=np.int64).reshape(-1, 4)
            block = np.repeat(info[:, 0], sizes) + pe_ids
            window = np.repeat(info[:, 1], sizes)
            n_cols = np.repeat(info[:, 2], sizes)
            col_base = np.repeat(info[:, 3], sizes)
        else:
            pe_ids = rows = cols = och = ope = block = window = n_cols = (
                col_base
            ) = np.zeros(0, dtype=np.int64)
            values = np.zeros(0, dtype=np.float64)
        channel = block // pes % channels
        total_macs = int(rows.size)
        private = och == channel
        shared = ~private
        bases = np.array([w[0] for w in window_info], dtype=np.int64)
        window_rows = np.array([w[1] for w in window_info], dtype=np.int64)
        window_end = np.array([w[2] for w in window_info], dtype=np.int64)

        self._check_elements(
            faults, block, window, window_end, channel, pe_ids, rows, cols,
            n_cols, och, ope, private, bases, window_rows,
        )
        if total_macs != self.nnz:
            faults.append((np.iinfo(np.int64).max, 0, SimulationError(
                f"executed {total_macs} MACs for a schedule of "
                f"{self.nnz} non-zeros"
            )))
        if faults:
            raise min(faults, key=lambda fault: fault[:2])[2]

        if _has_reduction_unit(config) and window_info:
            shared_windows = np.bincount(
                window[shared], minlength=len(window_info)
            ) > 0
            for index in np.flatnonzero(shared_windows).tolist():
                rows_per_pe = math.ceil(
                    max(int(window_rows[index]), 1) / total_pes
                )
                cycles.reduction += (
                    rows_per_pe
                    + getattr(config, "reduction_tree_levels", 3)
                    + config.accumulator_latency
                )
        self.cycles = cycles
        self.channel_busy = busy
        self.channel_idle = idle
        self.total_macs = total_macs
        self.shared_macs = int(shared.sum())
        self._layout(rows, cols, values, col_base, window, bases, channel,
                     pe_ids, private)

    def _check_elements(
        self, faults, block, window, window_end, channel, pe_ids, rows,
        cols, n_cols, och, ope, private, bases, window_rows,
    ) -> None:
        """Record the first violation of each per-element rule."""
        config = self.config
        pes = config.pes_per_channel
        total_pes = config.total_pes

        def fault(index: int, priority: int, error: Exception,
                  at: Optional[int] = None) -> None:
            faults.append(
                (int(block[index]) if at is None else at, priority, error)
            )

        def where(index: int) -> str:
            return f"ch{int(channel[index])}.pe{int(pe_ids[index])}"

        i = _first((cols < 0) | (cols >= n_cols), block)
        if i >= 0:
            fault(i, 0, SimulationError(
                f"x[{int(cols[i])}] outside loaded window of "
                f"{max(int(n_cols[i]), 0)} in ch{int(channel[i])}.xbuf"
            ))
        i = _first(private & (ope != pe_ids), block)
        if i >= 0:
            fault(i, 1, SimulationError(
                f"private element of PE {int(ope[i])} routed to PE "
                f"{int(pe_ids[i])} of channel {int(channel[i])}"
            ))
        i = _first(rows % total_pes != och * pes + ope, block)
        if i >= 0:
            fault(i, 2, lane_rule_error(
                int(rows[i]), int(och[i]), int(ope[i]), config
            ))
        addresses = rows // total_pes
        i = _first(
            private & ((addresses < 0) | (addresses >= URAM_PARTIAL_SUMS)),
            block,
        )
        if i >= 0:
            fault(i, 3, self._address_error(
                f"{where(i)}.pvt", int(addresses[i]), URAM_PARTIAL_SUMS
            ))
        if not private.all():
            self._check_shared(fault, where, block, ~private, window,
                               channel, pe_ids, och, ope, addresses)
        # The Rearrange Unit's output-window bound, met at each window's
        # end; with the lane rule holding a bank's row is its elements'.
        outside = rows >= window_rows[window]
        for priority, kind, mask in ((9, "private", private),
                                     (10, "shared", ~private)):
            i = _first(outside & mask, block)
            if i >= 0:
                row = int(bases[window[i]] + rows[i])
                fault(i, priority, SimulationError(
                    f"{kind} sum for row {row} outside window"
                ), at=int(window_end[window[i]]))

    def _check_shared(self, fault, where, block, shared, window, channel,
                      pe_ids, och, ope, addresses) -> None:
        """The ScUG rules, over the migrated elements."""
        config = self.config
        pes = config.pes_per_channel
        channels = config.sparse_channels
        scug_size = getattr(config, "scug_size", 0)
        span = getattr(config, "migration_span", 0)
        first = _first(shared, block)
        if scug_size == 0 or span == 0:
            fault(first, 4, SimulationError(
                f"channel {int(channel[first])} PE {int(pe_ids[first])} "
                "received a migrated element but has no ScUG (Serpens "
                "datapath)"
            ))
            return
        # A PE holds one ScUG per donor channel within a row window, made
        # when the donor's first element arrives.  No PE can need more
        # ScUGs than its channel has donors, so most schedules skip this.
        sh = np.flatnonzero(shared)
        donors = int(och[sh].max()) + 1
        pairs = np.bincount(channel[sh] * donors + och[sh],
                            minlength=channels * donors)
        if (np.count_nonzero(pairs.reshape(channels, donors), axis=1)
                > span).any():
            owner = (window[sh] * channels + channel[sh]) * pes + pe_ids[sh]
            _, seen = np.unique(owner * donors + och[sh], return_index=True)
            # Each owner's donors in arrival order; the (span+1)-th fails.
            seen = seen[np.lexsort((seen, owner[seen]))]
            grouped = owner[seen]
            index = np.arange(grouped.size)
            starts = np.r_[True, grouped[1:] != grouped[:-1]]
            rank = index - np.maximum.accumulate(np.where(starts, index, 0))
            extra = np.zeros(shared.size, dtype=bool)
            extra[sh[seen[rank >= span]]] = True
            i = _first(extra, block)
            if i >= 0:
                fault(i, 5, SimulationError(
                    f"channel {int(channel[i])} PE {int(pe_ids[i])} would "
                    f"need {span + 1} ScUGs but the configuration "
                    f"provisions {span} (§6.1)"
                ))
        if not 1 <= scug_size <= pes:
            fault(first, 6, CapacityError(
                f"ScUG size {scug_size} must be in 1..{pes}"
            ))
        i = _first(shared & ((ope < 0) | (ope >= pes)), block)
        if i >= 0:
            fault(i, 7, SimulationError(
                f"source PE {int(ope[i])} out of range in "
                f"{where(i)}.scug{int(och[i])}"
            ))
        capacity = URAM_PARTIAL_SUMS // -(-pes // max(scug_size, 1))
        i = _first(shared & ((addresses < 0) | (addresses >= capacity)),
                   block)
        if i >= 0:
            fault(i, 8, self._address_error(
                f"{where(i)}.scug{int(och[i])}.sh{int(ope[i])}",
                int(addresses[i]), capacity,
            ))

    @staticmethod
    def _address_error(bank: str, address: int, capacity: int) -> Exception:
        if address < 0:
            return SimulationError(f"negative URAM address in {bank}")
        return CapacityError(
            f"URAM {bank!r}: address {address} exceeds capacity {capacity}"
        )

    def _layout(self, rows, cols, values, col_base, window, bases, channel,
                pe_ids, private) -> None:
        """Number the banks and lay the arrays out in chain order."""
        n_rows = self.n_rows
        pes = self.config.pes_per_channel
        out_rows = bases[window] + rows
        # Under the lane rule a private bank (PE, address) is one output
        # row, and a ScUG bank (PE, donor, source PE, address) is one
        # (channel, row, PE): sorting by that key puts each reduced sum's
        # banks in PE order, and the reduced sums in channel order.
        private_rows, private_bank = np.unique(
            out_rows[private], return_inverse=True
        )
        shared = ~private
        radix = max(n_rows, 1)
        bank_keys, shared_bank = np.unique(
            (channel[shared] * radix + out_rows[shared]) * pes
            + pe_ids[shared],
            return_inverse=True,
        )
        reduced_keys = bank_keys // pes
        new_sum = np.ones(reduced_keys.size, dtype=bool)
        new_sum[1:] = reduced_keys[1:] != reduced_keys[:-1]
        n_private = int(private_rows.size)
        self._n_banks = n_private + int(bank_keys.size)
        bank = np.empty(rows.size, dtype=np.int64)
        bank[private] = private_bank.reshape(-1)
        bank[shared] = n_private + shared_bank.reshape(-1)
        self._bank = _index_array(bank, self._n_banks)
        self._fold = _index_array(np.cumsum(new_sum) - 1, bank_keys.size)
        reduced_rows = reduced_keys[new_sum] % radix
        if not _has_reduction_unit(self.config):
            # Without a Reduction Unit nothing drains the ScUGs.
            reduced_rows = reduced_rows[:0]
        self._out_rows = _index_array(
            np.concatenate((private_rows, reduced_rows)), n_rows
        )
        self._cols = _index_array(col_base + cols, self.x_size)
        narrow = values.astype(np.float32)
        self._values = (
            narrow if np.array_equal(narrow, values) else values.copy()
        )
        self.private_values = n_private
        self.shared_values = int(reduced_rows.size)
        # The Rearrange Unit's stream_Ax buffers one window's values.
        per_window = np.bincount(
            np.searchsorted(bases, self._out_rows, side="right") - 1,
            minlength=bases.size,
        )
        self.fifo_high_water = int(per_window.max()) if per_window.size else 0

    # -- execute -------------------------------------------------------------

    def execute(self, x: np.ndarray) -> SpMVExecution:
        """One ``y = A x``: byte-identical to the object model's."""
        y = np.zeros(self.n_rows, dtype=np.float64)
        if self.total_macs:
            x = np.asarray(x, dtype=np.float32)
            products = np.multiply(
                self._values, x[self._cols], dtype=np.float64
            )
            sums = np.bincount(
                self._bank, weights=products, minlength=self._n_banks
            )
            n_private = self.private_values
            if self.shared_values:
                reduced = np.bincount(
                    self._fold, weights=sums[n_private:],
                    minlength=self.shared_values,
                )
                sums = np.concatenate((sums[:n_private], reduced))
            else:
                sums = sums[:n_private]
            y = np.bincount(self._out_rows, weights=sums,
                            minlength=self.n_rows)
        cycles = self.cycles
        return SpMVExecution(
            y=y,
            cycles=CycleBreakdown(
                cycles.stream, cycles.x_load, cycles.drain,
                cycles.reduction, cycles.output, cycles.overhead,
            ),
            config=self.config,
            scheme=self.scheme,
            nnz=self.nnz,
            total_macs=self.total_macs,
            shared_macs=self.shared_macs,
            stats={
                "shared_fraction": (
                    self.shared_macs / self.total_macs
                    if self.total_macs else 0.0
                ),
                "private_values": self.private_values,
                "shared_values": self.shared_values,
            },
        )

    def emit_telemetry(self, t: "telemetry.Telemetry") -> None:
        """The object model's per-execution counters and gauge."""
        for channel in range(self.config.sparse_channels):
            t.counter("sim.peg.busy_cycles", self.channel_busy[channel],
                      channel=channel)
            t.counter("sim.peg.stall_cycles", self.channel_idle[channel],
                      channel=channel)
        t.gauge("sim.fifo.high_water", self.fifo_high_water,
                fifo="stream_Ax")


def _stamp(schedule: TiledSchedule, config: AcceleratorConfig,
           x_size: int) -> tuple:
    """Everything a plan depends on, compared by value or identity."""
    return (
        config, x_size, schedule.scheme, schedule.n_rows, schedule.n_cols,
        [(tile.row_base, tile.col_base, len(tile.grids))
         for tile in schedule.tiles],
        [(grid, grid.revision, grid.length, grid.channel_id)
         for tile in schedule.tiles for grid in tile.grids],
    )


def plan_for(
    schedule: TiledSchedule,
    config: Optional[AcceleratorConfig] = None,
    x_size: Optional[int] = None,
) -> ExecutionPlan:
    """The schedule's plan, compiled on first use and whenever stale."""
    config = config or schedule.config
    if x_size is None:
        x_size = schedule.n_cols
    stamp = _stamp(schedule, config, x_size)
    plan = schedule.plan_memo
    if plan is None or plan.stamp != stamp:
        plan = ExecutionPlan.compile(schedule, config, x_size)
        plan.stamp = stamp
        schedule.plan_memo = plan
    return plan


def execute_plan(
    schedule: TiledSchedule,
    x: np.ndarray,
    config: Optional[AcceleratorConfig] = None,
) -> SpMVExecution:
    """:func:`~repro.sim.engine.execute_schedule`, through the plan."""
    t = telemetry.get()
    attrs = (
        {"scheme": schedule.scheme, "nnz": schedule.nnz}
        if t.enabled else {}
    )
    with t.span("sim.execute", **attrs):
        x = np.asarray(x, dtype=np.float32)
        if schedule.n_cols and x.shape != (schedule.n_cols,):
            raise ShapeError(
                f"x of length {x.shape} incompatible with "
                f"{schedule.n_rows}x{schedule.n_cols} schedule"
            )
        plan = plan_for(schedule, config, x.size)
        execution = plan.execute(x)
        if t.enabled:
            plan.emit_telemetry(t)
    return execution
