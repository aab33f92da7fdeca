"""Row-splitting scheduling — the HiSpMV-style alternative (§2.1).

The paper's related work (§2.1) describes accelerators that attack the
RAW chain of long rows by *splitting* them: HiSpMV's "hybrid row
distribution" lets one row's non-zeros spread across several PEs of its
own channel, each accumulating a private partial sum that an intra-
channel reduction later merges — more BRAM/URAM, better behaviour on
imbalanced matrices, but still strictly intra-channel.

This scheduler reproduces that idea on the Serpens datapath geometry so
the ablation suite can separate the two orthogonal remedies for stalls:

* **row splitting** breaks the *RAW chain of a single hub row* (HiSpMV);
* **cross-channel migration** fills the *starved channels* (CrHCS).

Rows longer than ``split_threshold`` are cut into one shard per PE of
the home channel; every shard schedules independently under the greedy
cooldown policy.  Shards of a row in different PEs accumulate into
different partial-sum banks, merged by an intra-channel reduction —
architecturally the same trick as Chasoň's ScUG, spent on the home
channel instead of a neighbour.  Scheme name: ``"row_split"``.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from ..config import DEFAULT_SERPENS, AcceleratorConfig
from ..errors import SchedulingError
from ..formats.coo import COOMatrix
from ..formats.csr import CSRMatrix
from .base import ChannelGrid, Schedule, ScheduledElement, TiledSchedule, pe_for_row
from .greedy import schedule_single_pe_greedy
from .passes import PassManager, register_builder, resolve_passes
from .registry import register_scheme
from .window import Tile, tile_matrix

#: Algorithm revision (cache fingerprint component).
ROW_SPLIT_VERSION = "1"

Matrix = Union[COOMatrix, CSRMatrix]

#: Rows longer than ``threshold_factor x accumulator_latency`` are split:
#: below that, the greedy scheduler can hide the chain by interleaving.
DEFAULT_THRESHOLD_FACTOR = 2


def _split_groups(tile: Tile, config: AcceleratorConfig, threshold: int):
    """Like ``group_rows_by_pe`` but sharding long rows across the PEG.

    Returns ``groups[channel][pe] = [(row, element_indices), ...]`` where
    a long row contributes one shard per PE of its home channel.
    """
    pes = config.pes_per_channel
    groups: List[List[List]] = [
        [[] for _ in range(pes)] for _ in range(config.sparse_channels)
    ]
    if tile.nnz == 0:
        return groups
    order = np.lexsort((tile.cols, tile.rows))
    rows_sorted = tile.rows[order]
    boundaries = np.flatnonzero(np.diff(rows_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [rows_sorted.size]])
    for start, end in zip(starts, ends):
        row = int(rows_sorted[start])
        channel, home_pe = pe_for_row(row, config)
        indices = order[start:end]
        if indices.size <= threshold:
            groups[channel][home_pe].append((row, indices))
            continue
        shards = np.array_split(indices, pes)
        for offset, shard in enumerate(shards):
            if shard.size == 0:
                continue
            pe = (home_pe + offset) % pes
            groups[channel][pe].append((row, shard))
    return groups


def resolve_split_threshold(
    config: AcceleratorConfig, split_threshold: int = 0
) -> int:
    """Resolve the caller's threshold (0 means the §2.1 default)."""
    if split_threshold < 0:
        raise SchedulingError("split threshold must be positive")
    if split_threshold == 0:
        return DEFAULT_THRESHOLD_FACTOR * config.accumulator_latency
    return split_threshold


def row_split_grids(
    tile: Tile, config: AcceleratorConfig, split_threshold: int
) -> List[ChannelGrid]:
    """Unequalised per-channel grids under row splitting + greedy cooldown."""
    split_threshold = resolve_split_threshold(config, split_threshold)
    groups = _split_groups(tile, config, split_threshold)
    distance = config.accumulator_latency
    rows_list = tile.rows.tolist()
    cols_list = tile.cols.tolist()
    values_list = tile.values.tolist()
    grids: List[ChannelGrid] = []
    for channel_id in range(config.sparse_channels):
        grid = ChannelGrid(channel_id=channel_id, pes=config.pes_per_channel)
        occupied = grid.occupied
        for pe in range(config.pes_per_channel):
            cycles, elements, pe_length = schedule_single_pe_greedy(
                groups[channel_id][pe], distance
            )
            grid.ensure_length(pe_length)
            for cycle, element_index in zip(cycles, elements):
                occupied[(cycle, pe)] = ScheduledElement(
                    rows_list[element_index],
                    cols_list[element_index],
                    values_list[element_index],
                    channel_id,
                    pe,
                )
        grids.append(grid)
    return grids


def _row_split_builder(tile, config, options, report):
    """Kernel adapter for the pass pipeline (``build:row_split``)."""
    return row_split_grids(tile, config, options["split_threshold"])


register_builder(
    "row_split",
    _row_split_builder,
    option_keys=("split_threshold",),
    version=ROW_SPLIT_VERSION,
)

#: The scheme's pass composition (declared on the registry spec).
ROW_SPLIT_PASSES = ("build:row_split", "compact", "trim", "verify")


def _row_split_plan(config: AcceleratorConfig, kwargs: dict):
    threshold = resolve_split_threshold(
        config, kwargs.get("split_threshold", 0)
    )
    return resolve_passes(
        ROW_SPLIT_PASSES, options={"split_threshold": threshold}
    )


def schedule_row_split_tile(
    tile: Tile,
    config: AcceleratorConfig,
    split_threshold: int = 0,
) -> Schedule:
    """Schedule one tile with row splitting + greedy cooldown."""
    schedule = Schedule(
        config=config,
        grids=row_split_grids(tile, config, split_threshold),
        scheme="row_split",
        row_base=tile.row_base,
        col_base=tile.col_base,
    )
    schedule.equalise()
    return schedule


@register_scheme(
    name="row_split",
    version=ROW_SPLIT_VERSION,
    default_config=DEFAULT_SERPENS,
    power_key="serpens",
    description="HiSpMV-style long-row splitting (stall analysis only)",
    passes=ROW_SPLIT_PASSES,
    plan=_row_split_plan,
)
def schedule_row_split(
    matrix: Matrix,
    config: AcceleratorConfig,
    split_threshold: int = 0,
    max_rows_per_pass: int = 0,
    _pass_cache=None,
) -> TiledSchedule:
    """Schedule a whole matrix with HiSpMV-style row splitting.

    Note the relaxed lane invariant: shards of a long row legally sit in
    PEs other than the row's Eq. 1 lane, so neither ``Schedule.validate()``
    nor the Chasoň execution engine (both of which assume the
    Serpens/Chasoň lane rule) applies to this scheme — it models the
    *scheduler* of a HiSpMV-class design for stall/cycle analysis, not a
    datapath this simulator can execute (executing split rows raises
    ``SimulationError`` naming the lane rule).  The dedicated tests check the
    row-split invariants (completeness, per-(PE, row) RAW spacing)
    directly.
    """
    plan = _row_split_plan(config, {"split_threshold": split_threshold})
    manager = PassManager(plan, scheme="row_split")
    return manager.run(
        matrix, config,
        max_rows_per_pass=max_rows_per_pass, cache=_pass_cache,
    )
