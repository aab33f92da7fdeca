"""Differential tests: the compiled execution plan vs the object model.

:class:`~repro.sim.plan.ExecutionPlan` is the fast path every runner
execution takes; :func:`~repro.sim.engine.execute_schedule` (PE, PEG,
URAM, Reduction- and Rearrange-Unit objects) is the oracle.  The two must
agree byte for byte — ``y``, the cycle breakdown, MAC counts, stats and
telemetry — on the golden corpus under every executable scheme and
several configurations, on random matrices (hypothesis), and in the error
each raises for a broken schedule.  A memoized plan must never outlive an
edit of its schedule.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.config import (
    DEFAULT_SERPENS,
    ChasonConfig,
    HBMConfig,
    SerpensConfig,
)
from repro.errors import CapacityError, ShapeError, SimulationError
from repro.matrices import generators
from repro.matrices.collection import corpus_specs
from repro.matrices.named import generate_named
from repro.pipeline import PipelineRunner
from repro.scheduling.base import (
    ChannelGrid,
    Schedule,
    ScheduledElement,
    TiledSchedule,
)
from repro.scheduling.registry import get_scheme, registered_schemes
from repro.scheduling.serialize import serialize_schedule
from repro.sim.engine import execute_schedule
from repro.sim.plan import ExecutionPlan, execute_plan

#: The golden corpus of the pipeline differential (tests/test_pipeline.py).
CORPUS = corpus_specs(20, nnz_cap=6_000)

#: Every scheme the datapath can execute; ``row_split`` is checked for
#: error parity instead (its split rows break the lane rule).
EXECUTABLE = [s for s in registered_schemes() if s != "row_split"]

SMALL_HBM = HBMConfig(total_channels=8)


#: Configuration variants: the scheme default, a narrower ScUG with a
#: wider migration span (Chasoň schemes), and windows cut so every matrix
#: spans 4 row windows × 3 column windows.
VARIANTS = ("default", "scug2_span2", "small_windows")


def _config(scheme, variant, matrix):
    base = get_scheme(scheme).default_config
    if variant == "scug2_span2":
        return dataclasses.replace(base, scug_size=2, migration_span=2)
    if variant == "small_windows":
        return dataclasses.replace(
            base,
            row_window=-(-matrix.n_rows // 4),
            column_window=-(-matrix.n_cols // 3),
        )
    return base


CASES = [
    (scheme, variant)
    for scheme in EXECUTABLE
    for variant in VARIANTS
    if variant != "scug2_span2"
    or isinstance(get_scheme(scheme).default_config, ChasonConfig)
]


def _x(n_cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n_cols) * 4).astype(np.float32)


def assert_identical(oracle, planned) -> None:
    """``y`` bytes, cycles, MAC counts and stats all equal."""
    assert oracle.y.dtype == planned.y.dtype == np.float64
    assert oracle.y.tobytes() == planned.y.tobytes()
    assert oracle.cycles == planned.cycles
    assert oracle.total_macs == planned.total_macs
    assert oracle.shared_macs == planned.shared_macs
    assert oracle.stats == planned.stats
    assert oracle.nnz == planned.nnz
    assert oracle.scheme == planned.scheme
    assert oracle.config == planned.config


def _error_of(call):
    try:
        call()
    except Exception as error:  # noqa: BLE001 - the error is the result
        return error
    return None


def assert_same_error(schedule, x, config=None) -> Exception:
    """Oracle and plan raise the same error type and message."""
    oracle = _error_of(lambda: execute_schedule(schedule, x, config))
    planned = _error_of(lambda: execute_plan(schedule, x, config))
    assert oracle is not None and planned is not None
    assert type(planned) is type(oracle)
    assert str(planned) == str(oracle)
    return planned


@pytest.mark.parametrize(
    "scheme,variant", CASES, ids=[f"{s}-{v}" for s, v in CASES]
)
def test_golden_corpus_byte_identical(scheme, variant):
    runner = PipelineRunner()
    for spec in CORPUS:
        matrix = spec.generate()
        config = _config(scheme, variant, matrix)
        scheduled = runner.schedule(matrix, scheme, config)
        if variant == "small_windows":
            assert len(scheduled.schedule.tiles) >= 6
        x = _x(matrix.n_cols, spec.index)
        oracle = execute_schedule(scheduled.schedule, x, scheduled.config)
        assert_identical(oracle, runner.execute(scheduled, x))


def _small_config(chason: bool, span: int = 1):
    common = dict(
        sparse_channels=4, pes_per_channel=4, accumulator_latency=4,
        column_window=48, row_window=80, hbm=SMALL_HBM,
    )
    if chason:
        return ChasonConfig(scug_size=2, migration_span=span, **common)
    return SerpensConfig(**common)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n_rows=st.integers(1, 260),
    n_cols=st.integers(1, 200),
    density=st.floats(0.0, 0.08),
    skewed=st.booleans(),
    scheme=st.sampled_from(EXECUTABLE),
    span=st.integers(1, 2),
    seed=st.integers(0, 2**16),
)
def test_random_matrices_byte_identical(n_rows, n_cols, density, skewed,
                                        scheme, span, seed):
    nnz = max(1, int(n_rows * n_cols * density))
    if skewed and n_rows > 1:
        matrix = generators.power_law_rows(n_rows, n_cols, nnz, alpha=1.4,
                                           seed=seed)
    else:
        matrix = generators.uniform_random(n_rows, n_cols, nnz, seed=seed)
    chason = isinstance(get_scheme(scheme).default_config, ChasonConfig)
    config = _small_config(chason, span)
    runner = PipelineRunner()
    scheduled = runner.schedule(matrix, scheme, config)
    x = _x(matrix.n_cols, seed)
    oracle = execute_schedule(scheduled.schedule, x, scheduled.config)
    assert_identical(oracle, runner.execute(scheduled, x))


# -- error parity ------------------------------------------------------------


def _hand_schedule(config, elements, n_rows, n_cols):
    """One tile at the origin; ``elements`` is [(channel, cycle, pe, elem)]."""
    grids = [
        ChannelGrid(channel, config.pes_per_channel)
        for channel in range(config.sparse_channels)
    ]
    for channel, cycle, pe, element in elements:
        grids[channel].place(cycle, pe, element)
    tile = Schedule(config=config, grids=grids, scheme="hand")
    tile.equalise()
    return TiledSchedule(config=config, tiles=[tile], scheme="hand",
                         n_rows=n_rows, n_cols=n_cols)


def test_x_shape_error_parity():
    matrix = CORPUS[0].generate()
    scheduled = PipelineRunner().schedule(matrix, "crhcs")
    x = np.ones(matrix.n_cols + 1, dtype=np.float32)
    with pytest.raises(ShapeError):
        execute_schedule(scheduled.schedule, x)
    with pytest.raises(ShapeError):
        PipelineRunner().execute(scheduled, x)


def test_uram_overflow_error_parity():
    config = _small_config(chason=True)
    row = 8192 * config.total_pes  # address 8192: one past URAM_pvt
    schedule = _hand_schedule(
        config, [(0, 0, 0, ScheduledElement(row, 0, 1.0, 0, 0))],
        n_rows=row + 1, n_cols=4,
    )
    error = assert_same_error(schedule, np.ones(4, dtype=np.float32))
    assert isinstance(error, CapacityError)


def test_too_many_scugs_error_parity():
    config = _small_config(chason=True, span=1)
    pes = config.pes_per_channel
    # Channel 0 PE 0 takes rows homed in channels 1 and 2: two donors.
    schedule = _hand_schedule(config, [
        (0, 0, 0, ScheduledElement(1 * pes, 0, 1.0, 1, 0)),
        (0, 1, 0, ScheduledElement(2 * pes, 1, 1.0, 2, 0)),
    ], n_rows=config.total_pes, n_cols=4)
    error = assert_same_error(schedule, np.ones(4, dtype=np.float32))
    assert isinstance(error, SimulationError)
    assert "ScUGs" in str(error)

    # Two donors in one channel but one per PE fits the span.
    schedule = _hand_schedule(config, [
        (0, 0, 0, ScheduledElement(1 * pes, 0, 1.0, 1, 0)),
        (0, 0, 1, ScheduledElement(2 * pes, 1, 1.0, 2, 0)),
    ], n_rows=config.total_pes, n_cols=4)
    x = np.arange(1, 5, dtype=np.float32)
    assert_identical(execute_schedule(schedule, x), execute_plan(schedule, x))


def test_migrated_element_on_serpens_error_parity():
    matrix = CORPUS[1].generate()
    schedule = PipelineRunner().schedule(matrix, "crhcs").schedule
    assert schedule.migrated_count > 0
    error = assert_same_error(schedule, _x(matrix.n_cols, 1),
                              DEFAULT_SERPENS)
    assert isinstance(error, SimulationError)
    assert "no ScUG" in str(error)


def test_misrouted_private_error_parity():
    config = _small_config(chason=False)
    schedule = _hand_schedule(
        config, [(0, 0, 1, ScheduledElement(0, 0, 1.0, 0, 0))],
        n_rows=config.total_pes, n_cols=4,
    )
    error = assert_same_error(schedule, np.ones(4, dtype=np.float32))
    assert "routed to PE 1" in str(error)


def test_x_window_error_parity():
    config = _small_config(chason=False)
    schedule = _hand_schedule(
        config, [(0, 0, 0, ScheduledElement(0, 9, 1.0, 0, 0))],
        n_rows=config.total_pes, n_cols=4,
    )
    error = assert_same_error(schedule, np.ones(4, dtype=np.float32))
    assert "outside loaded window" in str(error)


def test_first_fault_in_execution_order_wins():
    """Two broken row windows listed out of order: both models stop at
    the fault of the lower window, not of the first-listed tile."""
    config = _small_config(chason=True)
    n_rows = 2 * config.row_window

    def tile(element):
        return _hand_schedule(config, [element], n_rows, 4).tiles[0]

    # Window 0: row 2 tagged with lane 1 (a lane-rule fault).
    low = tile((0, 0, 1, ScheduledElement(2, 0, 1.0, 0, 1)))
    # Window 1: URAM address 8192 (a capacity fault).
    high = tile((0, 0, 0, ScheduledElement(
        8192 * config.total_pes, 0, 1.0, 0, 0)))
    high.row_base = config.row_window
    schedule = TiledSchedule(config=config, tiles=[high, low], scheme="hand",
                             n_rows=n_rows, n_cols=4)
    error = assert_same_error(schedule, np.ones(4, dtype=np.float32))
    assert "lane rule" in str(error)


@pytest.mark.parametrize("name", ["as-735", "wiki-Vote", "CollegeMsg"])
def test_row_split_raises_the_lane_rule(name):
    """Split shards sit off their row's Eq. 1 lane: both models refuse
    them instead of writing their sums to another row."""
    matrix = generate_named(name)
    x = _x(matrix.n_cols, 3)
    runner = PipelineRunner()
    with pytest.raises(SimulationError, match="lane rule"):
        runner.run(matrix, x, "row_split")
    schedule = runner.schedule(matrix, "row_split").schedule
    with pytest.raises(SimulationError, match="lane rule"):
        execute_schedule(schedule, x)


def test_row_split_without_split_rows_executes():
    """Below the split threshold row_split is plain greedy: it runs."""
    matrix = generators.uniform_random(120, 90, 300, seed=5)
    runner = PipelineRunner()
    scheduled = runner.schedule(matrix, "row_split")
    x = _x(matrix.n_cols, 5)
    oracle = execute_schedule(scheduled.schedule, x)
    assert_identical(oracle, runner.execute(scheduled, x))
    assert oracle.verify(matrix.matvec(x))


# -- memoization -------------------------------------------------------------


def _executed_pair(schedule, x):
    oracle = execute_schedule(schedule, x)
    planned = execute_plan(schedule, x)
    assert_identical(oracle, planned)
    return planned


def test_plan_is_memoized_on_the_schedule():
    matrix = CORPUS[2].generate()
    runner = PipelineRunner()
    scheduled = runner.schedule(matrix, "crhcs")
    x = _x(matrix.n_cols, 2)
    runner.execute(scheduled, x)
    plan = scheduled.schedule.plan_memo
    assert isinstance(plan, ExecutionPlan)
    runner.execute(scheduled, _x(matrix.n_cols, 3))
    assert scheduled.schedule.plan_memo is plan


def test_edited_schedule_never_runs_a_stale_plan():
    matrix = CORPUS[3].generate()
    schedule = PipelineRunner().schedule(matrix, "crhcs").schedule
    x = _x(matrix.n_cols, 4)
    _executed_pair(schedule, x)
    tile = schedule.tiles[0]
    grid = next(g for g in tile.grids if g.element_count)
    cycles, pes = grid.occupied_coords()
    cycle, pe = int(cycles[0]), int(pes[0])

    # A value edit in place: same slots, same counts.
    stale = schedule.plan_memo
    element = grid.slot(cycle, pe)
    grid.set_slot(cycle, pe, element._replace(value=element.value + 1.5))
    _executed_pair(schedule, x)
    assert schedule.plan_memo is not stale

    # A slot moved to a new cycle (grid length grows).
    stale = schedule.plan_memo
    moved = grid.take(cycle, pe)
    grid.place(len(grid) + 3, pe, moved)
    _executed_pair(schedule, x)
    assert schedule.plan_memo is not stale

    # A direct length edit (stall padding) changes the cycle accounting.
    stale = schedule.plan_memo
    before = execute_plan(schedule, x).cycles.stream
    for g in tile.grids:
        g.length += 5
    assert execute_plan(schedule, x).cycles.stream == before + 5
    assert schedule.plan_memo is not stale

    # Replacing a grid object, and changing the configuration.
    stale = schedule.plan_memo
    tile.grids[grid.channel_id] = grid.clone()
    _executed_pair(schedule, x)
    assert schedule.plan_memo is not stale
    wider = dataclasses.replace(schedule.config, scug_size=2)
    oracle = execute_schedule(schedule, x, wider)
    assert_identical(oracle, execute_plan(schedule, x, wider))


def test_memo_is_invisible_to_serialization():
    matrix = CORPUS[4].generate()
    runner = PipelineRunner()
    scheduled = runner.schedule(matrix, "pe_aware")
    before = serialize_schedule(scheduled.schedule)
    runner.execute(scheduled, _x(matrix.n_cols, 5))
    assert scheduled.schedule.plan_memo is not None
    assert serialize_schedule(scheduled.schedule) == before
    assert "plan_memo" not in repr(scheduled.schedule)


# -- telemetry ---------------------------------------------------------------


def _sim_records(records):
    out = []
    for record in records:
        if record["name"] in ("sim.peg.busy_cycles", "sim.peg.stall_cycles",
                              "sim.fifo.high_water"):
            out.append((record["kind"], record["name"], record["value"],
                        tuple(sorted(record["attrs"].items()))))
    return sorted(out)


@pytest.mark.parametrize("scheme", ["crhcs", "pe_aware"])
def test_runner_path_keeps_the_simulator_telemetry(scheme):
    matrix = CORPUS[5].generate()
    runner = PipelineRunner()
    scheduled = runner.schedule(matrix, scheme)
    x = _x(matrix.n_cols, 6)
    with telemetry.capture() as oracle_capture:
        execute_schedule(scheduled.schedule, x, scheduled.config)
    with telemetry.capture() as plan_capture:
        runner.execute(scheduled, x)
    expected = _sim_records(oracle_capture.records)
    assert expected, "the oracle emits per-channel counters"
    assert _sim_records(plan_capture.records) == expected
    for capture in (oracle_capture, plan_capture):
        spans = [r for r in capture.records
                 if r["kind"] == "span" and r["name"] == "sim.execute"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["nnz"] == matrix.nnz


# -- grid storage --------------------------------------------------------------


def test_shrink_to_length_frees_slack_and_keeps_slots():
    grid = ChannelGrid(0, 4)
    grid.reserve(100)
    for cycle in range(6):
        grid.place(cycle, cycle % 4, ScheduledElement(cycle, 0, 1.0, 0,
                                                      cycle % 4))
    grid.ensure_length(9)
    arrays = grid.element_arrays()
    revision = grid.revision
    grid.shrink_to_length()
    assert grid.capacity == 9
    assert grid.revision == revision
    assert all(np.array_equal(a, b)
               for a, b in zip(arrays, grid.element_arrays()))
    grid.place(40, 0, ScheduledElement(40, 0, 1.0, 0, 0))
    assert grid.slot(40, 0) is not None


def test_shrink_keeps_elements_past_length():
    grid = ChannelGrid(0, 4)
    grid.reserve(50)
    grid.place(20, 0, ScheduledElement(20, 0, 1.0, 0, 0))
    grid.length = 10
    grid.shrink_to_length()
    assert grid.capacity == 21
    assert grid.element_count == 1


def test_finished_schedules_hold_no_reserve_slack():
    matrix = generate_named("CollegeMsg")
    for scheme in ("crhcs", "pe_aware"):
        schedule = PipelineRunner().schedule(matrix, scheme).schedule
        for tile in schedule.tiles:
            for grid in tile.grids:
                assert grid.capacity <= len(grid)
