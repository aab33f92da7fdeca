"""``sweep``: the cold paper evaluation, where scheduling dominates.

Each round is what a new evaluation process does: a fresh
``PipelineRunner`` over a fresh ``ArtifactStore`` and ``ScheduleCache``,
then load → schedule → simulate → metrics (the steps of
``PipelineRunner.analyze``, called one by one so each gets a span) for
every (matrix, scheme) of the mix.  Every analyze is therefore a cold
schedule build plus store inserts.  Nothing is functionally executed
while timed, so an execution-plan change should leave this workload
flat.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ReproError
from repro.matrices.named import generate_named
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling.cache import ScheduleCache

from common import MIX, Outcome, peak_rss_mb, rotated
from spans import Tracer, median

SCHEMES = ("crhcs", "pe_aware")
#: Per-op latency limit for ``slo_frac`` (a cold crhcs build is ~1.3 s).
OP_LIMIT_S = 10.0
#: Fewest rounds per arm (untraced, and traced in a traced run).
MIN_ROUNDS = 3

Op = Tuple[str, str]

#: Per-layer metrics this workload measures (``--trace 1``).
LAYERS = (
    "matrices.load_s", "scheduling.crhcs_s",
    *(f"scheduling.crhcs_s.{m}" for m in MIX),
    "scheduling.pe_aware_s", "scheduling.share_pct", "sim.cycles_s",
    "pipeline.store_s", "pipeline.schedule_builds",
    "pipeline.store_hit_frac", "trace.overhead_pct",
)

SIZING = {
    "loop": "closed, one thread", "matrices": list(MIX),
    "schemes": list(SCHEMES), "op_limit_s": OP_LIMIT_S,
    "per_round": "fresh PipelineRunner(ArtifactStore("
                 "schedule_cache=ScheduleCache()))",
}


def _setup(tracer: Tracer, trace_id: int):
    matrices = {}
    for name in MIX:
        with tracer.span("matrices.generate_named", trace_id=trace_id,
                         matrix=name):
            matrices[name] = generate_named(name)
    # First-call costs (lazy imports, registries) stay out of round 1.
    PipelineRunner().analyze(matrices["c52"], "pe_aware")
    return matrices


def _fresh_runner() -> PipelineRunner:
    return PipelineRunner(ArtifactStore(schedule_cache=ScheduleCache()))


def _round(runner: PipelineRunner, matrices: dict, order: List[Op],
           tracer: Tracer, traced: bool, out: Outcome) -> List[tuple]:
    """One cold analyze of every op: ``[(op, wall_s, report or None)]``."""
    done = []
    for matrix, scheme in order:
        began = time.perf_counter()
        report = None
        with tracer.span("sweep.analyze", record=traced,
                         matrix=matrix, scheme=scheme):
            try:
                loaded = runner.load(matrices[matrix])
                with tracer.span("PipelineRunner.schedule", record=traced,
                                 matrix=matrix, scheme=scheme):
                    scheduled = runner.schedule(loaded, scheme)
                with tracer.span("PipelineRunner.simulate", record=traced):
                    cycles = runner.simulate(scheduled)
                with tracer.span("PipelineRunner.metrics", record=traced):
                    report = runner.metrics(scheduled, cycles).report
            except ReproError as error:
                out.notes.append(f"op {matrix}/{scheme} failed: {error}")
        done.append(((matrix, scheme), time.perf_counter() - began, report))
    return done


def run(seed: int, seconds: float, tracer: Tracer,
        setups: int) -> Outcome:
    out = Outcome()
    setup_s: List[float] = []
    for index in range(setups):
        began = time.perf_counter()
        matrices = _setup(tracer, trace_id=-(index + 1))
        gc.collect()
        setup_s.append(time.perf_counter() - began)

    setup_rss = peak_rss_mb()
    ops: List[Op] = [(m, s) for m in MIX for s in SCHEMES]
    # A process's first round pays its page faults (about 0.5 s of
    # system time, none in later rounds): it runs once, untimed, as
    # warm-up and counts toward setup_s.
    began = time.perf_counter()
    _round(_fresh_runner(), matrices, ops, tracer, False, out)
    gc.collect()
    warm_s = time.perf_counter() - began

    round_nnz = sum(matrices[m].nnz for m, _ in ops)
    op_walls: Dict[Op, List[float]] = {op: [] for op in ops}
    reports: Dict[Op, list] = {op: [] for op in ops}
    round_walls: Dict[bool, List[float]] = {False: [], True: []}
    builds = 0
    hits = lookups = 0
    deadline = time.perf_counter() + seconds
    index = 0
    runner = None
    while (
        len(round_walls[False]) < MIN_ROUNDS
        or (tracer.enabled and len(round_walls[True]) < MIN_ROUNDS)
        or time.perf_counter() < deadline
    ):
        # In a traced run every other round records spans; the other
        # half is the untraced baseline for the tracing overhead.
        traced = tracer.enabled and index % 2 == 1
        # Drop the previous round's store before collecting: two rounds
        # of live schedules double the footprint and slow the round.
        runner = None
        gc.collect()
        runner = _fresh_runner()
        began = time.perf_counter()
        with tracer.span("sweep.round", trace_id=index + 1, record=traced):
            done = _round(runner, matrices, rotated(ops, seed + index),
                          tracer, traced, out)
        round_walls[traced].append(time.perf_counter() - began)
        for op, wall, report in done:
            op_walls[op].append(wall)
            reports[op].append(report)
        builds += runner.store.stage_misses("schedule")
        hits += sum(runner.store.hits.values())
        lookups += sum(runner.store.hits.values()) + sum(
            runner.store.misses.values()
        )
        index += 1

    timed_rss = peak_rss_mb()

    # -- correctness, untimed ----------------------------------------
    # The last round's store still holds every schedule, so prepare is
    # a cache hit: the functional run executes the schedule the timed
    # op analyzed.
    rng = np.random.default_rng(seed)
    op_ok: Dict[Op, bool] = {}
    for matrix, scheme in ops:
        coo = matrices[matrix]
        x = rng.standard_normal(coo.n_cols).astype(np.float32)
        analyzed = reports[(matrix, scheme)][-1]
        with tracer.span("PipelineRunner.prepare", trace_id=0):
            prepared = runner.prepare(coo, scheme)
        with tracer.span("PreparedSpMV.execute", trace_id=0,
                         matrix=matrix, scheme=scheme):
            execution = prepared.execute(x)
        del prepared
        op_ok[(matrix, scheme)] = (
            analyzed is not None
            and out.check(
                execution.verify(coo.matvec(x)),
                f"{matrix}/{scheme}: y differs from the float64 matvec",
            )
            and out.check(
                execution.cycles.total == analyzed.total_cycles,
                f"{matrix}/{scheme}: executed cycles "
                f"{execution.cycles.total} != analyzed "
                f"{analyzed.total_cycles}",
            )
        )
    runner = None

    within = 0
    for op in ops:
        reference = reports[op][-1]
        for wall, report in zip(op_walls[op], reports[op]):
            out.attempted += 1
            good = op_ok[op] and report == reference
            if not good:
                out.failed += 1
            elif wall <= OP_LIMIT_S:
                within += 1
    out.check(out.failed == 0, f"{out.failed} sweep ops failed")

    final = {op: reports[op][-1] for op in ops}
    if all(final.values()):
        out.end_to_end["accel_ms"] = sum(
            final[op].latency_ms for op in ops
        )
        crhcs = [final[(m, "crhcs")].underutilization_pct for m in MIX]
        out.end_to_end["pe_underutil_pct"] = sum(crhcs) / len(crhcs)
    walls = round_walls[False]
    # Each op's best wall over the run: the host's speed drifts by up to
    # 1.7x over tens of seconds, and the fastest sample of each op is the
    # figure that stays put from run to run (see README.md).
    best_s = sum(min(op_walls[op]) for op in ops)
    out.end_to_end.update(
        setup_s=median(setup_s) + warm_s,
        nnz_per_s=round_nnz / best_s,
        lat_ms=1e3 * best_s / len(ops),
        slo_frac=within / out.attempted,
        ok_frac=(out.attempted - out.failed) / out.attempted,
        peak_rss_mb=timed_rss,
    )
    out.notes.append(
        f"sweep: {len(walls) + len(round_walls[True])} rounds of "
        f"{len(ops)} cold analyses, {round_nnz} nnz per round, "
        f"round walls {[round(w, 3) for w in walls]}"
    )

    out.notes.append(
        f"set-ups {[round(t, 3) for t in setup_s]} s, warm round "
        f"{warm_s:.3f} s"
    )
    out.notes.append(
        f"peak RSS {setup_rss:.0f} MB after set-up, {timed_rss:.0f} MB "
        f"after the timed phase"
    )

    if tracer.enabled:
        layer = out.per_layer
        layer["pipeline.schedule_builds"] = builds
        layer["pipeline.store_hit_frac"] = hits / max(lookups, 1)
        _sweep_layers(tracer, layer, round_walls[True])
        layer["trace.overhead_pct"] = 100.0 * (
            median(round_walls[True]) / median(walls) - 1.0
        )
    return out


def _sweep_layers(tracer: Tracer, layer: Dict[str, float],
                  traced_walls: List[float]) -> None:
    schedule = "PipelineRunner.schedule"
    layer["matrices.load_s"] = tracer.phase_median(
        "matrices.generate_named", "setup"
    )
    layer["scheduling.crhcs_s"] = tracer.phase_median(
        schedule, "timed", scheme="crhcs"
    )
    for matrix in MIX:
        layer[f"scheduling.crhcs_s.{matrix}"] = tracer.phase_median(
            schedule, "timed", scheme="crhcs", matrix=matrix
        )
    layer["scheduling.pe_aware_s"] = tracer.phase_median(
        schedule, "timed", scheme="pe_aware"
    )
    layer["sim.cycles_s"] = tracer.phase_median(
        "PipelineRunner.simulate", "timed"
    )
    layer["pipeline.store_s"] = tracer.phase_median("sweep.analyze", "timed")
    layer["scheduling.share_pct"] = 100.0 * sum(
        tracer.phase_totals(schedule, "timed")
    ) / sum(traced_walls)
