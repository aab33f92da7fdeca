"""``solve``: warm iterative sessions, where the object-model simulator
dominates.

One ``ServingEngine(workers=1)`` behind a ``SessionManager`` holds one
``power_iteration`` session per mix matrix under crhcs, with
``tolerance=0`` and an iteration cap no run reaches.  One client thread
steps the sessions round-robin, ``STEP_ITERS`` iterations per step.
Each session's schedule is built on its first step, inside set-up, so
a scheduler change moves ``setup_s`` here but not ``nnz_per_s``.  c52
(20k nnz, many row windows) and mycielskian12 (407k nnz) separate
per-row-window cost from per-nnz cost.  A traced run adds a paired
phase after the timed one, which splits a step into the simulator's
``PreparedSpMV.execute`` and the session and serving overhead around it.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import numpy as np

from repro.errors import ReproError
from repro.matrices.named import generate_named
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling.cache import ScheduleCache
from repro.serving.engine import ServingEngine
from repro.sessions import SessionManager
from repro.solvers.steps import power_init, power_step

from common import MIX, Outcome, peak_rss_mb, rotated
from spans import Tracer, median

ENGINE_WORKERS = 1
#: Iterations per timed step: one, so each timed op is short and a run
#: holds many samples of each session.
STEP_ITERS = 1
#: Iterations of the first step, in set-up; the offline reference must
#: match this prefix bit for bit.
PREFIX_ITERS = 2
ITER_CAP = 10**6
#: Per-iteration latency limit for ``slo_frac`` (c52 takes ~0.6 s).
ITER_LIMIT_S = 2.0
MIN_ROUNDS = 3
#: Step/execute pairs per matrix (traced run only).
EXEC_REPEATS = 4

#: Per-layer metrics this workload measures (``--trace 1``).
LAYERS = (
    "matrices.load_s", "pipeline.schedule_builds", "sessions.open_s",
    "sessions.execute_share_pct", "trace.overhead_pct",
    *(f"{metric}{suffix}"
      for metric in ("sessions.step_ms", "sim.execute_ms",
                     "sessions.overhead_ms")
      for suffix in ("", *(f".{m}" for m in MIX))),
)

SIZING = {
    "loop": "closed, one client thread", "engine_workers": ENGINE_WORKERS,
    "sessions": list(MIX), "solver": "power_iteration", "scheme": "crhcs",
    "tolerance": 0.0, "iteration_cap": ITER_CAP,
    "iterations_per_step": STEP_ITERS, "first_step_iterations": PREFIX_ITERS,
    "iter_limit_s": ITER_LIMIT_S,
}


class _Program:
    """One set-up: matrices, engine, manager and the opened sessions."""

    def __init__(self, tracer: Tracer, trace_id: int, seed: int):
        self.matrices = {}
        for name in MIX:
            with tracer.span("matrices.generate_named", trace_id=trace_id,
                             matrix=name):
                self.matrices[name] = generate_named(name)
        self.engine = ServingEngine(workers=ENGINE_WORKERS).start()
        self.manager = SessionManager(engine=self.engine)
        self.sessions = {}
        #: Per-iteration accelerator seconds, from the first step.
        self.accel_s: Dict[str, float] = {}
        #: The iterate fetched right after the first step.
        self.first = {}
        # A fixed open order: the order the schedules are built in sets
        # the set-up's peak memory.
        for name in MIX:
            with tracer.span("SessionManager.open", trace_id=trace_id,
                             matrix=name):
                session = self.manager.open(
                    self.matrices[name], solver="power_iteration",
                    scheme="crhcs", tolerance=0.0,
                    max_iterations=ITER_CAP, params={"seed": seed},
                )
            with tracer.span("SolverSession.step", trace_id=trace_id,
                             matrix=name):
                payload = session.step(PREFIX_ITERS)
            with tracer.span("SolverSession.result", trace_id=trace_id,
                             matrix=name):
                self.first[name] = session.result()
            self.sessions[name] = session
            self.accel_s[name] = (
                payload["accelerator_seconds"] / payload["iterations"]
            )

    def close(self) -> None:
        self.manager.close_all()
        self.engine.shutdown()


def run(seed: int, seconds: float, tracer: Tracer,
        setups: int) -> Outcome:
    out = Outcome()
    setup_s: List[float] = []
    program = None
    for index in range(setups):
        if program is not None:
            program.close()
            program = None
        gc.collect()
        began = time.perf_counter()
        program = _Program(tracer, -(index + 1), seed)
        gc.collect()
        setup_s.append(time.perf_counter() - began)
    setup_rss = peak_rss_mb()
    matrices = program.matrices
    sessions = program.sessions
    engine_store = program.engine.store
    builds_before = engine_store.stage_misses("schedule")

    round_nnz = STEP_ITERS * sum(matrices[m].nnz for m in MIX)
    #: matrix → [(wall, payload or None, traced)]
    steps: Dict[str, list] = {m: [] for m in MIX}
    round_walls: Dict[bool, List[float]] = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while (
        len(round_walls[False]) < MIN_ROUNDS
        or (tracer.enabled and len(round_walls[True]) < MIN_ROUNDS)
        or time.perf_counter() < deadline
    ):
        traced = tracer.enabled and index % 2 == 1
        began = time.perf_counter()
        with tracer.span("solve.round", trace_id=index + 1, record=traced):
            for name in rotated(MIX, seed + index):
                step_began = time.perf_counter()
                payload = None
                with tracer.span("SolverSession.step", record=traced,
                                 matrix=name):
                    try:
                        payload = sessions[name].step(STEP_ITERS)
                    except ReproError as error:
                        out.notes.append(f"step {name} failed: {error}")
                steps[name].append(
                    (time.perf_counter() - step_began, payload, traced)
                )
        round_walls[traced].append(time.perf_counter() - began)
        index += 1
    timed_rss = peak_rss_mb()
    timed_builds = engine_store.stage_misses("schedule") - builds_before
    if timed_builds:
        out.notes.append(
            f"FLAG: timed phase built {timed_builds} schedules; they "
            f"belong in set-up"
        )

    # -- correctness, untimed ----------------------------------------
    # One more iteration of each session must match a float64 matvec.
    session_ok = {
        name: _float64_check(out, name, matrices[name], sessions[name])
        for name in MIX
    }
    first, accel_s = program.first, program.accel_s

    reports = {}
    #: matrix → [(per-iteration step s, per-execute s)], traced run only.
    pairs: Dict[str, List[tuple]] = {}
    for name in MIX:
        coo = matrices[name]
        # Offline reference: the same schedule and step math, outside
        # the serving stack, must give a bit-identical prefix.  One
        # matrix at a time, so at most one schedule is held twice.
        offline = PipelineRunner(
            ArtifactStore(schedule_cache=ScheduleCache())
        )
        scheduled = offline.schedule(coo, "crhcs")
        reports[name] = offline.metrics(
            scheduled, offline.simulate(scheduled)
        ).report
        del scheduled
        with tracer.span("PipelineRunner.prepare", trace_id=0):
            handle = offline.prepare(coo, "crhcs")
        state = power_init(coo.n_cols, seed=seed)
        for iteration in range(1, PREFIX_ITERS + 1):
            power_step(handle.execute, state, iteration)
        session_ok[name] = out.check(
            state.x.tobytes() == first[name].solution.tobytes()
            and state.history == first[name].history,
            f"{name}: session prefix differs from the offline loop",
        ) and out.check(
            abs(accel_s[name] - reports[name].latency_ms * 1e-3)
            <= 1e-12 * accel_s[name],
            f"{name}: session accelerator time {accel_s[name]!r} != "
            f"report {reports[name].latency_ms * 1e-3!r}",
        ) and session_ok[name]
        if tracer.enabled:
            pairs[name] = _paired(tracer, name, sessions[name], handle)
        del handle, offline
    program.close()
    program = sessions = engine_store = None

    within = 0
    for name in MIX:
        per_iter = accel_s[name]
        for wall, payload, _traced in steps[name]:
            out.attempted += 1
            good = (
                session_ok[name]
                and payload is not None
                and payload["iterations"] == STEP_ITERS
                and not payload["rematerialized"]
                and abs(payload["accelerator_seconds"]
                        - payload["completed"] * per_iter)
                <= 1e-9 * payload["accelerator_seconds"]
            )
            if not good:
                out.failed += 1
            elif wall / STEP_ITERS <= ITER_LIMIT_S:
                within += 1
    out.check(out.failed == 0, f"{out.failed} session steps failed")

    walls = round_walls[False]
    # Each session's best step over the run: the host's speed drifts by
    # up to 1.7x over tens of seconds, and the fastest sample of each op
    # is the figure that stays put from run to run (see README.md).
    best_s = sum(
        min(wall for wall, payload, traced in steps[m]
            if payload is not None and not traced)
        for m in MIX
    )
    out.end_to_end.update(
        setup_s=median(setup_s),
        nnz_per_s=round_nnz / best_s,
        lat_ms=1e3 * best_s / (STEP_ITERS * len(MIX)),
        slo_frac=within / out.attempted,
        ok_frac=(out.attempted - out.failed) / out.attempted,
        peak_rss_mb=timed_rss,
        accel_ms=1e3 * sum(accel_s[m] for m in MIX),
        pe_underutil_pct=sum(
            reports[m].underutilization_pct for m in MIX
        ) / len(MIX),
    )
    out.notes.append(
        f"solve: {index} rounds of {len(MIX)} steps x {STEP_ITERS} "
        f"iterations, {round_nnz} nnz per round, round walls "
        f"{[round(w, 3) for w in walls]}"
    )

    out.notes.append(f"set-ups {[round(t, 3) for t in setup_s]} s")
    out.notes.append(
        f"peak RSS {setup_rss:.0f} MB after set-up, {timed_rss:.0f} MB "
        f"after the timed phase"
    )

    if tracer.enabled:
        layer = out.per_layer
        layer["pipeline.schedule_builds"] = timed_builds
        _solve_layers(tracer, layer, steps, pairs)
        layer["trace.overhead_pct"] = 100.0 * (
            median(round_walls[True]) / median(walls) - 1.0
        )
    return out


def _per_iter_median(samples: list, traced: bool) -> float:
    return median([
        wall / STEP_ITERS for wall, payload, was_traced in samples
        if was_traced == traced and payload is not None
    ])


def _float64_check(out: Outcome, name: str, coo, session) -> bool:
    """One more iteration must match a float64 matvec of the fetched
    iterate: normalised, sign-aligned, and the Rayleigh quotient."""
    before = session.result().solution
    session.step(1)
    after = session.result()
    y = coo.matvec(before.astype(np.float32))
    expected = y / np.linalg.norm(y)
    if expected @ before < 0:
        expected = -expected
    eigenvalue = float(before @ y)
    return out.check(
        np.linalg.norm(after.solution - expected) <= 1e-4
        and abs(after.history[-1] - eigenvalue)
        <= 1e-4 * max(abs(eigenvalue), 1.0),
        f"{name}: iterate differs from the float64 matvec reference",
    )


def _paired(tracer: Tracer, name: str, session, handle) -> List[tuple]:
    """Each session step paired with direct executes of the same schedule
    on the same iterate, back to back with the side that goes first
    alternating, so host drift hits both sides of a pair alike:
    ``[(step s per iteration, execute s per call)]``."""
    pairs = []
    for repeat in range(EXEC_REPEATS):
        x = session.result().solution.astype(np.float32)
        walls = {}
        for side in (("step", "execute") if repeat % 2 == 0
                     else ("execute", "step")):
            began = time.perf_counter()
            if side == "step":
                with tracer.span("SolverSession.step", trace_id=0,
                                 matrix=name):
                    session.step(STEP_ITERS)
            else:
                for _ in range(STEP_ITERS):
                    with tracer.span("PreparedSpMV.execute", trace_id=0,
                                     matrix=name, scheme="crhcs"):
                        handle.execute(x)
            walls[side] = (time.perf_counter() - began) / STEP_ITERS
        pairs.append((walls["step"], walls["execute"]))
    return pairs


def _solve_layers(tracer: Tracer, layer: Dict[str, float],
                  steps: Dict[str, list],
                  pairs: Dict[str, List[tuple]]) -> None:
    layer["matrices.load_s"] = tracer.phase_median(
        "matrices.generate_named", "setup"
    )
    opens = tracer.self_by_trace("SessionManager.open")
    firsts = tracer.self_by_trace("SolverSession.step")
    layer["sessions.open_s"] = median([
        opens[trace] + firsts[trace] for trace in opens if trace < 0
    ])
    # Step time from the timed phase; execute time and the overhead
    # around it from the paired phase, where each pair shares a window.
    step_ms, execute_ms, overhead_ms, paired_step_ms = [], [], [], []
    for name in MIX:
        step = 1e3 * _per_iter_median(steps[name], traced=True)
        execute = 1e3 * median([e for _s, e in pairs[name]])
        overhead = 1e3 * median([s - e for s, e in pairs[name]])
        layer[f"sessions.step_ms.{name}"] = step
        layer[f"sim.execute_ms.{name}"] = execute
        layer[f"sessions.overhead_ms.{name}"] = overhead
        step_ms.append(step)
        execute_ms.append(execute)
        overhead_ms.append(overhead)
        paired_step_ms.append(1e3 * median([s for s, _e in pairs[name]]))
    layer["sessions.step_ms"] = sum(step_ms) / len(MIX)
    layer["sim.execute_ms"] = sum(execute_ms) / len(MIX)
    layer["sessions.overhead_ms"] = sum(overhead_ms) / len(MIX)
    layer["sessions.execute_share_pct"] = (
        100.0 * sum(execute_ms) / sum(paired_step_ms)
    )
