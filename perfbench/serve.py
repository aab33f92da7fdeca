"""``serve``: online one-shot traffic at the default estimate tier.

A ``Cluster`` of two single-worker devices takes an open-loop, seeded
Poisson schedule of one-shot requests from ``SENDERS`` sender threads.
Keys are Zipf-skewed over a fixed 24-key pool (six Table-2 matrices ×
{crhcs, pe_aware} × sparse_channels {16, 8}) from two tenants at a 2:1
mix, so the fair queue runs its multi-tenant path.  After two warm
passes the pool sits in the device stores, so the timed phase exercises
routing, admission, the engines and the stores' read side, and calls no
scheduler or simulator.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.cluster.device import (
    DEFAULT_SCHEDULE_CAPACITY,
    DEFAULT_STORE_CAPACITY,
)
from repro.estimator.fidelity import should_audit
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.store import ArtifactStore
from repro.scheduling.registry import get_scheme
from repro.serving.request import SpMVRequest

from common import Outcome, peak_rss_mb
from spans import Tracer, median, percentile, reportable_tail

DEVICES = 2
DEVICE_WORKERS = 1
REPLICAS = 2
HEDGE_MS = 100
DEVICE_QUEUE = 64
#: Sender threads; at most the host's two cores.
SENDERS = 2
RATE_PER_S = 200.0
#: ``slo_frac`` latency limit, from due time to completion.
LIMIT_MS = 25.0
ZIPF_S = 1.0
#: Longest wait for one warm request and its sampled audit.
AUDIT_WAIT_S = 60.0
TENANTS = ("tenant-a", "tenant-b")
#: Share of requests from the first (major) tenant.
MAJOR_SHARE = 2.0 / 3.0
POOL_MATRICES = (
    "wiki-Vote", "as-caida", "c52", "CollegeMsg", "as-735", "Oregon-2",
)
#: The key pool in Zipf rank order (fixed, so every seed draws the same
#: mix of matrix sizes).
KEYS: List[Tuple[str, str, int]] = [
    (matrix, scheme, channels)
    for channels in (16, 8)
    for scheme in ("crhcs", "pe_aware")
    for matrix in POOL_MATRICES
]

#: Per-layer metrics this workload measures (``--trace 1``).
LAYERS = (
    "matrices.load_s", "serving.queue_ms", "serving.service_ms",
    "cluster.route_ms", "cluster.hedge_frac", "pipeline.store_hit_frac",
    "pipeline.schedule_builds", "sim.cycle_builds", "serving.audits",
    "serving.coalesced_frac", "tenancy.p50_ratio", "loadgen.late_p99_ms",
    "loadgen.lat_p99_ms", "loadgen.samples", "trace.overhead_pct",
)

SIZING = {
    "loop": "open, seeded Poisson", "rate_per_s": RATE_PER_S,
    "senders": SENDERS, "limit_ms": LIMIT_MS, "devices": DEVICES,
    "device_workers": DEVICE_WORKERS, "replicas": REPLICAS,
    "hedge_ms": HEDGE_MS, "device_queue": DEVICE_QUEUE,
    "keys": len(KEYS), "zipf_s": ZIPF_S, "tenants": "2:1",
    "warm_passes": "every key on every device, then every key routed",
    "device_store_capacity": DEFAULT_STORE_CAPACITY,
    "device_schedule_capacity": DEFAULT_SCHEDULE_CAPACITY,
}


def _request(key: Tuple[str, str, int], tenant: str) -> SpMVRequest:
    matrix, scheme, channels = key
    return SpMVRequest(
        source=matrix, scheme=scheme,
        config_overrides={"sparse_channels": channels}, tenant=tenant,
    )


def _report_bytes(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def _audits_done(engine) -> int:
    return engine.audit_stats["sampled"] + engine.stats["errors"]


def _setup() -> Cluster:
    cluster = Cluster(
        devices=DEVICES, device_workers=DEVICE_WORKERS, replicas=REPLICAS,
        queue_capacity=DEVICE_QUEUE, hedge_ms=HEDGE_MS,
    ).start()
    # Pass 1 warms every device with every key, one request in flight
    # at a time.  Hot keys spread over both replicas once timed, so both
    # need them, and a sampled exact audit (run on the device worker
    # after the response) must finish before the next request: through
    # the router, a cold request or one queued behind an audit is hedged
    # onto the replica, which runs a second, concurrent copy of the
    # audit.  That race made set-up time and peak memory vary by run.
    for device in cluster.devices.values():
        for key in KEYS:
            request = _request(key, TENANTS[0])
            before = _audits_done(device.engine)
            device.submit(request).result(timeout=AUDIT_WAIT_S)
            if should_audit(request.work_fingerprint(),
                            device.engine.audit_rate):
                deadline = time.monotonic() + AUDIT_WAIT_S
                while (_audits_done(device.engine) == before
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
    # Pass 2 goes through the router, which now only hits warm stores.
    for key in KEYS:
        cluster.execute(_request(key, TENANTS[0]))
    return cluster


def _counters(cluster: Cluster) -> Dict[str, int]:
    """Router, engine and store counters summed over the devices."""
    counters = dict(cluster.stats)
    for key in ("accepted", "coalesced", "audits", "store_hits",
                "store_lookups", "schedule_builds", "cycle_builds"):
        counters[key] = 0
    for device in cluster.devices.values():
        counters["accepted"] += device.engine.stats["accepted"]
        counters["coalesced"] += device.engine.stats["coalesced"]
        counters["audits"] += device.engine.audit_stats["sampled"]
        hits = sum(device.store.hits.values())
        counters["store_hits"] += hits
        counters["store_lookups"] += hits + sum(device.store.misses.values())
        counters["schedule_builds"] += device.store.stage_misses("schedule")
        counters["cycle_builds"] += device.store.stage_misses("simulate")
    return counters


def run(seed: int, seconds: float, tracer: Tracer,
        setups: int) -> Outcome:
    out = Outcome()
    setup_s: List[float] = []
    cluster = None
    for _ in range(setups):
        if cluster is not None:
            cluster.shutdown()
            cluster = None
        gc.collect()
        began = time.perf_counter()
        cluster = _setup()
        gc.collect()
        setup_s.append(time.perf_counter() - began)

    setup_rss = peak_rss_mb()
    rng = np.random.default_rng(seed)
    count = max(int(RATE_PER_S * seconds), 1)
    due = np.cumsum(rng.exponential(1.0 / RATE_PER_S, size=count))
    weights = 1.0 / np.arange(1, len(KEYS) + 1) ** ZIPF_S
    keys = rng.choice(len(KEYS), size=count, p=weights / weights.sum())
    tenants = np.where(rng.random(count) < MAJOR_SHARE, 0, 1)
    # (late_s, latency_s from due, execute wall_s, result)
    records: List[tuple] = [None] * count
    cursor = iter(range(count))
    cursor_lock = threading.Lock()
    before = _counters(cluster)
    start = time.perf_counter() + 0.05

    def sender() -> None:
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            due_at = start + due[i]
            delay = due_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request = _request(KEYS[keys[i]], TENANTS[tenants[i]])
            sent = time.perf_counter()
            # In a traced run odd requests carry a span, even ones are
            # the untraced baseline for the tracing overhead.
            with tracer.span("Cluster.execute", trace_id=i + 1,
                             record=i % 2 == 1):
                result = cluster.execute(request)
            done = time.perf_counter()
            records[i] = (sent - due_at, done - due_at, done - sent, result)

    threads = [
        threading.Thread(target=sender, name=f"perfbench-sender-{n}")
        for n in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    timed_wall = time.perf_counter() - start
    timed_rss = peak_rss_mb()
    after = _counters(cluster)
    cluster.shutdown()
    delta = {key: after[key] - before[key] for key in after}
    out.check(
        not any(thread.is_alive() for thread in threads),
        "a sender thread did not finish",
    )
    for key in ("retries", "hedges", "failovers", "errors"):
        if delta[key]:
            out.notes.append(
                f"FLAG: fault-free timed phase saw {delta[key]} {key}"
            )
    # Exact audits still run while timed, on sampled keys; once warm
    # they must hit the stores, so no schedule is built and no cycle
    # simulation runs.
    for key in ("schedule_builds", "cycle_builds"):
        if delta[key]:
            out.notes.append(
                f"FLAG: warm timed phase ran {delta[key]} {key} "
                f"({delta['audits']} audits)"
            )

    # -- correctness, untimed ----------------------------------------
    # Each key's report must be byte-identical to a serial estimate-tier
    # analyze outside the serving stack.
    reference_runner = PipelineRunner(ArtifactStore())
    reference: Dict[int, object] = {}
    for index, key in enumerate(KEYS):
        matrix, scheme, _channels = key
        config = _request(key, TENANTS[0]).resolve_config(get_scheme(scheme))
        with tracer.span("PipelineRunner.load", trace_id=0, matrix=matrix):
            loaded = reference_runner.load(matrix)
        reference[index] = reference_runner.analyze(
            loaded, scheme, config, fidelity="estimate"
        ).report
    expected = {index: _report_bytes(r) for index, r in reference.items()}

    latencies: List[float] = []
    by_tenant: Dict[int, List[float]] = {0: [], 1: []}
    nnz = within = 0
    for i, record in enumerate(records):
        out.attempted += 1
        if record is None:
            out.failed += 1
            continue
        _late, latency, _wall, result = record
        latencies.append(latency)
        by_tenant[tenants[i]].append(latency)
        response = result.response
        good = (
            response.ok
            and response.fidelity == "estimate"
            and _report_bytes(response.report) == expected[keys[i]]
        )
        if not good:
            out.failed += 1
            continue
        nnz += response.report.nnz
        if latency * 1e3 <= LIMIT_MS:
            within += 1
    out.check(out.failed == 0, f"{out.failed} serve requests failed")

    crhcs = [
        reference[i].underutilization_pct
        for i, (_m, scheme, _c) in enumerate(KEYS) if scheme == "crhcs"
    ]
    out.end_to_end.update(
        setup_s=median(setup_s),
        nnz_per_s=nnz / timed_wall,
        lat_ms=1e3 * median(latencies),
        slo_frac=within / out.attempted,
        ok_frac=(out.attempted - out.failed) / out.attempted,
        peak_rss_mb=timed_rss,
        accel_ms=sum(reference[i].latency_ms for i in range(len(KEYS))),
        pe_underutil_pct=sum(crhcs) / len(crhcs),
    )
    tail = reportable_tail(len(latencies))
    out.notes.append(
        f"serve: {count} requests at {RATE_PER_S:g}/s over "
        f"{timed_wall:.2f} s from {SENDERS} senders; p50 "
        f"{1e3 * median(latencies):.3f} ms, p{tail:g} "
        f"{1e3 * percentile(latencies, tail):.3f} ms "
        f"({len(latencies)} samples)"
    )

    out.notes.append(f"set-ups {[round(t, 3) for t in setup_s]} s")
    out.notes.append(
        f"peak RSS {setup_rss:.0f} MB after set-up, {timed_rss:.0f} MB "
        f"after the timed phase"
    )

    if tracer.enabled:
        layer = out.per_layer
        traced = [r for i, r in enumerate(records) if r and i % 2 == 1]
        plain = [r for i, r in enumerate(records) if r and i % 2 == 0]
        responses = [r[3].response for r in traced]
        layer["serving.queue_ms"] = 1e3 * median(
            [resp.queue_s for resp in responses]
        )
        layer["serving.service_ms"] = 1e3 * median(
            [resp.service_s for resp in responses]
        )
        layer["cluster.route_ms"] = 1e3 * median([
            wall - r.response.queue_s - r.response.service_s
            for _late, _lat, wall, r in traced
        ])
        layer["cluster.hedge_frac"] = delta["hedges"] / max(delta["routed"], 1)
        layer["pipeline.store_hit_frac"] = (
            delta["store_hits"] / max(delta["store_lookups"], 1)
        )
        layer["pipeline.schedule_builds"] = delta["schedule_builds"]
        layer["sim.cycle_builds"] = delta["cycle_builds"]
        layer["serving.audits"] = delta["audits"]
        layer["serving.coalesced_frac"] = delta["coalesced"] / max(
            delta["accepted"] + delta["coalesced"], 1
        )
        layer["tenancy.p50_ratio"] = (
            median(by_tenant[1]) / median(by_tenant[0])
        )
        layer["loadgen.late_p99_ms"] = 1e3 * percentile(
            [r[0] for r in records if r], 99.0
        )
        layer["loadgen.lat_p99_ms"] = 1e3 * percentile(latencies, 99.0)
        layer["loadgen.samples"] = len(latencies)
        layer["matrices.load_s"] = sum(
            tracer.phase_totals("PipelineRunner.load", "check")
        )
        layer["trace.overhead_pct"] = 100.0 * (
            median([r[1] for r in traced])
            / median([r[1] for r in plain]) - 1.0
        )
    return out
