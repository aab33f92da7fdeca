"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep`` (cold schedule builds), ``solve`` (warm iterative
sessions), ``serve`` (open-loop one-shot cluster traffic).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` it carries
every per-layer metric, from spans the benchmark records around its own
calls into the program and from the program's own counters.  Each
workload lists the per-layer metrics it measures in ``LAYERS``; a run
that misses one of them fails, and the names it does not measure read 0
and are printed as such.  The program is imported from ``src/`` of the
checkout; without it the runner exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "solve", "serve")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Metrics asserted exactly equal to ``expected.json`` on every run.
EXACT = ("accel_ms", "pe_underutil_pct")
#: Per-layer metrics the runner measures for every workload.
HOST_LAYERS = ("host.probe_ms", "host.py_probe_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())

    from common import host_probe_ms, python_probe_ms
    from spans import Tracer, median

    workload = importlib.import_module(args.workload)
    import_s = time.perf_counter() - STARTED
    probes = {"numpy": [median(host_probe_ms())],
              "python": [median(python_probe_ms())]}
    tracer = Tracer(enabled=bool(args.trace))
    out = workload.run(args.seed, args.seconds, tracer, SETUPS)
    probes["numpy"].append(median(host_probe_ms()))
    probes["python"].append(median(python_probe_ms()))

    e2e = out.end_to_end
    # Process start to first timed op: imports once, plus the median
    # set-up the workload measured.
    e2e["setup_s"] += import_s
    for name in EXACT:
        want = expected[args.workload][name]
        out.check(
            e2e.get(name) == want,
            f"{name} = {e2e.get(name)!r}, expected exactly {want!r} "
            f"(a change means the model or a schedule changed)",
        )
    out.notes.append(
        "host probes (start, end): numpy sort "
        + ", ".join(f"{v:.3f}" for v in probes["numpy"])
        + " ms; python dict loop "
        + ", ".join(f"{v:.2f}" for v in probes["python"]) + " ms"
    )

    if args.trace:
        out.per_layer["host.probe_ms"] = median(probes["numpy"])
        out.per_layer["host.py_probe_ms"] = median(probes["python"])
        metrics_spec = spec["per_layer"]
        values = out.per_layer
        owned = set(workload.LAYERS) | set(HOST_LAYERS)
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(
            str(spans_dir / f"spans-{args.workload}-{args.seed}.json")
        )
    else:
        metrics_spec = spec["end_to_end"]
        values = e2e
        owned = {m["name"] for m in metrics_spec}
    missing = sorted(owned - set(values))
    out.check(not missing, f"metrics not measured: {missing}")
    # The result line must carry every metric of BENCHMARK.json; a
    # per-layer metric the workload does not measure reads 0.
    unmeasured = [m["name"] for m in metrics_spec if m["name"] not in owned]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in metrics_spec
    }

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"sizing: {json.dumps(workload.SIZING, sort_keys=True)}")
    for note in out.notes:
        print(note)
    for name, metric in metrics.items():
        if name not in unmeasured:
            print(f"  {name:<36s} {metric['value']:>16.6g} {metric['unit']}")
    if unmeasured:
        print(f"not measured by {args.workload} (reads 0): "
              f"{', '.join(unmeasured)}")
    print(json.dumps({
        "correct": out.correct and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
