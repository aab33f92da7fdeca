"""Self-test of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from spans import (
    Span,
    Tracer,
    covered,
    percentile,
    reportable_tail,
    self_times,
    valid_name,
)

ROOT = Path(__file__).resolve().parent.parent


def _span(span_id, start, end, parent=None, name="s", trace_id=1):
    return Span(name=name, start=start, end=end, span_id=span_id,
                parent=parent, trace_id=trace_id)


# -- self time -----------------------------------------------------------


def test_self_time_nested_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),  # grandchild: charged to span 2
        _span(4, 5.0, 6.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_overlapping_children_counted_once():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 5.0, parent=1),
        _span(3, 3.0, 7.0, parent=1),  # overlaps span 2 on [3, 5]
        _span(4, 4.0, 4.5, parent=1),  # inside both
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0)


def test_self_time_child_clipped_to_parent():
    spans = [
        _span(1, 2.0, 6.0),
        _span(2, 0.0, 3.0, parent=1),  # starts before the parent
        _span(3, 5.0, 9.0, parent=1),  # ends after it
    ]
    assert self_times(spans)[1] == pytest.approx(4.0 - 1.0 - 1.0)


def test_covered_disjoint_and_empty():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1, 2), (3, 5), (20, 30)]) == pytest.approx(3)


def test_tracer_phases_and_parents():
    tracer = Tracer(enabled=True)
    with tracer.span("setup", trace_id=-1):
        with tracer.span("leaf"):
            pass
    for trace in (1, 2):
        with tracer.span("round", trace_id=trace):
            with tracer.span("leaf"):
                pass
    with tracer.span("leaf", record=False):
        pass
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert [s.trace_id for s in leaves] == [-1, 1, 2]
    assert all(s.parent is not None for s in leaves)
    assert len(tracer.phase_totals("leaf", "timed")) == 2
    assert len(tracer.phase_totals("leaf", "setup")) == 1
    assert tracer.phase_median("leaf", "check") == 0.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x", trace_id=1) as span:
        assert span is None
    assert tracer.spans == []


# -- percentiles and sample counts ---------------------------------------


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(list(range(101)), 99) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("samples, tail", [
    (10000, 99.9), (1000, 99.0), (999, 90.0), (100, 90.0), (20, 50.0),
    (19, None),
])
def test_reportable_tail_needs_ten_samples_beyond(samples, tail):
    assert reportable_tail(samples) == tail


# -- metric-name grammar -------------------------------------------------


@pytest.mark.parametrize("name", [
    "setup_s", "scheduling.crhcs_s.wiki-Vote", "sim.execute_ms.c52",
    "0ok", "a" * 64,
])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "sweep/nnz_per_s", "has space", "a" * 65, "ü",
])
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_names_units_and_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for metric in spec[group]:
            assert unit.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    assert all(valid_name(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_workload_layers_are_benchmark_metrics():
    import importlib
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(run.HOST_LAYERS) <= per_layer
    owned = set(run.HOST_LAYERS)
    for workload in run.WORKLOADS:
        layers = importlib.import_module(workload).LAYERS
        assert len(layers) == len(set(layers))
        assert set(layers) <= per_layer, workload
        owned |= set(layers)
    assert owned == per_layer
