"""Per-layer reduction: ratio metrics with their bases, names as declared."""

import json
from pathlib import Path

import pytest

from run import per_layer
from tracer import Tracer
from workloads import Unit

PHASES = {"import_s": 1.0, "pet_s": 0.1, "workload_s": 0.2, "build_s": 0.3}


def _calls(tracer, name, n):
    for _ in range(n):
        tracer.close(tracer.open(name, False))


def _layers():
    tracer = Tracer()
    _calls(tracer, "pruner.drop_scan", 4)
    _calls(tracer, "heuristic.plan", 10)
    tracer.counts.update({
        "pruner.drop_scan.useful": 1,
        "allocator.mapping_events": 4,
        "estimator.convolutions": 10,
        "estimator.cache_hits": 3,
        "estimator.cache_misses": 1,
    })
    unit = Unit(wall_s=1.0, cal_s=1.0, events=4, requests=1, robustness_pct=50.0)
    return per_layer(tracer, [unit], PHASES, overhead_pct=5.0)


@pytest.mark.parametrize("ratio, value, base, base_value", [
    ("pruner.drop_scan.useful_ratio", 0.25, "pruner.drop_scan.calls", 4),
    ("heuristic.plan_rounds_per_event", 2.5, "allocator.mapping_events", 4),
    ("estimator.convolutions_per_event", 2.5, "allocator.mapping_events", 4),
    ("estimator.cache_hit_ratio", 0.75, "estimator.cache_lookups", 4),
])
def test_ratio_metric_is_reported_with_its_base(ratio, value, base, base_value):
    out = _layers()
    assert out[ratio] == (pytest.approx(value), "ratio")
    assert out[base][0] == base_value


def test_ratio_over_an_empty_base_is_zero():
    unit = Unit(wall_s=1.0, cal_s=1.0, events=0, requests=1, robustness_pct=0.0)
    out = per_layer(Tracer(), [unit], PHASES, overhead_pct=0.0)
    assert out["pruner.drop_scan.useful_ratio"][0] == 0.0
    assert out["pruner.drop_scan.calls"][0] == 0


def test_layer_names_match_the_declared_per_layer_metrics():
    declared = json.loads(
        (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    names = set(_layers()) | {"admit.samples"}
    assert names == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, (_, unit) in _layers().items():
        assert units[name] == unit
