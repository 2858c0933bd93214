"""The benchmark's own arithmetic."""

import pytest

import stats
from tracer import Tracer


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, None, 0.0, 10.0),
        (1, 0, 1.0, 3.0),
        (2, 0, 2.0, 5.0),  # overlaps span 1: [1, 5] counts once
        (3, 0, 8.0, 12.0),  # clipped to the parent's end: [8, 10]
        (4, 1, 1.5, 2.5),  # grandchild: only reduces span 1
    ]
    own = stats.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert stats.self_times([(7, None, 2.0, 2.5)]) == {7: pytest.approx(0.5)}


def test_tracer_self_time_matches_the_span_definition():
    tracer = Tracer()

    def leaf():
        frame = tracer.open("leaf", False)
        sum(range(2000))
        tracer.close(frame)

    def mid():
        frame = tracer.open("mid", False)
        leaf()
        sum(range(2000))
        leaf()
        tracer.close(frame)

    root = tracer.open("root", True)
    mid()
    leaf()
    tracer.close(root)

    own = stats.self_times((sid, parent, start, end)
                           for sid, parent, start, end, _, _ in tracer.spans)
    by_name: dict = {}
    for sid, _, _, _, name, group in tracer.spans:
        by_name[name] = by_name.get(name, 0.0) + own[sid]
        assert group == 0  # every span of the event shares the root's group
    for name in ("root", "mid", "leaf"):
        assert tracer.self_seconds(name) == pytest.approx(by_name[name], abs=1e-9)
    assert tracer.calls("leaf") == 3
    assert tracer.seconds("root") >= tracer.seconds("mid")


def test_reentrant_calls_count_inclusive_time_once():
    tracer = Tracer()
    outer = tracer.open("f", False)
    inner = tracer.open("f", False)
    tracer.close(inner)
    tracer.close(outer)
    start, end = tracer.spans[-1][2], tracer.spans[-1][3]
    assert tracer.calls("f") == 2
    assert tracer.seconds("f") == pytest.approx(end - start)


@pytest.mark.parametrize("pct, need", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(pct, need):
    assert stats.min_samples(pct) == need
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(need - 1)), pct)
    assert stats.percentile(list(range(need)), pct) is not None


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99) == 990
    assert stats.percentile(values[::-1], 50) == 500


def test_ratio_comes_with_its_base():
    assert stats.ratio(3, 4) == (0.75, 4)
    assert stats.ratio(0, 0) == (0.0, 0)


def test_quartiles_match_statistics_quantiles():
    q1, med, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)


def test_meter_scales_each_chunk_by_the_kernel_samples_around_it(monkeypatch):
    import calibrate

    samples = iter([0.006, 0.003, 0.0015])
    monkeypatch.setattr(calibrate, "sample", lambda: next(samples))
    meter = calibrate.Meter()
    assert meter.chunk(1.0) == pytest.approx(0.003 / 0.0045)
    assert meter.chunk(2.0) == pytest.approx(0.003 / 0.00225)
    assert meter.raw_s == pytest.approx(3.0)
    assert meter.cal_s == pytest.approx(0.003 / 0.0045 + 2.0 * 0.003 / 0.00225)
