"""Golden-trace regression suite.

Canonical traces (static / churn / bursty / adaptive / DAG / adapted
public trace — committed under ``tests/golden/``) are replayed through
fully pinned system configurations and the resulting
``SimulationResult.to_dict()`` is diffed *exactly* against committed
fixtures.  Any refactor that shifts schedules — event ordering, RNG
stream consumption, estimator changes with behavioral side effects,
churn timing — fails here first, by design, instead of silently moving
every figure.

Outcomes (``<name>.expected.json``) and the estimator's cache counters
(``counters.json``) are checked by separate tests, both exactly: a
cache change that saves lookups moves only the counter tests, and the
outcome tests still prove it changed no schedule.

After an *intentional* behavior change, regenerate with::

    python tools/make_golden.py

and review the fixture diff like code.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.workload.trace import load_trace

# The replay recipe must be the regenerator's, not a copy of it — a
# drift between the two would pin fixtures against a different config
# than the one that produced them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from make_golden import run_case, run_case_live, split_counters  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())
COUNTERS = json.loads((GOLDEN_DIR / "counters.json").read_text())
CASE_IDS = [c["name"] for c in CASES]


def _diff(expected: dict, actual: dict) -> str:
    """Human-oriented first-divergence report (the assert shows it all,
    this makes the culprit field readable)."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            lines.append(f"  {key}: expected {expected.get(key)!r} != actual {actual.get(key)!r}")
    return "\n".join(lines)


def _expected(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.expected.json").read_text())


@functools.lru_cache(maxsize=None)
def _run(name: str, driver: str) -> tuple[dict, dict]:
    """``(outcomes, counters)`` of one case replayed by the simulator
    (``"replay"``) or streamed through the live service (``"live"``)."""
    case = next(c for c in CASES if c["name"] == name)
    tasks, spec = load_trace(GOLDEN_DIR / f"{name}.trace.json")
    assert spec is not None  # fixtures carry their generating spec
    run = run_case if driver == "replay" else run_case_live
    return split_counters(run(case, tasks))


@pytest.mark.parametrize("name", CASE_IDS, ids=CASE_IDS)
def test_golden_trace_replay_is_exact(name):
    actual, _ = _run(name, "replay")
    expected = _expected(name)
    assert actual == expected, (
        f"golden trace {name} diverged — if the behavior change is "
        f"intentional, regenerate with `python tools/make_golden.py`:\n"
        f"{_diff(expected, actual)}"
    )


@pytest.mark.parametrize("name", CASE_IDS, ids=CASE_IDS)
def test_golden_trace_live_service_is_byte_identical(name):
    """Replay-vs-live equivalence: the same golden trace streamed through
    the scheduler *service* under a virtual clock must reproduce the
    committed fixture byte-identically — the sim engine and the live
    driver are two drivers over one mapping core, and this is the proof."""
    actual, _ = _run(name, "live")
    expected = _expected(name)
    assert actual == expected, (
        f"live service diverged from golden trace {name}:\n"
        f"{_diff(expected, actual)}"
    )


@pytest.mark.parametrize("name", CASE_IDS, ids=CASE_IDS)
def test_golden_counters_replay_are_exact(name):
    _, actual = _run(name, "replay")
    expected = COUNTERS[name]
    assert actual == expected, (
        f"estimator counters of golden trace {name} moved — if the cache "
        f"change is intentional, regenerate with `python tools/make_golden.py`:\n"
        f"{_diff(expected, actual)}"
    )


@pytest.mark.parametrize("name", CASE_IDS, ids=CASE_IDS)
def test_golden_counters_live_service_are_exact(name):
    _, actual = _run(name, "live")
    expected = COUNTERS[name]
    assert actual == expected, (
        f"live service estimator counters diverged on golden trace {name}:\n"
        f"{_diff(expected, actual)}"
    )


def test_golden_counters_cover_every_case():
    assert sorted(COUNTERS) == sorted(CASE_IDS)


def test_golden_covers_dynamics_and_static():
    """The suite must keep pinning both regimes: at least one static
    cluster and at least one case with churn."""
    assert any(c["dynamics"] is None for c in CASES)
    assert any(c["dynamics"] for c in CASES)


def test_golden_covers_adaptive_controller():
    """At least one case must pin a controller's setpoint trajectory —
    and its fixture must actually contain one."""
    adaptive = [c for c in CASES if c.get("controller")]
    assert adaptive
    for case in adaptive:
        payload = json.loads(
            (GOLDEN_DIR / f"{case['name']}.expected.json").read_text()
        )
        stats = payload["controller_stats"]
        assert stats["controller"] == case["controller"]["kind"]
        assert stats["trajectory"], "trajectory must be pinned non-empty"


def test_golden_fixtures_round_trip_through_result_dict():
    from repro.metrics.collector import SimulationResult

    for name in CASE_IDS:
        payload = {**_expected(name), "estimator_stats": COUNTERS[name]}
        assert SimulationResult.from_dict(payload).to_dict() == payload
