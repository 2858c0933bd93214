#!/usr/bin/env python3
"""Regenerate the golden-trace regression fixtures and example traces.

Produces (all deterministic — fixed seeds, no wall-clock input):

* ``examples/traces/*.csv`` — small recorded traces the ``trace`` sweep
  preset replays;
* ``tests/data/azure_mini.csv`` / ``tests/data/gcluster_mini.csv`` —
  miniature public-trace-shaped fixtures (Azure-Functions-style and
  Google-cluster-usage-style columns) the adapter tests and the
  ``azure``/``gcluster`` sweep presets consume;
* ``tests/golden/cases.json`` — the manifest of golden scenarios;
* ``tests/golden/<name>.trace.json`` — the workload trace each scenario
  replays (format v2; v3 when the workload carries DAG edges);
* ``tests/golden/<name>.expected.json`` — the exact
  ``SimulationResult.to_dict()`` the replay must reproduce, minus the
  estimator's cache counters;
* ``tests/golden/counters.json`` — those counters (``estimator_stats``)
  for every case, kept apart so a cache change that leaves every
  outcome alone touches only this file.

``tests/test_golden.py`` replays every case and diffs outcomes and
counters *exactly*, in separate tests, so any refactor that shifts
schedules — event ordering, RNG stream consumption, estimator behavior
with side effects — fails loudly instead of silently changing every
figure.

Run after an *intentional* behavior change, then review the fixture
diff like any other code change::

    python tools/make_golden.py
    git diff tests/golden examples/traces
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import ControllerConfig, PruningConfig  # noqa: E402
from repro.experiments.runner import pet_matrix  # noqa: E402
from repro.sim.dynamics import DynamicsSpec  # noqa: E402
from repro.system.serverless import ServerlessSystem  # noqa: E402
from repro.workload.generator import generate_workload  # noqa: E402
from repro.workload.spec import WorkloadSpec  # noqa: E402
from repro.workload.trace import (  # noqa: E402
    load_any_trace,
    load_trace,
    save_csv_trace,
    save_trace,
    trace_spec,
)

GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
COUNTERS_PATH = GOLDEN_DIR / "counters.json"
TRACES_DIR = REPO_ROOT / "examples" / "traces"
DATA_DIR = REPO_ROOT / "tests" / "data"

#: The golden scenarios: one static, one churn, one bursty workload.
#: ``trace_seed`` generates the workload; everything else configures the
#: replaying system exactly as tests/test_golden.py rebuilds it.
CASES = [
    {
        "name": "static_mm_pruned",
        "spec": {
            "num_tasks": 120,
            "time_span": 80.0,
            "num_task_types": 6,
            "pattern": "spiky",
        },
        "trace_seed": 20260701,
        "heuristic": "MM",
        "pruning": "paper",
        "dynamics": None,
        "seed": 123,
    },
    {
        "name": "churn_mm_pruned",
        "spec": {
            "num_tasks": 140,
            "time_span": 90.0,
            "num_task_types": 6,
            "pattern": "spiky",
        },
        "trace_seed": 20260702,
        "heuristic": "MM",
        "pruning": "paper",
        "dynamics": {
            "failures": 2,
            "mean_downtime": 15.0,
            "scale_up": 1,
            "scale_down": 1,
        },
        "seed": 77,
    },
    {
        "name": "bursty_mct_baseline",
        "spec": {
            "num_tasks": 130,
            "time_span": 85.0,
            "num_task_types": 6,
            "pattern": "bursty",
        },
        "trace_seed": 20260703,
        "heuristic": "MCT",
        "pruning": None,
        "dynamics": {"failures": 1, "mean_downtime": 0.0},
        "seed": 9,
    },
    # Adaptive control plane: pins the hysteresis controller's setpoint
    # trajectory (controller_stats) and the fairness telemetry exactly —
    # any change to signal computation, tick ordering, or band logic
    # shifts the trajectory and fails here first.
    {
        "name": "adaptive_mm_hysteresis",
        "spec": {
            "num_tasks": 140,
            "time_span": 90.0,
            "num_task_types": 6,
            "pattern": "bursty",
        },
        "trace_seed": 20260704,
        "heuristic": "MM",
        "pruning": "paper",
        "controller": {
            "kind": "hysteresis",
            "low": 0.02,
            "high": 0.2,
            "step": 0.1,
            "cooldown": 4,
            "window": 4,
        },
        "dynamics": None,
        "seed": 31,
    },
    # DAG workload: pins release-on-parent-completion ordering, the
    # critical-path chance propagation, and doomed-subgraph cascades
    # (the trace file is format v3 — it carries the dependency edges).
    {
        "name": "dag_mm_pruned",
        "spec": {
            "num_tasks": 150,
            "time_span": 60.0,
            "num_task_types": 6,
            "pattern": "spiky",
            "dag_layers": 3,
            "dag_edge_prob": 0.6,
        },
        "trace_seed": 20260805,
        "heuristic": "MM",
        "pruning": "paper",
        "dynamics": None,
        "seed": 55,
    },
    # Adapted public trace: the workload is tests/data/azure_mini.csv
    # normalized through the Azure-Functions adapter, so any drift in
    # column parsing, arrival derivation, or deadline slack fails here.
    {
        "name": "azure_mini_mm_pruned",
        "trace_from": {"format": "azure", "path": "tests/data/azure_mini.csv"},
        "heuristic": "MM",
        "pruning": "paper",
        "dynamics": None,
        "seed": 101,
    },
]

#: The example traces the ``trace`` sweep preset replays.
EXAMPLE_TRACES = [
    (
        "bursty_small.csv",
        {
            "num_tasks": 150,
            "time_span": 100.0,
            "num_task_types": 6,
            "pattern": "bursty",
        },
        20260710,
    ),
    (
        "steady_small.csv",
        {
            "num_tasks": 150,
            "time_span": 100.0,
            "num_task_types": 6,
            "pattern": "constant",
        },
        20260711,
    ),
]


def write_azure_mini(path: Path, *, seed: int = 20260801, rows: int = 48) -> None:
    """Synthesize a miniature Azure-Functions-style invocation CSV.

    Columns ``app,func,end_timestamp,duration`` — the shape
    :func:`repro.workload.adapters.load_azure_trace` normalizes.  End
    timestamps are nondecreasing (the adapter enforces it) and the
    (app, func) pairs map to 6 distinct task types.
    """
    rng = np.random.default_rng(seed)
    pairs = [("a", "f0"), ("a", "f1"), ("b", "f0"), ("b", "f1"), ("c", "f0"), ("c", "f1")]
    end = 5.0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["app", "func", "end_timestamp", "duration"])
        for _ in range(rows):
            app, func = pairs[int(rng.integers(len(pairs)))]
            end += float(rng.uniform(0.2, 1.6))
            duration = float(rng.uniform(0.5, 3.0))
            writer.writerow([app, func, f"{end:.3f}", f"{duration:.3f}"])


def write_gcluster_mini(path: Path, *, seed: int = 20260802, rows: int = 40) -> None:
    """Synthesize a miniature Google-cluster-usage-style task-event CSV.

    Columns ``job_id,task_index,start_time,end_time`` — the shape
    :func:`repro.workload.adapters.load_gcluster_trace` normalizes.
    Start times are nondecreasing and the job ids map to 5 task types.
    """
    rng = np.random.default_rng(seed)
    jobs = [6251000000 + j for j in range(5)]
    start = 2.0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["job_id", "task_index", "start_time", "end_time"])
        for i in range(rows):
            job = jobs[int(rng.integers(len(jobs)))]
            start += float(rng.uniform(0.3, 2.0))
            duration = float(rng.uniform(0.4, 2.5))
            writer.writerow([job, i, f"{start:.3f}", f"{start + duration:.3f}"])


def case_pruning(case: dict) -> PruningConfig | None:
    """The pruning config a golden case names (shared with the test)."""
    if case["pruning"] != "paper":
        return None
    pruning = PruningConfig.paper_default()
    if case.get("controller"):
        pruning = pruning.with_(controller=ControllerConfig(**case["controller"]))
    return pruning


def split_counters(payload: dict) -> tuple[dict, dict]:
    """``(outcomes, counters)`` of one result payload: the counters are
    its ``estimator_stats``, the outcomes everything else."""
    outcomes = dict(payload)
    return outcomes, outcomes.pop("estimator_stats")


def run_case(case: dict, tasks) -> dict:
    """Replay one golden case — the exact recipe tests/test_golden.py uses."""
    pet = pet_matrix("inconsistent")
    system = ServerlessSystem(
        pet,
        case["heuristic"],
        pruning=case_pruning(case),
        seed=case["seed"],
        dynamics=DynamicsSpec(**case["dynamics"]) if case["dynamics"] else None,
    )
    return system.run(tasks).to_dict()


def run_case_live(case: dict, tasks) -> dict:
    """Replay one golden case through the *live service* under a virtual
    clock — the second driver over the same mapping core.  The golden
    suite asserts this returns byte-identically what :func:`run_case`
    returns, and ``main`` cross-checks it before writing any fixture, so
    a fixture that breaks replay-vs-live equivalence can never land."""
    import asyncio

    from repro.service import AsyncTimeline, SchedulerService, VirtualClock
    from repro.service.service import run_until_quiescent

    async def scenario():
        system = ServerlessSystem(
            pet_matrix("inconsistent"),
            case["heuristic"],
            pruning=case_pruning(case),
            seed=case["seed"],
            dynamics=DynamicsSpec(**case["dynamics"]) if case["dynamics"] else None,
            sim=AsyncTimeline(VirtualClock()),
        )
        service = SchedulerService(system)
        await service.start()
        service.replay(tasks)
        await run_until_quiescent(service)
        await service.stop()
        return service.finalize().to_dict()

    return asyncio.run(scenario())


def main() -> int:
    pet = pet_matrix("inconsistent")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    TRACES_DIR.mkdir(parents=True, exist_ok=True)
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    for filename, spec_fields, seed in EXAMPLE_TRACES:
        spec = WorkloadSpec(**spec_fields)
        tasks = generate_workload(spec, pet, np.random.default_rng(seed))
        save_csv_trace(TRACES_DIR / filename, tasks)
        print(f"wrote {TRACES_DIR / filename} ({len(tasks)} tasks)")

    write_azure_mini(DATA_DIR / "azure_mini.csv")
    write_gcluster_mini(DATA_DIR / "gcluster_mini.csv")
    print(f"wrote {DATA_DIR / 'azure_mini.csv'} + {DATA_DIR / 'gcluster_mini.csv'}")

    manifest = []
    counters = {}
    for case in CASES:
        if "trace_from" in case:
            # Adapted public trace: normalize the raw CSV through its
            # adapter; the golden trace.json then pins the adapter's
            # exact output alongside the replay result.
            src = case["trace_from"]
            path = REPO_ROOT / src["path"]
            tasks = load_any_trace(path, src["format"])
            # Store the repo-relative path so the fixture is byte-stable
            # across checkouts (the absolute path only reads the file).
            spec = trace_spec(path, fmt=src["format"]).with_(
                trace_path=src["path"]
            )
        else:
            spec = WorkloadSpec(**case["spec"])
            tasks = generate_workload(
                spec, pet, np.random.default_rng(case["trace_seed"])
            )
        trace_path = GOLDEN_DIR / f"{case['name']}.trace.json"
        save_trace(trace_path, tasks, spec)
        expected = run_case(case, tasks)
        # Replay-vs-live equivalence gate: the live-service driver must
        # reproduce the simulator's result byte-identically before the
        # fixture is allowed to land (fresh tasks — run_case mutated ours).
        live_tasks, _ = load_trace(trace_path)
        live = run_case_live(case, live_tasks)
        if live != expected:
            diverged = sorted(
                k for k in set(live) | set(expected) if live.get(k) != expected.get(k)
            )
            raise SystemExit(
                f"replay-vs-live divergence in {case['name']} (fields: {diverged})"
            )
        expected, counters[case["name"]] = split_counters(expected)
        expected_path = GOLDEN_DIR / f"{case['name']}.expected.json"
        expected_path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        manifest.append(
            {
                k: v
                for k, v in case.items()
                if k not in ("spec", "trace_seed", "trace_from")
            }
        )
        print(f"wrote {trace_path} + expected ({len(tasks)} tasks)")

    (GOLDEN_DIR / "cases.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {GOLDEN_DIR / 'cases.json'} ({len(manifest)} cases)")
    COUNTERS_PATH.write_text(json.dumps(counters, indent=2, sort_keys=True) + "\n")
    print(f"wrote {COUNTERS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
