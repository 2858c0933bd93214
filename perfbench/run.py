#!/usr/bin/env python3
"""Benchmark command: one workload, end-to-end or traced, with checks.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trial-drop --seed 1 --seconds 18 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
same untraced measurement, then runs one more round with every layer
traced and prints the per-layer metrics plus the tracing overhead (the
spans go to ``.perfbench/trace-<workload>-<seed>.json``).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The seed is the only input: the benchmark generates the workload from
it and hands the program nothing else.  Set-up time is measured in
fresh interpreters (``--probe``), several per run, and reported as
their median.  The other host times are calibrated for host speed (see
``calibrate.py``); the human-readable lines also show them uncalibrated.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

_T0 = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run (their median is ``setup_s``).
SETUP_PROBES = 3
#: Rounds every run makes at least: each input then runs twice, so its
#: repeats can be compared, and a cold and a warm round both exist.
MIN_ROUNDS = 2

import stats  # noqa: E402


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _find_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"program sources not found under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Set-up: a fresh interpreter until the workload is ready to run.
# ----------------------------------------------------------------------
def probe(name: str, seed: int) -> None:
    """Child side: time each set-up phase, report, exit."""
    phases = {}
    mark = _T0
    from workloads import WORKLOADS, import_program

    import_program()
    now = perf_counter()
    phases["import_s"], mark = now - mark, now
    from repro.experiments.runner import pet_matrix

    pet_matrix("inconsistent")
    now = perf_counter()
    phases["pet_s"], mark = now - mark, now
    workload = WORKLOADS[name](seed, ROOT / ".perfbench" / "probe")
    workload.prepare_inputs()
    now = perf_counter()
    phases["workload_s"], mark = now - mark, now
    workload.build()
    now = perf_counter()
    phases["build_s"] = now - mark
    print("READY " + json.dumps(phases), flush=True)


def measure_setup(name: str, seed: int) -> tuple[list[float], dict]:
    """Parent side: spawn the probes; wall time from spawn until READY.

    Set-up is not calibrated: a probe lasts longer than the host's speed
    states, so kernel samples on either side of it add noise instead of
    removing it.  Returns the probe times and the median phases.
    """
    totals: list[float] = []
    phases: dict[str, list[float]] = {}
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", "--workload", name,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        ready = None
        for line in child.stdout:
            if line.startswith("READY "):
                ready = perf_counter()
                for key, value in json.loads(line[6:]).items():
                    phases.setdefault(key, []).append(value)
                break
        child.stdout.close()
        if child.wait() != 0 or ready is None:
            _fail(f"set-up probe exited with code {child.returncode}", 1)
        totals.append(ready - start)
    return totals, {k: stats.median(v) for k, v in phases.items()}


# ----------------------------------------------------------------------
# Measurement: rounds of units, each unit timed between kernel samples.
# ----------------------------------------------------------------------
def _round(workload, errors: list, traced: bool = False) -> list:
    """Run every variant once; returns the units that completed."""
    units = []
    for variant in range(workload.variants):
        # Start every unit from a collected heap, so that neither its time
        # nor the peak memory depends on how many units ran before it.
        gc.collect()
        try:
            unit = workload.unit(variant, traced=traced)
        except Exception as exc:  # a failed attempt: counted and reported
            errors.append(f"variant {variant}: {type(exc).__name__}: {exc}")
            continue
        unit.variant = variant
        units.append(unit)
    return units


def run_rounds(workload, seconds: float) -> tuple[list[list], list[str]]:
    """Run rounds for about ``seconds``: at least :data:`MIN_ROUNDS`, and
    no round starts that would overrun.  Returns the complete rounds and
    the errors of the units that failed."""
    rounds: list[list] = []
    errors: list[str] = []
    start = last = perf_counter()
    longest = 0.0
    while len(rounds) < MIN_ROUNDS or last - start + longest <= seconds:
        units = _round(workload, errors)
        if len(units) == workload.variants:
            rounds.append(units)
        if len(errors) > 3:
            break
        now = perf_counter()
        longest = max(longest, now - last)
        last = now
    return rounds, errors


def _cost(units: list, calibrated: bool = True) -> float:
    """Host seconds of ``units``, calibrated unless told not to."""
    return sum(u.cal_s if calibrated else u.wall_s for u in units)


def end_to_end(rounds: list[list], setup: list[float], calibrated: bool = True) -> dict:
    """End-to-end metrics of the complete rounds."""
    pick = 1 if calibrated else 0
    first = rounds[0]
    if "cold_ms_per_trial" in first[0].extra:
        units = [u for r in rounds for u in r]
        cold = stats.median(u.extra["cold_ms_per_trial"][pick] for u in units)
        warm = stats.median(u.extra["warm_ms_per_trial"][pick] for u in units)
    else:
        # A unit is one trial (a replay, or one service pass).  The first
        # round runs each input for the first time in this process; later
        # rounds run warm.
        per_trial_ms = [1000.0 * _cost(r, calibrated) / len(r) for r in rounds]
        cold, warm = per_trial_ms[0], stats.median(per_trial_ms[1:])
    admit = [s for r in rounds for u in r for s in (u.admit_cal if calibrated else u.admit_s)]
    return {
        "setup_s": (stats.median(setup), "s"),
        "events_per_s": (
            stats.median(sum(u.events for u in r) / _cost(r, calibrated) for r in rounds),
            "1/s"),
        "robustness_pct": (sum(u.robustness_pct for u in first) / len(first), "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "requests_per_s": (
            stats.median(sum(u.requests for u in r) / _cost(r, calibrated) for r in rounds),
            "1/s"),
        "admit_p50_ms": (1000.0 * stats.percentile(admit, 50), "ms"),
        "admit_p99_ms": (1000.0 * stats.percentile(admit, 99), "ms"),
        "cold_ms_per_trial": (cold, "ms"),
        "warm_ms_per_trial": (warm, "ms"),
    }


# ----------------------------------------------------------------------
# Traced round and per-layer reduction.
# ----------------------------------------------------------------------
def traced_round(workload, run_dir: Path):
    """One more round with every layer traced."""
    from tracer import Tracer, install, merge_workers

    tracer = Tracer()
    worker_dir = run_dir / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    unpatch = install(tracer, worker_dir)
    try:
        units = _round(workload, errors, traced=True)
    finally:
        unpatch()
    merge_workers(tracer, worker_dir)
    return tracer, units, errors


def work_cost(workload, units: list) -> float:
    """Calibrated cost per piece of work of the overhead metric."""
    if workload.overhead_metric == "cold_ms_per_trial":
        return sum(u.extra["cold_ms_per_trial"][1] for u in units)
    work = "requests" if workload.overhead_metric == "requests_per_s" else "events"
    return _cost(units) / sum(getattr(u, work) for u in units)


def per_layer(tracer, units: list, phases: dict, overhead_pct: float) -> dict:
    """Per-layer metrics of the traced round."""
    counts = Counter(tracer.counts)
    for unit in units:
        counts.update(unit.counters)
    events = counts.get("allocator.mapping_events", 0)
    out: dict = {}
    for phase in ("import_s", "pet_s", "workload_s", "build_s"):
        out[f"setup.{phase}"] = (phases[phase], "s")

    def timed(name, *, self_s=False):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.s"] = (tracer.seconds(name), "s")
        if self_s:
            out[f"{name}.self_s"] = (tracer.self_seconds(name), "s")

    out["sim.events"] = (counts.get("sim.events", 0), "count")
    out["sim.self_s"] = (
        tracer.self_seconds("sim.run") + tracer.self_seconds("service.fire_due"), "s")
    out["allocator.mapping_events"] = (events, "count")
    timed("allocator.submit")
    timed("allocator.on_completion")
    out["allocator.self_s"] = (
        tracer.self_seconds("allocator.submit")
        + tracer.self_seconds("allocator.on_completion"), "s")
    timed("pruner.drop_scan", self_s=True)
    out["pruner.drop_scan.drops"] = (counts.get("pruner.drop_scan.drops", 0), "count")
    out["pruner.drop_scan.useful_ratio"] = (
        stats.ratio(counts.get("pruner.drop_scan.useful", 0),
                    tracer.calls("pruner.drop_scan"))[0], "ratio")
    out["pruner.should_defer.calls"] = (tracer.calls("pruner.should_defer"), "count")
    out["pruner.should_defer.defers"] = (
        counts.get("pruner.should_defer.defers", 0), "count")
    timed("heuristic.plan", self_s=True)
    out["heuristic.plan_rounds_per_event"] = (
        stats.ratio(tracer.calls("heuristic.plan"), events)[0], "ratio")
    for name in ("chances_for_pairs", "cluster_expected_available",
                 "cluster_queue_chances", "queue_chances_suffix", "chances_for"):
        timed(f"estimator.{name}")
    convolutions = counts.get("estimator.convolutions", 0)
    out["estimator.convolutions"] = (convolutions, "count")
    out["estimator.convolutions_per_event"] = (stats.ratio(convolutions, events)[0], "ratio")
    hits = counts.get("estimator.cache_hits", 0)
    lookups = hits + counts.get("estimator.cache_misses", 0)
    out["estimator.cache_lookups"] = (lookups, "count")
    out["estimator.cache_hit_ratio"] = (stats.ratio(hits, lookups)[0], "ratio")
    timed("pmf.convolve_truncated")
    timed("pmf.batch_cdf_at")
    timed("control.tick")
    out["control.setpoint_changes"] = (counts.get("control.setpoint_changes", 0), "count")
    out["pruner.control_tick.s"] = (tracer.seconds("pruner.control_tick"), "s")

    offer = [o for u in units for o in u.extra.get("offer_s", [])]
    out["service.requests"] = (len(offer), "count")
    o2d = stats.percentile(offer, 50) if offer else 0.0
    out["service.offer_to_decision_ms"] = (1000.0 * o2d, "ms")
    # One client, one request in flight: the i-th offer is the i-th POST.
    overhead = [rtt - o for u in units
                for rtt, o in zip(u.admit_s, u.extra.get("offer_s", []))]
    out["service.http_overhead_ms"] = (
        1000.0 * stats.percentile(overhead, 50) if overhead else 0.0, "ms")
    timed("service.fire_due")
    for status in ("admitted", "rejected", "shed", "malformed"):
        key = f"service.decisions.{status}"
        out[key] = (counts.get(key, 0), "count")

    timed("cache.put")
    timed("cache.get")
    out["cache.hits"] = (counts.get("cache.hits", 0), "count")
    out["cache.misses"] = (counts.get("cache.misses", 0), "count")
    out["campaign.pool_s"] = (
        tracer.seconds("campaign.run_cell_trials")
        - tracer.seconds("cache.get") - tracer.seconds("cache.put"), "s")
    out["dynamics.failures"] = (counts.get("dynamics.failures", 0), "count")
    timed("heuristic.select_machine")
    timed("workload.generate")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (len(tracer.spans) + tracer.dropped, "count")
    return out


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _find_program()
    from workloads import WORKLOADS, import_program

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        _fail("the seed must be a non-negative integer")
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    setup, phases = measure_setup(args.workload, args.seed)
    import_program()
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    try:
        workload.prepare_inputs()
        rounds, errors = run_rounds(workload, args.seconds)
        if not rounds:
            _fail("no round completed: " + "; ".join(errors), 1)
        metrics = end_to_end(rounds, setup)
        raw = end_to_end(rounds, setup, calibrated=False)
        if args.trace:
            tracer, traced, traced_errors = traced_round(workload, run_dir)
            errors += traced_errors
            if len(traced) < workload.variants:
                _fail("the traced round failed: " + "; ".join(traced_errors), 1)
            base = stats.median(work_cost(workload, r) for r in rounds)
            overhead = 100.0 * (work_cost(workload, traced) / base - 1.0)
            metrics = per_layer(tracer, traced, phases, overhead)
            metrics["admit.samples"] = (
                sum(len(u.admit_s) for r in rounds for u in r), "count")
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json")
            rounds.append(traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = [u for r in rounds for u in r]
    problems = [p for u in units for p in u.problems] + errors
    reference = {u.variant: u.outcome for u in rounds[0]}
    differing = [u for u in units if u.outcome != reference[u.variant]]
    if differing:
        problems.append(
            f"{len(differing)} units differ in outcome from the first run of their input")
    attempted = sum(u.attempted for u in units) + len(errors)
    failed = sum(u.failed for u in units) + len(errors) + len(differing)
    for p in problems:
        print(f"check failed: {p}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of "
          f"{workload.variants} inputs, {attempted} attempted, {failed} failed")
    print("  unit seconds: " + " ".join(f"{u.wall_s:.3f}" for u in units))
    print("  calibration factor (median): "
          f"{stats.median(u.cal_s / u.wall_s for u in units):.4f}; admit samples: "
          f"{sum(len(u.admit_s) for r in rounds[:len(rounds) - args.trace] for u in r)}")
    for name, (value, unit_name) in metrics.items():
        note = f" (uncalibrated {raw[name][0]:.6g})" if name in raw and not args.trace else ""
        print(f"  {name} = {value:.6g} {unit_name}{note}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_name}
            for name, (value, unit_name) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
