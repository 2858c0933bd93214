"""In-memory span tracer that times the program's layers from outside.

:func:`install` wraps the public functions of each layer (the simulator,
the allocator, the pruner, the control plane, the completion estimator,
the PMF kernels, the heuristics, the service, the campaign cache and the
workload generator) so every call records a span: name, start, end and
parent.  Spans opened inside one mapping event or one request share a
group id.  Per-name calls, inclusive time and self time (duration minus
what the children cover) are folded in as spans close; the first
``keep`` spans are also kept verbatim for the trace file written when
the run ends.  Nothing in the program is edited: the wrappers are
installed on the classes and modules and removed again by the returned
undo function.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

__all__ = ["Tracer", "install", "merge_workers", "LAYER_FUNCTIONS"]


class Tracer:
    """Span recorder with online per-name aggregation."""

    def __init__(self, keep: int = 200_000) -> None:
        self.keep = keep
        self.reset()

    def reset(self) -> None:
        #: Verbatim spans ``(id, parent, start, end, name, group)``.
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 0
        self._next_group = 0
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    def open(self, name: str, group: bool) -> list:
        stack = self._stack
        gid = stack[-1][4] if stack else None
        if gid is None and group:
            gid = self._next_group
            self._next_group += 1
        frame = [self._next_id, name, 0.0, 0.0, gid]
        self._next_id += 1
        stack.append(frame)
        self._open[name] += 1
        frame[2] = perf_counter()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        sid, name, start, child_s, gid = frame
        dur = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        self._open[name] -= 1
        if not self._open[name]:
            # Only the outermost call of a name adds inclusive time, so a
            # recursive or re-entrant call is not counted twice.
            agg[1] += dur
        agg[2] += dur - child_s
        parent = None
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][0]
        if len(self.spans) < self.keep:
            self.spans.append((sid, parent, start, end, name, gid))
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        agg = self.totals.get(name)
        return agg[0] if agg else 0

    def seconds(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[1] if agg else 0.0

    def self_seconds(self, name: str) -> float:
        agg = self.totals.get(name)
        return agg[2] if agg else 0.0

    def export(self) -> dict:
        return {"totals": self.totals, "counts": dict(self.counts)}

    def merge(self, payload: dict) -> None:
        for name, (calls, incl, own) in payload["totals"].items():
            agg = self.totals.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += incl
            agg[2] += own
        self.counts.update(payload["counts"])

    def write(self, path: Path) -> None:
        """Write the kept spans and the aggregates (end of the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["id", "parent", "start", "end", "name", "group"],
            "spans": self.spans,
            "dropped": self.dropped,
            **self.export(),
        }
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
def _count_drop_scan(tracer: Tracer, args, result) -> None:
    tracer.counts["pruner.drop_scan.drops"] += len(result)
    if result:
        tracer.counts["pruner.drop_scan.useful"] += 1


def _count_defer(tracer: Tracer, args, result) -> None:
    if result:
        tracer.counts["pruner.should_defer.defers"] += 1


def _count_trial(tracer: Tracer, args, result) -> None:
    """Work counters of one finished trial (also inside pool workers)."""
    counts = tracer.counts
    est = result.estimator_stats
    counts["sim.events"] += args[0].sim.events_fired
    counts["allocator.mapping_events"] += result.mapping_events
    counts["estimator.convolutions"] += est.get("convolutions", 0)
    counts["estimator.cache_hits"] += est.get("hits", 0)
    counts["estimator.cache_misses"] += est.get("misses", 0)
    counts["control.setpoint_changes"] += result.controller_updates


#: ``(module, owner or None for a module function, attribute, span name,
#: starts a group, result hook)``.  The owner is the class that defines
#: the attribute, so removing the wrapper restores exactly what was there.
LAYER_FUNCTIONS: list[tuple] = [
    ("repro.system.serverless", "ServerlessSystem", "run", "system.run", False, _count_trial),
    ("repro.sim.engine", "Simulator", "run", "sim.run", False, None),
    ("repro.service.timeline", "AsyncTimeline", "fire_due", "service.fire_due", False, None),
    ("repro.system.allocator", "BatchAllocator", "submit", "allocator.submit", True, None),
    ("repro.system.allocator", "ImmediateAllocator", "submit", "allocator.submit", True, None),
    ("repro.system.allocator", "ResourceAllocator", "on_completion",
     "allocator.on_completion", True, None),
    ("repro.core.pruner", "Pruner", "drop_scan", "pruner.drop_scan", False, _count_drop_scan),
    ("repro.core.pruner", "Pruner", "should_defer", "pruner.should_defer", False, _count_defer),
    ("repro.core.pruner", "Pruner", "control_tick", "pruner.control_tick", False, None),
    ("repro.control.driver", "ControllerDriver", "tick", "control.tick", False, None),
    ("repro.heuristics.base", "TwoPhaseBatchHeuristic", "plan", "heuristic.plan", False, None),
    ("repro.heuristics.immediate", "RoundRobin", "select_machine",
     "heuristic.select_machine", False, None),
    ("repro.heuristics.immediate", "MET", "select_machine", "heuristic.select_machine", False, None),
    ("repro.heuristics.immediate", "MCT", "select_machine", "heuristic.select_machine", False, None),
    ("repro.heuristics.immediate", "KPB", "select_machine", "heuristic.select_machine", False, None),
    ("repro.system.completion", "CompletionEstimator", "chances_for_pairs",
     "estimator.chances_for_pairs", False, None),
    ("repro.system.completion", "CompletionEstimator", "cluster_expected_available",
     "estimator.cluster_expected_available", False, None),
    ("repro.system.completion", "CompletionEstimator", "cluster_queue_chances",
     "estimator.cluster_queue_chances", False, None),
    ("repro.system.completion", "CompletionEstimator", "queue_chances_suffix",
     "estimator.queue_chances_suffix", False, None),
    ("repro.system.completion", "CompletionEstimator", "chances_for",
     "estimator.chances_for", False, None),
    ("repro.stochastic.pmf", "PMF", "convolve_truncated", "pmf.convolve_truncated", False, None),
    # ``batch_cdf_at`` is a module function imported by name into the
    # estimator, so both bindings are wrapped.
    ("repro.stochastic.pmf", None, "batch_cdf_at", "pmf.batch_cdf_at", False, None),
    ("repro.system.completion", None, "batch_cdf_at", "pmf.batch_cdf_at", False, None),
    ("repro.experiments.campaign", "ResultCache", "get", "cache.get", True, None),
    ("repro.experiments.campaign", "ResultCache", "put", "cache.put", True, None),
    ("repro.experiments.campaign", None, "run_cell_trials",
     "campaign.run_cell_trials", False, None),
    ("repro.workload.generator", None, "generate_workload", "workload.generate", True, None),
    ("repro.experiments.runner", None, "generate_workload", "workload.generate", True, None),
]


def _wrap(tracer: Tracer, fn: Callable, name: str, group: bool, hook) -> Callable:
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = open_(name, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(frame)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def _current(owner, attr: str):
    """What ``owner.attr`` holds now (a class's own attribute, unbound)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def install(tracer: Tracer, worker_dir: Path) -> Callable[[], None]:
    """Wrap every layer function; returns the function that unwraps them.

    Campaign pool workers, forked with the wrappers in place, write their
    own aggregates to ``worker_dir/worker-<pid>.json`` after each chunk,
    for :func:`merge_workers` to fold in.
    """
    undo: list[tuple] = []

    def patch(owner, attr: str, new) -> None:
        undo.append((owner, attr, _current(owner, attr)))
        setattr(owner, attr, new)

    for module_name, owner_name, attr, name, group, hook in LAYER_FUNCTIONS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        patch(owner, attr, _wrap(tracer, _current(owner, attr), name, group, hook))

    campaign = importlib.import_module("repro.experiments.campaign")
    run_chunk = campaign._run_chunk

    # Same __module__/__qualname__ as the original (functools.wraps), so
    # the pool still pickles the chunk function by reference.
    @functools.wraps(run_chunk)
    def traced_chunk(chunk):
        if tracer.pid != os.getpid():
            tracer.reset()  # forked: drop the parent's spans and stack
        out = run_chunk(chunk)
        path = worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(tracer.export()))
        return out

    patch(campaign, "_run_chunk", traced_chunk)

    def unpatch() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return unpatch


def merge_workers(tracer: Tracer, worker_dir: Path) -> None:
    """Fold in (and delete) the aggregates campaign workers wrote."""
    for path in sorted(worker_dir.glob("worker-*.json")):
        tracer.merge(json.loads(path.read_text()))
        path.unlink()
