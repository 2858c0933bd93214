"""The benchmark's four workloads.

Each workload makes its inputs from the seed, then runs *units* of work
through the program: one trial (``trial-drop``, ``trial-defer``), one
closed-loop HTTP pass (``service-http``) or one cold campaign pass plus
its warm re-runs (``campaign-churn``).  A unit returns what the client
saw (host time, samples, outcomes) and whether its correctness checks
held; :mod:`run` repeats units for the measured time and reduces them.

Every simulated statistic is a function of the seed alone: the trials
run on the discrete-event simulator, the service on a virtual clock
advanced by the closed-loop driver, and the campaign trials are pure
functions of (cell, trial).
"""

from __future__ import annotations

import asyncio
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import stats

__all__ = ["WORKLOADS", "Unit", "Workload", "import_program"]

#: Campaign pool size (the ``process`` executor with 2 workers).
CAMPAIGN_JOBS = 2
#: Simulator events per step of a trial; a chunk is several steps.
STEP_EVENTS = 16
#: Warm re-runs after each cold campaign pass; 48 cached trials each, so
#: one unit alone gives the 1000 lookups a p99 needs.
WARM_PASSES = 25


def import_program() -> None:
    """Import everything a workload touches (the ``setup.import_s`` phase)."""
    import repro  # noqa: F401  (the package imports every layer)
    import repro.experiments.campaign  # noqa: F401
    import repro.service.http  # noqa: F401


@dataclass
class Unit:
    """One unit of measured work and what it produced."""

    wall_s: float  #: host seconds of the unit's timed part
    cal_s: float  #: the same, calibrated for host speed (see :mod:`calibrate`)
    events: int  #: mapping events
    requests: int  #: task requests (arrivals / POSTs) handled
    robustness_pct: float
    #: Per-request latencies, raw and calibrated.
    admit_s: list = field(default_factory=list)
    admit_cal: list = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    problems: list = field(default_factory=list)
    #: Deterministic fingerprint of the simulated outcome: equal across
    #: every unit of one seed.
    outcome: tuple = ()
    #: Layer counters read from the program after the unit.
    counters: dict = field(default_factory=dict)
    #: Workload-specific extras: campaign ``(raw, calibrated)`` cold and
    #: warm times; the service's offer-to-decision times when traced.
    extra: dict = field(default_factory=dict)
    #: Which of the workload's inputs the unit ran.
    variant: int = 0


def _accounting_identity(acc) -> bool:
    """arrived = on_time + late + dropped_missed + dropped_proactive."""
    return acc.total_arrived == (
        acc.total_on_time + acc.total_late + acc.total_dropped_missed
        + acc.total_dropped_proactive
    )


def _system_counters(system) -> dict:
    est = system.estimator.cache_stats()
    driver = system.pruner.driver if system.pruner is not None else None
    return {
        "sim.events": system.sim.events_fired,
        "allocator.mapping_events": system.allocator.mapping_events,
        "estimator.convolutions": est["convolutions"],
        "estimator.cache_hits": est["hits"],
        "estimator.cache_misses": est["misses"],
        "control.setpoint_changes": driver.updates if driver is not None else 0,
    }


class _EventTimer:
    """Times, from outside, every allocator call that ran a mapping event.

    A mapping event is where the allocator admits, maps, defers or drops
    tasks; it runs inside ``submit`` (an arrival, when a slot is free)
    or ``on_completion``.  A call that only queued the task is not
    timed: a latency mixing microsecond enqueues with millisecond events
    would put its median on the boundary between the two.
    """

    def __init__(self, samples: list, enabled: bool = True) -> None:
        self.samples = samples
        self.enabled = enabled
        self._undo: list = []

    def __enter__(self):
        from repro.system.allocator import (
            BatchAllocator, ImmediateAllocator, ResourceAllocator)

        if not self.enabled:
            return self
        samples = self.samples
        for cls, name in ((BatchAllocator, "submit"), (ImmediateAllocator, "submit"),
                          (ResourceAllocator, "on_completion")):
            original = cls.__dict__[name]

            def timed(allocator, *args, _original=original):
                events = allocator.mapping_events
                start = perf_counter()
                _original(allocator, *args)
                elapsed = perf_counter() - start
                if allocator.mapping_events != events:
                    samples.append(elapsed)

            self._undo.append((cls, name, original))
            setattr(cls, name, timed)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in self._undo:
            setattr(cls, name, original)


class Workload:
    """Base: inputs from the seed, one measured unit, a setup probe.

    A run's inputs are ``variants`` distinct inputs drawn from the seed;
    one *round* runs each of them once, so every round does the same work
    and a per-seed figure averages over several inputs instead of
    hanging on one.
    """

    name = ""
    #: End-to-end metric the tracing overhead is computed on.
    overhead_metric = "events_per_s"
    variants = 1

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def prepare_inputs(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Build what a unit runs on (the probe's ``setup.build_s``)."""
        raise NotImplementedError

    def unit(self, variant: int, traced: bool = False) -> Unit:
        raise NotImplementedError

    def rng(self, variant: int):
        import numpy as np

        return np.random.default_rng((self.seed, variant))


# ----------------------------------------------------------------------
class TrialWorkload(Workload):
    """One seeded trial of MM in batch mode, replayed on the simulator."""

    level = "15k"
    scale = 1.0

    def pruning(self):
        raise NotImplementedError

    def prepare_inputs(self) -> None:
        from repro.experiments.runner import pet_matrix
        from repro.experiments.scenarios import level_spec

        self.pet = pet_matrix("inconsistent")
        self.spec = level_spec(self.level, scale=self.scale)
        for k in range(self.variants):
            self._generate(k)

    def _generate(self, variant: int):
        from repro.workload.generator import generate_workload

        return generate_workload(self.spec, self.pet, self.rng(variant))

    def _system(self, variant: int):
        from repro.system.serverless import ServerlessSystem

        return ServerlessSystem(
            self.pet, "MM", pruning=self.pruning(), seed=self.seed * 1000 + variant
        )

    def build(self) -> None:
        self._system(0)

    def unit(self, variant: int, traced: bool = False) -> Unit:
        from repro.workload.generator import trimmed_slice

        # Task objects carry their outcome, so every unit replays a fresh
        # copy of the same generated inputs (generated outside the timing).
        tasks = self._generate(variant)
        system = self._system(variant)
        admit: list = []
        admit_cal: list = []
        meter = calibrate.Meter()
        system.submit_workload(tasks)
        with _EventTimer(admit, enabled=not traced):
            done = False
            while not done:
                # Step the simulator in small event batches, so that the
                # kernel is sampled between chunks of about CHUNK_S.
                first = len(admit)
                start = perf_counter()
                while not done and perf_counter() - start < calibrate.CHUNK_S:
                    fired = system.sim.events_fired
                    system.sim.run(max_events=STEP_EVENTS)
                    done = system.sim.events_fired - fired < STEP_EVENTS
                if done:
                    system.run()  # queue drained: finalize leftovers
                factor = meter.chunk(perf_counter() - start)
                admit_cal.extend(s * factor for s in admit[first:])
        evaluated = system.result(trimmed_slice(tasks, self.spec.trim_count))
        unit = Unit(
            wall_s=meter.raw_s,
            cal_s=meter.cal_s,
            events=system.allocator.mapping_events,
            requests=len(tasks),
            robustness_pct=evaluated.robustness_pct,
            admit_s=admit,
            admit_cal=admit_cal,
        )
        unit.outcome = (unit.robustness_pct, unit.events)
        if not _accounting_identity(system.accounting):
            unit.failed = 1
            unit.problems.append("accounting identity violated")
        return unit


class TrialDrop(TrialWorkload):
    name = "trial-drop"
    level = "15k"
    scale = 2.0
    variants = 6

    def pruning(self):
        from repro.core.config import PruningConfig, ToggleMode

        return PruningConfig.drop_only(ToggleMode.ALWAYS)


class TrialDefer(TrialWorkload):
    name = "trial-defer"
    level = "25k"
    scale = 0.25
    variants = 6

    def pruning(self):
        from repro.core.config import PruningConfig

        return PruningConfig.paper_default()


# ----------------------------------------------------------------------
class ServiceHttp(Workload):
    """The live service behind HTTP, one closed-loop client, virtual clock."""

    name = "service-http"
    overhead_metric = "requests_per_s"
    level = "20k"
    # Many short passes: p99 is set by the slowest requests, which come
    # from each input's one demand spike, so it steadies with the number
    # of inputs, not with their length.
    scale = 0.125
    variants = 16
    admission_threshold = 0.05

    def prepare_inputs(self) -> None:
        from repro.experiments.runner import pet_matrix
        from repro.experiments.scenarios import level_spec
        from repro.workload.generator import generate_workload

        self.pet = pet_matrix("inconsistent")
        self.spec = level_spec(self.level, scale=self.scale)
        # The service builds its own Task objects from the posted records,
        # so the generated inputs can be reused by every pass.
        self.tasks = [
            generate_workload(self.spec, self.pet, self.rng(k)) for k in range(self.variants)
        ]

    def _service(self, variant: int = 0):
        from repro.core.config import ControllerConfig, PruningConfig
        from repro.service import AsyncTimeline, SchedulerService, VirtualClock
        from repro.service.http import ServiceHTTP
        from repro.system.serverless import ServerlessSystem

        pruning = PruningConfig.paper_default().with_(
            controller=ControllerConfig(kind="hysteresis")
        )
        system = ServerlessSystem(
            self.pet, "MM", pruning=pruning, seed=self.seed * 1000 + variant,
            sim=AsyncTimeline(VirtualClock()),
        )
        service = SchedulerService(system, admission_threshold=self.admission_threshold)
        return service, ServiceHTTP(service)

    def build(self) -> None:
        async def up_and_down():
            service, http = self._service()
            await service.start()
            await http.start()
            await http.stop()
            await service.stop()

        asyncio.run(up_and_down())

    def unit(self, variant: int, traced: bool = False) -> Unit:
        return asyncio.run(self._pass(variant, traced))

    async def _pass(self, variant: int, traced: bool) -> Unit:
        from repro.workload.generator import trimmed_slice

        from service_driver import drive

        service, http = self._service(variant)
        offer_s: list = []
        restore = _time_offers(service, offer_s) if traced else None
        await service.start()
        await http.start()
        meter = calibrate.Meter()
        try:
            run = await drive(service, http.port, self.tasks[variant], meter)
        finally:
            await http.stop()
            await service.stop()
            if restore is not None:
                restore()
        service.finalize()
        system = service.system
        evaluated = system.result(trimmed_slice(system.tasks, self.spec.trim_count))
        ok = run.status.get(202, 0) + run.status.get(422, 0)
        unit = Unit(
            wall_s=meter.raw_s,
            cal_s=meter.cal_s,
            events=system.allocator.mapping_events,
            requests=run.posted,
            robustness_pct=evaluated.robustness_pct,
            admit_s=run.rtt_s,
            admit_cal=run.rtt_cal,
            attempted=run.posted,
            counters=_system_counters(system),
        )
        unit.counters.update(
            {f"service.decisions.{k}": v for k, v in service.stats.to_dict().items()
             if k != "received"}
        )
        unit.extra["offer_s"] = offer_s
        unit.outcome = (unit.robustness_pct, unit.events, ok)
        unit.failed = run.posted - ok
        unit.problems += run.errors
        if unit.failed:
            unit.problems.append(f"statuses other than 202/422: {run.status}")
        acc = system.accounting
        if not _accounting_identity(acc) or acc.total_arrived != ok:
            unit.failed = max(unit.failed, 1)
            unit.problems.append("service accounting identity violated")
        return unit


def _time_offers(service, samples: list):
    """Record offer-to-decision time of every offer (traced run only)."""
    original = service.offer

    def offer(record):
        start = perf_counter()
        future = original(record)
        future.add_done_callback(lambda _f: samples.append(perf_counter() - start))
        return future

    service.offer = offer
    return lambda: service.__dict__.pop("offer", None)


# ----------------------------------------------------------------------
class CampaignChurn(Workload):
    """Cold campaign sweep into an empty cache, then warm re-runs."""

    name = "campaign-churn"
    overhead_metric = "cold_ms_per_trial"
    scale = 0.25
    trials = 6

    def prepare_inputs(self) -> None:
        from repro.experiments.campaign import Campaign, SweepGrid
        from repro.experiments.runner import pet_matrix

        pet_matrix("inconsistent")
        self.grid = SweepGrid(
            name="perfbench",
            heuristics=("MM", "MCT"),
            levels=("15k",),
            pruning=("none", "paper"),
            dynamics=("none", "churn"),
            trials=self.trials,
            base_seed=self.seed,
            scale=self.scale,
        )
        self.campaign = Campaign.from_grid(self.grid)
        self.configs = [cell.config for cell in self.campaign.cells]
        self.passes = 0

    def build(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments.campaign import _init_worker

        with ProcessPoolExecutor(
            max_workers=CAMPAIGN_JOBS, initializer=_init_worker, initargs=(self.configs,)
        ) as pool:
            pool.submit(int).result()

    def unit(self, variant: int, traced: bool = False) -> Unit:
        from repro.experiments.campaign import ResultCache

        cache_dir = self.run_dir / f"cache-{self.passes}"
        self.passes += 1
        shutil.rmtree(cache_dir, ignore_errors=True)
        total = sum(cfg.trials for cfg in self.configs)
        problems: list = []

        # The cold pass runs on both cores, so the kernel is sampled only
        # on either side of it.
        cold_meter = calibrate.Meter()
        cold_cache = ResultCache(cache_dir)
        start = perf_counter()
        cold = self.campaign.run(jobs=CAMPAIGN_JOBS, cache=cold_cache, executor="process")
        cold_meter.chunk(perf_counter() - start)
        cold_rows = json.dumps([row.to_dict() for row in cold.rows], sort_keys=True)

        gets: list = []
        gets_cal: list = []
        warm_raw: list = []
        warm_cal: list = []
        hits = misses = 0
        meter = calibrate.Meter()
        for _ in range(WARM_PASSES):
            warm_cache = ResultCache(cache_dir)
            restore = None if traced else _time_gets(warm_cache, gets)
            first = len(gets)
            start = perf_counter()
            warm = self.campaign.run(jobs=CAMPAIGN_JOBS, cache=warm_cache, executor="process")
            elapsed = perf_counter() - start
            factor = meter.chunk(elapsed)
            warm_raw.append(elapsed)
            warm_cal.append(elapsed * factor)
            gets_cal.extend(s * factor for s in gets[first:])
            if restore is not None:
                restore()
            hits += warm_cache.hits
            misses += warm_cache.misses
            if warm_cache.misses or warm_cache.hits != total:
                problems.append(f"warm pass: {warm_cache.stats()} for {total} trials")
            if json.dumps([r.to_dict() for r in warm.rows], sort_keys=True) != cold_rows:
                problems.append("warm rows differ from cold rows")

        reader = ResultCache(cache_dir)
        results = [reader.get(cfg, t) for cfg in self.configs for t in range(cfg.trials)]
        shutil.rmtree(cache_dir, ignore_errors=True)
        for r in results:
            if r.total != r.on_time + r.late + r.dropped_missed + r.dropped_proactive:
                problems.append("trial accounting identity violated")
        unit = Unit(
            wall_s=cold_meter.raw_s,
            cal_s=cold_meter.cal_s,
            events=sum(r.mapping_events for r in results),
            requests=sum(cfg.spec.num_tasks * cfg.trials for cfg in self.configs),
            robustness_pct=sum(r.robustness_pct for r in results) / len(results),
            admit_s=gets,
            admit_cal=gets_cal,
            attempted=total * (1 + WARM_PASSES),
            failed=len(problems),
            problems=problems,
            counters={
                "cache.hits": hits + cold_cache.hits,
                "cache.misses": misses + cold_cache.misses,
                "dynamics.failures": sum(
                    r.dynamics_stats.get("failures", 0) for r in results
                ),
            },
            extra={
                "cold_ms_per_trial": (1000.0 * cold_meter.raw_s / total,
                                      1000.0 * cold_meter.cal_s / total),
                "warm_ms_per_trial": (1000.0 * stats.median(warm_raw) / total,
                                      1000.0 * stats.median(warm_cal) / total),
            },
        )
        unit.outcome = (unit.robustness_pct, unit.events, cold_rows)
        return unit


def _time_gets(cache, samples: list):
    """Time every lookup on one warm cache instance."""
    original = cache.get

    def get(config, trial):
        start = perf_counter()
        result = original(config, trial)
        samples.append(perf_counter() - start)
        return result

    cache.get = get
    return lambda: cache.__dict__.pop("get", None)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TrialDrop, TrialDefer, ServiceHttp, CampaignChurn)
}
