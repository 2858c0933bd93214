"""The deterministic closed-loop HTTP driver."""

import asyncio

import numpy as np
import pytest

from calibrate import Meter
from service_driver import _advance_through, drive
from workloads import ServiceHttp


def _pass(tasks, seed):
    workload = ServiceHttp(seed, run_dir=None)
    workload.tasks = tasks

    async def go():
        from repro.experiments.runner import pet_matrix

        workload.pet = pet_matrix("inconsistent")
        service, http = workload._service()
        await service.start()
        await http.start()
        try:
            run = await asyncio.wait_for(drive(service, http.port, tasks, Meter()), timeout=60)
        finally:
            await http.stop()
            await service.stop()
        result = service.finalize()
        return run, service, result

    return asyncio.run(go())


@pytest.fixture(scope="module")
def tasks():
    from repro.experiments.runner import pet_matrix
    from repro.experiments.scenarios import level_spec
    from repro.workload.generator import generate_workload

    spec = level_spec("20k", scale=0.1)
    return generate_workload(spec, pet_matrix("inconsistent"), np.random.default_rng(3))


def _fresh(tasks):
    from repro.sim.task import Task

    return [Task(task_id=t.task_id, task_type=t.task_type, arrival=t.arrival,
                 deadline=t.deadline) for t in tasks]


def test_every_post_is_accounted_and_the_identity_holds(tasks):
    run, service, result = _pass(_fresh(tasks), seed=3)
    assert run.posted == len(tasks)
    assert not run.errors
    assert set(run.status) <= {202, 422}
    assert run.status.get(202, 0) + run.status.get(422, 0) == run.posted
    acc = service.system.accounting
    assert acc.total_arrived == run.posted
    assert acc.total_arrived == (acc.total_on_time + acc.total_late
                                 + acc.total_dropped_missed + acc.total_dropped_proactive)
    assert service.next_wakeup() is None


def test_outcome_does_not_depend_on_host_speed(tasks):
    first = _pass(_fresh(tasks), seed=3)
    second = _pass(_fresh(tasks), seed=3)
    assert first[0].status == second[0].status
    assert first[2].to_dict() == second[2].to_dict()
    # Arrivals are stamped with the virtual clock at each task's instant.
    stamped = [t.arrival for t in second[1].system.tasks]
    assert stamped == [t.arrival for t in tasks]


def test_advancing_to_a_bare_instant_does_not_wait_for_idle():
    from repro.experiments.runner import pet_matrix

    workload = ServiceHttp(1, run_dir=None)
    workload.pet = pet_matrix("inconsistent")

    async def go():
        service, _ = workload._service()
        await service.start()
        await service.wait_idle()
        # Nothing is scheduled: the pump stays parked and never re-publishes
        # idle, so a driver that cleared and awaited idle here would hang.
        await asyncio.wait_for(_advance_through(service, 5.0), timeout=5)
        now = service.clock.now()
        await service.stop()
        return now

    assert asyncio.run(go()) == 5.0
