"""Equivalence properties of the per-event planning state.

:class:`~repro.heuristics.base.PlanBatch` carries the two-phase planner's
matrices across the planning rounds of one mapping event, and the
allocator's defer check answers each placement with a scalar
``PMF.cdf_at`` instead of a gathered ``batch_cdf_at``.  Both are pure
optimisations, so both are checked against the computation they replace:

* after any sequence of retires, dispatches, outside queue changes and
  machine failures/recoveries, ``plan(batch)`` equals ``plan(list of the
  remaining tasks)`` on a same-seeded heuristic called in lockstep;
* ``chances_for_pairs`` is bit-equal to a ``batch_cdf_at`` gather and to
  per-pair ``chance_of_success``, including deadlines a hair below a
  grid point and fully truncated (empty) distributions.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import MMU, MSD, MinMin
from repro.heuristics.base import PlanBatch
from repro.heuristics.extra import LLF, MaxMin, RandomBatch
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import generate_pet_matrix
from repro.stochastic.pmf import CDF_REL_EPS, CDF_TOL_CAP, PMF, batch_cdf_at
from repro.system.completion import CompletionEstimator

TWO_PHASE = {
    "MM": MinMin,
    "MSD": MSD,
    "MMU": MMU,
    "LLF": LLF,
    "MAXMIN": MaxMin,
    "RANDOM": lambda: RandomBatch(seed=7),
}

PET = generate_pet_matrix(4, 3, seed=11)


def _exec_time(task, machine):
    return float(PET.means[task.task_type, machine.machine_type])


def _plan_ids(plan):
    return [(t.task_id, m.machine_id) for t, m in plan]


# One step of the scenario: what happens between two planning rounds.
steps = st.one_of(
    st.tuples(st.just("retire"), st.lists(st.integers(0, 30), max_size=4)),
    st.tuples(st.just("dispatch"), st.integers(0, 30), st.integers(0, 5)),
    st.tuples(st.just("outside"), st.integers(0, 3), st.integers(0, 5)),
    st.tuples(st.just("fail"), st.integers(0, 5)),
    st.tuples(st.just("recover"), st.integers(0, 5)),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(TWO_PHASE)),
    num_types=st.integers(1, 3),
    per_type=st.integers(1, 2),
    limit=st.one_of(st.none(), st.integers(1, 3)),
    batch=st.lists(
        st.tuples(st.integers(0, 3), st.floats(1.0, 60.0)), min_size=0, max_size=12
    ),
    script=st.lists(steps, max_size=8),
)
def test_plan_batch_matches_fresh_plan(name, num_types, per_type, limit, batch, script):
    sim = Simulator()
    cluster = Cluster.heterogeneous(num_types, machines_per_type=per_type, queue_limit=limit)
    est = CompletionEstimator(PET)
    tasks = [
        Task(task_id=i, task_type=ttype, arrival=0.0, deadline=slack)
        for i, (ttype, slack) in enumerate(batch)
    ]
    carried = PlanBatch(tasks)
    remaining = list(tasks)
    # Same seed, called in lockstep: RANDOM's stream advances alike in
    # both only if both make the same select_winner calls.
    h_batch, h_list = TWO_PHASE[name](), TWO_PHASE[name]()
    outside_id = 1000

    def check():
        got = h_batch.plan(carried, cluster, est, sim.now)
        want = h_list.plan(list(remaining), cluster, est, sim.now)
        assert _plan_ids(got) == _plan_ids(want)
        assert list(carried) == remaining

    check()
    for step in script:
        kind = step[0]
        machines = cluster.machines
        if kind == "retire":
            ids = {remaining[i % len(remaining)].task_id for i in step[1]} if remaining else set()
            carried.retire(ids)
            remaining = [t for t in remaining if t.task_id not in ids]
        elif kind == "dispatch":
            machine = machines[step[2] % len(machines)]
            if not remaining or not machine.has_free_slot:
                continue
            task = remaining[step[1] % len(remaining)]
            task.mark_mapped(machine.machine_id, sim.now)
            machine.dispatch(task, sim, _exec_time, lambda *a: None)
            carried.retire({task.task_id})
            remaining.remove(task)
        elif kind == "outside":
            machine = machines[step[2] % len(machines)]
            if not machine.has_free_slot:
                continue
            task = Task(task_id=outside_id, task_type=step[1], arrival=0.0, deadline=90.0)
            outside_id += 1
            task.mark_mapped(machine.machine_id, sim.now)
            machine.dispatch(task, sim, _exec_time, lambda *a: None)
        elif kind == "fail":
            machine = machines[step[1] % len(machines)]
            if machine.online:
                machine.fail(sim)
        else:
            machine = machines[step[1] % len(machines)]
            if not machine.online:
                machine.recover()
        check()


def test_single_task_batch_allocates_no_planner_state():
    cluster = Cluster.heterogeneous(3, queue_limit=2)
    est = CompletionEstimator(PET)
    batch = PlanBatch([Task(task_id=0, task_type=1, arrival=0.0, deadline=50.0)])
    plan = MinMin().plan(batch, cluster, est, 0.0)
    assert len(plan) == 1
    assert batch._active is None and batch._completion is None
    batch.retire({0})
    assert len(batch) == 0 and list(batch) == []


def test_round_without_changes_reuses_the_base_matrix():
    """A round after which only retires happened rebuilds nothing: the
    estimator's availability query runs once for the event."""
    cluster = Cluster.heterogeneous(3, queue_limit=1)
    est = CompletionEstimator(PET)
    calls = []
    original = est.cluster_expected_available

    def counted(machines, now):
        calls.append(len(machines))
        return original(machines, now)

    est.cluster_expected_available = counted
    tasks = [Task(task_id=i, task_type=i % 4, arrival=0.0, deadline=40.0) for i in range(6)]
    batch = PlanBatch(tasks)
    heuristic = MinMin()
    first = heuristic.plan(batch, cluster, est, 0.0)
    batch.retire({t.task_id for t, _ in first})
    second = heuristic.plan(batch, cluster, est, 0.0)
    assert len(first) == len(second) == 3
    assert calls == [3]


# ----------------------------------------------------------------------
# Defer-check chances: scalar cdf_at answers equal the gathered ones.
# ----------------------------------------------------------------------
def _near_grid(pmf: PMF, k: int, below: bool) -> float:
    """Grid point ``k`` of ``pmf``, or a deadline just inside the
    boundary tolerance below it."""
    t = pmf.offset + k
    if not below:
        return t
    tol = min(CDF_REL_EPS * max(1.0, abs(t), abs(pmf.offset)), CDF_TOL_CAP)
    return t - tol / 2


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.sampled_from([0.5, 4.0, 512.0]),
    queued=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=6),
    pairs=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 2),
            st.integers(-2, 40),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    now=st.sampled_from([0.0, 0.3, 17.0]),
)
def test_chances_for_pairs_equal_gather_and_scalar(horizon, queued, pairs, now):
    sim = Simulator()
    cluster = Cluster.heterogeneous(3)
    for i, (ttype, mid) in enumerate(queued):
        task = Task(task_id=500 + i, task_type=ttype, arrival=0.0, deadline=1e3)
        task.mark_mapped(mid, 0.0)
        cluster.machines[mid].dispatch(task, sim, _exec_time, lambda *a: None)
    est = CompletionEstimator(PET, horizon=horizon)
    reference = CompletionEstimator(PET, horizon=horizon, memoize=False)
    placed = []
    for i, (ttype, mid, k, below) in enumerate(pairs):
        machine = cluster.machines[mid]
        pct = reference.pct_for_new(ttype, machine, now)
        deadline = _near_grid(pct, k, below)
        # Arrival well before any grid point, so every deadline is valid.
        task = Task(task_id=i, task_type=ttype, arrival=-50.0, deadline=deadline)
        placed.append((task, machine))

    got = est.chances_for_pairs(placed, now)
    pmfs = [reference.pct_for_new(t.task_type, m, now) for t, m in placed]
    deadlines = np.array([t.deadline for t, _ in placed])
    gathered = batch_cdf_at(pmfs, deadlines)
    scalar = np.array([reference.chance_of_success(t, m, now) for t, m in placed])
    assert got.dtype == np.float64
    assert got.tobytes() == gathered.tobytes()
    assert got.tobytes() == scalar.tobytes()
    assert est.chance_evaluations == len(placed)


def test_empty_pct_answers_zero_in_both_paths():
    """A horizon shorter than the machine's backlog truncates the new
    task's PCT to nothing but tail: both paths answer exactly 0."""
    sim = Simulator()
    cluster = Cluster.heterogeneous(1)
    machine = cluster.machines[0]
    for i in range(3):
        task = Task(task_id=500 + i, task_type=0, arrival=0.0, deadline=1e3)
        task.mark_mapped(0, 0.0)
        machine.dispatch(task, sim, _exec_time, lambda *a: None)
    est = CompletionEstimator(PET, horizon=0.5)
    pct = est.pct_for_new(1, machine, 0.0)
    assert pct.probs.size == 0
    task = Task(task_id=0, task_type=1, arrival=0.0, deadline=math.floor(pct.offset) + 5.0)
    got = est.chances_for_pairs([(task, machine)], 0.0)
    assert got.tolist() == [0.0]
    assert batch_cdf_at([pct], [task.deadline]).tolist() == [0.0]
