"""Heuristic interfaces and the shared two-phase batch planner.

§III of the paper: immediate-mode heuristics map each arriving task on the
spot; batch-mode heuristics keep an arrival (batch) queue and, at every
mapping event, run a two-phase process over a *virtual queue*:

  phase 1 — for every unmapped task find its best machine (per-heuristic
            objective, here: minimum expected completion time);
  phase 2 — among the resulting (task, machine) pairs pick the winner by
            the heuristic's selection rule, virtually assign it, repeat
            until machine-queue slots are exhausted or no tasks remain.

The planner below vectorizes both phases with NumPy over a ``(tasks,
machines)`` expected-completion matrix — no Python loops over the batch
queue.  One mapping event usually plans several rounds (the allocator
re-plans after the pruner defers part of a plan), so the matrix lives in
a :class:`PlanBatch` for the whole event: its expected-execution block
and deadlines are built once, the completion matrix is rebuilt only
after a round that changed some machine, and tasks the allocator has
consumed are masked out of it.
"""

from __future__ import annotations

import abc
from collections.abc import Collection, Iterator, Sequence
from typing import TYPE_CHECKING, overload

import numpy as np

from ..sim.cluster import Cluster
from ..sim.machine import Machine
from ..sim.task import Task

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..system.completion import CompletionEstimator

__all__ = [
    "ImmediateHeuristic",
    "BatchHeuristic",
    "TwoPhaseBatchHeuristic",
    "PlanBatch",
    "Plan",
    "PlanEntry",
]

#: One planned assignment: (task, machine).
PlanEntry = tuple[Task, Machine]
Plan = list[PlanEntry]


class ImmediateHeuristic(abc.ABC):
    """Maps each task to a machine immediately upon arrival (Fig. 1a)."""

    #: Registry name, e.g. ``"MCT"``.
    name: str = "?"
    mode = "immediate"

    @abc.abstractmethod
    def select_machine(
        self,
        task: Task,
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Machine:
        """Pick the machine for ``task``."""

    def reset(self) -> None:
        """Clear any internal state (e.g. round-robin pointers)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class BatchHeuristic(abc.ABC):
    """Plans assignments for a batch of unmapped tasks (Fig. 1b)."""

    name: str = "?"
    mode = "batch"

    @abc.abstractmethod
    def plan(
        self,
        tasks: Sequence[Task],
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Plan:
        """Return virtual assignments respecting machine-queue slots.

        The plan is ordered (earlier entries were selected first); the
        allocator dispatches entries in order, re-checking chance of
        success against the *real* queue state as it goes.
        """

    def reset(self) -> None:
        """Clear any internal state."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


def _exec_mean_matrix(
    tasks: Sequence[Task], machines: Sequence[Machine], estimator: CompletionEstimator
) -> np.ndarray:
    """``(len(tasks), len(machines))`` expected execution times."""
    model = estimator.model
    means = getattr(model, "means", None)
    if means is not None:
        ttypes = np.fromiter((t.task_type for t in tasks), dtype=np.int64, count=len(tasks))
        mtypes = np.fromiter(
            (m.machine_type for m in machines), dtype=np.int64, count=len(machines)
        )
        return np.asarray(means)[np.ix_(ttypes, mtypes)]
    # Fallback for models without a dense means table.
    return np.array(
        [[model.mean(t.task_type, m.machine_type) for m in machines] for t in tasks]
    )


class PlanBatch(Sequence[Task]):
    """One mapping event's batch: the still-active tasks as a sequence,
    plus the two-phase planner's state carried between planning rounds.

    The batch allocator wraps its batch queue once per mapping event and
    calls :meth:`retire` with the tasks each round consumed (dispatched
    or deferred).  Any heuristic sees just the active tasks through the
    sequence interface; :class:`TwoPhaseBatchHeuristic` also reuses the
    state below instead of rebuilding it every round:

    * the ``(tasks, machines)`` expected-execution block and the deadline
      vector, built on the first multi-task round;
    * the round-start ``slots`` / ``avail`` vectors and the completion
      matrix derived from them, rebuilt only when some machine's
      ``(version, online)`` changed since the last round (a dispatch, a
      reap) — a round that dispatched nothing leaves the cluster, and so
      this state, untouched;
    * a mask of the rows still active.

    The cached state is a pure function of the machines' state at the
    event's ``now``, so plans equal those of a per-round rebuild over the
    remaining tasks.  The state lives only as long as the event.
    """

    __slots__ = (
        "_tasks",
        "_remaining",
        "_ids",
        "_active",
        "_deadlines",
        "_machines",
        "_estimator",
        "_now",
        "_exec_means",
        "_stamps",
        "_slots",
        "_avail",
        "_completion",
    )

    def __init__(self, tasks: Sequence[Task]) -> None:
        self._tasks = list(tasks)
        #: The active tasks, in batch order.
        self._remaining = self._tasks
        # Row and planner state, built by the event's first multi-task
        # round: a batch of one never needs it (see
        # ``TwoPhaseBatchHeuristic.plan``), so it allocates no arrays.
        self._ids: np.ndarray | None = None
        self._active: np.ndarray | None = None
        self._deadlines: np.ndarray | None = None
        self._machines: list[Machine] | None = None
        self._estimator: CompletionEstimator | None = None
        self._now = 0.0
        self._exec_means: np.ndarray | None = None
        self._stamps: list[tuple[int, bool]] = []
        self._slots: np.ndarray | None = None
        self._avail: np.ndarray | None = None
        self._completion: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._remaining)

    @overload
    def __getitem__(self, index: int) -> Task: ...
    @overload
    def __getitem__(self, index: slice) -> list[Task]: ...
    def __getitem__(self, index: int | slice) -> Task | list[Task]:
        return self._remaining[index]

    def __iter__(self) -> Iterator[Task]:
        return iter(self._remaining)

    def retire(self, consumed: Collection[int]) -> None:
        """Remove the tasks whose ``task_id`` is in ``consumed``."""
        if not consumed:
            return
        self._remaining = [t for t in self._remaining if t.task_id not in consumed]
        if self._active is not None:
            assert self._ids is not None
            for task_id in consumed:
                self._active[self._ids == task_id] = False

    def _round_start(
        self, cluster: Cluster, estimator: CompletionEstimator, now: float
    ) -> tuple[list[Machine], np.ndarray, np.ndarray, np.ndarray] | None:
        """Round-start ``(machines, slots, avail, completion)``, or
        ``None`` when no machine has a free slot.  The arrays are the
        cached state itself; callers copy what they mutate."""
        tasks = self._tasks
        if self._active is None:
            alive = {id(t) for t in self._remaining}
            self._active = np.fromiter(
                (id(t) in alive for t in tasks), dtype=bool, count=len(tasks)
            )
            self._ids = np.fromiter((t.task_id for t in tasks), dtype=np.int64, count=len(tasks))
            self._deadlines = np.fromiter(
                (t.deadline for t in tasks), dtype=np.float64, count=len(tasks)
            )
        machines = cluster.machines
        exec_means = self._exec_means
        if (
            exec_means is None
            or machines != self._machines
            or estimator is not self._estimator
            or now != self._now
        ):
            self._machines = list(machines)
            self._estimator = estimator
            self._now = now
            exec_means = self._exec_means = _exec_mean_matrix(tasks, machines, estimator)
            self._slots = None
        stamps = [(m.version, m.online) for m in machines]
        if self._slots is None or stamps != self._stamps:
            slots = np.array(
                [np.inf if m.free_slots() is None else m.free_slots() for m in machines],
                dtype=np.float64,
            )
            if not (slots > 0).any():
                self._slots = None
                return None
            avail = estimator.cluster_expected_available(machines, now)
            self._slots, self._avail, self._stamps = slots, avail, stamps
            self._completion = np.where(slots[None, :] > 0, avail[None, :] + exec_means, np.inf)
        assert self._slots is not None and self._avail is not None
        assert self._completion is not None
        return machines, self._slots, self._avail, self._completion


class TwoPhaseBatchHeuristic(BatchHeuristic):
    """Shared machinery for MM / MSD / MMU (§III-C) and friends.

    Subclasses provide :meth:`select_winner`, phase 2's selection rule.
    """

    def plan(
        self,
        tasks: Sequence[Task],
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Plan:
        batch = tasks if isinstance(tasks, PlanBatch) else PlanBatch(tasks)
        if not batch:
            return []
        if len(batch) == 1:
            # Single-task batch — the norm under event-driven arrivals,
            # where every arrival triggers its own mapping event.  The
            # (1, M) matrix machinery collapses to one pass over machines
            # with free slots: same values, same first-minimum tie-break
            # as ``np.argmin`` over the completion row, and availability
            # is only computed for machines whose completion the general
            # path would actually read (slot-less machines are ``inf``
            # either way).  ``select_winner`` is still consulted — some
            # subclasses draw RNG there (``RandomBatch``), and skipping
            # it would desynchronize their stream.
            task = batch[0]
            machines = cluster.machines
            model = estimator.model
            ttype = task.task_type
            best = np.inf
            best_m = -1
            for i, m in enumerate(machines):
                free = m.free_slots()
                if free is not None and free <= 0:
                    continue
                c = estimator._scalar_chain(m, now)[-1] + model.mean(ttype, m.machine_type)
                if c < best:
                    best = c
                    best_m = i
            if best_m < 0 or not np.isfinite(best):
                return []
            w = self.select_winner(
                np.array([best]),
                np.array([task.deadline]),
                np.ones(1, dtype=bool),
            )
            return [(batch[w], machines[best_m])]
        start = batch._round_start(cluster, estimator, now)
        if start is None:
            return []
        machines, base_slots, base_avail, base_completion = start
        exec_means, deadlines = batch._exec_means, batch._deadlines
        assert exec_means is not None and deadlines is not None
        assert batch._active is not None
        rows = batch._tasks
        slots = base_slots.copy()
        avail = base_avail.copy()
        completion = base_completion.copy()
        active = batch._active.copy()
        left = len(batch)
        open_machines = int(np.count_nonzero(slots > 0))

        plan: Plan = []
        # Each virtual assignment only moves one machine's availability,
        # so the loop refreshes that single column in place instead of
        # rebuilding (T, M) — values (and argmin tie-breaks) are
        # identical to a rebuild.  Retired rows stay in the matrix,
        # masked out of phase 1 like the rows this round assigned.
        while left and open_machines:
            # Phase 1: best (min expected completion) per task; only the
            # winner's machine is needed, so its argmin waits for phase 2.
            best_completion = np.where(active, completion.min(axis=1), np.inf)
            if not np.isfinite(best_completion).any():
                break
            # Phase 2: heuristic-specific winner among (task, best machine).
            w = self.select_winner(best_completion, deadlines, active)
            m = int(completion[w].argmin())
            plan.append((rows[w], machines[m]))
            avail[m] += exec_means[w, m]
            slots[m] -= 1
            if slots[m] > 0:
                completion[:, m] = avail[m] + exec_means[:, m]
            else:
                completion[:, m] = np.inf
                open_machines -= 1
            active[w] = False
            left -= 1
        return plan

    @abc.abstractmethod
    def select_winner(
        self,
        best_completion: np.ndarray,
        deadlines: np.ndarray,
        active: np.ndarray,
    ) -> int:
        """Index of the winning task.  ``best_completion`` is ``inf`` for
        inactive tasks; implementations must never pick those."""
