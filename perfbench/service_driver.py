"""Deterministic closed-loop HTTP client for the live scheduler service.

One client posts the generated tasks one at a time to ``ServiceHTTP`` on
loopback and waits for each answer before the next post.  The service
runs on a ``VirtualClock``; before each post the driver moves virtual
time through every pending event due at or before the task's arrival,
then to the arrival itself, so the simulated outcome depends on the
inputs alone and never on how fast the host is.

The idle handshake has one trap.  The driver clears the pump's idle
flag and awaits it again only when an event is due: advancing the clock
to an instant with nothing due wakes the pump, which re-checks, finds
no work and parks again *without* publishing idle, so a driver waiting
for idle there would wait forever.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["ClosedLoopRun", "drive", "post_json"]


@dataclass
class ClosedLoopRun:
    """What one pass of the closed loop saw from the client side."""

    posted: int = 0
    status: dict = field(default_factory=dict)  #: HTTP status -> count
    rtt_s: list = field(default_factory=list)  #: POST round trips
    rtt_cal: list = field(default_factory=list)  #: the same, calibrated
    errors: list = field(default_factory=list)  #: connection errors


async def post_json(port: int, path: str, payload: dict) -> tuple[int, dict]:
    """One ``Connection: close`` HTTP/1.1 POST; returns (status, body)."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        while (await reader.readline()) not in (b"\r\n", b""):
            pass
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    return status, json.loads(data) if data else {}


async def _advance_through(service, until: float) -> None:
    """Fire every pending event due at or before ``until``, in order."""
    clock = service.clock
    while True:
        nxt = service.next_wakeup()
        if nxt is None or nxt > until:
            break
        service._idle.clear()
        clock.advance_to(max(nxt, clock.now()))
        await service.wait_idle()
    if clock.now() < until:
        # Nothing is due at the arrival instant itself: move the clock
        # without waiting (the pump will not publish idle again).
        clock.advance_to(until)


async def drive(service, port: int, tasks, meter) -> ClosedLoopRun:
    """Post ``tasks`` (sorted by arrival) and run the service until it drains.

    ``service`` must already be started on a ``VirtualClock`` and be idle
    at time zero.  Each task is posted as ``{task_type, deadline_slack}``
    at its arrival instant; the service stamps arrival and deadline.  The
    time from the first post until the service drained is added to
    ``meter`` (a :class:`calibrate.Meter`) in chunks of about
    ``calibrate.CHUNK_S``; the kernel samples between chunks run while
    the loop waits on nothing.
    """
    from calibrate import CHUNK_S
    from repro.service.service import run_until_quiescent

    run = ClosedLoopRun()
    await service.wait_idle()
    first = 0
    start = perf_counter()

    def end_chunk() -> None:
        nonlocal first, start
        factor = meter.chunk(perf_counter() - start)
        run.rtt_cal.extend(s * factor for s in run.rtt_s[first:])
        first = len(run.rtt_s)
        start = perf_counter()

    for task in tasks:
        await _advance_through(service, task.arrival)
        record = {
            "task_type": task.task_type,
            "deadline_slack": task.deadline - task.arrival,
        }
        run.posted += 1
        sent = perf_counter()
        try:
            status, _ = await post_json(port, "/v1/tasks", record)
        except (OSError, ValueError, IndexError) as exc:
            run.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        run.rtt_s.append(perf_counter() - sent)
        run.status[status] = run.status.get(status, 0) + 1
        if perf_counter() - start >= CHUNK_S:
            end_chunk()
    await run_until_quiescent(service)
    end_chunk()
    return run
