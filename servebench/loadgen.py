"""Single-threaded load generators over ``ServingEngine``'s public API.

The generators only ``submit``, ``step``, ``next_chunk``, ``take_failures`` and
``discard_result``; a token counts as delivered when the generator pops its
chunk after ``step`` returns.  The open loop submits on a fixed schedule and
times each request from when it was *due*, so a stall that delays later
submissions shows in their latency; when the engine is idle it sleeps until
the next due time rather than spinning (a spinning loop would take one of
the two cores OpenBLAS uses).  The closed loop has ``users`` users work
through a fixed list of jobs with zero think time: each sends its next
request as soon as the previous reply ends, so the sequence of engine steps
does not depend on timing.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serve import InferenceRequest, WorkloadFamily

from servebench import workloads as W

#: Hard stop for one driven pass; requests still open then count as failed.
MAX_PASS_SECONDS = 120.0


@dataclass
class RequestRecord:
    """What the load generator saw of one request."""

    request_id: str
    kind: str                     # "short", "doc" or "turn"
    key: Tuple[int, ...]          # corpus key; (shape, variant, turn) for turns
    prompt_len: int
    max_new_tokens: int
    due: float
    submitted: float = float("nan")
    tokens: List[int] = field(default_factory=list)
    token_times: List[float] = field(default_factory=list)
    finish_reason: Optional[str] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.finish_reason is not None or self.error is not None


@dataclass
class Served:
    """One driven pass: per-request records plus the pass's wall and busy time."""

    records: List[RequestRecord]
    start: float
    end: float
    busy_s: float                 # summed wall of engine.step calls
    steps: int


def combine(passes: List[Served]) -> Served:
    """Several passes as one: all records, summed wall and busy time, all steps."""
    return Served(
        [r for p in passes for r in p.records], 0.0, sum(p.end - p.start for p in passes),
        sum(p.busy_s for p in passes), sum(p.steps for p in passes),
    )


class _Pass:
    """Shared submit/step/collect plumbing of both loops."""

    def __init__(self, engine, clock: Callable[[], float], log=None) -> None:
        self.engine = engine
        self.clock = clock
        self.log = log
        self.live: Dict[str, RequestRecord] = {}
        self.records: List[RequestRecord] = []
        self.busy_s = 0.0
        self.steps = 0

    def submit(self, prompt: np.ndarray, max_new_tokens: int, due: float,
               kind: str, key: Tuple[int, ...]) -> RequestRecord:
        request = InferenceRequest(
            W.MODEL, WorkloadFamily.LM, prompt, max_new_tokens=int(max_new_tokens)
        )
        record = RequestRecord(
            request.request_id, kind, tuple(key), int(prompt.size), int(max_new_tokens), due
        )
        self.records.append(record)
        try:
            self.engine.submit(request)
        except Exception as exc:  # a refused request is a failed request
            record.error = f"{type(exc).__name__}: {exc}"
            return record
        record.submitted = self.clock()
        self.live[record.request_id] = record
        return record

    def step(self) -> None:
        """One engine step, then collect every chunk it produced."""
        log = self.log
        span = log.open("engine.step") if log is not None else None
        start = self.clock()
        self.engine.step()
        observed = self.clock()
        if span is not None:
            log.close(span)
        self.busy_s += observed - start
        self.steps += 1
        for request_id, exc in self.engine.take_failures():
            record = self.live.pop(request_id, None)
            if record is not None:
                record.error = f"{type(exc).__name__}: {exc}"
        for request_id in list(self.live):
            record = self.live[request_id]
            chunk = self.engine.next_chunk(request_id)
            while chunk is not None:
                if chunk.token_id is not None:
                    record.tokens.append(int(chunk.token_id))
                    record.token_times.append(observed)
                if chunk.finish_reason is not None:
                    record.finish_reason = chunk.finish_reason
                    del self.live[request_id]
                    self.engine.discard_result(request_id)
                    break
                chunk = self.engine.next_chunk(request_id)

    def abandon(self, reason: str) -> None:
        for request_id, record in list(self.live.items()):
            record.error = reason
            self.engine.cancel(request_id)
            self.engine.discard_result(request_id)
        self.live.clear()

    def served(self, start: float) -> Served:
        return Served(self.records, start, self.clock(), self.busy_s, self.steps)


def run_open(engine, arrivals: List[W.Arrival], clock=time.perf_counter,
             sleep=time.sleep, log=None) -> Served:
    """Submit ``arrivals`` on schedule and serve until every request ends."""
    run = _Pass(engine, clock, log)
    pending = deque(arrivals)
    start = clock()
    limit = start + MAX_PASS_SECONDS
    while pending or run.live:
        now = clock()
        if now > limit:
            run.abandon("pass exceeded its time limit")
            break
        while pending and start + pending[0].due <= now:
            arrival = pending.popleft()
            run.submit(arrival.prompt, arrival.max_new_tokens, start + arrival.due,
                       arrival.kind, arrival.key)
        if run.live:
            run.step()
        elif pending:
            sleep(max(0.0, start + pending[0].due - clock()))
    return run.served(start)


def run_closed(engine, users: int, jobs: List[object], clock=time.perf_counter,
               log=None) -> Served:
    """``users`` zero-think-time users working through ``jobs`` in order.

    A job is a :class:`~servebench.workloads.Conversation` (each turn sent as
    soon as the previous reply ends) or a single
    :class:`~servebench.workloads.Arrival` whose due time is ignored.
    """
    run = _Pass(engine, clock, log)
    system = W.system_prompt()
    order = deque(jobs)
    # Per user: (job, turn, prompt of that turn, its record).
    state: Dict[int, Tuple[object, int, Optional[np.ndarray], RequestRecord]] = {}

    def send(user: int, job, turn: int, prompt, reply) -> None:
        if isinstance(job, W.Arrival):
            record = run.submit(job.prompt, job.max_new_tokens, clock(), job.kind, job.key)
        else:
            prompt = W.turn_prompt(system, job, turn, prompt, reply)
            record = run.submit(prompt, job.replies[turn], clock(), "turn", job.key + (turn,))
        state[user] = (job, turn, prompt, record)

    def advance(user: int) -> None:
        job, turn, prompt, record = state.pop(user)
        if (isinstance(job, W.Conversation) and record.finish_reason is not None
                and turn + 1 < len(job.segments)):
            send(user, job, turn + 1, prompt, record.tokens)
        elif order:
            send(user, order.popleft(), 0, None, None)

    start = clock()
    for user in range(min(users, len(order))):
        send(user, order.popleft(), 0, None, None)
    while state:
        if clock() > start + MAX_PASS_SECONDS:
            run.abandon("pass exceeded its time limit")
            break
        if run.live:
            run.step()
        for user in [u for u, entry in state.items() if entry[3].done]:
            advance(user)
    return run.served(start)
