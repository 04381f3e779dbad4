"""Staggered quanta: offsetting slot boundaries across processors.

Aligned quanta make every processor hit the memory bus at the same
instant (all context switches happen together); a known practical
variant — studied by Holman & Anderson for bus-contention smoothing —
*staggers* processor ``j``'s slot boundaries by ``j·q/M`` ticks.  Like
the variable-length quanta of :mod:`repro.sim.varquantum`, staggering
breaks the alignment Pfair's optimality proof assumes: a subtask released
at tick ``r·q`` may have to wait up to ``q·(M−1)/M`` ticks for *some*
processor's boundary, and one started at the last boundary before its
deadline overshoots it by a sub-quantum amount.

This simulator measures that overshoot.  Dispatch: at each processor's
own boundary, the highest-priority (PD²) subtask whose release tick has
passed is started and runs one full quantum.  The empirical finding
(``benchmarks/bench_ext_staggered.py``): misses occur on fully loaded
sets, with tardiness strictly below one quantum — and they vanish when
one slot of slack per period exists (total weight below M by one of the
lightest task's weight's worth), matching the intuition that staggering
costs at most a boundary's worth of displacement.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from ..core.events import EventQueue
from ..core.priority import PD2Priority, PriorityPolicy
from ..core.task import PfairTask, Subtask

__all__ = ["StaggeredResult", "StaggeredSimulator", "simulate_staggered"]


@dataclass
class StaggeredResult:
    """Outcome of a staggered-quanta run (times in ticks)."""

    horizon: int
    processors: int
    quantum: int
    offsets: Tuple[int, ...]
    completions: int = 0
    misses: List[Tuple[str, int, int, int]] = field(default_factory=list)

    @property
    def miss_count(self) -> int:
        return len(self.misses)

    @property
    def max_tardiness_ticks(self) -> int:
        return max((c - d for _, _, d, c in self.misses), default=0)


class StaggeredSimulator:
    """PD² dispatching on per-processor staggered slot grids.

    ``offsets`` gives processor ``j``'s boundary phase in ticks
    (default: ``j * quantum // processors``, the even stagger).  Each
    dispatch occupies exactly one quantum starting at a boundary.
    """

    def __init__(self, tasks: Iterable[PfairTask], processors: int,
                 quantum: int, *,
                 offsets: Optional[Iterable[int]] = None,
                 policy: Optional[PriorityPolicy] = None) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        if quantum < 1:
            raise ValueError("quantum must be at least one tick")
        self.tasks = list(tasks)
        self.processors = processors
        self.quantum = quantum
        if offsets is None:
            self.offsets = tuple(j * quantum // processors
                                 for j in range(processors))
        else:
            self.offsets = tuple(offsets)
            if len(self.offsets) != processors:
                raise ValueError("need one offset per processor")
            if any(not 0 <= o < quantum for o in self.offsets):
                raise ValueError("offsets must lie in [0, quantum)")
        self.policy = policy if policy is not None else PD2Priority()

    def run(self, horizon: int) -> StaggeredResult:
        q = self.quantum
        res = StaggeredResult(horizon=horizon, processors=self.processors,
                              quantum=q, offsets=self.offsets)
        events: EventQueue = EventQueue()
        ready: List[Tuple[object, int, Subtask]] = []
        seq = 0
        #: Processors idle at their *next* boundary; (boundary_time, proc).
        idle: List[Tuple[int, int]] = []

        def activate(task: PfairTask, index: int, lower_bound: int) -> None:
            st = task.subtask(index)
            if st is None:
                return
            events.push(max(st.eligible * q, lower_bound), ("release", st))

        def next_boundary(proc: int, after: int) -> int:
            off = self.offsets[proc]
            if after <= off:
                return off
            k = -(-(after - off) // q)
            return off + k * q

        for task in self.tasks:
            activate(task, 1, 0)
        for proc in range(self.processors):
            heapq.heappush(idle, (next_boundary(proc, 0), proc))

        while True:
            # The next instant anything can happen: an event, or an idle
            # processor's boundary (only useful if work is ready by then).
            t_event = events.peek_time()
            t_bound = idle[0][0] if idle else None
            candidates = [c for c in (t_event, t_bound) if c is not None]
            if not candidates:
                break
            now = min(candidates)
            if now >= horizon:
                break
            while events and events.peek_time() <= now:
                for payload in events.pop_at(events.peek_time()):
                    kind = payload[0]
                    if kind == "complete":
                        _, proc, st, finish = payload
                        res.completions += 1
                        if finish > st.deadline * q:
                            res.misses.append((st.task.name, st.index,
                                               st.deadline * q, finish))
                        heapq.heappush(
                            idle, (next_boundary(proc, finish), proc))
                        activate(st.task, st.index + 1, finish)
                    else:
                        _, st = payload
                        seq += 1
                        heapq.heappush(ready,
                                       (self.policy.key(st), seq, st))
            # Dispatch every idle processor whose boundary has arrived.
            while idle and ready and idle[0][0] <= now:
                boundary, proc = heapq.heappop(idle)
                _, _, st = heapq.heappop(ready)
                finish = boundary + q
                events.push(finish, ("complete", proc, st, finish))
            # An idle processor whose boundary passed with no work waits
            # for the next event, then resumes at the boundary after it.
            if idle and not ready and idle[0][0] <= now:
                nxt = events.peek_time()
                if nxt is None:
                    break
                refreshed = [(next_boundary(p, nxt), p)
                             for (b, p) in idle if b <= now]
                kept = [(b, p) for (b, p) in idle if b > now]
                idle = kept + refreshed
                heapq.heapify(idle)
        return res


def simulate_staggered(tasks: Iterable[PfairTask], processors: int,
                       quantum: int, horizon: int, **kwargs: object
                       ) -> StaggeredResult:
    """One-call convenience wrapper."""
    return StaggeredSimulator(tasks, processors, quantum, **kwargs).run(horizon)
