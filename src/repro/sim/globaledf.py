"""Global (non-partitioned) EDF/RM on M processors — the Dhall-effect baseline.

The paper motivates both partitioning and Pfair by Dhall & Liu's classic
negative result: *global* scheduling with EDF or RM priorities can miss
deadlines at arbitrarily low total utilization.  The canonical instance is
``M`` light tasks (e = 2ε, p = 1) plus one heavy task (e = 1, p = 1 + ε):
every light job and the heavy job release together; the light jobs occupy
all M processors first (earlier deadlines / shorter periods), and the heavy
job then cannot finish by its deadline even though total utilization tends
to 1 as ε → 0.

This simulator is event-driven like :mod:`repro.core.uniproc` but keeps the
``M`` highest-priority ready jobs running; it exists to demonstrate that
baseline, and to contrast it with PD² (which schedules the same sets with
no misses whenever total utilization is at most M).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.events import EventQueue
from ..core.uniproc import UniJob, UniTask

__all__ = ["GlobalResult", "GlobalSimulator", "simulate_global", "dhall_task_set"]


@dataclass
class GlobalResult:
    """Outcome of one global EDF/RM run."""

    horizon: int
    processors: int
    policy: str
    completed: int = 0
    preemptions: int = 0
    migrations: int = 0
    misses: List[Tuple[str, int, int, Optional[int]]] = field(default_factory=list)

    @property
    def miss_count(self) -> int:
        return len(self.misses)


class GlobalSimulator:
    """Global preemptive EDF or RM on ``processors`` identical CPUs.

    At every event (release or completion) the ``M`` highest-priority ready
    jobs run; processor assignment preserves affinity so migration counts
    are meaningful.  Priorities: EDF = absolute deadline, RM = period.
    """

    def __init__(self, tasks: Iterable[UniTask], processors: int, *,
                 policy: str = "edf") -> None:
        policy = policy.lower()
        if policy not in ("edf", "rm"):
            raise ValueError(f"unknown policy {policy!r}")
        if processors < 1:
            raise ValueError("need at least one processor")
        self.tasks = list(tasks)
        self.processors = processors
        self.policy = policy

    def _key(self, job: UniJob) -> Tuple[int, int, int]:
        if self.policy == "edf":
            return (job.abs_deadline, job.task.task_id, job.index)
        return (job.task.period, job.task.task_id, job.index)

    def run(self, horizon: int) -> GlobalResult:
        res = GlobalResult(horizon=horizon, processors=self.processors,
                           policy=self.policy)
        events: EventQueue = EventQueue()
        for task in self.tasks:
            r = task.release_time(1)
            if r is not None and r < horizon:
                events.push(r, (task, 1))
        ready: List[UniJob] = []
        running: List[UniJob] = []
        last_proc: Dict[Tuple[int, int], int] = {}  # (task_id, job idx) -> proc
        proc_of: Dict[Tuple[int, int], int] = {}
        now = 0

        while True:
            next_event = events.peek_time()
            completion = min((now + j.remaining for j in running), default=None)
            candidates = [c for c in (next_event, completion) if c is not None]
            if not candidates:
                break
            nxt = min(candidates)
            clipped = min(nxt, horizon)
            dt = clipped - now
            for j in running:
                j.remaining -= dt
            now = clipped
            if nxt >= horizon:
                break
            # Completions.
            still: List[UniJob] = []
            for j in running:
                if j.remaining == 0:
                    res.completed += 1
                    if now > j.abs_deadline:
                        res.misses.append((j.task.name, j.index, j.abs_deadline, now))
                    proc_of.pop((j.task.task_id, j.index), None)
                else:
                    still.append(j)
            running = still
            # Releases.
            for task, index in events.pop_at(now):
                ready.append(UniJob(task, index, now, task.exec_time(index)))
                nxt_rel = task.release_time(index + 1)
                if nxt_rel is not None and nxt_rel < horizon:
                    events.push(nxt_rel, (task, index + 1))
            # Select the M best among ready + running.
            pool = ready + running
            pool.sort(key=self._key)
            new_running = pool[: self.processors]
            new_ids = {(j.task.task_id, j.index) for j in new_running}
            for j in running:
                jid = (j.task.task_id, j.index)
                if jid not in new_ids:
                    res.preemptions += 1
                    last_proc[jid] = proc_of.pop(jid)
            ready = pool[self.processors:]
            # Processor assignment with affinity.
            taken = set(proc_of.values())
            for j in new_running:
                jid = (j.task.task_id, j.index)
                if jid in proc_of:
                    continue
                prefer = last_proc.get(jid)
                if prefer is not None and prefer not in taken:
                    proc = prefer
                else:
                    proc = next(p for p in range(self.processors) if p not in taken)
                    if prefer is not None and prefer != proc:
                        res.migrations += 1
                proc_of[jid] = proc
                taken.add(proc)
            running = new_running

        for j in ready + running:
            if j.abs_deadline <= horizon and j.remaining > 0:
                res.misses.append((j.task.name, j.index, j.abs_deadline, None))
        return res


def simulate_global(tasks: Iterable[UniTask], processors: int, horizon: int,
                    *, policy: str = "edf") -> GlobalResult:
    """One-call convenience wrapper over :class:`GlobalSimulator`."""
    return GlobalSimulator(tasks, processors, policy=policy).run(horizon)


def dhall_task_set(processors: int, scale: int = 1000,
                   epsilon_inverse: int = 10) -> List[UniTask]:
    """Dhall & Liu's pathological set on an integer grid.

    ``M`` light tasks with e = 2·(scale // epsilon_inverse), p = scale, and
    one heavy task with e = scale, p = scale + scale // epsilon_inverse.
    Larger ``epsilon_inverse`` drives total utilization toward 1 while
    global EDF/RM still misses the heavy task's first deadline.
    """
    eps = scale // epsilon_inverse
    if eps < 1:
        raise ValueError("epsilon too small for the integer grid; raise scale")
    light = [UniTask(2 * eps, scale, name=f"light{i}") for i in range(processors)]
    heavy = UniTask(scale, scale + eps, name="heavy")
    return light + [heavy]
