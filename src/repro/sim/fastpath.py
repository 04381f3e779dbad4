"""Packed-key PD² fast path: a decision-identical QuantumSimulator clone.

:class:`FastPD2Simulator` produces, slot for slot, the same schedule —
the same ``(slot, processor, task)`` allocations and the same
:class:`~repro.core.metrics.SimStats` — as
:class:`~repro.sim.quantum.QuantumSimulator` under
:class:`~repro.core.priority.PD2Priority`, for synchronous/asynchronous
periodic task systems.  It gets there by removing every source of
per-slot object churn:

* the ready queue is a heap of **plain integers** — the packed PD² keys
  of :mod:`repro.core.keytab` — so pushes and pops cost one machine
  integer comparison per heap level instead of tuple-element walks;
* subtask windows are **never materialised**: each task carries a
  :class:`~repro.core.keytab.TaskKeyTable`, and activating the successor
  of subtask ``i`` is two integer additions (key and release are linear
  in the job number);
* **idle slots are skipped**: when the ready queue is empty the clock
  jumps straight to the next pending eligibility time, charging
  ``M × skipped`` idle quanta — exactly what the reference accumulates
  one slot at a time (an empty slot changes no other state);
* whole **hyperperiods are memoised** (:mod:`repro.sim.cache`): once the
  boundary state at ``t = kH`` repeats, the per-cycle stats delta is
  tiled across the remaining horizon instead of re-simulated.

The equivalence argument is split between the packed-key order proof
(:mod:`repro.core.keytab`) and the differential test suite
(``tests/test_fastpath_differential.py``), which checks hundreds of
randomized task systems for identical schedules and stats.  End-of-run
unscheduled misses (an overloaded system) are reported in the canonical
priority-key order all three simulator tiers share; misses recorded
during the run (late completions) follow the schedule order.

Use :func:`repro.sim.quantum.simulate_pfair`, which dispatches here
automatically when :func:`supports` says the configuration qualifies
(unless the call passes ``fastpath=False``).  The
struct-of-arrays kernel (:mod:`repro.sim.vector`) sits one tier above
and takes precedence when it supports the configuration.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import lcm
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.keytab import (
    GD_BITS,
    ID_BITS,
    IDX_BITS,
    TaskKeyTable,
    check_capacity,
    task_key_table,
    unpack_key,
)
from ..core.metrics import DeadlineMiss, SimStats, TaskStats
from ..core.priority import PD2Priority, PriorityPolicy
from ..core.task import PeriodicTask, PfairTask
from ..core.trace import ScheduleTrace
from .quantum import DeadlineMissError, SimResult

__all__ = ["FastPD2Simulator", "supports"]

_ID_SHIFT = IDX_BITS
_ID_MASK = (1 << ID_BITS) - 1
_IDX_MASK = (1 << IDX_BITS) - 1
_D_SHIFT = 1 + GD_BITS + ID_BITS + IDX_BITS


def supports(
    tasks: List[PfairTask],
    processors: int,
    horizon: int,
    policy: Optional[PriorityPolicy],
    kwargs: dict,
) -> bool:
    """True when the fast path reproduces the reference exactly.

    The fast path covers the workhorse configuration of every experiment
    in the paper: periodic tasks (any phases), PD² priorities, fixed
    processor count, no online arrivals.  Everything else — sporadic/IS
    tasks, arrival callbacks, processor failures, other policies, tasks
    that leave (``last_subtask``) — falls back to the reference
    simulator, as do systems that would overflow a packed-key field.
    """
    if policy is not None and type(policy) is not PD2Priority:
        return False
    if kwargs.get("arrivals") is not None:
        return False
    if kwargs.get("capacity_fn") is not None:
        return False
    if processors < 1:
        return False
    for t in tasks:
        if type(t) is not PeriodicTask or t.last_subtask is not None:
            return False
    return check_capacity(tasks, horizon)


class _TaskInfo:
    """Hot-loop record for one task: key table plus scheduling flags."""

    __slots__ = ("task", "tab", "execution", "er")

    def __init__(self, task: PfairTask, tab: TaskKeyTable) -> None:
        self.task = task
        self.tab = tab
        self.execution = task.execution
        self.er = task.early_release


class FastPD2Simulator:
    """Packed-key drop-in for :class:`~repro.sim.quantum.QuantumSimulator`.

    Accepts the same constructor surface (the unsupported hooks must be
    ``None``/absent — :func:`supports` gates dispatch) and produces an
    identical :class:`~repro.sim.quantum.SimResult`.
    """

    def __init__(
        self,
        tasks: Iterable[PfairTask],
        processors: int,
        policy: Optional[PriorityPolicy] = None,
        *,
        early_release: bool = False,
        trace: bool = False,
        on_miss: str = "record",
        arrivals: Optional[Iterable[Tuple[int, Callable[[], None]]]] = None,
        capacity_fn: Optional[Callable[[int], int]] = None,
        preserve_affinity: bool = True,
        hyperperiod_memo: bool = True,
    ) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        if on_miss not in ("record", "raise"):
            raise ValueError(f"on_miss must be 'record' or 'raise', got {on_miss!r}")
        if arrivals is not None or capacity_fn is not None:
            raise ValueError("fast path does not support arrivals/capacity_fn")
        self.tasks: List[PfairTask] = list(tasks)
        self.processors = processors
        self.policy = policy if policy is not None else PD2Priority()
        self.early_release = early_release
        self.on_miss = on_miss
        self.preserve_affinity = preserve_affinity
        self.hyperperiod_memo = hyperperiod_memo
        self.trace: Optional[ScheduleTrace] = ScheduleTrace() if trace else None
        self.stats = SimStats()
        self.last_scheduled_index: Dict[int, int] = {}
        self._info: Dict[int, _TaskInfo] = {}
        # (eligible, key): subtasks waiting to become eligible.  At most
        # one live subtask per task exists (successors activate only when
        # their predecessor is scheduled), so keys never collide and the
        # tuple order is total without a sequence number.
        self._pending: List[Tuple[int, int]] = []
        # Plain packed keys: the eligible subtasks, best (smallest) first.
        self._ready: List[int] = []
        for task in self.tasks:
            info = _TaskInfo(task, task_key_table(task))
            self._info[task.task_id] = info
            heappush(self._pending, (info.tab.release(1), info.tab.key(1)))

    # -- internals -----------------------------------------------------------

    def _record_miss(self, task: PfairTask, index: int, deadline: int,
                     completed_at: Optional[int]) -> None:
        miss = DeadlineMiss(task, index, deadline, completed_at)
        self.stats.misses.append(miss)
        if self.on_miss == "raise":
            raise DeadlineMissError(miss)

    # -- main loop -----------------------------------------------------------

    def run(self, horizon: int) -> SimResult:
        """Simulate slots ``0 .. horizon-1`` and return the result."""
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")

        memo = None
        if (self.hyperperiod_memo and self.trace is None and self.tasks
                and all(t.phase == 0 for t in self.tasks)):
            period_lcm = lcm(*(t.period for t in self.tasks))
            # A cycle can only be detected and tiled when the horizon
            # spans several hyperperiods.
            if 2 * period_lcm < horizon:
                from .cache import HyperperiodMemo

                memo = HyperperiodMemo(self, period_lcm)

        pending = self._pending
        ready = self._ready
        capacity = self.processors
        stats = self.stats
        per_task = stats.per_task
        info_of = self._info
        last_sched = self.last_scheduled_index
        trace = self.trace
        affinity = self.preserve_affinity
        er_global = self.early_release

        now = 0
        while now < horizon:
            if memo is not None and now >= memo.next_boundary:
                now = memo.on_boundary(now, horizon)
                if memo.done:
                    memo = None
                if now >= horizon:
                    break
            while pending and pending[0][0] <= now:
                heappush(ready, heappop(pending)[1])
            if not ready:
                # Idle-slot skip: nothing can run before the next pending
                # eligibility.  The reference burns these slots one at a
                # time, accumulating only idle quanta; jump instead.
                nxt = pending[0][0] if pending else horizon
                if nxt > horizon:
                    nxt = horizon
                if memo is not None and nxt > memo.next_boundary:
                    nxt = memo.next_boundary
                stats.idle_quanta += capacity * (nxt - now)
                now = nxt
                continue

            scheduled: List[int] = []
            while ready and len(scheduled) < capacity:
                scheduled.append(heappop(ready))

            # Processor assignment, mirroring QuantumSimulator exactly.
            placed: List[Tuple[int, int]]  # (processor, key)
            if not affinity:
                placed = list(zip(range(capacity), scheduled))
            else:
                taken = [False] * capacity
                assignment: List[Tuple[Optional[int], int]] = []
                for key in scheduled:
                    ts = per_task.get((key >> _ID_SHIFT) & _ID_MASK)
                    proc: Optional[int] = None
                    if (ts is not None and ts.last_slot == now - 1
                            and ts.last_proc is not None
                            and ts.last_proc < capacity
                            and not taken[ts.last_proc]):
                        proc = ts.last_proc
                        taken[proc] = True
                    assignment.append((proc, key))
                free = [p for p in range(capacity) if not taken[p]]
                free.reverse()  # pop() yields the lowest-numbered processor
                placed = []
                for proc, key in assignment:
                    if proc is None:
                        ts = per_task.get((key >> _ID_SHIFT) & _ID_MASK)
                        if (ts is not None and ts.last_proc is not None
                                and ts.last_proc < capacity
                                and not taken[ts.last_proc]):
                            proc = ts.last_proc
                            taken[proc] = True
                            free.remove(proc)
                        else:
                            proc = free.pop()
                            taken[proc] = True
                    placed.append((proc, key))

            nxt_slot = now + 1
            for proc, key in placed:
                tid = (key >> _ID_SHIFT) & _ID_MASK
                idx = key & _IDX_MASK
                info = info_of[tid]
                e = info.execution
                if now >= key >> _D_SHIFT:
                    self._record_miss(info.task, idx, key >> _D_SHIFT, nxt_slot)
                q, j = divmod(idx - 1, e)
                job = q + 1
                ts = per_task.get(tid)
                if ts is None:
                    ts = per_task[tid] = TaskStats()
                # Inlined TaskStats.on_scheduled.
                if ts.last_slot is not None:
                    if now != ts.last_slot + 1 and job == ts.last_job:
                        ts.preemptions += 1
                        ts.job_preemptions[job] = ts.job_preemptions.get(job, 0) + 1
                    if ts.last_proc is not None and proc != ts.last_proc:
                        ts.migrations += 1
                ts.quanta += 1
                ts.last_slot = now
                ts.last_proc = proc
                ts.last_job = job
                last_sched[tid] = idx
                if trace is not None:
                    trace.record(now, proc, info.task, idx)
                # Activate the successor: key(idx+1) = key(idx) + step for
                # mid-job successors, else next base row.
                tab = info.tab
                if j + 1 < e:
                    succ_key = tab.base[j + 1] + q * tab.job_step
                    succ_rel = tab.rel[j + 1] + q * info.task.period
                    if er_global or info.er:
                        elig = nxt_slot  # ERfair: ready as soon as we finish
                    else:
                        elig = succ_rel if succ_rel > nxt_slot else nxt_slot
                else:
                    succ_rel = tab.rel[0] + (q + 1) * info.task.period
                    succ_key = tab.base[0] + (q + 1) * tab.job_step
                    elig = succ_rel if succ_rel > nxt_slot else nxt_slot
                heappush(pending, (elig, succ_key))
            stats.busy_quanta += len(placed)
            stats.idle_quanta += capacity - len(placed)
            now = nxt_slot
        return self.finalize(horizon)

    def finalize(self, horizon: int) -> SimResult:
        """Sweep unfinished subtasks for misses and package the result."""
        self.stats.slots = horizon
        # Canonical end-of-run miss order (shared by all simulator tiers):
        # priority-key order over every unfinished subtask.  Packed-key
        # order is exactly PD² tuple order, so one sort suffices.
        leftovers = sorted([key for _, key in self._pending] + self._ready)
        for key in leftovers:
            deadline, tid, idx = unpack_key(key)
            if deadline <= horizon:
                self._record_miss(self._info[tid].task, idx, deadline, None)
        return SimResult(
            stats=self.stats,
            trace=self.trace,
            horizon=horizon,
            processors=self.processors,
            policy_name=self.policy.name,
            tasks=self.tasks,
        )
