"""Schedule validators: structural constraints, window containment, lag bounds.

These implement, as runnable checks, the definitions the paper states:

* a schedule allocates each processor to at most one task per slot and
  each task to at most one processor per slot (Sec. 2's schedule model);
* each subtask runs within its window ``[r(T_i), d(T_i))`` — equivalent to
  the Pfair lag condition for periodic tasks;
* the lag bound itself, Eq. (1): ``-1 < lag(T, t) < 1`` for all ``t``,
  checked with exact integer arithmetic (``-p < e·t - p·alloc(t) < p``);
* ERfairness, the relaxation used by early-release scheduling: only
  ``lag(T, t) < 1`` is required (a task may run ahead of the fluid rate).

The test suite uses these to assert PD²/PF/PD optimality empirically over
thousands of random feasible task sets, and to show EPDF failing them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..core.task import PfairTask
from ..core.trace import ScheduleTrace

__all__ = [
    "ValidationError",
    "check_structure",
    "check_windows",
    "check_sequential",
    "check_pfair_lags",
    "check_erfair_lags",
    "lag_series",
    "validate_schedule",
]


class ValidationError(AssertionError):
    """A schedule violated one of the model's constraints."""


def check_structure(trace: ScheduleTrace, processors: int,
                    horizon: Optional[int] = None) -> None:
    """At most ``processors`` allocations per slot; each processor and each
    task used at most once per slot."""
    if horizon is None:
        horizon = trace.horizon
    for slot in range(horizon):
        allocs = trace.at(slot)
        if len(allocs) > processors:
            raise ValidationError(
                f"slot {slot}: {len(allocs)} allocations on {processors} processors"
            )
        procs = [a.processor for a in allocs]
        if len(set(procs)) != len(procs):
            raise ValidationError(f"slot {slot}: processor allocated twice")
        tids = [a.task.task_id for a in allocs]
        if len(set(tids)) != len(tids):
            raise ValidationError(
                f"slot {slot}: task scheduled on two processors (parallelism)"
            )


def check_sequential(trace: ScheduleTrace, tasks: Iterable[PfairTask]) -> None:
    """Each task's subtasks run in index order, one quantum each."""
    for task in tasks:
        allocs = trace.of_task(task)
        indices = [a.subtask_index for a in allocs]
        expected = list(range(indices[0], indices[0] + len(indices))) if indices else []
        if indices != expected:
            raise ValidationError(
                f"{task.name}: subtasks out of order or repeated: {indices[:10]}..."
            )


def check_windows(trace: ScheduleTrace, tasks: Iterable[PfairTask], *,
                  early_release: bool = False) -> None:
    """Each allocated subtask lies within its window.

    With ``early_release=True`` only the deadline side is enforced (ERfair
    deliberately schedules subtasks before their pseudo-release).
    """
    for task in tasks:
        for a in trace.of_task(task):
            st = task.subtask(a.subtask_index)
            if st is None:
                raise ValidationError(
                    f"{task.name}[{a.subtask_index}] scheduled but not released"
                )
            if a.slot >= st.deadline:
                raise ValidationError(
                    f"{task.name}[{a.subtask_index}] ran in slot {a.slot}, "
                    f"deadline {st.deadline}"
                )
            if not early_release and a.slot < st.release:
                raise ValidationError(
                    f"{task.name}[{a.subtask_index}] ran in slot {a.slot}, "
                    f"before release {st.release}"
                )


def lag_series(trace: ScheduleTrace, task: PfairTask,
               horizon: int) -> List[Tuple[int, int]]:
    """Exact lags of a synchronous periodic task as ``(numerator, p)`` pairs.

    Entry ``t`` holds ``lag(T, t)·p = e·t − p·alloc[0, t)`` so callers can
    compare against bounds without ever forming a float.
    """
    e, p = task.execution, task.period
    scheduled = set(trace.slots_of(task))
    series: List[Tuple[int, int]] = []
    alloc = 0
    for t in range(horizon + 1):
        series.append((e * t - p * alloc, p))
        if t in scheduled:
            alloc += 1
    return series


def check_pfair_lags(trace: ScheduleTrace, tasks: Iterable[PfairTask],
                     horizon: int) -> None:
    """Eq. (1): ``-1 < lag(T, t) < 1`` for all tasks and ``t <= horizon``.

    Only meaningful for synchronous periodic tasks (the setting in which
    the paper defines lag); exact integer arithmetic throughout.
    """
    for task in tasks:
        e, p = task.execution, task.period
        scheduled = set(trace.slots_of(task))
        alloc = 0
        for t in range(horizon + 1):
            num = e * t - p * alloc
            if not (-p < num < p):
                raise ValidationError(
                    f"{task.name}: lag at t={t} is {num}/{p}, outside (-1, 1)"
                )
            if t in scheduled:
                alloc += 1


def check_erfair_lags(trace: ScheduleTrace, tasks: Iterable[PfairTask],
                      horizon: int) -> None:
    """ERfair condition: ``lag(T, t) < 1`` (no falling behind; running ahead
    is allowed)."""
    for task in tasks:
        e, p = task.execution, task.period
        scheduled = set(trace.slots_of(task))
        alloc = 0
        for t in range(horizon + 1):
            num = e * t - p * alloc
            if num >= p:
                raise ValidationError(
                    f"{task.name}: ER lag at t={t} is {num}/{p} >= 1"
                )
            if t in scheduled:
                alloc += 1


def validate_schedule(trace: ScheduleTrace, tasks: Iterable[PfairTask],
                      processors: int, horizon: int, *,
                      early_release: bool = False,
                      periodic_lags: bool = False) -> None:
    """Run all applicable checks; raises :class:`ValidationError` on failure."""
    tasks = list(tasks)
    check_structure(trace, processors, horizon)
    check_sequential(trace, tasks)
    check_windows(trace, tasks, early_release=early_release)
    if periodic_lags:
        if early_release:
            check_erfair_lags(trace, tasks, horizon)
        else:
            check_pfair_lags(trace, tasks, horizon)
