"""Hypothesis strategies for Pfair scheduling property tests.

These generate *feasible* task systems — the precondition of every
optimality theorem — so properties read as "for all feasible systems,
PD² produces a valid Pfair schedule" — and named ``TaskSpec`` sets for
the partitioning property tests.
"""

from math import lcm

from hypothesis import strategies as st

from repro.core.rational import Weight, weight_sum
from repro.core.task import PeriodicTask
from repro.workload.spec import TaskSpec

__all__ = ["weights", "feasible_task_systems", "task_specs"]

#: A single integer weight (e, p) with small periods (keeps lcm horizons
#: tractable inside hypothesis deadlines).
weights = st.integers(2, 12).flatmap(
    lambda p: st.tuples(st.integers(1, p), st.just(p))
)


@st.composite
def feasible_task_systems(draw, max_processors: int = 3, max_tasks: int = 8,
                          max_period: int = 12):
    """Draw ``(tasks, processors, horizon)`` with total weight <= M.

    Tasks are admitted greedily while the exact weight sum stays within
    the drawn processor count; the horizon covers at least one full
    hyperperiod (capped to keep runs quick).
    """
    processors = draw(st.integers(1, max_processors))
    n = draw(st.integers(1, max_tasks))
    pairs = draw(st.lists(
        st.integers(2, max_period).flatmap(
            lambda p: st.tuples(st.integers(1, p), st.just(p))),
        min_size=n, max_size=n))
    tasks = []
    for e, p in pairs:
        w = Weight.of_task(e, p)
        if weight_sum([t.weight for t in tasks] + [w]) <= processors:
            tasks.append(PeriodicTask(e, p))
    if not tasks:
        tasks = [PeriodicTask(1, max_period)]
    horizon = min(lcm(*(t.period for t in tasks)) * 2, 300)
    return tasks, processors, horizon


def task_specs(min_period: int, max_period: int, min_size: int,
               max_size: int):
    """Lists of uniquely named ``TaskSpec`` with ``e <= p / 2`` (so small
    Eq. (3) inflations keep every task feasible alone) and cache delays
    in ``[0, 3]``."""
    task = st.integers(min_period, max_period).flatmap(
        lambda p: st.tuples(st.integers(1, max(1, p // 2)), st.just(p),
                            st.integers(0, 3)))
    return st.lists(task, min_size=min_size, max_size=max_size).map(
        lambda ts: [TaskSpec(e, p, name=f"t{i:04d}", cache_delay=d)
                    for i, (e, p, d) in enumerate(ts)])
