"""Property-based tests: theorems as universally quantified checks.

Each property here is a theorem from the Pfair literature (or classic
uniprocessor theory) instantiated over hypothesis-generated inputs:

* PD² optimality: every feasible system schedules with no miss, valid
  structure, and all lags in (−1, 1);
* ER-PD²: no miss, lags below 1;
* mixed Pfair/ERfair (per-task flags): still no miss;
* EDF uniprocessor optimality: U <= 1 implies no miss;
* RM: the hyperbolic bound is sufficient.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import feasible_task_systems
from repro.core.erfair import ERPD2Scheduler
from repro.core.pd2 import PD2Scheduler
from repro.core.task import PeriodicTask
from repro.core.uniproc import UniTask, simulate_uniproc
from repro.sim.validate import validate_schedule

relaxed = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@relaxed
@given(feasible_task_systems())
def test_prop_pd2_optimal(system):
    tasks, processors, horizon = system
    res = PD2Scheduler(tasks, processors, trace=True, on_miss="raise").run(horizon)
    validate_schedule(res.trace, tasks, processors, horizon, periodic_lags=True)


@relaxed
@given(feasible_task_systems())
def test_prop_erfair_optimal_and_never_behind(system):
    tasks, processors, horizon = system
    res = ERPD2Scheduler(tasks, processors, trace=True, on_miss="raise").run(horizon)
    validate_schedule(res.trace, tasks, processors, horizon,
                      early_release=True, periodic_lags=True)


@relaxed
@given(feasible_task_systems(), st.integers(0, 2**16 - 1))
def test_prop_mixed_erfair_optimal(system, mask):
    """Per-task ER flags (any subset) preserve optimality."""
    tasks, processors, horizon = system
    mixed = [PeriodicTask(t.execution, t.period,
                          early_release=bool(mask >> i & 1))
             for i, t in enumerate(tasks)]
    res = PD2Scheduler(mixed, processors, trace=True, on_miss="raise").run(horizon)
    validate_schedule(res.trace, mixed, processors, horizon,
                      early_release=True)


@relaxed
@given(st.lists(
    st.integers(2, 16).flatmap(lambda p: st.tuples(st.integers(1, p), st.just(p))),
    min_size=1, max_size=5))
def test_prop_edf_uniproc_optimal(pairs):
    """Classic EDF optimality: any set with U <= 1 meets all deadlines."""
    from fractions import Fraction

    total = Fraction(0)
    tasks = []
    for e, p in pairs:
        u = Fraction(e, p)
        if total + u <= 1:
            total += u
            tasks.append(UniTask(e, p))
    if not tasks:
        return
    from math import lcm

    horizon = min(lcm(*(t.period for t in tasks)) * 2, 400)
    res = simulate_uniproc(tasks, horizon, policy="edf")
    assert res.miss_count == 0


@relaxed
@given(st.lists(
    st.integers(3, 20).flatmap(lambda p: st.tuples(st.integers(1, p), st.just(p))),
    min_size=1, max_size=4))
def test_prop_rm_hyperbolic_bound_sufficient(pairs):
    """Sets passing the hyperbolic bound prod(u_i + 1) <= 2 are
    RM-schedulable."""
    from fractions import Fraction

    prod = Fraction(1)
    tasks = []
    for e, p in pairs:
        u = Fraction(e, p)
        if prod * (u + 1) <= 2:
            prod *= u + 1
            tasks.append(UniTask(e, p))
    if not tasks:
        return
    from math import lcm

    horizon = min(lcm(*(t.period for t in tasks)) * 2, 400)
    res = simulate_uniproc(tasks, horizon, policy="rm")
    assert res.miss_count == 0


@relaxed
@given(feasible_task_systems(max_processors=2))
def test_prop_quanta_match_fluid_rate(system):
    """Over k full hyperperiods, every task receives exactly k·e·(H/p)
    quanta (lag returns to 0 at hyperperiod boundaries)."""
    from math import lcm

    tasks, processors, _ = system
    hyper = lcm(*(t.period for t in tasks))
    if hyper > 150:
        return
    horizon = hyper * 2
    res = PD2Scheduler(tasks, processors, on_miss="raise").run(horizon)
    for t in tasks:
        assert res.stats.stats_for(t).quanta == t.execution * horizon // t.period
