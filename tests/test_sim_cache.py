"""Tests for the cache-related preemption-delay model."""

import numpy as np
import pytest

from conftest import make_feasible_set
from repro.core.task import PeriodicTask
from repro.core.trace import ScheduleTrace
from repro.sim.cache import CacheModel, count_cold_resumptions
from repro.sim.quantum import simulate_pfair


class TestCounting:
    def test_back_to_back_is_warm(self):
        t = PeriodicTask(3, 6, name="t")
        tr = ScheduleTrace()
        for slot in (0, 1, 2):
            tr.record(slot, 0, t, slot + 1)
        c = count_cold_resumptions(tr, t)
        assert c.first_dispatches == 1
        assert c.resumptions == 0

    def test_gap_is_cold(self):
        t = PeriodicTask(3, 9, name="t")
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(3, 0, t, 2)  # gap
        tr.record(4, 0, t, 3)  # warm continuation
        c = count_cold_resumptions(tr, t)
        assert (c.first_dispatches, c.resumptions) == (1, 1)

    def test_migration_is_cold_even_back_to_back(self):
        t = PeriodicTask(2, 4, name="t")
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(1, 1, t, 2)  # contiguous but migrated
        c = count_cold_resumptions(tr, t)
        assert c.resumptions == 1

    def test_job_boundary_is_dispatch_not_resumption(self):
        t = PeriodicTask(1, 3, name="t")
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(3, 0, t, 2)  # next job
        c = count_cold_resumptions(tr, t)
        assert (c.first_dispatches, c.resumptions) == (2, 0)


class TestCacheModel:
    def test_explicit_delays(self):
        t = PeriodicTask(3, 9, name="t")
        tr = ScheduleTrace()
        tr.record(0, 0, t, 1)
        tr.record(5, 0, t, 2)
        model = CacheModel({"t": 40})
        charge = model.charge(tr, [t])
        assert charge["t"].delay_ticks == 40
        assert model.total_delay(tr, [t]) == 40

    def test_unknown_task_rejected(self):
        model = CacheModel({})
        with pytest.raises(KeyError):
            model.delay_of(PeriodicTask(1, 2, name="ghost"))

    def test_drawn_delays_stable_and_bounded(self):
        model = CacheModel(max_delay=100, seed=1)
        t = PeriodicTask(1, 2, name="x")
        d1 = model.delay_of(t)
        assert d1 == model.delay_of(t)
        assert 0 <= d1 <= 100

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheModel(max_delay=-1)


class TestAgainstEq3:
    def test_simulated_charge_within_analytic_budget(self):
        """Per job, cold resumptions <= min(E-1, P-E), so the priced delay
        never exceeds Eq. (3)'s cache budget."""
        rng = np.random.default_rng(8)
        for _ in range(4):
            tasks = make_feasible_set(rng, 6, 2, max_period=12)
            if not tasks:
                continue
            res = simulate_pfair(tasks, 2, 240, trace=True)
            model = CacheModel({t.name: 33 for t in tasks})
            charge = model.charge(res.trace, tasks)
            for t in tasks:
                jobs = max(res.stats.stats_for(t).quanta // t.execution, 1)
                per_job_bound = min(t.execution - 1, t.period - t.execution)
                budget = 33 * per_job_bound * (jobs + 1)
                assert charge[t.name].delay_ticks <= budget
