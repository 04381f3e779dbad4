"""Unit tests for the struct-of-arrays vector kernel.

The heavy three-way decision-identity coverage lives in
``test_fastpath_differential.py``; this file pins down the kernel's
*edges*: the ``supports`` gates, the dispatcher fallback chain and its
per-call tier keywords, constructor validation, and the degenerate
horizons the vectorized paths must not mishandle.
"""

import pytest

from repro.core.priority import EPDFPriority, PD2Priority
from repro.core.task import PeriodicTask, SporadicTask
from repro.sim.quantum import QuantumSimulator, simulate_pfair
from repro.sim.vector import (
    MAX_CHUNK_SLOTS,
    VectorPD2Simulator,
    supports,
)


def _tasks():
    return [PeriodicTask(e, p, task_id=i)
            for i, (e, p) in enumerate([(1, 3), (2, 5), (1, 4)])]


class TestSupports:
    def test_supported_baseline(self):
        assert supports(_tasks(), 2, 100, PD2Priority(), {})
        assert supports(_tasks(), 2, 100, None, {})

    def test_rejects_non_pd2_policy(self):
        assert not supports(_tasks(), 2, 100, EPDFPriority(), {})

    def test_rejects_arrivals_and_capacity_fn(self):
        assert not supports(_tasks(), 2, 100, None,
                            {"arrivals": [(3, lambda: None)]})
        assert not supports(_tasks(), 2, 100, None,
                            {"capacity_fn": lambda s: 2})

    def test_rejects_duplicate_task_ids(self):
        tasks = [PeriodicTask(1, 3, task_id=7), PeriodicTask(1, 4, task_id=7)]
        assert not supports(tasks, 2, 100, None, {})

    def test_rejects_non_periodic_tasks(self):
        tasks = [SporadicTask(1, 5, task_id=0)]
        assert not supports(tasks, 1, 100, None, {})

    def test_rejects_truncated_tasks(self):
        t = PeriodicTask(1, 3, task_id=0)
        t.last_subtask = 4
        assert not supports([t], 1, 100, None, {})

    def test_trivial_configurations_supported(self):
        assert supports([], 2, 100, None, {})
        assert supports(_tasks(), 2, 0, None, {})

    def test_rejects_oversized_chunks(self):
        # With the memo off, the chunk is the whole horizon; past the
        # slot gate the kernel bows out to the fastpath's idle skipper.
        tasks = [PeriodicTask(1, 3, task_id=0)]
        big = MAX_CHUNK_SLOTS + 1
        assert not supports(tasks, 1, big, None, {"hyperperiod_memo": False})
        # The memo caps the chunk at one hyperperiod, so the same
        # horizon is fine when chunking applies.
        assert supports(tasks, 1, big, None, {})


class TestDispatch:
    def test_explicit_vector_unsupported_raises(self):
        with pytest.raises(ValueError, match="vector=True"):
            simulate_pfair(_tasks(), 2, 50, EPDFPriority(), vector=True)

    def test_unsupported_configuration_falls_back(self):
        # EDF is outside both accelerated kernels: auto dispatch must
        # quietly land on the reference.
        res = simulate_pfair(_tasks(), 2, 50, EPDFPriority())
        assert res.policy_name == "EPDF"

    def test_vector_false_lands_on_fastpath(self, monkeypatch):
        # vector=False skips only the vector tier: a configuration both
        # accelerated kernels support must run on the fastpath.
        import repro.sim.fastpath as fp_mod

        ran = []
        real_run = fp_mod.FastPD2Simulator.run

        def run(self, horizon):
            ran.append(horizon)
            return real_run(self, horizon)

        monkeypatch.setattr(fp_mod.FastPD2Simulator, "run", run)
        res = simulate_pfair(_tasks(), 2, 50, vector=False)
        assert ran == [50]
        ref = QuantumSimulator(_tasks(), 2).run(50)
        assert res.stats == ref.stats

    def test_fastpath_false_never_consults_vector_supports(self, monkeypatch):
        # fastpath=False means reference-only: the vector tier must not
        # even be consulted.
        import repro.sim.vector as vec_mod

        calls = []
        real = vec_mod.supports
        monkeypatch.setattr(
            vec_mod, "supports",
            lambda *a: (calls.append(a), real(*a))[1])
        res = simulate_pfair(_tasks(), 2, 50, fastpath=False)
        assert not calls
        ref = QuantumSimulator(_tasks(), 2).run(50)
        assert res.stats == ref.stats


class TestConstruction:
    def test_rejects_bad_processors(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 0)

    def test_rejects_bad_on_miss(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 2, on_miss="ignore")

    def test_rejects_arrivals(self):
        with pytest.raises(ValueError):
            VectorPD2Simulator(_tasks(), 2, arrivals=[(1, lambda: None)])


class TestDegenerateHorizons:
    def test_zero_horizon(self):
        res = VectorPD2Simulator(_tasks(), 2).run(0)
        ref = QuantumSimulator(_tasks(), 2).run(0)
        assert res.stats == ref.stats
        assert res.stats.slots == 0 and not res.stats.misses

    def test_no_tasks(self):
        res = VectorPD2Simulator([], 2).run(25)
        ref = QuantumSimulator([], 2).run(25)
        assert res.stats == ref.stats
        assert res.stats.idle_quanta == 50

    def test_single_slot(self):
        res = VectorPD2Simulator(_tasks(), 2, trace=True).run(1)
        ref = QuantumSimulator(_tasks(), 2, PD2Priority(), trace=True).run(1)
        assert res.stats == ref.stats
        assert [(a[0], a[1], a[2].task_id, a[3])
                for a in res.trace.allocations()] == \
               [(a[0], a[1], a[2].task_id, a[3])
                for a in ref.trace.allocations()]

    def test_rerun_not_supported_twice(self):
        # One simulator instance = one run, like the reference: state is
        # consumed.  A fresh instance reproduces the same result.
        a = VectorPD2Simulator(_tasks(), 2).run(60)
        b = VectorPD2Simulator(_tasks(), 2).run(60)
        assert a.stats == b.stats
