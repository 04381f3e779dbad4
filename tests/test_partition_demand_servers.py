"""Tests for demand-bound analysis, EDFDemandTest, and the TBS server."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.uniproc import UniprocSimulator, UniTask, simulate_uniproc
from repro.partition.bins import ProcessorBin
from repro.partition.demand import EDFDemandTest, demand_bound, edf_feasible
from repro.partition.demand import testing_points as dbf_points
from repro.partition.heuristics import partition
from repro.sim.servers import TotalBandwidthServer
from repro.workload.spec import TaskSpec


def spec(e, p, d=None, name=""):
    return TaskSpec(execution=e, period=p, deadline=d, name=name)


class TestTaskSpecDeadline:
    def test_implicit_default(self):
        assert spec(2, 10).relative_deadline == 10

    def test_constrained(self):
        assert spec(2, 10, d=5).relative_deadline == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(4, 10, d=3)   # D < e
        with pytest.raises(ValueError):
            spec(2, 10, d=11)  # D > p


class TestDemandBound:
    def test_known_values(self):
        specs = [spec(1, 4, d=2), spec(2, 6)]
        # t=1: no deadline yet. t=2: one job of first task. t=6: two of
        # first (d at 2, 6) + one of second.
        assert demand_bound(specs, 1) == 0
        assert demand_bound(specs, 2) == 1
        assert demand_bound(specs, 5) == 1
        assert demand_bound(specs, 6) == 1 * 2 + 2

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            demand_bound([], -1)

    def test_testing_points_are_deadlines(self):
        specs = [spec(1, 4, d=2), spec(2, 6)]
        pts = dbf_points(specs, limit=12)
        assert pts == [2, 6, 10, 12]

    def test_dbf_step_at_points_only(self):
        specs = [spec(1, 5, d=3)]
        pts = dbf_points(specs, limit=20)
        for a, b in zip(pts, pts[1:]):
            # dbf constant strictly between consecutive points.
            assert demand_bound(specs, b - 1) == demand_bound(specs, a)


class TestEDFFeasible:
    def test_implicit_reduces_to_utilization(self):
        assert edf_feasible([spec(1, 2), spec(1, 2)])
        assert not edf_feasible([spec(1, 2), spec(2, 3)])

    def test_constrained_can_fail_below_u1(self):
        """Two tasks with U < 1 but simultaneous tight deadlines."""
        specs = [spec(2, 10, d=2), spec(2, 10, d=3)]
        assert sum(s.utilization for s in specs) < 1
        # At t=3: demand 2 + 2 = 4 > 3.
        assert not edf_feasible(specs)

    def test_constrained_feasible_case(self):
        specs = [spec(2, 10, d=4), spec(2, 10, d=8)]
        assert edf_feasible(specs)

    def test_empty(self):
        assert edf_feasible([])

    def test_u_equal_one_constrained(self):
        # U = 1 with one constrained deadline that still works out.
        specs = [spec(5, 10, d=5), spec(5, 10)]
        assert edf_feasible(specs)

    def test_simulation_agrees(self):
        """Cross-validation: the analytic verdict matches the simulator."""
        cases = [
            ([spec(2, 10, d=2, name="a"), spec(2, 10, d=3, name="b")], False),
            ([spec(2, 10, d=4, name="a"), spec(2, 10, d=8, name="b")], True),
            ([spec(3, 9, d=5, name="a"), spec(2, 6, name="b")], True),
        ]
        for specs, feasible in cases:
            assert edf_feasible(specs) == feasible
            tasks = [UniTask(s.execution, s.period, deadline=s.deadline,
                             name=s.name) for s in specs]
            from math import lcm

            horizon = lcm(*(s.period for s in specs)) * 2
            res = simulate_uniproc(tasks, horizon, policy="edf")
            assert (res.miss_count == 0) == feasible


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.integers(2, 12).flatmap(
        lambda p: st.integers(1, p).flatmap(
            lambda e: st.tuples(st.just(e), st.just(p),
                                st.integers(e, p)))),
    min_size=1, max_size=4))
def test_prop_demand_analysis_matches_simulation(triples):
    """For random constrained-deadline sets, the analytic feasibility
    verdict always matches an exact EDF simulation over 2 hyperperiods."""
    from math import lcm

    specs = [spec(e, p, d=d, name=f"t{i}")
             for i, (e, p, d) in enumerate(triples)]
    verdict = edf_feasible(specs)
    tasks = [UniTask(s.execution, s.period, deadline=s.deadline, name=s.name)
             for s in specs]
    horizon = min(lcm(*(s.period for s in specs)) * 2, 600)
    res = simulate_uniproc(tasks, horizon, policy="edf")
    assert (res.miss_count == 0) == verdict


class TestEDFDemandTest:
    def test_acceptance_in_partitioning(self):
        specs = [spec(2, 10, d=2, name="a"), spec(2, 10, d=3, name="b"),
                 spec(2, 10, d=8, name="c")]
        res = partition(specs, accept=EDFDemandTest())
        # a and b cannot share (see TestEDFFeasible); c fits with either.
        part = res.partition
        assert part.processors == 2
        assert part.bin_of("a").index != part.bin_of("b").index

    def test_matches_utilization_test_when_implicit(self):
        from repro.partition.accept import EDFUtilizationTest

        specs = [spec(1, 3, name=f"t{i}") for i in range(7)]
        by_demand = partition(specs, accept=EDFDemandTest()).processors
        by_util = partition(specs, accept=EDFUtilizationTest()).processors
        assert by_demand == by_util == 3


class TestTBS:
    def test_deadline_assignment_spuri_buttazzo(self):
        tbs = TotalBandwidthServer((1, 4))  # U_s = 0.25
        assert tbs.submit(0, 2) == 8        # d1 = 0 + 2/0.25
        assert tbs.submit(1, 1) == 12       # d2 = max(1, 8) + 4
        assert tbs.submit(20, 1) == 24      # idle gap: d3 = 20 + 4
        assert tbs.deadline_of(1) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            TotalBandwidthServer((0, 4))
        with pytest.raises(ValueError):
            TotalBandwidthServer((5, 4))
        tbs = TotalBandwidthServer((1, 2), [(5, 1)])
        with pytest.raises(ValueError):
            tbs.submit(4, 1)  # arrivals must be nondecreasing
        with pytest.raises(ValueError):
            tbs.submit(6, 0)

    def test_bandwidth_reduced(self):
        assert TotalBandwidthServer((2, 8)).bandwidth == (1, 4)

    def test_jobs_meet_assigned_deadlines(self):
        """U_periodic + U_s = 1: periodic tasks and all TBS jobs meet
        their deadlines."""
        periodic = [UniTask(1, 2, name="p1"), UniTask(1, 4, name="p2")]
        tbs = TotalBandwidthServer((1, 4), [(0, 2), (10, 1), (11, 2)])
        sim = UniprocSimulator(periodic, jobs=tbs.jobs())
        res = sim.run(200)
        assert res.miss_count == 0

    def test_no_requests_no_jobs(self):
        assert TotalBandwidthServer((1, 2)).jobs() == []

    def test_lying_request_breaks_isolation_cbs_does_not(self):
        """The TBS/CBS contrast: a request that executes beyond its
        declared cost steals periodic slack under TBS, but not under CBS."""
        from repro.core.uniproc import CBSServer

        victim = UniTask(3, 6, name="victim")
        # Declared cost 1 per request at bandwidth 1/2; actual cost 4.
        tbs = TotalBandwidthServer((1, 2), [(6 * k, 1) for k in range(20)])
        liar_jobs = [
            # Rebuild the jobs with the *actual* execution need.
            type(j)(j.task, j.index, j.release, 4, deadline=j.abs_deadline)
            for j in tbs.jobs()
        ]
        res_tbs = UniprocSimulator([victim], jobs=liar_jobs).run(120)
        assert any(m[0] == "victim" for m in res_tbs.misses)
        cbs = CBSServer(3, 6, requests=[(6 * k, 4) for k in range(20)])
        res_cbs = UniprocSimulator([victim], servers=[cbs]).run(120)
        assert not any(m[0] == "victim" for m in res_cbs.misses)
