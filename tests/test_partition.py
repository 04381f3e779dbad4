"""Tests for bins, acceptance tests, heuristics, bounds, and partitioners."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.partition.accept import (
    EDFOverheadTest,
    EDFUtilizationTest,
    RMHyperbolicTest,
    RMLiuLaylandTest,
    RMResponseTimeTest,
    rm_response_time,
)
from repro.partition.bins import Partition, ProcessorBin
from repro.partition.bounds import (
    lopez_beta,
    lopez_guarantee,
    oh_baker_rm_guarantee,
    pathological_specs,
    simple_guarantee,
    worst_case_achievable,
)
from repro.partition.heuristics import (
    PartitionFailure,
    best_fit,
    first_fit,
    next_fit,
    partition,
    worst_fit,
)
from repro.partition.partitioner import OnlinePartitioner, edf_ff, min_processors, rm_ff
from repro.workload.spec import TaskSpec


def spec(e, p, name="", d=0):
    return TaskSpec(execution=e, period=p, name=name, cache_delay=d)


class TestBins:
    def test_load_and_spare(self):
        b = ProcessorBin(0)
        b.add(spec(1, 4), Fraction(1, 4))
        b.add(spec(1, 2), Fraction(1, 2))
        assert b.load == Fraction(3, 4)
        assert b.spare == Fraction(1, 4)
        assert len(b) == 2

    def test_max_cache_delay_and_min_period(self):
        b = ProcessorBin(0)
        b.add(spec(1, 8, d=30), Fraction(1, 8))
        b.add(spec(1, 4, d=10), Fraction(1, 4))
        assert b.max_cache_delay == 30
        assert b.min_period == 4

    def test_partition_queries(self):
        p = Partition()
        b = p.new_bin()
        b.add(spec(1, 2, name="x"), Fraction(1, 2))
        assert p.processors == 1
        assert p.total_load() == Fraction(1, 2)
        assert p.bin_of("x") is b
        assert p.bin_of("nope") is None


class TestEDFAcceptance:
    def test_exact_boundary(self):
        t = EDFUtilizationTest()
        b = ProcessorBin(0)
        b.add(spec(1, 2), Fraction(1, 2))
        assert t.admit(b, spec(1, 2)) == Fraction(1, 2)  # exactly 1.0 fits
        b.add(spec(1, 2), Fraction(1, 2))
        assert t.admit(b, spec(1, 1000)) is None

    def test_overhead_test_inflates(self):
        t = EDFOverheadTest(fixed_inflation=10)
        b = ProcessorBin(0)
        u = t.admit(b, spec(100, 1000, d=50))
        assert u == Fraction(110, 1000)  # first in bin: no cache term
        b.add(spec(100, 1000, d=50), u)
        u2 = t.admit(b, spec(100, 500, d=20))
        assert u2 == Fraction(100 + 10 + 50, 500)  # + resident max D

    def test_overhead_test_order_discipline(self):
        t = EDFOverheadTest(fixed_inflation=0)
        b = ProcessorBin(0)
        b.add(spec(1, 100), Fraction(1, 100))
        with pytest.raises(ValueError):
            t.admit(b, spec(1, 200))  # longer period after shorter

    def test_overhead_test_infeasible_task(self):
        t = EDFOverheadTest(fixed_inflation=100)
        b = ProcessorBin(0)
        assert t.admit(b, spec(950, 1000)) is None  # 1050 > 1000


class TestRMAcceptance:
    def test_liu_layland(self):
        t = RMLiuLaylandTest()
        b = ProcessorBin(0)
        # Two tasks at U = 0.82 > 2(2^(1/2)-1) = 0.828? 0.82 < 0.828: ok.
        u1 = t.admit(b, spec(41, 100))
        assert u1 is not None
        b.add(spec(41, 100), u1)
        assert t.admit(b, spec(41, 100)) is not None
        b.add(spec(41, 100), Fraction(41, 100))
        assert t.admit(b, spec(10, 100)) is None  # 0.92 > 3-task bound

    def test_hyperbolic_beats_liu_layland(self):
        """Harmonic-ish set admitted by hyperbolic, rejected by LL."""
        ll, hb = RMLiuLaylandTest(), RMHyperbolicTest()
        b1, b2 = ProcessorBin(0), ProcessorBin(1)
        for s in [spec(1, 2), spec(1, 4)]:
            b1.add(s, s.utilization)
            b2.add(s, s.utilization)
        # 3-task LL bound = 0.7797; bin load 0.75 + 0.03 = 0.78 exceeds it.
        assert ll.admit(b1, spec(3, 100)) is None
        # Hyperbolic: prod = 1.5 * 1.25 * (1 + u); 1.08 -> 2.025 > 2 fails,
        # 1.06 -> 1.9875 <= 2 passes (and 0.81 > LL bound: strictly better).
        assert hb.admit(b2, spec(8, 100)) is None
        assert hb.admit(b2, spec(6, 100)) is not None

    def test_response_time_known_example(self):
        # Classic: tasks (1,4), (2,6), (3,13) under RM.
        tasks = [spec(1, 4, "a"), spec(2, 6, "b"), spec(3, 13, "c")]
        assert rm_response_time(tasks, 0) == 1
        assert rm_response_time(tasks, 1) == 3
        # c: R = 3 + ceil(R/4)*1 + ceil(R/6)*2 -> fixed point 10.
        assert rm_response_time(tasks, 2) == 10

    def test_response_time_unschedulable(self):
        tasks = [spec(2, 4, "a"), spec(3, 6, "b")]
        assert rm_response_time(tasks, 1) is None

    def test_exact_test_admits_full_harmonic(self):
        t = RMResponseTimeTest()
        b = ProcessorBin(0)
        for s in [spec(1, 2, "a"), spec(1, 4, "b")]:
            u = t.admit(b, s)
            assert u is not None
            b.add(s, u)
        assert t.admit(b, spec(1, 4, "c")) is not None  # U = 1.0 harmonic

    def test_exact_test_rejects_overload(self):
        t = RMResponseTimeTest()
        b = ProcessorBin(0)
        b.add(spec(2, 4, "a"), Fraction(1, 2))
        assert t.admit(b, spec(3, 6, "b")) is None


class TestHeuristics:
    def test_ff_packs_in_order(self):
        specs = [spec(1, 2, "a"), spec(1, 4, "b"), spec(1, 2, "c")]
        res = first_fit(specs)
        assert res.processors == 2
        part = res.partition
        assert [t.name for t in part.bins[0].tasks] == ["a", "b"]
        assert [t.name for t in part.bins[1].tasks] == ["c"]

    def test_bf_prefers_tightest(self):
        # Bins at 0.5 and 0.75 load; BF puts a 0.2 task on the 0.75 bin.
        specs = [spec(1, 2, "a"), spec(3, 4, "b"), spec(1, 5, "c")]
        res = best_fit(specs)
        assert res.partition.bin_of("c").index == res.partition.bin_of("b").index

    def test_wf_prefers_loosest(self):
        specs = [spec(1, 2, "a"), spec(3, 4, "b"), spec(1, 5, "c")]
        res = worst_fit(specs)
        assert res.partition.bin_of("c").index == res.partition.bin_of("a").index

    def test_nf_only_last_bin(self):
        specs = [spec(3, 4, "a"), spec(1, 2, "b"), spec(1, 4, "c")]
        res = next_fit(specs)
        # b opens bin 1; c (0.25) fits bin 1; bin 0 is never revisited.
        assert res.partition.bin_of("c").index == 1

    def test_ffd_ordering(self):
        specs = [spec(1, 4, "small"), spec(3, 4, "big")]
        res = partition(specs, placement="ff", ordering="decreasing_utilization")
        assert res.order == ("big", "small")

    def test_max_bins_enforced(self):
        specs = [spec(3, 4, str(i)) for i in range(3)]
        with pytest.raises(PartitionFailure):
            partition(specs, max_bins=2)

    def test_unknown_options_rejected(self):
        with pytest.raises(ValueError):
            partition([], placement="zz")
        with pytest.raises(ValueError):
            partition([], ordering="zz")

    def test_paper_motivating_example_unpartitionable(self):
        """Three (2,3) tasks cannot pack onto two processors."""
        specs = [spec(2, 3, str(i)) for i in range(3)]
        with pytest.raises(PartitionFailure):
            partition(specs, max_bins=2)
        assert first_fit(specs).processors == 3


@settings(max_examples=40)
@given(st.lists(
    st.integers(1, 20).flatmap(lambda p: st.tuples(st.integers(1, p), st.just(p))),
    min_size=1, max_size=12))
def test_prop_every_bin_within_capacity(pairs):
    specs = [spec(e, p, f"t{i}") for i, (e, p) in enumerate(pairs)]
    for fn in (first_fit, best_fit, worst_fit, next_fit):
        res = fn(specs)
        for b in res.partition.bins:
            assert b.load <= 1
        packed = sorted(t.name for bb in res.partition.bins for t in bb.tasks)
        assert packed == sorted(s.name for s in specs)


@settings(max_examples=40)
@given(st.lists(
    st.integers(1, 20).flatmap(lambda p: st.tuples(st.integers(1, p), st.just(p))),
    min_size=1, max_size=12))
def test_prop_ff_no_earlier_bin_could_take_task(pairs):
    """First-fit invariant: each task rejected by all earlier bins."""
    specs = [spec(e, p, f"t{i}") for i, (e, p) in enumerate(pairs)]
    res = first_fit(specs)
    part = res.partition
    # Recompute loads incrementally in placement order.
    loads = [Fraction(0)] * part.processors
    where = {t.name: b.index for b in part.bins for t in b.tasks}
    for s in specs:
        k = where[s.name]
        for earlier in range(k):
            assert loads[earlier] + s.utilization > 1
        loads[k] += s.utilization


class TestBounds:
    def test_worst_case_achievable(self):
        assert worst_case_achievable(3) == Fraction(2)
        assert worst_case_achievable(1) == Fraction(1)

    def test_pathological_set_unpartitionable(self):
        for m in (2, 3, 5):
            specs = pathological_specs(m)
            with pytest.raises(PartitionFailure):
                partition(specs, max_bins=m)
            total = sum(s.utilization for s in specs)
            assert total < worst_case_achievable(m) + Fraction(1, 10)

    def test_pathological_pd2_feasible(self):
        """PD² schedules the same pathological sets on M processors."""
        from repro.core.rational import weight_sum
        from repro.core.task import PeriodicTask

        specs = pathological_specs(3)  # default 200 ms period in µs
        tasks = [PeriodicTask(s.execution // 1000, s.period // 1000)
                 for s in specs]
        assert weight_sum(t.weight for t in tasks) <= 3
        from repro.sim.quantum import simulate_pfair

        res = simulate_pfair(tasks, 3, 400)
        assert res.stats.miss_count == 0

    def test_simple_and_lopez_guarantees(self):
        assert simple_guarantee(4, Fraction(1, 2)) == Fraction(5, 2)
        assert lopez_beta(Fraction(1, 2)) == 2
        assert lopez_guarantee(4, Fraction(1, 2)) == Fraction(3)
        # Lopez is never worse than the simple bound.
        for m in (2, 4, 8):
            for u in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)):
                assert lopez_guarantee(m, u) >= simple_guarantee(m, u)

    def test_lopez_guarantee_actually_packs(self):
        """Any set with u_max <= 1/2 and total <= (2M+1)/3 packs on M."""
        m, umax = 3, Fraction(1, 2)
        bound = lopez_guarantee(m, umax)  # 7/3
        specs = [spec(1, 2, str(i)) for i in range(4)] + [spec(1, 3, "x")]
        total = sum(s.utilization for s in specs)
        assert total <= bound
        partition(specs, ordering="decreasing_utilization", max_bins=m)

    def test_oh_baker(self):
        assert oh_baker_rm_guarantee(1) == pytest.approx(0.4142, abs=1e-4)
        assert oh_baker_rm_guarantee(10) == pytest.approx(4.142, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            worst_case_achievable(0)
        with pytest.raises(ValueError):
            simple_guarantee(2, Fraction(3, 2))
        with pytest.raises(ValueError):
            pathological_specs(2, period=3)


class TestPartitioners:
    def test_edf_ff_plain(self):
        specs = [spec(1, 2, str(i)) for i in range(4)]
        assert edf_ff(specs).processors == 2

    def test_edf_ff_overhead_aware_orders_by_period(self):
        specs = [spec(100, 1000, "short", 10), spec(100, 2000, "long", 90)]
        res = edf_ff(specs, overhead_inflation=10)
        assert res.order == ("long", "short")

    def test_rm_ff_variants(self):
        specs = [spec(1, 4, str(i)) for i in range(8)]  # U = 2.0
        r_exact = rm_ff(specs, test="response_time")
        r_ll = rm_ff(specs, test="liu_layland")
        assert r_exact.processors <= r_ll.processors

    def test_rm_unknown_test(self):
        with pytest.raises(ValueError):
            rm_ff([], test="zz")

    def test_min_processors(self):
        specs = [spec(2, 3, str(i)) for i in range(3)]
        assert min_processors(specs) == 3
        assert min_processors(specs, algorithm="rm") == 3
        with pytest.raises(ValueError):
            min_processors(specs, algorithm="zz")

    def test_min_processors_none_when_infeasible(self):
        from repro.overheads.model import OverheadModel

        # A task whose inflated cost exceeds its period.
        specs = [spec(990, 1000, "tight")]
        assert min_processors(specs, overhead_inflation=20) is None


class TestOnlinePartitioner:
    def test_join_and_leave(self):
        op = OnlinePartitioner(2)
        assert op.try_join(spec(1, 2, "a")) == 0
        assert op.try_join(spec(1, 2, "b")) == 0
        assert op.try_join(spec(1, 2, "c")) == 1
        assert op.try_join(spec(3, 4, "d")) is None  # nowhere fits 0.75
        op.leave("a")
        assert op.try_join(spec(3, 4, "d")) is None  # 0.5 spare on bin 0
        op.leave("b")
        assert op.try_join(spec(3, 4, "d")) == 0

    def test_unnamed_task_rejected(self):
        op = OnlinePartitioner(1)
        with pytest.raises(ValueError):
            op.try_join(TaskSpec(1, 2))

    def test_duplicate_join_rejected(self):
        op = OnlinePartitioner(1)
        op.try_join(spec(1, 4, "a"))
        with pytest.raises(ValueError):
            op.try_join(spec(1, 4, "a"))

    def test_leave_unknown(self):
        with pytest.raises(KeyError):
            OnlinePartitioner(1).leave("ghost")

    def test_repartition_recovers_fragmentation(self):
        """Online FF wastes space that a repack recovers — the paper's
        argument that dynamic partitioned systems need re-partitioning."""
        op = OnlinePartitioner(2)
        # Fill both bins to 1.0, then leaves fragment them to 0.75 + 0.75.
        for name, e, p in [("a", 1, 2), ("b", 1, 4), ("x", 1, 4),
                           ("c", 1, 2), ("d", 1, 4), ("y", 1, 4)]:
            assert op.try_join(spec(e, p, name)) is not None
        op.leave("x")
        op.leave("y")
        # A 0.5 task fails online (0.25 spare each)...
        assert op.try_join(spec(1, 2, "big")) is None
        # ...but FFD repacking gives bins 1.0 and 0.5, making room.
        assert op.repartition()
        assert op.try_join(spec(1, 2, "big")) is not None


class TestOnlineOverheadBookkeeping:
    """``leave`` and failure reassignment must reset every per-bin
    field the overhead-aware EDF test reads, or an emptied bin keeps
    rejecting tasks by a period bound no resident imposes."""

    def test_leave_resets_max_period(self):
        op = OnlinePartitioner(1, accept=EDFOverheadTest(0))
        assert op.try_join(spec(1, 1000, "short")) == 0
        op.leave("short")
        assert op.partition.bins[0].max_period is None
        assert op.try_join(spec(1, 2000, "long")) == 0

    def test_leave_keeps_remaining_residents_period_bound(self):
        op = OnlinePartitioner(1, accept=EDFOverheadTest(0))
        assert op.try_join(spec(1, 3000, "a")) == 0
        assert op.try_join(spec(1, 1000, "b")) == 0
        op.leave("a")
        assert op.partition.bins[0].max_period == 1000
        with pytest.raises(ValueError, match="non-increasing period"):
            op.try_join(spec(1, 2000, "c"))

    def test_out_of_order_join_raises(self):
        # The class docstring's contract: out-of-order joins under the
        # overhead-aware test are refused loudly, not charged silently.
        op = OnlinePartitioner(2, accept=EDFOverheadTest(0))
        assert op.try_join(spec(1, 1000, "a")) == 0
        with pytest.raises(ValueError):
            op.try_join(spec(1, 2000, "b"))

    def test_failure_reassignment_resets_victim(self):
        from repro.sim.partitioned import reassign_after_failure

        part = first_fit([spec(1, 2, "a"), spec(1, 2, "b"),
                          spec(3, 4, "c")]).partition
        ok, orphans = reassign_after_failure(part, 1)
        victim = part.bins[1]
        assert not ok and [t.name for t in orphans] == ["c"]
        assert victim.load == 0 and victim.max_period is None
        assert victim.min_period is None and victim.max_cache_delay == 0
        # The emptied bin admits again, with the spare it really has.
        assert EDFOverheadTest(0).admit(victim, spec(1, 5000)) is not None


class TestPeriodOrderCheck:
    """``EDFOverheadTest`` raises on a task whose period exceeds a
    probed resident's — through ``admit`` and through ``first_fit``,
    including when the offending bin sits in a block that the spare
    bound alone would let the scan skip."""

    def test_admit_raises(self):
        b = ProcessorBin(0)
        b.add(spec(1, 10), Fraction(1, 10))
        with pytest.raises(ValueError, match="non-increasing period"):
            EDFOverheadTest(0).admit(b, spec(1, 20))

    def test_first_fit_raises_on_plain_list(self):
        b = ProcessorBin(0)
        b.add(spec(1, 10), Fraction(1, 10))
        with pytest.raises(ValueError, match="non-increasing period"):
            EDFOverheadTest(0).first_fit([b], spec(1, 20))

    def test_first_fit_raises_in_a_full_block(self):
        from repro.partition.bins import BLOCK, BinScan

        scan = BinScan()
        accept = EDFOverheadTest(0)
        for i in range(3 * BLOCK):
            b = ProcessorBin(i)
            b.add(spec(10, 10), accept.admit(b, spec(10, 10)))
            scan.open(b)
        # Every block is full: its spare bound alone says "skip".
        assert scan.spare_bound == [0, 0, 0]
        with pytest.raises(ValueError, match="non-increasing period"):
            accept.first_fit(scan, spec(1, 20))
        # In order, the same scan passes every block without a probe
        # reaching the exact test.
        assert accept.first_fit(scan, spec(1, 10)) is None

    def test_partition_given_order_raises_past_many_full_bins(self):
        specs = [spec(10, 10, f"f{i}") for i in range(40)] + \
            [spec(1, 20, "late")]
        with pytest.raises(ValueError, match="non-increasing period"):
            partition(specs, ordering="given", accept=EDFOverheadTest(0))
