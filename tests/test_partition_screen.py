"""Differential tests of the first-fit spare-capacity screen.

The EDF first-fit scans settle a probe from integer bounds on each bin's
spare capacity (``ProcessorBin.spare_lo``/``spare_hi``), skip whole
blocks of bins by a per-block bound, and fall back to exact
cross-multiplication only when a probe lands between the bounds.  The
contract is that none of this is observable: here every packing is
compared with a plain :class:`~fractions.Fraction` first fit written
from the definition — same bins, same members, the same exact load per
bin, the same ``float(total_load())``.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis.schedulability import _rounded
from repro.partition.accept import EDFOverheadTest, EDFUtilizationTest
from repro.partition.bins import BLOCK, ProcessorBin
from repro.partition.heuristics import partition
from repro.workload.spec import TaskSpec
from strategies import task_specs


def oracle_first_fit(specs, fixed=None):
    """First fit on exact Fractions.  ``fixed=None`` is the plain EDF
    test in the given order; otherwise the Eq. (3) overhead test, tasks
    in decreasing period order, ``e' = e + fixed + max D`` of the bin."""
    if fixed is not None:
        specs = sorted(specs, key=lambda s: (-s.period, -s.execution, s.name))
    loads, members, delays = [], [], []
    for s in specs:
        for i in range(len(loads)):
            e = s.execution if fixed is None else \
                s.execution + fixed + delays[i]
            if loads[i] + Fraction(e, s.period) <= 1:
                break
        else:
            i = len(loads)
            loads.append(Fraction(0))
            members.append([])
            delays.append(0)
            e = s.execution if fixed is None else s.execution + fixed
            assert e <= s.period, "task infeasible alone"
        loads[i] += Fraction(e, s.period)
        members[i].append(s.name)
        delays[i] = max(delays[i], s.cache_delay)
    return members, loads


def assert_same_packing(specs, fixed=None):
    accept = EDFUtilizationTest() if fixed is None else EDFOverheadTest(fixed)
    ordering = "given" if fixed is None else "decreasing_period"
    got = partition(specs, ordering=ordering, accept=accept).partition
    members, loads = oracle_first_fit(specs, fixed)
    assert [[t.name for t in b.tasks] for b in got.bins] == members
    assert [b.load for b in got.bins] == loads
    total = sum(loads, Fraction(0))
    assert got.total_load() == total
    assert float(got.total_load()) == float(total)
    # The screened float of the total is the exact float whenever the
    # bounds decide it.
    lo, hi = got.load_bounds()
    assert lo <= total * (1 << 64) <= hi
    screened = _rounded(lo, hi)
    assert screened is None or screened == float(total)
    return got


def named(pairs):
    return [TaskSpec(e, p, name=f"t{i:04d}") for i, (e, p) in enumerate(pairs)]


@settings(max_examples=60, deadline=None)
@given(task_specs(8, 5000, 1, 40), st.integers(0, 3))
def test_small_packings_match_oracle(specs, fixed):
    assert_same_packing(specs)
    assert_same_packing(specs, fixed)


big_tasks = st.integers(8, 200).flatmap(
    lambda p: st.tuples(st.integers(p // 3 + 1, p // 2), st.just(p)))


@settings(max_examples=15, deadline=None)
@given(st.lists(big_tasks, min_size=100, max_size=120),
       task_specs(8, 200, 40, 140), st.integers(0, 1))
def test_packings_over_many_blocks_match_oracle(big, small, fixed):
    # 100+ tasks of utilization above 1/3 (at most two to a bin) among
    # smaller ones: more than three blocks of bins, so the block pruning
    # and its bound tightening run.
    specs = [TaskSpec(e, p, name=f"b{i:04d}") for i, (e, p) in
             enumerate(big)] + small
    got = assert_same_packing(specs, fixed)
    assert got.processors > 3 * BLOCK


@settings(max_examples=20, deadline=None)
@given(task_specs(1 << 40, 1 << 62, 20, 60), st.integers(0, 3))
def test_huge_periods_match_oracle(specs, fixed):
    # Above 2**40 ticks a 2**64 fixed-point unit is a coarse fraction of
    # a tick's utilization; the screen must stay exact regardless.
    assert_same_packing(specs)
    assert_same_packing(specs, fixed)


def test_many_blocks_deterministic():
    # 400 tasks of utilization 1/3 and 2/7 alternating: > 3 blocks.
    pairs = [(1, 3) if i % 2 else (2, 7) for i in range(400)]
    got = assert_same_packing(named(pairs))
    assert got.processors > 3 * BLOCK


def test_exact_fills_take_the_exact_fallback():
    """Bins filled to exactly 1 by thirds and sevenths leave probes the
    bounds cannot settle (spare is exactly e/p), so the exact test must
    run — and decide as the oracle does."""
    pairs = [(1, 3)] * 60 + [(1, 7)] * 70 + [(2, 7), (3, 7)] * 20
    calls = []
    real = ProcessorBin.fits_exactly

    def spy(self, e, p):
        calls.append((e, p))
        return real(self, e, p)

    with mock.patch.object(ProcessorBin, "fits_exactly", spy):
        got = assert_same_packing(named(pairs))
    assert calls, "no probe reached the exact fallback"
    assert any(b.load == 1 for b in got.bins)


def test_exact_fill_under_overhead_test():
    # e' = e + 1 + D: (2 + 1 + 0)/7 + (3 + 1 + 0)/7 fills a bin exactly.
    pairs = [(3, 7), (2, 7)] * 40
    calls = []
    real = ProcessorBin.fits_exactly

    def spy(self, e, p):
        calls.append((e, p))
        return real(self, e, p)

    with mock.patch.object(ProcessorBin, "fits_exactly", spy):
        got = assert_same_packing(named(pairs), fixed=1)
    assert calls
    assert got.processors > BLOCK


def test_load_setter_rebuilds_bounds():
    b = ProcessorBin(0)
    b.add(TaskSpec(2, 3), Fraction(2, 3))
    b.load = Fraction(1, 3)
    assert b.spare_lo <= Fraction(2, 3) * (1 << 64) <= b.spare_hi
    assert b.fits(2, 3) and not b.fits(3, 4)
    assert EDFUtilizationTest().admit(b, TaskSpec(2, 3)) == Fraction(2, 3)


def test_lazy_fold_keeps_unnormalised_pair():
    # load_num/load_den are the commit-order accumulation, unreduced.
    b = ProcessorBin(0)
    b.add(TaskSpec(1, 4), Fraction(1, 4))
    b.add(TaskSpec(1, 4), Fraction(1, 4))
    assert (b.load_num, b.load_den) == (8, 16)
    assert b.load == Fraction(1, 2)
