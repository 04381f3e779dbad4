"""Processor bins: the unit of state in partitioned scheduling.

Partitioning assigns each task permanently to one processor; a
:class:`ProcessorBin` tracks the tasks on one processor together with the
exact (rational) utilization committed so far, plus the bookkeeping the
overhead-aware EDF acceptance test needs — the largest cache-related
preemption delay among resident tasks, which inflates every *later*
(shorter-period) arrival per Eq. (3) of the paper.

First fit asks one question of thousands of bins per task set: does
``e/p`` still fit in the bin's spare capacity?  Answering it on the
exact load means cross-multiplying denominators that grow as products
of periods (hundreds of bits at N = 500).  So each bin also keeps
integer bounds ``spare_lo <= (1 - load)·2**SCALE_BITS <= spare_hi``,
one integer division per :meth:`~ProcessorBin.add`; a probe is settled
by two products of machine-sized integers unless it falls between the
bounds, where :meth:`~ProcessorBin.fits_exactly` decides on the exact
load.  The exact load is folded from the committed terms only when
something reads it, in commit order, so its value is unchanged.
:class:`BinScan` adds a per-block summary on top, for first-fit scans
over many bins.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from ..workload.spec import TaskSpec

__all__ = ["ProcessorBin", "Partition", "BinScan", "SCALE_BITS", "BLOCK"]

#: Fixed-point scale of the spare-capacity bounds: ``2**SCALE_BITS`` is
#: a whole processor.  At 2**64 the bounds are one unit apart per
#: committed task, far below any utilization step of a µs-tick period,
#: so probes almost never land between them.
SCALE_BITS = 64
_ONE = 1 << SCALE_BITS

#: Bins per :class:`BinScan` block.
BLOCK = 16


class ProcessorBin:
    """One processor's task assignment with exact load accounting."""

    __slots__ = ("index", "tasks", "max_cache_delay", "min_period",
                 "max_period", "spare_lo", "spare_hi", "_num", "_den",
                 "_terms")

    def __init__(self, index: int) -> None:
        self.index = index
        self.tasks: List[TaskSpec] = []
        #: Largest D(T) among resident tasks (for Eq. (3) inflation of
        #: subsequently added, shorter-period tasks).
        self.max_cache_delay: int = 0
        #: Smallest period among resident tasks (RM response-time tests).
        self.min_period: Optional[int] = None
        #: Largest period among resident tasks (the decreasing-period
        #: feed-order check of the overhead-aware EDF test).
        self.max_period: Optional[int] = None
        #: Integer bounds on the spare capacity in units of
        #: ``2**-SCALE_BITS`` processors: ``spare_lo <= (1 - load) *
        #: 2**SCALE_BITS <= spare_hi``.
        self.spare_lo: int = _ONE
        self.spare_hi: int = _ONE
        # The exact load is the folded pair plus the committed
        # utilizations not yet folded into it (see _fold).
        self._num: int = 0
        self._den: int = 1
        self._terms: List[Fraction] = []

    def _fold(self) -> None:
        """Fold the pending terms into the exact (unnormalised)
        numerator/denominator pair, in commit order — the same
        accumulation an eager fold per :meth:`add` would do, so
        ``load_num``/``load_den`` are unchanged by the deferral."""
        num, den = self._num, self._den
        for u in self._terms:
            d = u.denominator
            num = num * d + u.numerator * den
            den *= d
        self._num, self._den = num, den
        self._terms = []

    @property
    def load_num(self) -> int:
        """Numerator of the exact load (unnormalised: no gcd taken)."""
        if self._terms:
            self._fold()
        return self._num

    @property
    def load_den(self) -> int:
        """Denominator of the exact load: the product of the committed
        utilizations' denominators."""
        if self._terms:
            self._fold()
        return self._den

    @property
    def load(self) -> Fraction:
        """Exact committed utilization (inflated, if an overhead-aware
        acceptance test is in use — the test supplies the increments)."""
        if self._terms:
            self._fold()
        return Fraction(self._num, self._den)

    @load.setter
    def load(self, value: Fraction) -> None:
        f = Fraction(value)
        self._num, self._den = f.numerator, f.denominator
        self._terms = []
        q, r = divmod((f.denominator - f.numerator) << SCALE_BITS,
                      f.denominator)
        self.spare_lo = q
        self.spare_hi = q + 1 if r else q

    @property
    def spare(self) -> Fraction:
        return Fraction(1) - self.load

    def fits_exactly(self, e: int, p: int) -> bool:
        """``load + e/p <= 1`` on the exact load, cross-multiplied."""
        if self._terms:
            self._fold()
        num, den = self._num, self._den
        return num * p + e * den <= den * p

    def fits(self, e: int, p: int) -> bool:
        """``load + e/p <= 1``: settled by the spare bounds when the
        probe falls outside them, by :meth:`fits_exactly` otherwise."""
        e_scaled = e << SCALE_BITS
        if e_scaled > self.spare_hi * p:
            return False
        return e_scaled <= self.spare_lo * p or self.fits_exactly(e, p)

    def add(self, spec: TaskSpec, utilization: Fraction) -> None:
        """Commit ``spec`` at the given (possibly inflated) utilization."""
        self.tasks.append(spec)
        self._terms.append(utilization)
        # u·2**SCALE_BITS lies in [q, q + 1]: one floor division keeps
        # both bounds valid (the exact remainder would tighten spare_lo
        # by one unit when it is zero, which is not worth a divmod).
        q = (utilization.numerator << SCALE_BITS) // utilization.denominator
        self.spare_hi -= q
        self.spare_lo -= q + 1
        if spec.cache_delay > self.max_cache_delay:
            self.max_cache_delay = spec.cache_delay
        if self.min_period is None or spec.period < self.min_period:
            self.min_period = spec.period
        if self.max_period is None or spec.period > self.max_period:
            self.max_period = spec.period

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:
        return f"ProcessorBin({self.index}, {len(self.tasks)} tasks, load={self.load})"


class Partition:
    """A complete assignment of tasks to processor bins."""

    def __init__(self) -> None:
        self.bins: List[ProcessorBin] = []

    def new_bin(self) -> ProcessorBin:
        b = ProcessorBin(len(self.bins))
        self.bins.append(b)
        return b

    @property
    def processors(self) -> int:
        return len(self.bins)

    def total_load(self) -> Fraction:
        # Accumulate the bins' raw num/den pairs; one reduction at the end.
        num, den = 0, 1
        for b in self.bins:
            num = num * b.load_den + b.load_num * den
            den *= b.load_den
        return Fraction(num, den)

    def load_bounds(self) -> Tuple[int, int]:
        """``(lo, hi)`` with ``lo <= total_load() * 2**SCALE_BITS <= hi``,
        from the bins' spare bounds alone (no exact load is folded)."""
        full = len(self.bins) << SCALE_BITS
        return (full - sum(b.spare_hi for b in self.bins),
                full - sum(b.spare_lo for b in self.bins))

    def bin_of(self, name: str) -> Optional[ProcessorBin]:
        for b in self.bins:
            if any(t.name == name for t in b.tasks):
                return b
        return None

    def __iter__(self) -> "Iterator[ProcessorBin]":
        return iter(self.bins)

    def __repr__(self) -> str:
        return f"Partition({self.processors} processors, load={self.total_load()})"


class BinScan(list):
    """The bins of one first-fit packing in scan order, with a summary
    per block of :data:`BLOCK` consecutive bins that lets the EDF scans
    skip a block no bin of which can take the task.

    For block ``k``, ``spare_bound[k]`` is at least every member's
    ``spare_hi`` and ``period_floor[k]`` at most every member's
    ``max_period``.  :meth:`ProcessorBin.add` only lowers spare and
    raises ``max_period``, so both bounds stay valid while bins fill;
    :meth:`open` is the one way a bin joins, and it widens the bounds
    to cover the newcomer.  A bound may only ever be stale in the safe
    direction, which is why the summary lives with one packing: outside
    it, ``ProcessorBin.load`` can be assigned and spare can grow.
    """

    __slots__ = ("spare_bound", "period_floor")

    def __init__(self) -> None:
        super().__init__()
        self.spare_bound: List[int] = []
        self.period_floor: List[int] = []

    def open(self, b: ProcessorBin) -> None:
        """Append ``b``, which must already hold its first task."""
        assert b.max_period is not None, "a bin joins the scan non-empty"
        k, i = divmod(len(self), BLOCK)
        self.append(b)
        if i == 0:
            self.spare_bound.append(b.spare_hi)
            self.period_floor.append(b.max_period)
        else:
            if b.spare_hi > self.spare_bound[k]:
                self.spare_bound[k] = b.spare_hi
            if b.max_period < self.period_floor[k]:
                self.period_floor[k] = b.max_period
