"""End-to-end partitioners: EDF-FF, RM-FF, minimum-processor search, and
online (dynamic) partitioning.

``EDF-FF`` — first fit with the exact EDF utilization test — is the
paper's representative of the partitioning approach.  The overhead-aware
variant feeds tasks in decreasing-period order so Eq. (3)'s cache term
``max_{U in P_T} D(U)`` is fixed at admission (see
:class:`~repro.partition.accept.EDFOverheadTest`); the paper calls out this
ordering explicitly.

:func:`min_processors` answers the Fig. 3 question for the partitioned
side: the number of processors first fit ends up opening when bins are
unbounded.  (First fit never benefits from extra empty bins, so this count
is exactly the smallest M for which this heuristic succeeds.)

:class:`OnlinePartitioner` models the dynamic-task discussion of Sec. 5.2:
joins are first-fit admissions against the current assignment (cheap but
may reject sets an offline repacking would fit — that pessimism is the
paper's point); leaves free capacity; :meth:`repartition` performs the
costly full repacking a join-heavy system would periodically need.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..workload.spec import TaskSpec
from .accept import (
    AcceptanceTest,
    EDFOverheadTest,
    EDFUtilizationTest,
    RMHyperbolicTest,
    RMLiuLaylandTest,
    RMResponseTimeTest,
)
from .bins import Partition
from .heuristics import PartitionFailure, PartitionResult, partition

__all__ = [
    "edf_ff",
    "rm_ff",
    "min_processors",
    "OnlinePartitioner",
    "RM_TESTS",
]

RM_TESTS = {
    "liu_layland": RMLiuLaylandTest,
    "hyperbolic": RMHyperbolicTest,
    "response_time": RMResponseTimeTest,
}


def edf_ff(specs: Sequence[TaskSpec], *, max_bins: Optional[int] = None,
           overhead_inflation: Optional[int] = None) -> PartitionResult:
    """EDF-FF packing; overhead-aware when ``overhead_inflation`` (the
    ``2(S_EDF + C)`` term in ticks) is given."""
    if overhead_inflation is None:
        return partition(specs, placement="ff", ordering="given",
                         accept=EDFUtilizationTest(), max_bins=max_bins)
    return partition(specs, placement="ff", ordering="decreasing_period",
                     accept=EDFOverheadTest(overhead_inflation),
                     max_bins=max_bins)


def rm_ff(specs: Sequence[TaskSpec], *, test: str = "response_time",
          max_bins: Optional[int] = None) -> PartitionResult:
    """RM-FF packing with the chosen uniprocessor RM test."""
    try:
        accept = RM_TESTS[test]()
    except KeyError:
        raise ValueError(f"unknown RM test {test!r}; options: "
                         f"{sorted(RM_TESTS)}") from None
    return partition(specs, placement="ff", ordering="given",
                     accept=accept, max_bins=max_bins)


def min_processors(specs: Sequence[TaskSpec], *,
                   algorithm: str = "edf",
                   overhead_inflation: Optional[int] = None,
                   rm_test: str = "response_time") -> Optional[int]:
    """Processors the FF heuristic needs for ``specs``; ``None`` when some
    task cannot be scheduled even on a processor of its own (only possible
    with overhead inflation or RM)."""
    try:
        if algorithm == "edf":
            result = edf_ff(specs, overhead_inflation=overhead_inflation)
        elif algorithm == "rm":
            result = rm_ff(specs, test=rm_test)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    except PartitionFailure:
        return None
    return result.processors


class OnlinePartitioner:
    """First-fit admission control over a fixed processor count.

    Joins try the existing bins in index order (classic online FF); leaves
    remove the task, refund its committed utilization and recompute the
    bin's cache-delay and period bookkeeping from the tasks that remain,
    so an emptied bin accepts any task again.  The overhead-aware EDF
    test keeps its static feed-order discipline online: a join probing a
    bin that holds a shorter-period task raises ``ValueError`` (Eq. (3)
    would have to re-inflate the resident), and an admitted newcomer is
    charged the bin's max cache delay.  ``repartition`` redoes the full
    static packing.
    """

    def __init__(self, processors: int, *,
                 accept: Optional[AcceptanceTest] = None) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        self.accept = accept if accept is not None else EDFUtilizationTest()
        self.partition = Partition()
        for _ in range(processors):
            self.partition.new_bin()
        self._committed: Dict[str, object] = {}

    @property
    def processors(self) -> int:
        return self.partition.processors

    def try_join(self, spec: TaskSpec) -> Optional[int]:
        """Admit ``spec`` by first fit; returns the processor index or
        ``None``."""
        if not spec.name:
            raise ValueError("online tasks need unique names")
        if spec.name in self._committed:
            raise ValueError(f"{spec.name} already admitted")
        for b in self.partition.bins:
            u = self.accept.admit(b, spec)
            if u is not None:
                b.add(spec, u)
                self._committed[spec.name] = u
                return b.index
        return None

    def leave(self, name: str) -> None:
        """Remove a task and refund its committed utilization."""
        u = self._committed.pop(name, None)
        if u is None:
            raise KeyError(f"unknown task {name!r}")
        for b in self.partition.bins:
            for i, t in enumerate(b.tasks):
                if t.name == name:
                    del b.tasks[i]
                    b.load -= u
                    b.max_cache_delay = max(
                        (t.cache_delay for t in b.tasks), default=0)
                    b.min_period = min(
                        (t.period for t in b.tasks), default=None)
                    b.max_period = max(
                        (t.period for t in b.tasks), default=None)
                    return
        raise AssertionError("committed task missing from all bins")

    def all_specs(self) -> List[TaskSpec]:
        return [t for b in self.partition.bins for t in b.tasks]

    def repartition(self, ordering: Optional[str] = None) -> bool:
        """Full offline repack of the current tasks (the expensive step the
        paper warns dynamic partitioned systems need).  Returns False and
        leaves the assignment unchanged if the repack does not fit."""
        if ordering is None:
            # The overhead-aware EDF test requires decreasing periods;
            # otherwise decreasing utilization (FFD) packs tightest.
            ordering = ("decreasing_period"
                        if isinstance(self.accept, EDFOverheadTest)
                        else "decreasing_utilization")
        specs = self.all_specs()
        try:
            result = partition(
                specs, placement="ff", ordering=ordering,
                accept=self.accept, max_bins=self.processors,
            )
        except PartitionFailure:
            return False
        fresh = Partition()
        for _ in range(self.processors):
            fresh.new_bin()
        self._committed.clear()
        for src in result.partition.bins:
            dst = fresh.bins[src.index]
            for t in src.tasks:
                u = self.accept.admit(dst, t)
                assert u is not None, "repacked bin rejected its own task"
                dst.add(t, u)
                self._committed[t.name] = u
        self.partition = fresh
        return True
