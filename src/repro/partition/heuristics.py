"""Bin-packing heuristics for task-to-processor assignment.

Optimal assignment is bin packing (NP-hard in the strong sense), so online
partitioning uses polynomial heuristics (paper, Sec. 3).  A heuristic here
is (ordering × placement):

* placements — **FF** first fit, **BF** best fit (minimum spare after
  addition), **WF** worst fit (maximum spare), **NF** next fit (only the
  most recently opened bin);
* orderings — as given, decreasing utilization (FFD/BFD/...), decreasing
  period (required by the overhead-aware EDF test), increasing period.

``partition(...)`` runs one combination against an acceptance test and
either packs into at most ``max_bins`` processors or reports failure; with
``max_bins=None`` it opens bins freely, which is how the Fig. 3 campaign
computes the *minimum* processor count EDF-FF needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple
from fractions import Fraction

from ..workload.spec import TaskSpec
from .accept import AcceptanceTest, EDFUtilizationTest
from .bins import BinScan, Partition, ProcessorBin

__all__ = [
    "PLACEMENTS",
    "ORDERINGS",
    "PartitionFailure",
    "PartitionResult",
    "partition",
    "first_fit",
    "best_fit",
    "worst_fit",
    "next_fit",
]


class PartitionFailure(Exception):
    """The heuristic could not place some task within ``max_bins``."""

    def __init__(self, spec: TaskSpec, partition: Partition) -> None:
        self.spec = spec
        self.partition = partition
        super().__init__(f"could not place {spec.name or spec} "
                         f"on {partition.processors} processors")


@dataclass
class PartitionResult:
    """A successful packing."""

    partition: Partition
    order: Tuple[str, ...]  # task names in placement order

    @property
    def processors(self) -> int:
        return self.partition.processors


def _order_given(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return list(specs)


def _order_decreasing_utilization(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return sorted(specs, key=lambda s: (-s.utilization, s.period, s.name))


def _order_decreasing_period(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    # The utilization tie-break is only consulted at equal periods, where
    # utilization order is execution order — so the key can stay integer.
    return sorted(specs, key=lambda s: (-s.period, -s.execution, s.name))


def _order_increasing_period(specs: Sequence[TaskSpec]) -> List[TaskSpec]:
    return sorted(specs, key=lambda s: (s.period, -s.execution, s.name))


ORDERINGS: dict = {
    "given": _order_given,
    "decreasing_utilization": _order_decreasing_utilization,
    "decreasing_period": _order_decreasing_period,
    "increasing_period": _order_increasing_period,
}


def _place_ff(bins: "Sequence[ProcessorBin]",
            admissions: "Sequence[Optional[Fraction]]"
            ) -> "Optional[Tuple[ProcessorBin, Fraction]]":
    for b, u in zip(bins, admissions):
        if u is not None:
            return b, u
    return None


def _place_bf(bins: "Sequence[ProcessorBin]",
            admissions: "Sequence[Optional[Fraction]]"
            ) -> "Optional[Tuple[ProcessorBin, Fraction]]":
    best = None
    for b, u in zip(bins, admissions):
        if u is None:
            continue
        spare_after = b.spare - u
        if best is None or spare_after < best[2]:
            best = (b, u, spare_after)
    return (best[0], best[1]) if best else None


def _place_wf(bins: "Sequence[ProcessorBin]",
            admissions: "Sequence[Optional[Fraction]]"
            ) -> "Optional[Tuple[ProcessorBin, Fraction]]":
    best = None
    for b, u in zip(bins, admissions):
        if u is None:
            continue
        spare_after = b.spare - u
        if best is None or spare_after > best[2]:
            best = (b, u, spare_after)
    return (best[0], best[1]) if best else None


def _place_nf(bins: "Sequence[ProcessorBin]",
            admissions: "Sequence[Optional[Fraction]]"
            ) -> "Optional[Tuple[ProcessorBin, Fraction]]":
    if bins:
        b, u = bins[-1], admissions[-1]
        if u is not None:
            return b, u
    return None


PLACEMENTS: dict = {
    "ff": _place_ff,
    "bf": _place_bf,
    "wf": _place_wf,
    "nf": _place_nf,
}


def partition(specs: Sequence[TaskSpec], *,
              placement: str = "ff",
              ordering: str = "given",
              accept: Optional[AcceptanceTest] = None,
              max_bins: Optional[int] = None) -> PartitionResult:
    """Pack ``specs`` onto processors; raises :class:`PartitionFailure`
    if a task cannot be placed within ``max_bins``.

    ``accept`` defaults to the exact EDF utilization test.
    """
    try:
        order_fn = ORDERINGS[ordering]
    except KeyError:
        raise ValueError(f"unknown ordering {ordering!r}; "
                         f"options: {sorted(ORDERINGS)}") from None
    try:
        place_fn = PLACEMENTS[placement]
    except KeyError:
        raise ValueError(f"unknown placement {placement!r}; "
                         f"options: {sorted(PLACEMENTS)}") from None
    if accept is None:
        accept = EDFUtilizationTest()
    part = Partition()
    ordered = order_fn(specs)
    # First fit scans the same bins as part.bins, plus the per-block
    # summary the EDF scans prune with; it lives with this one packing.
    scan = BinScan()
    is_ff = place_fn is _place_ff
    ff_scan = accept.first_fit
    for spec in ordered:
        # First fit commits to the first admitting bin and next fit only
        # ever looks at the last, so don't probe the rest — acceptance
        # tests are stateless, making the short-circuit scan equivalent
        # to probing every bin and discarding the unused answers.  Best
        # and worst fit genuinely need every admission.
        if is_ff:
            chosen = ff_scan(scan, spec)
        elif place_fn is _place_nf:
            chosen = None
            if part.bins:
                u = accept.admit(part.bins[-1], spec)
                if u is not None:
                    chosen = (part.bins[-1], u)
        else:
            admissions = [accept.admit(b, spec) for b in part.bins]
            chosen = place_fn(part.bins, admissions)
        if chosen is None:
            if max_bins is not None and part.processors >= max_bins:
                raise PartitionFailure(spec, part)
            b = part.new_bin()
            u = accept.admit(b, spec)
            if u is None:
                # Not schedulable even alone (e.g. inflated cost > period).
                raise PartitionFailure(spec, part)
            b.add(spec, u)
            scan.open(b)
        else:
            b, u = chosen
            b.add(spec, u)
    return PartitionResult(partition=part, order=tuple(s.name for s in ordered))


def first_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """First fit in the given order (the paper's FF)."""
    return partition(specs, placement="ff", **kw)


def best_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Best fit: minimal spare capacity after the addition (the paper's BF)."""
    return partition(specs, placement="bf", **kw)


def worst_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Worst fit: maximal spare capacity after the addition."""
    return partition(specs, placement="wf", **kw)


def next_fit(specs: Sequence[TaskSpec], **kw: object) -> PartitionResult:
    """Next fit: only the most recently opened bin is considered."""
    return partition(specs, placement="nf", **kw)
