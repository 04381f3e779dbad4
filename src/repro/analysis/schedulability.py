"""Overhead-aware schedulability: the computations behind Figs. 3 and 4.

For each random task set the paper computes, after Eq. (3) inflation, the
minimum number of processors each approach needs:

* **PD²** — smallest ``M`` with ``sum of quantised inflated weights <= M``
  (Eq. (2)).  The scheduling cost ``S_PD2(N, M)`` grows with ``M``, so the
  search re-inflates at every candidate ``M``; the total weight is
  monotone in ``M``, so the first success is minimal.
* **EDF-FF** — the number of bins first fit opens with the overhead-aware
  EDF acceptance test, tasks fed in decreasing-period order (Sec. 4).

Fig. 4 decomposes the gap between raw utilization and provisioned
processors into named losses (formulas fixed in DESIGN.md §5, since the
paper plots but does not define them):

* ``loss_edf  = (U'_EDF − U) / M_FF``   — capacity lost to EDF-side
  overhead inflation;
* ``loss_ff   = (M_FF − ceil(U'_EDF)) / M_FF`` — capacity lost to
  bin-packing fragmentation *beyond* the unavoidable whole-processor
  ceiling (any approach, including an ideal packer, needs
  ``ceil(U'_EDF)`` processors — counting that slack as "partitioning
  loss" would swamp the curve at small M);
* ``loss_pfair = (U'_PD2 − U) / M_PD2`` — capacity lost to PD² overheads,
  including quantisation.  PD² provisions exactly ``ceil(U'_PD2)``
  processors — it never fragments — so it has no analogue of ``loss_ff``.

where ``U`` is raw utilization, ``U'_EDF`` the packed inflated utilization
and ``U'_PD2`` the total quantised inflated weight.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ..overheads.inflation import pd2_inflate_set
from ..overheads.model import OverheadModel
from ..partition.bins import SCALE_BITS
from ..partition.heuristics import PartitionFailure
from ..partition.partitioner import edf_ff
from ..util.lru import LRUCache
from ..workload.spec import TaskSpec, total_utilization

__all__ = [
    "ANALYSIS_CACHE",
    "pd2_min_processors",
    "edf_ff_min_processors",
    "SchedulabilityPoint",
    "evaluate_task_set",
    "task_set_signature",
    "task_set_cache_key",
]

#: Process-wide schedulability results, shared by every consumer of this
#: module: :func:`pd2_min_processors` / :func:`edf_ff_min_processors`
#: (and hence :func:`evaluate_task_set`, the campaign workers, and the
#: admission service's ``analyze`` verb) all read and write one keyspace,
#: keyed by :func:`task_set_cache_key` digests.  Campaigns draw duplicate
#: task sets across grid points and the service re-analyzes the sets it
#: admits, so sharing one cache turns those repeats into dict lookups.
#: Analyses under models whose cost curves cannot be fingerprinted
#: (``task_set_cache_key`` returns ``None``) bypass the cache entirely.
#: Written from two thread domains — the main thread (campaigns) and the
#: ``ServerThread`` event loop (service ``analyze``) — which is safe
#: because :class:`~repro.util.lru.LRUCache` locks internally
#: (staticcheck R007 verifies exactly this; see docs/CONCURRENCY.md).
ANALYSIS_CACHE = LRUCache(capacity=65536)


def task_set_signature(specs: Sequence[TaskSpec]) -> Tuple:
    """Canonical hashable identity of a task set for result caching.

    Every field that the schedulability analyses read is included; names
    are not (two sets differing only in task names schedule identically).
    The tuple is *sorted*, so permutations of the same multiset of tasks
    share a signature — both analyses are order-insensitive (PD² sums
    weights; overhead-aware EDF-FF re-sorts by decreasing period).
    """
    return tuple(sorted(
        (s.execution, s.period, s.cache_delay,
         s.period if s.deadline is None else s.deadline,  # relative_deadline
         s.max_section, s.resource)
        for s in specs
    ))


def task_set_cache_key(specs: Sequence[TaskSpec],
                       model: OverheadModel) -> Optional[str]:
    """Stable digest keying one ``(task set, overhead model)`` analysis.

    Returns ``None`` when ``model`` carries custom cost curves that cannot
    be fingerprinted (see :meth:`OverheadModel.signature`) — results under
    such a model must not be cached.  The digest is stable across
    processes and Python versions, so it can key on-disk caches too.
    """
    sig = model.signature()
    if sig is None:
        return None
    payload = repr((sig, task_set_signature(specs)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_UNSET = object()  # "caller did not precompute" sentinel (None is a value)
_ONE = 1 << SCALE_BITS


def _rounded(lo: int, hi: int) -> Optional[float]:
    """``float(x)`` of the exact ``x`` with ``lo <= x·2**SCALE_BITS <=
    hi``, or ``None`` when the two bounds round to different floats.

    int/int true division is correctly rounded and rounding is monotone,
    so bounds that round alike pin the exact value's rounding too.
    """
    f = lo / _ONE
    return f if f == hi / _ONE else None


def _ceil_scaled(lo: int, hi: int) -> Optional[int]:
    """``ceil(x)`` for ``lo <= x·2**SCALE_BITS <= hi``, or ``None`` when
    the bounds straddle an integer."""
    c = -(-lo >> SCALE_BITS)
    return c if c == -(-hi >> SCALE_BITS) else None


def _utilization_bounds(specs: Sequence[TaskSpec]) -> Tuple[int, int]:
    """``(lo, hi)`` with ``lo <= U·2**SCALE_BITS <= hi`` for the raw total
    utilization ``U``: one small division per task instead of the exact
    sum, whose denominator is the product of every period."""
    lo = hi = 0
    for s in specs:
        q, r = divmod(s.execution << SCALE_BITS, s.period)
        lo += q
        hi += q + 1 if r else q
    return lo, hi


def _pd2_analysis(specs: Sequence[TaskSpec], model: OverheadModel,
                  cap: int, digest: object = _UNSET,
                  u_ceil: Optional[int] = None
                  ) -> Tuple[Optional[int], Optional[float], int]:
    """The PD² search, cached: ``(m, inflated total weight at m, max
    fixed-point iterations at m)``, with ``m = None`` when no M up to
    ``cap`` suffices.

    One search serves both :func:`pd2_min_processors` (which wants ``m``)
    and :func:`evaluate_task_set` (which previously re-inflated the whole
    set at ``m`` a second time for the Fig. 4 loss terms).
    ``digest`` / ``u_ceil`` let callers that already computed the cache
    key or ``ceil`` of the raw total utilization pass them in.
    """
    ckey = None
    if digest is _UNSET:
        digest = task_set_cache_key(specs, model)
    if digest is not None:
        ckey = ("pd2", digest, cap)
        hit = ANALYSIS_CACHE.get(ckey)
        if hit is not None:
            return hit
    result: Tuple[Optional[int], Optional[float], int] = (None, None, 0)
    if u_ceil is None:
        u_raw = total_utilization(specs)
        u_ceil = -(-u_raw.numerator // u_raw.denominator)
    m = max(1, u_ceil)
    while m <= cap:
        inflations = pd2_inflate_set(specs, model, m)
        # One pass: feasibility, the exact total weight (unnormalised
        # num/den, as in pd2_total_weight), and the max iteration count.
        feasible = True
        num, den, iters = 0, 1, 0
        for inf in inflations:
            e_q, p_q = inf.quanta, inf.period_quanta
            if e_q > p_q:
                feasible = False
                break
            num = num * p_q + e_q * den
            den *= p_q
            if inf.iterations > iters:
                iters = inf.iterations
        if feasible:
            if num <= m * den:      # total <= m, cross-multiplied
                result = (m, float(Fraction(num, den)), iters)
                break
            # Jump straight to the implied lower bound instead of +1 steps.
            m = max(m + 1, -(-num // den))  # ceil(total)
        else:
            break  # some task infeasible alone; more CPUs won't help
    if ckey is not None:
        ANALYSIS_CACHE.put(ckey, result)
    return result


def pd2_min_processors(specs: Sequence[TaskSpec], model: OverheadModel, *,
                       max_processors: Optional[int] = None) -> Optional[int]:
    """Smallest M passing the PD² feasibility test with Eq. (3) inflation.

    Returns ``None`` if no M up to ``max_processors`` (default: task count,
    since one processor per task is the most any feasible set needs —
    a task whose inflated weight still exceeds 1 can never be scheduled)
    suffices.  Results are memoised in :data:`ANALYSIS_CACHE`.
    """
    if not specs:
        return 1
    cap = max_processors if max_processors is not None else len(specs)
    return _pd2_analysis(specs, model, cap)[0]


def _edf_ff_analysis(specs: Sequence[TaskSpec], model: OverheadModel,
                     digest: object = _UNSET
                     ) -> Tuple[Optional[int], Optional[float]]:
    """The EDF-FF packing, cached: ``(processors, packed inflated
    utilization)``, both ``None`` on packing failure."""
    ckey = None
    if digest is _UNSET:
        digest = task_set_cache_key(specs, model)
    if digest is not None:
        ckey = ("edfff", digest)
        hit = ANALYSIS_CACHE.get(ckey)
        if hit is not None:
            return hit
    try:
        packing = edf_ff(specs,
                         overhead_inflation=model.edf_fixed_inflation(len(specs)))
        # The float of the packed load, from the bins' spare bounds; the
        # exact sum (a product of every bin's denominator) only when the
        # bounds round apart.
        load = _rounded(*packing.partition.load_bounds())
        if load is None:
            load = float(packing.partition.total_load())
        result: Tuple[Optional[int], Optional[float]] = (
            packing.processors, load)
    except PartitionFailure:
        result = (None, None)
    if ckey is not None:
        ANALYSIS_CACHE.put(ckey, result)
    return result


def edf_ff_min_processors(specs: Sequence[TaskSpec],
                          model: OverheadModel) -> Optional[int]:
    """Processors EDF-FF opens with overhead-aware acceptance (Sec. 4).

    Results are memoised in :data:`ANALYSIS_CACHE`.
    """
    if not specs:
        return 1
    return _edf_ff_analysis(specs, model)[0]


@dataclass(frozen=True)
class SchedulabilityPoint:
    """Everything Figs. 3 and 4 need about one task set."""

    n_tasks: int
    utilization: float          # raw U
    m_pd2: Optional[int]
    m_ff: Optional[int]
    inflated_u_pd2: Optional[float]   # U'_PD2 at m_pd2
    inflated_u_edf: Optional[float]   # U'_EDF as packed by FF
    pd2_iterations_max: int            # Eq. (3) fixed-point iteration count

    @property
    def loss_pfair(self) -> Optional[float]:
        if self.m_pd2 is None or self.inflated_u_pd2 is None:
            return None
        return (self.inflated_u_pd2 - self.utilization) / self.m_pd2

    @property
    def loss_edf(self) -> Optional[float]:
        if self.m_ff is None or self.inflated_u_edf is None:
            return None
        return (self.inflated_u_edf - self.utilization) / self.m_ff

    @property
    def loss_ff(self) -> Optional[float]:
        if self.m_ff is None or self.inflated_u_edf is None:
            return None
        import math

        return (self.m_ff - math.ceil(self.inflated_u_edf)) / self.m_ff


def evaluate_task_set(specs: Sequence[TaskSpec],
                      model: OverheadModel) -> SchedulabilityPoint:
    """Compute the Fig. 3/Fig. 4 quantities for one task set.

    Shares the cached analyses with the ``*_min_processors`` entry points
    — the inflated totals fall straight out of the searches, so nothing
    is computed twice.
    """
    # float(U) and ceil(U) from fixed-point bounds on the raw total U;
    # the exact sum only for whichever of the two the bounds leave open.
    lo, hi = _utilization_bounds(specs)
    u_raw = _rounded(lo, hi)
    u_ceil = _ceil_scaled(lo, hi)
    if u_raw is None or u_ceil is None:
        u_exact = total_utilization(specs)
        u_raw = float(u_exact)
        u_ceil = -(-u_exact.numerator // u_exact.denominator)
    if specs:
        digest = task_set_cache_key(specs, model)
        m_pd2, u_pd2, iters = _pd2_analysis(specs, model, len(specs),
                                            digest, u_ceil)
        m_ff, u_edf = _edf_ff_analysis(specs, model, digest)
    else:
        m_pd2, u_pd2, iters = 1, 0.0, 0
        m_ff, u_edf = None, None
    return SchedulabilityPoint(
        n_tasks=len(specs),
        utilization=u_raw,
        m_pd2=m_pd2,
        m_ff=m_ff,
        inflated_u_pd2=u_pd2,
        inflated_u_edf=u_edf,
        pd2_iterations_max=iters,
    )
