"""Schedule caches: cold-resumption pricing and hyperperiod memoisation.

Two unrelated-looking concerns share this module because both exploit the
same structural fact about quantum schedules — what happens between two
points in time is determined by a small amount of boundary state:

* **Cache-related preemption delay accounting** (paper, Sec. 4).  The
  paper charges each task a delay ``D(T)`` — the time to re-service its
  working set from a cold cache — on every resumption after a preemption,
  and assumes migrations cost the same as preemptions because the
  analysis already assumes a cold cache either way.
  :class:`CacheModel` applies that model *to a schedule trace*: given
  per-task delays, it counts the cold resumptions a PD² (or any quantum)
  schedule actually produced and prices them, so Eq. (3)'s analytic
  charge can be checked against simulation (``tests/test_sim_cache.py``
  asserts charge <= Eq. (3) budget per job).  A resumption is *cold* when
  the task's previous quantum is not the immediately preceding slot on
  the same processor; back-to-back quanta on one processor keep the cache
  warm (the continuation rule the simulator's processor assignment
  implements).

* **Hyperperiod memoisation** for the PD² fast path
  (:class:`~repro.sim.fastpath.FastPD2Simulator`).  A synchronous
  periodic system is a deterministic automaton whose per-slot decisions
  depend only on the live subtasks, their windows, and the per-task
  affinity state.  At a hyperperiod boundary ``t = kH`` that state
  compresses to a tiny signature per task (relative eligibility, relative
  subtask index, processor affinity); when a signature repeats, the
  schedule between the two boundaries repeats forever after, so the
  per-cycle :class:`~repro.core.metrics.SimStats` delta can be *tiled*
  across the remaining horizon instead of re-simulated.
  :class:`HyperperiodMemo` implements the boundary sampling, cycle
  detection and tiling; :data:`HYPERPERIOD_CACHE` remembers measured
  cycle deltas across runs (keyed by the normalized task set), so a
  repeated simulation of the same system only simulates its first
  hyperperiod.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..core.keytab import unpack_key
from ..core.task import PfairTask
from ..core.trace import ScheduleTrace
from ..util.lru import LRUCache

if TYPE_CHECKING:
    from ..core.quantum import QuantumSimulator

__all__ = [
    "CacheModel",
    "ColdResumptions",
    "count_cold_resumptions",
    "CycleDelta",
    "CycleLog",
    "HyperperiodMemo",
    "HYPERPERIOD_CACHE",
    "hyperperiod_cache_key",
]


@dataclass
class ColdResumptions:
    """Cold-cache events and their priced cost for one task."""

    resumptions: int = 0
    first_dispatches: int = 0
    delay_ticks: int = 0


def count_cold_resumptions(trace: ScheduleTrace, task: PfairTask) -> ColdResumptions:
    """Count cold resumptions of ``task`` in ``trace``.

    The first quantum of each job is a dispatch, not a resumption (its
    cache cost is charged separately in Eq. (3) as the ``+C`` term); a
    later quantum is cold iff it does not directly continue the previous
    quantum on the same processor.
    """
    out = ColdResumptions()
    prev_slot: Optional[int] = None
    prev_proc: Optional[int] = None
    prev_job: Optional[int] = None
    e = task.execution
    for a in trace.of_task(task):
        job = (a.subtask_index - 1) // e + 1
        if job != prev_job:
            out.first_dispatches += 1
        elif not (prev_slot == a.slot - 1 and prev_proc == a.processor):
            out.resumptions += 1
        prev_slot, prev_proc, prev_job = a.slot, a.processor, job
    return out


class CacheModel:
    """Prices cold resumptions with per-task delays ``D(T)``.

    Delays come either from an explicit mapping (task name -> ticks) or
    from the paper's default distribution, uniform on [0, 100] µs, drawn
    per task from a seeded generator.
    """

    def __init__(self, delays: Optional[Mapping[str, int]] = None, *,
                 max_delay: int = 100, seed: int = 0) -> None:
        if max_delay < 0:
            raise ValueError("max_delay must be nonnegative")
        self._explicit = dict(delays) if delays is not None else None
        self._max_delay = max_delay
        self._rng = np.random.default_rng(seed)
        self._drawn: Dict[str, int] = {}

    def delay_of(self, task: PfairTask) -> int:
        if self._explicit is not None:
            try:
                return self._explicit[task.name]
            except KeyError:
                raise KeyError(f"no cache delay configured for {task.name!r}") \
                    from None
        if task.name not in self._drawn:
            self._drawn[task.name] = int(
                self._rng.integers(0, self._max_delay + 1))
        return self._drawn[task.name]

    def charge(self, trace: ScheduleTrace,
               tasks: Iterable[PfairTask]) -> Dict[str, ColdResumptions]:
        """Price every task's cold resumptions in the trace."""
        out: Dict[str, ColdResumptions] = {}
        for task in tasks:
            events = count_cold_resumptions(trace, task)
            events.delay_ticks = events.resumptions * self.delay_of(task)
            out[task.name] = events
        return out

    def total_delay(self, trace: ScheduleTrace,
                    tasks: Iterable[PfairTask]) -> int:
        return sum(c.delay_ticks for c in self.charge(trace, tasks).values())


# ---------------------------------------------------------------------------
# Hyperperiod memoisation for the PD² fast path.
# ---------------------------------------------------------------------------

#: Measured cycle deltas, shared across simulation runs in this process.
#: Keyed by :func:`hyperperiod_cache_key`; each value is a dict mapping a
#: boundary signature to its :class:`CycleDelta`.  Entries contain only
#: plain integers (no task objects, no absolute times), so they apply to
#: any run of an equivalent system regardless of task ids.
HYPERPERIOD_CACHE = LRUCache(capacity=256)


def hyperperiod_cache_key(sim: "QuantumSimulator") -> tuple:
    """Normalized identity of a simulation configuration.

    Everything the slot-to-slot evolution depends on, with task identity
    reduced to position: weights, per-task/global early-release flags, the
    processor count and the affinity mode.  Phases are implicitly zero
    (the memoizer only runs then).
    """
    return (
        tuple((t.execution, t.period, t.early_release) for t in sim.tasks),
        sim.processors,
        sim.early_release,
        sim.preserve_affinity,
    )


class CycleDelta:
    """Per-cycle statistics delta, all relative to the cycle boundary.

    ``per_task[pos]`` is ``(quanta, preemptions, migrations, jp_rel)`` for
    the task at position ``pos``, where ``jp_rel`` lists
    ``(job_offset, count)`` pairs of per-job preemption counts with job
    indices relative to the boundary.  ``cycles`` is the cycle length in
    hyperperiods.

    Deltas contain only plain integers relative to the boundary, and both
    PD² kernels (:mod:`repro.sim.fastpath` and :mod:`repro.sim.vector`)
    are decision-identical, so a delta measured by one kernel applies
    verbatim to the other — :data:`HYPERPERIOD_CACHE` entries are shared.
    """

    __slots__ = ("cycles", "per_task", "busy", "idle")

    def __init__(self, cycles: int,
                 per_task: Tuple[Tuple[int, int, int, tuple], ...],
                 busy: int, idle: int) -> None:
        self.cycles = cycles
        self.per_task = per_task
        self.busy = busy
        self.idle = idle


#: Backwards-compatible alias (the class was private before the vector
#: kernel needed to share it).
_CycleDelta = CycleDelta


class CycleLog:
    """Boundary-signature bookkeeping shared by both PD² fast kernels.

    One instance serves one simulation run.  The owner samples a boundary
    signature at every hyperperiod multiple and drives the protocol:

    1. :meth:`probe` — a cross-run cache hit returns a ready-made
       :class:`CycleDelta` immediately;
    2. otherwise :meth:`previous` — a repeat of a signature seen earlier
       *this run* identifies a cycle; the owner measures the delta from
       the recorded snapshot and :meth:`store`\\ s it for future runs;
    3. otherwise :meth:`record` the signature and snapshot and keep
       simulating; after :data:`MAX_BOUNDARIES` distinct signatures
       :attr:`exhausted` is set and the owner should stop sampling.

    The class is agnostic to what signatures and snapshots contain — the
    fastpath's heap-state capture and the vector kernel's column-state
    capture produce identical tuples by construction, which is what makes
    the cross-kernel cache sharing sound (and is asserted by the
    differential suite).
    """

    #: Boundaries sampled before giving up on finding a cycle.
    MAX_BOUNDARIES = 16

    __slots__ = ("_seen", "_ckey", "_cached", "exhausted")

    def __init__(self, cache_key: tuple) -> None:
        self._seen: Dict[tuple, Tuple[int, tuple]] = {}
        self._ckey = cache_key
        self._cached: Optional[Dict[tuple, CycleDelta]] = \
            HYPERPERIOD_CACHE.get(cache_key)
        self.exhausted = False

    def probe(self, sig: tuple) -> Optional[CycleDelta]:
        """Cross-run cached delta for ``sig``, or ``None``."""
        return self._cached.get(sig) if self._cached is not None else None

    def previous(self, sig: tuple) -> Optional[Tuple[int, tuple]]:
        """``(boundary_time, snapshot)`` of an earlier sighting, or ``None``."""
        return self._seen.get(sig)

    def store(self, sig: tuple, delta: CycleDelta) -> None:
        """Publish a measured delta to the cross-run cache."""
        if self._cached is None:
            self._cached = {}
            HYPERPERIOD_CACHE.put(self._ckey, self._cached)
        self._cached[sig] = delta

    def record(self, sig: tuple, now: int, snapshot: tuple) -> None:
        """Remember ``sig`` at ``now`` for later cycle detection."""
        self._seen[sig] = (now, snapshot)
        if len(self._seen) >= self.MAX_BOUNDARIES:
            self.exhausted = True


class HyperperiodMemo:
    """Cycle detection and tiling for one :class:`FastPD2Simulator` run.

    The simulator calls :meth:`on_boundary` whenever the clock reaches
    ``next_boundary`` (a multiple of the hyperperiod ``H``), *before*
    releasing that slot's eligible subtasks.  The memo samples the
    boundary signature; on a repeat (or a cross-run cache hit) it applies
    the measured per-cycle delta ``c`` times, advances the clock by
    ``c`` cycles, and retires (``done``) so the remainder — less than one
    cycle — is simulated plainly.

    Safety gates: the memo retires without tiling if the run has recorded
    any deadline miss, if the ready queue is non-empty at a boundary
    (backlog means the system is overloaded and the boundary state is not
    fully captured by the signature), or after 16 boundaries with no
    repeat (aperiodic-looking affinity state; avoids unbounded snapshot
    memory).  Tracing disables the memo entirely — a tiled cycle records
    no allocations — as do nonzero phases (the simulator gates on both).

    Concurrency (docs/CONCURRENCY.md): :data:`HYPERPERIOD_CACHE` itself
    is internally locked, but the *inner* per-configuration dict a memo
    fetches from it is mutated in place (``self._cached[sig] = delta``)
    without a lock.  That is safe because simulations only ever run on
    the main thread of their process (campaign drivers, or a campaign
    worker's own main thread) — the admission service never simulates.
    Growing a dict under the GIL is atomic per operation, and two
    processes each mutate their own copy.  If simulations are ever
    offloaded to threads, give the inner dict the same lock treatment as
    :class:`~repro.util.lru.LRUCache`.
    """

    #: Boundaries sampled before giving up on finding a cycle.
    MAX_BOUNDARIES = CycleLog.MAX_BOUNDARIES

    def __init__(self, sim: "QuantumSimulator", hyperperiod: int) -> None:
        self.sim = sim
        self.H = hyperperiod
        self.next_boundary = hyperperiod
        self.done = False
        self._log = CycleLog(hyperperiod_cache_key(sim))

    # -- boundary protocol ---------------------------------------------------

    def on_boundary(self, now: int, horizon: int) -> int:
        """Sample the boundary at ``now``; returns the (possibly advanced)
        clock.  Sets :attr:`done` when the memo retires."""
        sim = self.sim
        if sim.stats.misses or sim._ready:
            self.done = True
            return now
        log = self._log
        sig = self._signature(now)
        delta = log.probe(sig)
        if delta is None:
            hit = log.previous(sig)
            if hit is not None:
                delta = self._measure(now, *hit)
                log.store(sig, delta)
        if delta is not None:
            cycle_len = delta.cycles * self.H
            c = (horizon - now) // cycle_len
            if c > 0:
                now = self._apply(now, delta, c)
            self.done = True
            return now
        log.record(sig, now, self._snapshot())
        if log.exhausted:
            self.done = True
        else:
            self.next_boundary = now + self.H
        return now

    # -- state capture -------------------------------------------------------

    def _signature(self, now: int) -> tuple:
        """Boundary state, relative to ``now``, per task in task order.

        Captures everything the future evolution depends on: the live
        subtask (relative index and eligibility determine its window and
        packed key up to a uniform shift) and the affinity state used by
        processor assignment and the preemption/migration counters
        (relative slot gap, absolute processor, relative job).
        """
        per_task = self.sim.stats.per_task
        live: Dict[int, Tuple[int, int]] = {}
        for elig, key in self.sim._pending:
            _, tid, idx = unpack_key(key)
            live[tid] = (elig, idx)
        sig: List[tuple] = []
        for t in self.sim.tasks:
            elig, idx = live[t.task_id]
            jobs = now // t.period
            ts = per_task.get(t.task_id)
            if ts is None:
                affinity = (None, None, None)
            else:
                affinity = (now - ts.last_slot, ts.last_proc,
                            ts.last_job - jobs)
            sig.append((elig - now, idx - jobs * t.execution) + affinity)
        return tuple(sig)

    def _snapshot(self) -> tuple:
        """Cumulative counters at a boundary, for later delta measurement."""
        per_task = self.sim.stats.per_task
        rows = []
        for t in self.sim.tasks:
            ts = per_task.get(t.task_id)
            rows.append((ts.quanta, ts.preemptions, ts.migrations)
                        if ts is not None else (0, 0, 0))
        return (tuple(rows), self.sim.stats.busy_quanta,
                self.sim.stats.idle_quanta)

    def _measure(self, now: int, t0: int, snap: tuple) -> CycleDelta:
        """Delta accumulated over the cycle ``[t0, now)``."""
        rows, busy0, idle0 = snap
        stats = self.sim.stats
        per_task = []
        for pos, t in enumerate(self.sim.tasks):
            ts = stats.per_task[t.task_id]
            q0, p0, m0 = rows[pos]
            jobs0 = t0 // t.period
            # Per-job preemption entries are only ever written for the
            # *current* job, and job indices are monotone, so everything
            # keyed past jobs0 accumulated inside the cycle.
            jp_rel = tuple(sorted(
                (j - jobs0, cnt)
                for j, cnt in ts.job_preemptions.items() if j > jobs0
            ))
            per_task.append((ts.quanta - q0, ts.preemptions - p0,
                             ts.migrations - m0, jp_rel))
        return CycleDelta((now - t0) // self.H, tuple(per_task),
                           stats.busy_quanta - busy0,
                           stats.idle_quanta - idle0)

    # -- tiling --------------------------------------------------------------

    def _apply(self, now: int, delta: CycleDelta, c: int) -> int:
        """Advance the simulator ``c`` cycles from the boundary at ``now``
        by applying ``delta`` ``c`` times; returns the new clock."""
        sim = self.sim
        L = delta.cycles * self.H
        stats = sim.stats
        for pos, t in enumerate(sim.tasks):
            dq, dp, dm, jp_rel = delta.per_task[pos]
            ts = stats.per_task[t.task_id]
            ts.quanta += c * dq
            ts.preemptions += c * dp
            ts.migrations += c * dm
            jobs_per_cycle = L // t.period
            if jp_rel:
                jp = ts.job_preemptions
                jobs_now = now // t.period
                for i in range(c):
                    base = jobs_now + i * jobs_per_cycle
                    for j_rel, cnt in jp_rel:
                        jp[base + j_rel] = cnt
            ts.last_slot += c * L
            ts.last_job += c * jobs_per_cycle
            tid = t.task_id
            if tid in sim.last_scheduled_index:
                sim.last_scheduled_index[tid] += \
                    c * jobs_per_cycle * t.execution
        stats.busy_quanta += c * delta.busy
        stats.idle_quanta += c * delta.idle
        # Shift pending subtasks forward c cycles: a uniform time shift
        # plus per-task key advances.  Eligibilities all move by the same
        # amount and key order is shift-invariant, so positions still
        # satisfy the heap property — rewrite in place.
        shift = c * L
        info_of = sim._info
        new_pending = []
        for elig, key in sim._pending:
            info = info_of[unpack_key(key)[1]]
            new_pending.append((
                elig + shift,
                key + c * (L // info.task.period) * info.tab.job_step,
            ))
        sim._pending[:] = new_pending
        return now + shift
