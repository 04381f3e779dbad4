"""Workload ``sim-pd2``: ``simulate_pfair`` under its default dispatch.

No campaign or service path calls a simulator kernel, so this workload is
where the ``sim`` layer is measured.  One round holds three kinds of set,
sized so the vector-tier sets and the fallthrough set each take about
half of the round:

* paper-scale generator sets, M=4, U=0.85·M, periods 50–5000 quanta,
  60 each at N ∈ {16, 64, 256}, 20 000 slots: the vector tier, with
  hyperperiods far too long for the hyperperiod memo (many calls, so the
  per-call latency percentiles have samples to stand on);
* one short-hyperperiod set (8 tasks, periods 2–15, U≈3.4), 200 000
  slots, where the memo tiles repeating cycles instead of simulating them;
* one wide long-horizon set (N=128, M=16, 300 000 slots) above the vector
  kernel's per-chunk subtask gate, so dispatch falls through to the
  fastpath tier.

Checks: no deadline misses (every set has U ≤ M and PD² is optimal);
the schedule each set got matches the reference tier's, decision for
decision, on its first ``PREFIX`` slots, run on the tier dispatch chose;
and the memo-tiled run of the short set ends with the same statistics as
an untiled run.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import common
import probes

VECTOR_N = (16, 64, 256)
VECTOR_SETS = 60
VECTOR_M = 4
VECTOR_HORIZON = 20_000
SHORT_M = 4
SHORT_HORIZON = 200_000
WIDE_N = 128
WIDE_M = 16
WIDE_HORIZON = 300_000
#: Slots per set re-run on the reference tier for the decision check.
PREFIX = 600
#: Latency unit: time per 1000 simulated slots.  Each call counts once per
#: 1000 of its slots, so the percentiles are slot-weighted over calls.
KSLOT = 1000

#: One set of a round: (label, [(execution, period)], processors, horizon).
SimSet = Tuple[str, List[Tuple[int, int]], int, int]


def _tasks(pairs: List[Tuple[int, int]]) -> List[Any]:
    from repro.core.task import PeriodicTask

    return [PeriodicTask(e, p, task_id=i) for i, (e, p) in enumerate(pairs)]


def _draw(seed: int, n: int, m: int, lo: int, hi: int) -> List[Tuple[int, int]]:
    from repro.workload.generator import TaskSetGenerator

    gen = TaskSetGenerator(seed, quantum=1, min_period=lo, max_period=hi)
    return [(s.execution, s.period) for s in gen.generate(n, 0.85 * m)]


def make_round(seed: int) -> List[SimSet]:
    sets: List[SimSet] = []
    for n in VECTOR_N:
        for k in range(VECTOR_SETS):
            pairs = _draw(seed * 1000 + n * 17 + k, n, VECTOR_M, 50, 5000)
            sets.append((f"vector-n{n}", pairs, VECTOR_M, VECTOR_HORIZON))
    sets.append(("short", _draw(seed * 1000 + 1, 8, SHORT_M, 2, 15),
                 SHORT_M, SHORT_HORIZON))
    sets.append(("wide", _draw(seed * 1000 + 2, WIDE_N, WIDE_M, 50, 5000),
                 WIDE_M, WIDE_HORIZON))
    # Whole-quantum executions can push a drawn set's U above its target
    # (most on the short set's 2–15-quantum periods); such a set gets the
    # ceil(U) processors it needs, so PD² must still meet every deadline.
    return [(label, pairs, max(m, math.ceil(sum(Fraction(e, p)
                                                for e, p in pairs))), h)
            for label, pairs, m, h in sets]


class Context:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds: Dict[int, List[SimSet]] = {}

    def round(self, r: int) -> List[SimSet]:
        if r not in self.rounds:
            self.rounds[r] = make_round(self.seed * 101 + r)
        return self.rounds[r]


def setup(name: str, seed: int) -> Context:
    from repro.sim.quantum import simulate_pfair

    ctx = Context(seed)
    ctx.round(0)
    warm = _tasks([(1, 3), (2, 5), (3, 7)])
    simulate_pfair(warm, 2, 500)
    simulate_pfair(warm, 2, 500, vector=False)
    return ctx


def teardown(ctx: Context) -> None:
    pass


def _play(sets: List[SimSet], probe: Optional[common.HostProbe] = None
          ) -> Tuple[List[Tuple[int, Any]], List[float]]:
    """Every set of a round through the default dispatch: per call the
    misses (and the short set's final statistics), and the call time."""
    from repro.sim.cache import HYPERPERIOD_CACHE
    from repro.sim.quantum import simulate_pfair

    HYPERPERIOD_CACHE.clear()
    results = []
    times = []
    for label, pairs, m, horizon in sets:
        tasks = _tasks(pairs)
        start = time.perf_counter()
        result = simulate_pfair(tasks, m, horizon)
        times.append(time.perf_counter() - start)
        # Keep what the checks need, not every call's statistics.
        results.append((result.stats.miss_count,
                        _stats(result) if label == "short" else None))
        del result
        if probe is not None:
            probe.between_units()
    return results, times


# -- checks ---------------------------------------------------------------------

def _tier_flags(pairs: List[Tuple[int, int]], m: int, horizon: int
                ) -> Dict[str, bool]:
    """The explicit flags that select the tier default dispatch chose for
    the full horizon."""
    from repro.sim import fastpath, vector

    tasks = _tasks(pairs)
    if vector.supports(tasks, m, horizon, None, {}):
        return {"vector": True}
    if fastpath.supports(tasks, m, horizon, None, {}):
        return {"vector": False, "fastpath": True}
    return {"fastpath": False}


def _decisions(result: Any) -> List[Tuple[int, int, int, int]]:
    return sorted((a.slot, a.processor, a.task.task_id, a.subtask_index)
                  for a in result.trace.allocations())


def _stats(result: Any) -> Tuple:
    st = result.stats
    return (st.busy_quanta, st.idle_quanta, st.miss_count,
            tuple(sorted((tid, ts.quanta, ts.preemptions, ts.migrations,
                          tuple(sorted(ts.job_preemptions.items())))
                         for tid, ts in st.per_task.items())))


def _check(sets: List[SimSet], results: List[Any],
           out: common.Outcome) -> None:
    from repro.sim.quantum import simulate_pfair

    for (label, pairs, m, horizon), (misses, final) in zip(sets, results):
        flags = _tier_flags(pairs, m, horizon)
        tier = simulate_pfair(_tasks(pairs), m, PREFIX, trace=True, **flags)
        ref = simulate_pfair(_tasks(pairs), m, PREFIX, trace=True,
                             fastpath=False)
        ok = (misses == 0
              and _decisions(tier) == _decisions(ref)
              and _stats(tier) == _stats(ref))
        if ok and final is not None:
            untiled = simulate_pfair(_tasks(pairs), m, horizon,
                                     hyperperiod_memo=False)
            ok = _stats(untiled) == final
        out.check(ok, f"{label} set (flags {flags}): {misses} misses, or "
                      f"decisions or statistics differ from the reference "
                      f"tier")


# -- untraced -------------------------------------------------------------------

def measure(ctx: Context, seconds: float, probe: common.HostProbe
            ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """Whole rounds until ``seconds`` have passed."""
    out = common.Outcome()
    calls: List[float] = []
    #: Time per 1000 slots of each call, repeated once per 1000 of its
    #: slots (the weights, not extra measurements).
    weighted: List[float] = []
    slots = 0
    rounds = 0
    loop_start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - loop_start < seconds:
        sets = ctx.round(rounds)
        results, times = _play(sets, probe)
        calls.extend(times)
        for t, (_, _, _, horizon) in zip(times, sets):
            weighted.extend([t * KSLOT / horizon] * (horizon // KSLOT))
        slots += sum(s[3] for s in sets)
        rounds += 1
        _check(sets, results, out)
    rss = common.peak_rss_mb()
    busy = sum(calls)
    metrics = {
        "sets_per_s": len(calls) / busy,
        "slots_per_s": slots / busy,
        # Stand-in: one call is one request, so this equals sets_per_s.
        "req_per_s": len(calls) / busy,
        # p50 falls in the vector-tier calls; p99 in the one wide call a
        # round (the fastpath tier), so it is a single-call figure.
        "latency_p50_ms": common.ms(common.percentile(weighted, 50)),
        "latency_p99_ms": common.ms(common.percentile(weighted, 99)),
        "peak_rss_mb": rss,
        "ok_frac": out.ok_frac,
    }
    info = {"rounds": rounds, "sets": len(calls), "slots": slots,
            "latency_samples": len(calls),
            "latency_unit": "1000 slots of a simulate_pfair call, "
                            "percentiles weighted by each call's slots",
            "latency_p99_calls": rounds,
            "sim_s": busy}
    return metrics, out, info


# -- traced ---------------------------------------------------------------------

def _forced_rates(ctx: Context) -> Dict[str, float]:
    """Each tier forced through ``simulate_pfair``'s public flags on the
    round's first N=64 paper-scale set, in Mslot/s."""
    from repro.sim.quantum import simulate_pfair

    pairs = next(s[1] for s in ctx.round(0) if s[0] == "vector-n64")
    rates = {}
    for name, horizon, flags in (
            ("sim.vector_mslots_per_s", 40_000, {"vector": True}),
            ("sim.fastpath_mslots_per_s", 10_000,
             {"vector": False, "fastpath": True}),
            ("sim.reference_mslots_per_s", 2_000, {"fastpath": False})):
        tasks = _tasks(pairs)
        start = time.perf_counter()
        simulate_pfair(tasks, VECTOR_M, horizon, **flags)
        rates[name] = horizon / (time.perf_counter() - start) / 1e6
    return rates


def traced(ctx: Context, seconds: float
           ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """Round 0 untraced, then twice traced; the tier and memo slot
    fractions of the traced rounds must agree exactly."""
    out = common.Outcome()
    sets = ctx.round(0)
    total_slots = sum(s[3] for s in sets)
    results, times = _play(sets)
    wall_plain = sum(times)
    _check(sets, results, out)
    rates = _forced_rates(ctx)

    tracer = probes.Tracer()
    patches = probes.Patches()
    probes.install_sim(tracer, patches)
    passes = []
    try:
        for _ in range(2):
            tracer.reset()
            _, times = _play(sets)
            wall = sum(times)
            snap = probes.Tracer()
            snap.merge(tracer.snapshot())
            passes.append((wall, snap))
    finally:
        patches.undo()

    def fractions(t: probes.Tracer) -> Dict[str, float]:
        return {
            "sim.tier_slots_frac.vector": t.counts["slots.vector"]
            / total_slots,
            "sim.tier_slots_frac.fastpath": t.counts["slots.fastpath"]
            / total_slots,
            "sim.memo_slots_frac": t.counts["slots.memo"] / total_slots,
        }

    wall, first = passes[0]
    counts = fractions(first)
    for key, value in counts.items():
        again = fractions(passes[1][1])[key]
        out.check(value == again, f"{key} differs between two traced "
                                  f"passes: {value} != {again}")
    stage = sum(first.self_time(f"sim.{tier}") for tier in
                ("vector", "fastpath", "reference", "memo"))
    metrics = common.zero_layer_metrics()
    metrics.update(rates)
    metrics.update(counts)
    metrics["trace.overhead_frac"] = wall / wall_plain - 1.0
    metrics["trace.stage_coverage"] = stage / wall
    return metrics, out, {"round_slots": total_slots,
                          "untraced_wall_s": wall_plain,
                          "traced_wall_s": wall}
