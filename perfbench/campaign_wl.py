"""Workloads ``fig3-n500`` and ``fig3-n50``: the paper's Fig. 3 campaign.

Each timed unit is one ``run_schedulability_campaign(N, utilization_grid(N))``
into a fresh checkpointed run directory, with a fresh campaign seed, so
the analysis cache only ever misses.  No simulator kernel runs here:
``slots_per_s`` is a documented stand-in (tasks analysed per second).

* ``fig3-n500`` — serial (``workers=1``), 5 sets per point in 5 one-set
  shards (so shard latency is per-set latency): per-set analysis is
  heavy and EDF-FF packing dominates.
* ``fig3-n50`` — the warm pool with ``workers=2`` and ``replicas=5``
  (100 small checkpointed shards per campaign): per-set analysis is
  cheap, so generation, cache keying, pool IPC and checkpoint writes
  carry the time.  The pool is spawned and warmed by one full campaign
  during set-up, because a cold pool's first campaign runs about 2x slower.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import common
import oracle
import probes

PROFILES: Dict[str, Dict[str, int]] = {
    "fig3-n500": {"n": 500, "sets_per_point": 5, "workers": 1,
                  "replicas": 5, "traced_campaigns": 2},
    "fig3-n50": {"n": 50, "sets_per_point": 50, "workers": 2,
                 "replicas": 5, "traced_campaigns": 6},
}

#: Sets per campaign checked against the oracle.
ORACLE_SETS = 2


def campaign_seed(run_seed: int, k: int) -> int:
    """Seed of the ``k``-th campaign of a run; runs never share one."""
    return run_seed * 100_003 + k + 1


class Context:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.profile = PROFILES[name]
        self.n = self.profile["n"]
        self.workers = self.profile["workers"]
        self.warm_count = 0


def _campaign(ctx: Context, seed: int, run_dir: Path) -> None:
    from repro.analysis.experiments import utilization_grid
    from repro.campaign.sched import run_schedulability_campaign

    p = ctx.profile
    run_schedulability_campaign(
        ctx.n, utilization_grid(ctx.n), sets_per_point=p["sets_per_point"],
        seed=seed, workers=p["workers"], replicas=p["replicas"],
        run_dir=str(run_dir))


def _warm(ctx: Context) -> None:
    """Fill lazy state before timing: the pool (spawned and warmed by a
    full campaign) or, serially, one one-set campaign."""
    ctx.warm_count += 1
    warm_seed = 2**40 + ctx.seed * 1000 + ctx.warm_count  # never timed
    if ctx.workers > 1:
        _campaign(ctx, warm_seed, common.fresh_dir("warm"))
    else:
        from repro.campaign.sched import run_schedulability_campaign
        run_schedulability_campaign(ctx.n, [ctx.n / 30], sets_per_point=1,
                                    seed=warm_seed,
                                    run_dir=str(common.fresh_dir("warm")))


def setup(name: str, seed: int) -> Context:
    import repro.campaign.sched  # noqa: F401  (the measured import chain)

    ctx = Context(name, seed)
    _warm(ctx)
    return ctx


def teardown(ctx: Context) -> None:
    from repro.campaign.pool import shutdown_worker_pool

    shutdown_worker_pool()


# -- checks ---------------------------------------------------------------------

def _shard_sets(ctx: Context, shard: Any, count: int) -> List[Any]:
    from repro.workload.generator import TaskSetGenerator

    gen = TaskSetGenerator(shard.seed)
    return [gen.generate(shard.n_tasks, shard.utilization)
            for _ in range(count)]


def _sampled(ctx: Context, seed: int) -> List[Tuple[Any, int]]:
    """Seed-chosen (shard, set index) pairs a campaign is checked on."""
    from repro.analysis.experiments import utilization_grid
    from repro.campaign.spec import CampaignGrid, plan_shards

    p = ctx.profile
    grid = CampaignGrid(n_tasks=ctx.n,
                        utilizations=tuple(utilization_grid(ctx.n)),
                        sets_per_point=p["sets_per_point"], seed=seed,
                        replicas=p["replicas"])
    shards = plan_shards(grid)
    picks = []
    for j in range(ORACLE_SETS):
        shard = shards[(seed * 7 + j * 13) % len(shards)]
        picks.append((shard, (seed + j) % shard.sets))
    return picks


def _point_tuple(pt: Any) -> Tuple:
    return (pt.utilization, pt.m_pd2, pt.inflated_u_pd2,
            pt.pd2_iterations_max, pt.m_ff, pt.inflated_u_edf)


def _check_oracle(ctx: Context, seed: int, run_dir: Path
                  ) -> Tuple[bool, str]:
    """Sampled sets of one campaign against the oracle."""
    from repro.campaign.checkpoint import CheckpointStore

    store = CheckpointStore(run_dir)
    for shard, idx in _sampled(ctx, seed):
        specs = _shard_sets(ctx, shard, idx + 1)[idx]
        want = oracle.verdict(oracle.as_tasks(specs))
        got = _point_tuple(store.read_shard(shard.shard_id)[idx])
        if tuple(want) != got:
            return False, (f"{ctx.name} seed {seed} {shard.shard_id}[{idx}]:"
                           f" program {got} != oracle {tuple(want)}")
    return True, ""


# -- untraced -------------------------------------------------------------------

def measure(ctx: Context, seconds: float, probe: common.HostProbe
            ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """Campaigns, each followed by its oracle check, until ``seconds``
    have passed."""
    from repro.campaign.checkpoint import CheckpointStore

    out = common.Outcome()
    #: (seed, run dir, campaign seconds)
    units: List[Tuple[int, Path, float]] = []
    failed_runs: Dict[int, str] = {}
    loop_start = time.perf_counter()
    k = 0
    while True:
        seed = campaign_seed(ctx.seed, k)
        run_dir = common.fresh_dir(f"c{k:04d}")
        k += 1
        start = time.perf_counter()
        try:
            _campaign(ctx, seed, run_dir)
        except Exception as exc:  # noqa: BLE001 — counted, reported
            failed_runs[seed] = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if seed not in failed_runs:
            ok, why = _check_oracle(ctx, seed, run_dir)
            if not ok:
                failed_runs[seed] = why
        units.append((seed, run_dir, elapsed))
        probe.between_units()
        if time.perf_counter() - loop_start >= seconds:
            break
    rss = common.peak_rss_mb()

    good = [u for u in units if u[0] not in failed_runs]
    latencies: List[float] = []
    for _, run_dir, _ in good:
        store = CheckpointStore(run_dir)
        latencies.extend(store.read_shard_meta(sid)["elapsed_seconds"]
                         for sid in sorted(store.completed_shards()))
    sets = len(good) * 20 * ctx.profile["sets_per_point"]
    wall = sum(u[2] for u in units)

    # -- checks (untimed) --
    for seed, run_dir, _ in units:
        ok = seed not in failed_runs and (run_dir / "result.json").is_file()
        out.check(ok, failed_runs.get(seed, f"seed {seed}: no result.json"))
    out.check(*_byte_identical(ctx, units[0][0], units[0][1]))
    teardown(ctx)

    metrics = {
        "sets_per_s": sets / wall,
        # Stand-in: no simulator runs in a campaign.
        "slots_per_s": sets * ctx.n / wall,
        "req_per_s": len(latencies) / wall,
        "latency_p50_ms": common.ms(common.percentile(latencies, 50)),
        "latency_p99_ms": common.ms(common.percentile(latencies, 99)),
        "peak_rss_mb": rss,
        "ok_frac": out.ok_frac,
    }
    info = {"campaigns": len(units), "sets": sets,
            "latency_samples": len(latencies), "latency_unit": "shard",
            "slots_per_s_unit": "task analysed (stand-in)",
            "campaign_s": [round(u[2], 4) for u in units]}
    return metrics, out, info


def _byte_identical(ctx: Context, seed: int, run_dir: Path
                    ) -> Tuple[bool, str]:
    """Run ``seed``'s campaign again on emptied caches (pool workers
    replaced), so every set is analysed a second time, and compare."""
    from repro.analysis.schedulability import ANALYSIS_CACHE

    _fresh_caches(ctx)
    hits = ANALYSIS_CACHE.hits
    again = common.fresh_dir("again")
    try:
        _campaign(ctx, seed, again)
    except Exception as exc:  # noqa: BLE001
        return False, f"rerun of seed {seed} failed: {exc}"
    if ANALYSIS_CACHE.hits != hits:
        return False, (f"{ctx.name} seed {seed}: the rerun hit the analysis "
                       f"cache, so it did not recompute every set")
    first = (run_dir / "result.json").read_bytes()
    second = (again / "result.json").read_bytes()
    return first == second, (f"{ctx.name} seed {seed}: result.json differs "
                             f"between two passes")


# -- traced ---------------------------------------------------------------------

def _fresh_caches(ctx: Context) -> None:
    """Empty analysis caches everywhere, so every pass computes the same
    work: the parent's is cleared, pool workers are replaced (and then
    warmed by a campaign on seeds no pass uses)."""
    from repro.analysis.schedulability import ANALYSIS_CACHE
    from repro.campaign.pool import shutdown_worker_pool

    ANALYSIS_CACHE.clear()
    if ctx.workers > 1:
        shutdown_worker_pool()
        _warm(ctx)
        ANALYSIS_CACHE.clear()


def _pass(ctx: Context, seeds: List[int], tag: str,
          trace: "probes.CampaignTrace | None") -> Tuple[float, Dict]:
    _fresh_caches(ctx)
    waits: List[float] = []
    ipcs: List[float] = []
    busy = 0.0
    if trace is not None:
        trace.reset()
    wall = 0.0
    for k, seed in enumerate(seeds):
        run_dir = common.fresh_dir(f"{tag}{k}")
        start = time.perf_counter()
        _campaign(ctx, seed, run_dir)
        wall += time.perf_counter() - start
        if trace is not None:
            for shard in trace.shards:
                busy += shard["end"] - shard["start"]
                if shard["id"] in trace.submitted:
                    waits.append(shard["start"] - trace.submitted[shard["id"]])
                    ipcs.append(trace.done[shard["id"]] - shard["end"])
            trace.shards.clear()
            trace.submitted.clear()
            trace.done.clear()
    return wall, {"waits": waits, "ipcs": ipcs, "busy": busy}


def traced(ctx: Context, seconds: float
           ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """One untraced and two traced passes over the same campaign seeds;
    counts of the traced passes must agree exactly."""
    out = common.Outcome()
    seeds = [campaign_seed(ctx.seed, k)
             for k in range(ctx.profile["traced_campaigns"])]
    wall_plain, _ = _pass(ctx, seeds, "a", None)

    patches = probes.Patches()
    trace = probes.CampaignTrace()
    probes.install_analysis(probes.WORKER, patches)
    trace.install(patches)
    try:
        passes = []
        for tag in ("b", "c"):
            wall, stamps = _pass(ctx, seeds, tag, trace)
            # Copies: the next pass's warm-up runs before its reset.
            workers, parent = probes.Tracer(), probes.Tracer()
            workers.merge(trace.workers.snapshot())
            parent.merge(trace.parent.snapshot())
            passes.append((wall, stamps, workers, parent,
                           trace.cache_hits, trace.cache_lookups))
    finally:
        patches.undo()
        teardown(ctx)

    layered = [_layer_metrics(ctx, wall_plain, len(seeds), *p)
               for p in passes]
    metrics, counts = layered[0]
    for key, value in counts.items():
        again = layered[1][1][key]
        out.check(value == again, f"{key} differs between two traced "
                                  f"passes: {value} != {again}")
    return metrics, out, {"traced_campaigns": len(seeds),
                          "untraced_wall_s": wall_plain,
                          "traced_wall_s": passes[0][0]}


def _layer_metrics(ctx: Context, wall_plain: float, campaigns: int,
                   wall: float, stamps: Dict, workers: probes.Tracer,
                   parent: probes.Tracer, hits: int, lookups: int
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
    sets = workers.calls["analysis.evaluate"]
    n_shards = campaigns * 20 * ctx.profile["replicas"]
    per_set = lambda seconds: common.ms(common.per(seconds, sets))  # noqa: E731
    # Lanes are the processes evaluating shards.  A serial campaign's
    # lane also writes checkpoints and assembles rows; with a pool those
    # run in the parent, beside the lanes, and are reported on their own.
    stage = sum(workers.self_time(s) for s in probes.ANALYSIS_SPANS)
    if ctx.workers == 1:
        stage += parent.self_time("campaign.checkpoint") + \
            parent.self_time("campaign.assemble")
    counts = {
        "overheads.inflate_calls": workers.calls["overheads.inflate"],
        "overheads.eq3_iterations": workers.counts["eq3_iterations"],
        "partition.ff_probes": workers.counts["ff_probes"],
        "partition.bins": workers.counts["bins"],
        "analysis.cache_key_calls": workers.calls["analysis.cache_key"],
    }
    metrics = common.zero_layer_metrics()
    metrics.update({
        "workload.generate_ms": per_set(workers.total["workload.generate"]),
        "overheads.inflate_ms": per_set(workers.total["overheads.inflate"]),
        "overheads.inflate_calls": common.per(
            counts["overheads.inflate_calls"], sets),
        "overheads.eq3_iterations": common.per(
            counts["overheads.eq3_iterations"], sets),
        "analysis.pd2_search_self_ms": per_set(
            workers.self_time("analysis.pd2_search")),
        "analysis.cache_key_ms": per_set(workers.total["analysis.cache_key"]),
        "analysis.cache_key_calls": common.per(
            counts["analysis.cache_key_calls"], sets),
        "analysis.cache_hit_ratio": common.per(hits, lookups),
        "partition.edf_ff_ms": per_set(workers.total["partition.edf_ff"]),
        "partition.ff_probes": common.per(counts["partition.ff_probes"], sets),
        "partition.bins": common.per(counts["partition.bins"],
                                     workers.counts["packings"]),
        "partition.load_den_bits": workers.counts["load_den_bits_max"],
        "campaign.checkpoint_ms": common.ms(common.per(
            parent.total["campaign.checkpoint"], n_shards)),
        "campaign.ipc_ms": common.ms(common.per(sum(stamps["ipcs"]),
                                                len(stamps["ipcs"]))),
        "campaign.dispatch_wait_ms": common.ms(common.per(
            sum(stamps["waits"]), len(stamps["waits"]))),
        "campaign.pool_busy_frac": stamps["busy"] / (wall * ctx.workers),
        "campaign.assemble_ms": common.ms(common.per(
            parent.total["campaign.assemble"], campaigns)),
        "campaign.retries": parent.counts["retries"],
        "trace.overhead_frac": wall / wall_plain - 1.0,
        "trace.stage_coverage": stage / (wall * ctx.workers),
    })
    return metrics, counts
