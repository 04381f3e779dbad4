"""Performance regression — the three-tier PD² kernel stack vs. itself.

Four machine-checked claims, written to
``benchmarks/out/BENCH_scaling.json`` (machine-readable, alongside the
human ``scaling.txt``):

* **Simulator throughput, per kernel**: slots/second of
  ``simulate_pfair`` through each tier — the reference heap simulator,
  the packed-key fast path, and the struct-of-arrays vector kernel —
  for N in {16, 64, 256} tasks on M=4, and, always, that all three
  produce identical ``(slot, processor, task)`` allocations and
  identical stats (``decisions_identical`` per grid point).
* **Campaign wall-clock**: the small Fig. 3 campaign (N=50, 10 grid
  points, 25 sets/point — the first loop of
  ``bench_fig3_min_processors.py``) serial vs. through the warm worker
  pool, with byte-identical rows, plus the recorded pre-change *seed*
  baseline for the headline speedup-vs-seed number.
* **EDF-FF packing** (``edf_ff`` section): the overhead-aware first fit
  through the fixed-point spare-capacity screen vs. the exact
  cross-multiplied scan it replaced, at N in {50, 500} — ms/set for
  both, with identical packings asserted (hard, in every mode).
* **Distributed dispatch** (``distrib`` section): the same campaign
  through ``repro.distrib`` against 1 vs. 2 localhost worker *nodes*
  (subprocess ``repro worker --serve``, 2 pool jobs each) vs. the local
  pool — measuring the wire/lease overhead and the scale-out headroom,
  with ``result.json`` byte-identical across all of them.

The JSON is written with *merge* semantics: each test rewrites only its
own section, so rerunning the throughput bench preserves the existing
``campaign``/``distrib`` records and vice versa.  ``benchmarks/out/`` is
gitignored: the JSON is a local record, not a tracked ledger.

Two reduced modes for CI:

* ``--quick`` (the perf-smoke job): one timing rep per kernel and grid
  point, the full three-way decision-identity gate (hard), the EDF-FF
  packing-identity gate (hard), and *soft* throughput floors — a
  ``::warning`` annotation if the vector kernel lands under 5x the
  reference anywhere, or the screened EDF-FF under 2x the exact scan at
  N=500, because shared runners are too noisy to fail on timing.
  Writes ``scaling.txt`` and ``edf_ff.txt`` (the uploaded artifacts)
  but leaves ``BENCH_scaling.json`` untouched.
* ``REPRO_PERF_SMOKE=1`` (legacy): equality assertions only, no timing
  at all.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest
from conftest import OUT_DIR, full_scale, write_report

from repro.analysis.experiments import utilization_grid
from repro.analysis.report import format_table
from repro.analysis.schedulability import ANALYSIS_CACHE
from repro.campaign import run_schedulability_campaign, shutdown_worker_pool
from repro.sim.cache import HYPERPERIOD_CACHE
from repro.sim.quantum import simulate_pfair
from repro.workload.generator import TaskSetGenerator, specs_to_pfair_tasks

SLOTS = 20_000 if full_scale() else 4_000
NS = [16, 64, 256]
M = 4
CAMPAIGN = dict(n_tasks=50, points=10, sets_per_point=25, seed=50)
REPS = 3

#: Wall-clock of the CAMPAIGN configuration at the growth seed
#: (commit a480c7b^..a480c3c tree, before the fast path existed), measured
#: with this file's protocol — best of interleaved fresh-process runs —
#: on the host that produced the first BENCH_scaling.json record.  Recorded
#: as a constant so the speedup-vs-seed headline survives once the seed
#: code paths are gone; re-measure on the same host when comparing.
SEED_BASELINE_SECONDS = 0.691
SEED_BASELINE_COMMIT = "a480c3c"

_SMOKE = os.environ.get("REPRO_PERF_SMOKE", "") not in ("", "0")


def _make_tasks(n_tasks: int):
    gen = TaskSetGenerator(1, quantum=1, min_period=50, max_period=5000)
    specs = gen.generate(n_tasks, 0.85 * M)
    return specs_to_pfair_tasks(specs)


def _sim_snapshot(result):
    # Task ids are drawn from a process-global counter, so two builds of
    # the same spec list get different ids; compare by list position.
    pos = {t.task_id: i for i, t in enumerate(result.tasks)}
    allocs = ([(a[0], a[1], pos[a[2].task_id], a[3])
               for a in result.trace.allocations()]
              if result.trace is not None else None)
    s = result.stats
    return (allocs, s.slots, s.idle_quanta, s.busy_quanta,
            sorted((pos[tid], ts.quanta, ts.preemptions, ts.migrations)
                   for tid, ts in s.per_task.items()),
            sorted((pos[m.task.task_id], m.subtask_index, m.deadline,
                    m.completed_at) for m in s.misses))


#: ``simulate_pfair`` keyword sets selecting each kernel tier.
KERNELS = {
    "reference": dict(fastpath=False),
    "fastpath": dict(fastpath=True, vector=False),
    "vector": dict(vector=True),
}


def _assert_sim_decisions_identical(n_tasks: int, slots: int) -> None:
    snaps = {}
    for name, kw in KERNELS.items():
        HYPERPERIOD_CACHE.clear()
        snaps[name] = _sim_snapshot(
            simulate_pfair(_make_tasks(n_tasks), M, slots, trace=True, **kw))
    assert snaps["reference"] == snaps["fastpath"], (
        f"fast path diverged from the reference at N={n_tasks}")
    assert snaps["reference"] == snaps["vector"], (
        f"vector kernel diverged from the reference at N={n_tasks}")


def _sim_rate(n_tasks: int, kernel: str, slots: int, reps: int = REPS
              ) -> float:
    best = float("inf")
    for _ in range(reps):
        tasks = _make_tasks(n_tasks)
        HYPERPERIOD_CACHE.clear()
        t0 = time.perf_counter()
        simulate_pfair(tasks, M, slots, **KERNELS[kernel])
        best = min(best, time.perf_counter() - t0)
    return slots / best


def _annotate(capsys, message: str) -> None:
    """Print a CI annotation past pytest's output capture: a line
    printed inside a passing test is otherwise swallowed, and the runner
    never sees it."""
    with capsys.disabled():
        print(message)


def _merge_json(section: str, value) -> str:
    """Rewrite one top-level section of BENCH_scaling.json, preserving
    the rest (campaign, distrib, ...) so benches can rerun independently."""
    os.makedirs(OUT_DIR, exist_ok=True)
    json_path = os.path.join(OUT_DIR, "BENCH_scaling.json")
    payload = {}
    if os.path.exists(json_path):
        with open(json_path) as fh:
            payload = json.load(fh)
    payload.update({
        "schema": 2,
        "generated_by": "benchmarks/bench_scaling.py",
        "full_scale": full_scale(),
        section: value,
    })
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return json_path


def _row_snapshot(rows):
    return [(r.utilization, r.m_pd2.mean, r.m_ff.mean, r.loss_pfair.mean,
             r.loss_edf.mean, r.loss_ff.mean, r.infeasible_pd2,
             r.infeasible_ff) for r in rows]


def _timed_campaign(workers: int = 1):
    """Best-of-REPS cold wall-clock (caches cleared per rep) and rows."""
    if workers > 1:  # pay pool spawn + warm-up outside the clock
        run_schedulability_campaign(
            CAMPAIGN["n_tasks"], [CAMPAIGN["n_tasks"] / 10.0],
            sets_per_point=2, seed=0, workers=workers)
    reps, rows = [], None
    for _ in range(REPS):
        # Clears this process's cache; a warm pool's workers keep
        # theirs — exactly what repeat campaign invocations see in
        # production, and visible in the per-rep times below.
        ANALYSIS_CACHE.clear()
        t0 = time.perf_counter()
        rows = run_schedulability_campaign(
            CAMPAIGN["n_tasks"],
            utilization_grid(CAMPAIGN["n_tasks"], points=CAMPAIGN["points"]),
            sets_per_point=CAMPAIGN["sets_per_point"],
            seed=CAMPAIGN["seed"], workers=workers)
        reps.append(time.perf_counter() - t0)
    return reps, _row_snapshot(rows)


def test_fastpath_decision_equality_smallest():
    """The CI perf-smoke contract: correctness only, no timing.

    The three kernels must agree on every decision, and campaign rows
    served from :data:`ANALYSIS_CACHE` must equal freshly computed ones.
    """
    _assert_sim_decisions_identical(NS[0], min(SLOTS, 2000))
    points, sets = 3, 5

    def rows():
        return _row_snapshot(run_schedulability_campaign(
            16, utilization_grid(16, points=points), sets_per_point=sets,
            seed=16))

    ANALYSIS_CACHE.clear()
    cold = rows()
    hits_before = ANALYSIS_CACHE.hits
    cached = rows()
    assert cold == cached, "campaign rows differ when served from the cache"
    # Every set of the second run is a PD² hit and an EDF-FF hit.
    assert ANALYSIS_CACHE.hits - hits_before == 2 * points * sets


@pytest.mark.skipif(_SMOKE, reason="perf smoke runs equality checks only")
def test_kernel_throughput_and_campaign(benchmark, quick, capsys):
    slots = min(SLOTS, 4_000) if quick else SLOTS
    reps = 1 if quick else REPS
    benchmark.pedantic(_sim_rate, args=(NS[0], "vector", min(slots, 2000)),
                       kwargs={"reps": 1}, rounds=1, iterations=1)

    sim_points = []
    for n in NS:
        # Hard gate: all three kernels, identical decisions — quick mode
        # keeps this at full strength.
        _assert_sim_decisions_identical(n, min(slots, 2000))
        rates = {k: _sim_rate(n, k, slots, reps) for k in KERNELS}
        sim_points.append({
            "n_tasks": n,
            "processors": M,
            "slots": slots,
            "slots_per_sec_reference": round(rates["reference"], 1),
            "slots_per_sec_fastpath": round(rates["fastpath"], 1),
            "slots_per_sec_vector": round(rates["vector"], 1),
            "speedup_fastpath": round(
                rates["fastpath"] / rates["reference"], 2),
            "speedup_vector": round(
                rates["vector"] / rates["reference"], 2),
            "decisions_identical": True,
        })

    table = format_table(
        ["N tasks", "ref kslots/s", "fast kslots/s", "vec kslots/s",
         "fast x", "vec x"],
        [[p["n_tasks"], round(p["slots_per_sec_reference"] / 1000, 1),
          round(p["slots_per_sec_fastpath"] / 1000, 1),
          round(p["slots_per_sec_vector"] / 1000, 1),
          p["speedup_fastpath"], p["speedup_vector"]]
         for p in sim_points],
        title=f"PD² simulator throughput over {slots} slots, M={M} "
              "(reference / fast path / vector, identical decisions)")

    # Soft throughput floor: the vector kernel targets >= 5x the
    # reference on every grid point (>= 10x on at least one, on a quiet
    # host).  Timing on shared runners is advisory — annotate, never
    # fail.
    floor = min(p["speedup_vector"] for p in sim_points)
    if floor < 5.0:
        _annotate(capsys,
                  f"::warning title=vector throughput floor::vector kernel "
                  f"speedup {floor:.2f}x < 5x target at "
                  f"N={min(sim_points, key=lambda p: p['speedup_vector'])['n_tasks']} "
                  "(noisy runner, or a real regression — compare "
                  "benchmarks/out/BENCH_scaling.json)")

    if quick:
        # CI artifact only: no campaign timing, no JSON rewrite (the
        # JSON records full-scale numbers from a quiet host).
        write_report("scaling.txt", table +
                     "\n\n[--quick mode: single rep, campaign timing "
                     "skipped; BENCH_scaling.json untouched]")
        return

    serial_reps, rows_serial = _timed_campaign()
    warm_reps, rows_warm = _timed_campaign(workers=2)
    shutdown_worker_pool()
    assert rows_serial == rows_warm, (
        "campaign rows must be byte-identical serial and pooled")
    t_serial, t_warm = min(serial_reps), min(warm_reps)
    t_best = min(t_serial, t_warm)

    campaign = {
        "config": CAMPAIGN,
        "serial_seconds": round(t_serial, 3),
        "serial_rep_seconds": [round(t, 3) for t in serial_reps],
        "warm_workers_seconds": round(t_warm, 3),
        "warm_workers_rep_seconds": [round(t, 3) for t in warm_reps],
        "seed_baseline_seconds": SEED_BASELINE_SECONDS,
        "seed_baseline_commit": SEED_BASELINE_COMMIT,
        "speedup_vs_seed": round(SEED_BASELINE_SECONDS / t_best, 2),
        "rows_identical_across_modes": True,
        "note": ("serial reps are cold (caches cleared); warm-worker "
                 "reps after the first reuse the persistent pool's "
                 "analysis caches, the intended behavior of repeated "
                 "campaign invocations"),
        "rows": [{"utilization": round(r[0], 4),
                  "m_pd2_mean": round(r[1], 4),
                  "m_ff_mean": round(r[2], 4)} for r in rows_serial],
    }
    json_path = _merge_json("simulator", sim_points)
    _merge_json("campaign", campaign)

    campaign_lines = (
        f"Fig. 3 campaign (N=50, 10 pts, 25 sets): "
        f"serial {t_serial:.3f}s | warm x2 {t_warm:.3f}s | seed baseline "
        f"{SEED_BASELINE_SECONDS:.3f}s "
        f"({campaign['speedup_vs_seed']}x vs seed)")
    write_report("scaling.txt", table + "\n\n" + campaign_lines +
                 f"\n[machine-readable: {json_path}]")

    # Correctness-style guards only; timing thresholds live in the JSON
    # record, not in assertions (CI runners are too noisy to gate on).
    assert all(p["slots_per_sec_vector"] > 0 for p in sim_points)


# -- EDF-FF packing: the screened first fit vs. the exact scan -------------

#: Sets per Fig. 3 grid point (20 points) in each EDF-FF row.
EDF_FF_SETS_PER_POINT = {50: 2, 500: 1}


def _exact_edf_ff(specs, fixed: int):
    """Overhead-aware EDF first fit on exact loads alone: every probe
    cross-multiplies the bin's full numerator/denominator, every commit
    folds eagerly — the scan the fixed-point screen replaced.  Returns
    ``[(load, member names)]`` per bin, or ``None`` if a task cannot run
    alone."""
    from fractions import Fraction

    bins = []   # [num, den, max cache delay, names]
    for s in sorted(specs, key=lambda s: (-s.period, -s.execution, s.name)):
        p = s.period
        for b in bins:
            num, den = b[0], b[1]
            e = s.execution + fixed + b[2]
            if e <= p and num * p + e * den <= den * p:
                b[0], b[1] = num * p + e * den, den * p
                b[2] = max(b[2], s.cache_delay)
                b[3].append(s.name)
                break
        else:
            if s.execution + fixed > p:
                return None
            bins.append([s.execution + fixed, p, s.cache_delay, [s.name]])
    return [(Fraction(num, den), names) for num, den, _, names in bins]


def _screened_edf_ff(specs, fixed: int):
    from repro.partition.heuristics import PartitionFailure
    from repro.partition.partitioner import edf_ff

    try:
        part = edf_ff(specs, overhead_inflation=fixed).partition
    except PartitionFailure:
        return None
    return [(b.load, [t.name for t in b.tasks]) for b in part.bins]


def _edf_ff_sets(n_tasks: int):
    from repro.overheads.model import OverheadModel

    gen = TaskSetGenerator(n_tasks)
    sets = [gen.generate(n_tasks, u)
            for u in utilization_grid(n_tasks, points=20)
            for _ in range(EDF_FF_SETS_PER_POINT[n_tasks])]
    return sets, OverheadModel().edf_fixed_inflation(n_tasks)


def _ms_per_set(pack, sets, fixed: int, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for specs in sets:
            pack(specs, fixed)
        best = min(best, time.perf_counter() - t0)
    return best / len(sets) * 1e3


def test_edf_ff_screen_identity_and_speed(quick, capsys):
    """EDF-FF through the spare-capacity screen against the exact scan.

    Hard gate (also under REPRO_PERF_SMOKE): identical packings — bins,
    members in order, exact loads — at N in {50, 500} on sets across
    the Fig. 3 grid.  Timing is soft: a ``::warning`` if the screen is
    under 2x the exact scan at N=500, where it carries the campaign.
    The exact scan is a bare loop over lists, without the bin objects
    and ``partition()`` bookkeeping of the program, so at N=50 — about
    ten bins, small denominators — it is the faster one; that row is
    the floor the bookkeeping costs, not a regression.
    """
    rows = []
    for n_tasks in sorted(EDF_FF_SETS_PER_POINT):
        sets, fixed = _edf_ff_sets(n_tasks)
        for specs in sets:
            assert _screened_edf_ff(specs, fixed) == \
                _exact_edf_ff(specs, fixed), \
                f"screened EDF-FF diverged from the exact scan at N={n_tasks}"
        if _SMOKE:
            continue
        reps = 1 if quick else REPS
        exact = _ms_per_set(_exact_edf_ff, sets, fixed, reps)
        screened = _ms_per_set(_screened_edf_ff, sets, fixed, reps)
        rows.append({"n_tasks": n_tasks, "sets": len(sets),
                     "exact_ms_per_set": round(exact, 3),
                     "screened_ms_per_set": round(screened, 3),
                     "speedup": round(exact / screened, 2),
                     "packings_identical": True})
    if _SMOKE:
        return

    table = format_table(
        ["N tasks", "sets", "exact ms/set", "screened ms/set", "x"],
        [[r["n_tasks"], r["sets"], r["exact_ms_per_set"],
          r["screened_ms_per_set"], r["speedup"]] for r in rows],
        title="Overhead-aware EDF-FF packing: spare-capacity screen vs. "
              "exact scan (identical packings)")
    big = rows[-1]
    if big["speedup"] < 2.0:
        _annotate(capsys,
                  f"::warning title=EDF-FF screen floor::screened EDF-FF "
                  f"{big['speedup']:.2f}x < 2x the exact scan at "
                  f"N={big['n_tasks']} (noisy runner, or a real regression)")
    write_report("edf_ff.txt", table + ("\n\n[--quick mode: single rep]"
                                        if quick else ""))
    if not quick:
        _merge_json("edf_ff", rows)


# -- distributed dispatch (docs/DISTRIBUTED.md) ---------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spawn_worker_node(jobs: int) -> "tuple[subprocess.Popen, str, int]":
    """Start a subprocess ``repro worker --serve`` on an ephemeral port
    (its own interpreter and its own process pool — a real node, not a
    thread) and parse the address from its startup banner."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--serve",
         "--port", "0", "-j", str(jobs)],
        env={**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")},
        stderr=subprocess.PIPE, text=True)
    assert proc.stderr is not None
    banner = proc.stderr.readline()
    match = re.search(r"worker node on ([0-9.]+):(\d+)", banner)
    if not match:
        proc.kill()
        raise RuntimeError(f"unexpected worker banner: {banner!r}")
    return proc, match.group(1), int(match.group(2))


def _shutdown_worker_node(proc: subprocess.Popen, host: str,
                          port: int) -> None:
    import socket as socketlib

    from repro.service.protocol import decode_line, encode

    try:
        with socketlib.create_connection((host, port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(encode({"id": 0, "verb": "shutdown"}))
            stream.flush()
            decode_line(stream.readline())
    except OSError:
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()


def _distrib_campaign(tmp_path, name: str, campaign: dict,
                      nodes, local_jobs: int = 0):
    """One distributed (or local-slot) run into a fresh run dir;
    returns (elapsed_seconds, result.json bytes)."""
    from repro.distrib import DistribConfig, run_distributed_campaign

    run_dir = tmp_path / name
    config = DistribConfig(local_jobs=local_jobs,
                           poll_interval_seconds=0.01,
                           status_interval_seconds=60.0)
    t0 = time.perf_counter()
    run_distributed_campaign(
        campaign["n_tasks"],
        utilization_grid(campaign["n_tasks"], points=campaign["points"]),
        sets_per_point=campaign["sets_per_point"], seed=campaign["seed"],
        nodes=nodes, run_dir=str(run_dir), config=config)
    elapsed = time.perf_counter() - t0
    return elapsed, (run_dir / "result.json").read_bytes()


def test_distrib_byte_identity_smallest(tmp_path):
    """The CI contract half of the distrib scenario: a campaign shipped
    over the wire to an in-process worker node checkpoints and assembles
    byte-identically to the pure-local engine.  Runs under
    REPRO_PERF_SMOKE too — equality only, no timing."""
    from repro.distrib import NodeSpec, WorkerServer

    small = dict(n_tasks=16, points=3, sets_per_point=5, seed=16)
    run_schedulability_campaign(
        small["n_tasks"],
        utilization_grid(small["n_tasks"], points=small["points"]),
        sets_per_point=small["sets_per_point"], seed=small["seed"],
        run_dir=str(tmp_path / "local"))
    reference = (tmp_path / "local" / "result.json").read_bytes()
    with WorkerServer(jobs=2) as (host, port):
        _, remote = _distrib_campaign(tmp_path, "remote", small,
                                      [NodeSpec(host, port)])
    shutdown_worker_pool()
    assert remote == reference, \
        "distributed result.json differs from the local engine's"


@pytest.mark.skipif(_SMOKE, reason="perf smoke runs equality checks only")
def test_distrib_scaling(tmp_path, quick):
    """1 vs. 2 localhost worker nodes on the bench campaign, against the
    local warm pool — recorded into BENCH_scaling.json's ``distrib``
    section (merged, so this test can rerun independently)."""
    from repro.distrib import NodeSpec

    if quick:
        pytest.skip("--quick runs kernel throughput + equality only")

    # Local-pool baseline through the same distributed code path
    # (local_jobs only, no wire) and through the plain engine.
    t_local, ref_bytes = _distrib_campaign(tmp_path, "local-slots",
                                           CAMPAIGN, nodes=(),
                                           local_jobs=2)

    scenarios = []
    for n_nodes in (1, 2):
        workers = [_spawn_worker_node(jobs=2) for _ in range(n_nodes)]
        nodes = [NodeSpec(host, port) for _, host, port in workers]
        try:
            # Pay each node's pool spawn/warm-up outside the clock.
            _distrib_campaign(tmp_path, f"warm-{n_nodes}",
                              dict(CAMPAIGN, points=1, sets_per_point=2),
                              nodes)
            best, result = float("inf"), b""
            for rep in range(REPS):
                elapsed, result = _distrib_campaign(
                    tmp_path, f"nodes{n_nodes}-rep{rep}", CAMPAIGN, nodes)
                best = min(best, elapsed)
        finally:
            for proc, host, port in workers:
                _shutdown_worker_node(proc, host, port)
        assert result == ref_bytes, \
            f"{n_nodes}-node result.json diverged from the local run"
        scenarios.append({"nodes": n_nodes, "jobs_per_node": 2,
                          "seconds": round(best, 3)})
    shutdown_worker_pool()

    json_path = _merge_json("distrib", {
        "config": CAMPAIGN,
        "local_pool_2_jobs_seconds": round(t_local, 3),
        "scenarios": scenarios,
        "result_bytes_identical": True,
        "note": ("subprocess worker nodes on localhost: measures the "
                 "wire/lease overhead of repro.distrib, not cluster "
                 "scale-out; nodes share the machine's cores"),
    })
    print(f"\ndistrib: local(2 jobs) {t_local:.3f}s | " +
          " | ".join(f"{s['nodes']}x2 {s['seconds']:.3f}s"
                     for s in scenarios) +
          f"\n[merged into {json_path}]")
