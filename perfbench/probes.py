"""Per-layer tracing from outside the program.

Traced runs replace public entry points of the ``repro`` layers with
timing and counting wrappers (and restore them afterwards); nothing under
``src/`` knows about it.  A span's *self* time is its duration minus the
time of spans it encloses, so self times of nested layers add up to the
wall time they cover.

The campaign pool's workers are forked after the wrappers are installed,
so they inherit them; :func:`traced_evaluate_shard` is the module-level
(picklable) shard worker that ships each shard's span totals back to the
parent on the returned point list.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf_counter = time.perf_counter


class Tracer:
    """Span totals and counters.  Span stacks are per thread; updates to
    the shared totals take a lock, because the service analyses batches
    on an executor thread beside its event loop."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.child: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable,
             after: Optional[Callable[["Tracer", tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` timed as span ``name``; ``after(tracer, args, result)``
        derives counts from a successful call's arguments and result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer.lock:
                    tracer.total[name] += elapsed
                    tracer.child[name] += inner
                    tracer.calls[name] += 1
            if after is not None:
                with tracer.lock:
                    after(tracer, args, out)
            return out

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        """Wall time of a coroutine method (no nesting: other coroutines
        interleave at every ``await``)."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                with tracer.lock:
                    tracer.total[name] += elapsed
                    tracer.calls[name] += 1

        return wrapper

    def self_time(self, name: str) -> float:
        return self.total.get(name, 0.0) - self.child.get(name, 0.0)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"total": dict(self.total), "child": dict(self.child),
                "calls": dict(self.calls), "counts": dict(self.counts)}

    def merge(self, snap: Dict[str, Dict[str, float]]) -> None:
        """Add another tracer's snapshot (``*_max`` counts take the max)."""
        for field in ("total", "child", "calls", "counts"):
            mine = getattr(self, field)
            for key, value in snap.get(field, {}).items():
                if key.endswith("_max"):
                    mine[key] = max(mine[key], value)
                else:
                    mine[key] += value


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str,
                make: Callable[[Any], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- analysis path (campaign workers and the service) --------------------------

#: Spans whose self times make up a shard's or a request's analysis work.
ANALYSIS_SPANS = ("workload.generate", "analysis.cache_key",
                  "overheads.inflate", "analysis.pd2_search",
                  "partition.edf_ff", "analysis.evaluate")


def _count_inflation(tracer: Tracer, args: tuple, out: Any) -> None:
    tracer.counts["eq3_iterations"] += sum(inf.iterations for inf in out)


def _count_packing(tracer: Tracer, args: tuple, out: Any) -> None:
    bins = out.partition.bins
    tracer.counts["bins"] += len(bins)
    tracer.counts["packings"] += 1
    bits = max((b.load_den.bit_length() for b in bins), default=0)
    if bits > tracer.counts["load_den_bits_max"]:
        tracer.counts["load_den_bits_max"] = bits


def install_analysis(tracer: Tracer, patches: Patches) -> None:
    """Spans on the generator, Eq. (3) inflation, the PD² search, cache
    keying and EDF-FF packing, as the analysis layer calls them."""
    from repro.analysis import schedulability as sched_mod
    from repro.campaign import sched as campaign_sched
    from repro.partition.accept import EDFOverheadTest
    from repro.service import state as service_state
    from repro.workload.generator import TaskSetGenerator

    patches.replace(TaskSetGenerator, "generate",
                    lambda f: tracer.span("workload.generate", f))
    for module in (sched_mod, service_state):
        patches.replace(module, "task_set_cache_key",
                        lambda f: tracer.span("analysis.cache_key", f))
    patches.replace(sched_mod, "pd2_inflate_set",
                    lambda f: tracer.span("overheads.inflate", f,
                                          _count_inflation))
    patches.replace(sched_mod, "_pd2_analysis",
                    lambda f: tracer.span("analysis.pd2_search", f))
    patches.replace(sched_mod, "edf_ff",
                    lambda f: tracer.span("partition.edf_ff", f,
                                          _count_packing))
    patches.replace(campaign_sched, "evaluate_task_set",
                    lambda f: tracer.span("analysis.evaluate", f))

    def count_probes(first_fit: Callable) -> Callable:
        # No span: one call per task, and a timer here would cost more
        # than the scan it measures.  Probes = bins tried, plus the admit
        # on a fresh bin when none fits.
        @functools.wraps(first_fit)
        def wrapper(self: Any, bins: Any, spec: Any) -> Any:
            out = first_fit(self, bins, spec)
            probed = out[0].index + 1 if out is not None else len(bins) + 1
            with tracer.lock:
                tracer.counts["ff_probes"] += probed
            return out
        return wrapper

    patches.replace(EDFOverheadTest, "first_fit", count_probes)


# -- campaign shards ------------------------------------------------------------

class ShardPoints(list):
    """A shard's points plus ``stats``: the worker's span totals and its
    start/end on the shared monotonic clock."""

    stats: Dict[str, Any]


#: The tracer inside whichever process evaluates shards (the parent for
#: serial campaigns, each forked pool worker otherwise).  Module state
#: because pool workers reach it only through the picklable function below.
WORKER = Tracer()
_ORIGINAL_SHARD: List[Callable] = []


def traced_evaluate_shard(args: Any) -> ShardPoints:
    """Shard worker: the original evaluator under a fresh tracer."""
    from repro.analysis.schedulability import ANALYSIS_CACHE

    WORKER.reset()
    hits, misses = ANALYSIS_CACHE.hits, ANALYSIS_CACHE.misses
    start = time.monotonic()
    points = ShardPoints(_ORIGINAL_SHARD[0](args))
    end = time.monotonic()
    points.stats = {"start": start, "end": end, "trace": WORKER.snapshot(),
                    "cache_hits": ANALYSIS_CACHE.hits - hits,
                    "cache_lookups": (ANALYSIS_CACHE.hits - hits
                                      + ANALYSIS_CACHE.misses - misses)}
    return points


class CampaignTrace:
    """Parent-side view of a traced campaign: shard stats as they are
    checkpointed, checkpoint/assemble spans, pool submit/done stamps."""

    def __init__(self) -> None:
        self.parent = Tracer()
        self.reset()

    def reset(self) -> None:
        self.parent.reset()
        self.workers = Tracer()
        self.shards: List[Dict[str, Any]] = []
        self.submitted: Dict[str, float] = {}
        self.done: Dict[str, float] = {}
        self.cache_hits = 0
        self.cache_lookups = 0

    def install(self, patches: Patches) -> None:
        from repro.campaign import runner as runner_mod
        from repro.campaign import sched as campaign_sched
        from repro.campaign.checkpoint import CheckpointStore
        from repro.campaign.progress import ProgressTracker

        trace = self
        tracer = self.parent

        def collect(tr: Tracer, args: tuple, out: Any) -> None:
            points = args[2]
            stats = getattr(points, "stats", None)
            if stats is not None:
                trace.shards.append({"id": args[1].shard_id,
                                     "start": stats["start"],
                                     "end": stats["end"]})
                trace.workers.merge(stats["trace"])
                trace.cache_hits += stats["cache_hits"]
                trace.cache_lookups += stats["cache_lookups"]

        patches.replace(CheckpointStore, "write_shard",
                        lambda f: tracer.span("campaign.checkpoint", f,
                                              collect))
        patches.replace(CheckpointStore, "write_status",
                        lambda f: tracer.span("campaign.checkpoint", f))
        patches.replace(campaign_sched, "assemble_rows",
                        lambda f: tracer.span("campaign.assemble", f))
        patches.replace(campaign_sched, "save_campaign",
                        lambda f: tracer.span("campaign.assemble", f))

        def count_retry(f: Callable) -> Callable:
            def wrapper(self_: Any, reason: str) -> Any:
                with tracer.lock:
                    tracer.counts["retries"] += 1
                return f(self_, reason)
            return wrapper

        patches.replace(ProgressTracker, "record_retry", count_retry)

        def timed_pool(get_pool: Callable) -> Callable:
            def wrapper(workers: int) -> Any:
                return _StampedPool(get_pool(workers), trace)
            return wrapper

        patches.replace(runner_mod, "worker_pool", timed_pool)
        _ORIGINAL_SHARD[:] = [campaign_sched.evaluate_shard]
        patches.replace(campaign_sched, "evaluate_shard",
                        lambda f: traced_evaluate_shard)


class _StampedPool:
    """Executor proxy stamping each shard's submit and result arrival."""

    def __init__(self, pool: Any, trace: CampaignTrace) -> None:
        self._pool = pool
        self._trace = trace

    def submit(self, fn: Callable, job: Any) -> Any:
        key = job[0].shard_id
        trace = self._trace
        trace.submitted[key] = time.monotonic()
        future = self._pool.submit(fn, job)
        future.add_done_callback(
            lambda _f: trace.done.__setitem__(key, time.monotonic()))
        return future

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pool, name)


# -- simulator tiers --------------------------------------------------------------

def install_sim(tracer: Tracer, patches: Patches) -> None:
    """Spans on each kernel tier's ``run`` (slots by tier) and counts of
    slots the hyperperiod memo tiles instead of simulating."""
    from repro.core.quantum import QuantumSimulator
    from repro.sim.cache import HyperperiodMemo
    from repro.sim.fastpath import FastPD2Simulator
    from repro.sim.vector import VectorPD2Simulator

    for cls, tier in ((VectorPD2Simulator, "vector"),
                      (FastPD2Simulator, "fastpath"),
                      (QuantumSimulator, "reference")):
        def count_slots(tr: Tracer, args: tuple, out: Any,
                        tier: str = tier) -> None:
            tr.counts["slots." + tier] += args[1]
        patches.replace(cls, "run",
                        lambda f, tier=tier, count=count_slots:
                        tracer.span("sim." + tier, f, count))

    def count_memo(tr: Tracer, args: tuple, out: Any) -> None:
        tr.counts["slots.memo"] += out - args[1]

    for cls in (VectorPD2Simulator, HyperperiodMemo):
        patches.replace(cls, "_apply",
                        lambda f: tracer.span("sim.memo", f, count_memo))


# -- service (inside the server process) ------------------------------------------

def install_service(tracer: Tracer, patches: Patches,
                    states: List[Any]) -> None:
    """Spans on the service verbs' handlers; the live ``ServiceState`` is
    appended to ``states`` so its LRU statistics can be read at exit."""
    from repro.service.server import AdmissionServer
    from repro.service.state import ServiceState

    for attr, name in (("analyze", "service.analyze"),
                       ("admit", "service.admit"),
                       ("advance", "service.advance"),
                       ("analyze_batch", "service.batch")):
        patches.replace(ServiceState, attr,
                        lambda f, name=name: tracer.span(name, f))

    def capture(init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            init(self, *args, **kwargs)
            states.append(self)
        return wrapper

    patches.replace(ServiceState, "__init__", capture)
    patches.replace(AdmissionServer, "handle",
                    lambda f: tracer.async_span("service.handle", f))
