"""Workload ``service-mix``: the admission service under a closed loop.

``repro serve`` runs in its own process (16 processors); this process
drives it over 2 connections, each sending its next request only after
the previous answer arrived.  Per connection, every request is drawn
from a seeded script:

* 90% ``query`` of one 32–64-task set: 35% of sets come from the
  connection's own hot pool of 24 sets (so they repeat and the service
  LRU can answer them), the rest are fresh;
* 3% ``batch-analyze`` of 4 fresh such sets (``workers=1``);
* 7% writes on the live system: ``leave`` of the oldest admitted pair
  once 4 pairs are live, otherwise ``admit`` of a fresh pair of light
  tasks (60%) or ``advance`` by 20 slots (40%).

These shares are assumptions, not observed traffic: the repository records
no service traffic to draw them from.  They were set so the median request
is a cache miss and the 99th percentile falls inside the batch requests,
so neither percentile sits on the boundary between two kinds of request.
What a cache gains or costs here scales with ``HOT_SHARE``: a claim about
a cache change holds for this share only.  Each run reports the share of
queries its scripts drew from the hot pools (``info.hot_query_frac``).

Admitted pairs weigh at most 0.2 together and at most 8 pairs per
connection are live or departing, far below 16 processors: every
admission succeeds, so the script (and every count a traced pass makes)
depends on the seed alone, never on timing.
"""

from __future__ import annotations

import json
import random
import re
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

import common
import oracle
import probes

PROCESSORS = 16
CONNECTIONS = 2
#: Assumed traffic (see the module docstring): hot pool size, share of
#: queries drawn from it, and the verb shares.
HOT_SETS = 24
HOT_SHARE = 0.35
QUERY_SHARE = 0.90
BATCH_SHARE = 0.03
ADMIT_SHARE_OF_WRITES = 0.6
BATCH_SETS = 4
LIVE_PAIRS = 4
ADVANCE_SLOTS = 20
#: Closed-loop time between host probes.
SEGMENT_S = 1.0
#: Requests per connection in each pass of a traced run.
TRACED_REQUESTS = 800

SERVE = Path(__file__).resolve().parent / "serve.py"


def _wire(tasks: List[oracle.Task]) -> List[Dict[str, Any]]:
    return [{"execution": e, "period": p, "cache_delay": d, "name": nm}
            for e, p, d, nm in tasks]


class Script:
    """One connection's deterministic request stream."""

    def __init__(self, seed: int, conn: int) -> None:
        from repro.workload.generator import TaskSetGenerator

        self.conn = conn
        self.rng = random.Random(seed * 7919 + conn)
        self.gen = TaskSetGenerator(seed * 7919 + conn + 1)
        self.hot = [self._fresh() for _ in range(HOT_SETS)]
        self.live: Deque[List[str]] = deque()
        self.admits = 0
        self.queries = 0
        self.hot_queries = 0

    def _fresh(self) -> List[oracle.Task]:
        n = self.rng.randint(32, 64)
        specs = self.gen.generate(n, self.rng.uniform(n / 30, n / 3))
        return oracle.as_tasks(specs)

    def _pick(self) -> List[oracle.Task]:
        self.queries += 1
        if self.rng.random() < HOT_SHARE:
            self.hot_queries += 1
            return self.rng.choice(self.hot)
        return self._fresh()

    def next(self) -> Tuple[Dict[str, Any], str, Any]:
        """``(payload, kind, what the check needs)``."""
        r = self.rng.random()
        if r < QUERY_SHARE:
            tasks = self._pick()
            return {"verb": "query", "tasks": _wire(tasks)}, "query", tasks
        if r < QUERY_SHARE + BATCH_SHARE:
            sets = [self._fresh() for _ in range(BATCH_SETS)]
            return ({"verb": "batch-analyze", "workers": 1,
                     "task_sets": [_wire(t) for t in sets]}, "batch", sets)
        if len(self.live) >= LIVE_PAIRS:
            names = self.live.popleft()
            return {"verb": "leave", "names": names}, "leave", names
        if self.rng.random() < ADMIT_SHARE_OF_WRITES:
            k = self.admits
            self.admits += 1
            tasks = [(self.rng.randint(200, 1000),
                      1000 * self.rng.randint(10, 100),
                      self.rng.randint(0, 100), f"c{self.conn}a{k}t{j}")
                     for j in range(2)]
            self.live.append([t[3] for t in tasks])
            return {"verb": "admit", "tasks": _wire(tasks)}, "admit", tasks
        return {"verb": "advance", "slots": ADVANCE_SLOTS}, "advance", None


class Server:
    """A ``repro serve`` process and the benchmark's connections to it."""

    def __init__(self, trace_out: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(SERVE)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0",
                "--processors", str(PROCESSORS)]
        self.trace_out = trace_out
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(cmd, cwd=str(common.ROOT),
                                     env=common.subprocess_env(),
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.conns: List[Tuple[socket.socket, Any]] = []
        self.stderr: List[str] = []
        address = self._await_address()
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(address, timeout=60)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns.append((sock, sock.makefile("rwb")))
        for conn in range(CONNECTIONS):
            if not self.request(conn, {"verb": "ping"}).get("ok"):
                raise common.BenchError("server did not answer ping")
        self._warm()

    def _warm(self) -> None:
        """Finish the server's lazy set-up (first analysis, the batch
        path's imports, the live system) on sets no script sends."""
        from repro.workload.generator import TaskSetGenerator

        gen = TaskSetGenerator(2**31 - 1)
        sets = [_wire(oracle.as_tasks(gen.generate(48, 8.0)))
                for _ in range(2)]
        for payload in ({"verb": "query", "tasks": sets[0]},
                        {"verb": "batch-analyze", "task_sets": [sets[1]],
                         "workers": 1},
                        {"verb": "advance", "slots": 1}):
            if not self.request(0, payload).get("ok"):
                raise common.BenchError(f"warm-up {payload['verb']} failed")

    def _await_address(self) -> Tuple[str, int]:
        found: List[Tuple[str, int]] = []
        ready = threading.Event()

        def drain() -> None:
            for line in self.proc.stderr:
                self.stderr.append(line)
                m = re.search(r"admission service on ([\d.]+):(\d+)", line)
                if m and not found:
                    found.append((m.group(1), int(m.group(2))))
                    ready.set()
            ready.set()

        self._drainer = threading.Thread(target=drain, daemon=True)
        self._drainer.start()
        if not ready.wait(60) or not found:
            self.close()
            raise common.BenchError("server did not start: "
                                    + "".join(self.stderr)[-2000:])
        return found[0]

    def request(self, conn: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        _, fh = self.conns[conn]
        fh.write(json.dumps(payload).encode() + b"\n")
        fh.flush()
        line = fh.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> Optional[Dict[str, Any]]:
        """Shut the server down; returns its trace file's content."""
        try:
            if self.conns and self.proc.poll() is None:
                self.request(0, {"verb": "shutdown"})
        except (OSError, ValueError):
            pass
        for sock, fh in self.conns:
            try:
                fh.close()
                sock.close()
            except OSError:
                pass
        self.conns = []
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._drainer.join(timeout=10)
        if self.trace_out is not None and self.trace_out.is_file():
            return json.loads(self.trace_out.read_text())
        return None


class Context:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.scripts = [Script(seed, c) for c in range(CONNECTIONS)]
        self.server: Optional[Server] = Server()


def setup(name: str, seed: int) -> Context:
    return Context(seed)


def teardown(ctx: Context) -> None:
    if ctx.server is not None:
        ctx.server.close()
        ctx.server = None


# -- the closed loop ------------------------------------------------------------

Record = Tuple[str, Any, float, Dict[str, Any]]


def _drive(server: Server, conn: int, script: Script, deadline: float,
           limit: int, records: List[Record]) -> None:
    fh = server.conns[conn][1]
    count = 0
    while count < limit and time.perf_counter() < deadline:
        payload, kind, what = script.next()
        line = json.dumps(payload).encode() + b"\n"
        start = time.perf_counter()
        fh.write(line)
        fh.flush()
        reply = fh.readline()
        elapsed = time.perf_counter() - start
        if not reply:
            raise ConnectionError("server closed the connection")
        response = json.loads(reply)
        response.pop("system", None)
        records.append((kind, what, elapsed, response))
        count += 1


def _run(server: Server, scripts: List[Script], seconds: float,
         limit: int) -> Tuple[List[List[Record]], float]:
    records: List[List[Record]] = [[] for _ in scripts]
    errors: List[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def body(conn: int) -> None:
        try:
            _drive(server, conn, scripts[conn], deadline, limit,
                   records[conn])
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(c,))
               for c in range(len(scripts))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, wall


# -- checks ---------------------------------------------------------------------

def _agrees(answer: Dict[str, Any], want: oracle.Verdict, n: int) -> bool:
    return (answer.get("m_pd2") == want.m_pd2
            and answer.get("m_edf_ff") == want.m_ff
            and answer.get("utilization") == want.utilization
            and answer.get("n_tasks") == n)


def _check(records: List[List[Record]], out: common.Outcome) -> None:
    verdicts = oracle.OracleCache()
    for conn_records in records:
        for kind, what, _, resp in conn_records:
            if not resp.get("ok"):
                out.check(False, f"{kind}: {resp.get('error')}")
                continue
            if kind == "query":
                ok = _agrees(resp.get("analysis", {}), verdicts(what),
                             len(what))
            elif kind == "batch":
                results = resp.get("results", [])
                ok = len(results) == len(what) and all(
                    _agrees(r, verdicts(t), len(t))
                    for r, t in zip(results, what))
            elif kind == "admit":
                ok = (resp.get("admitted") is True
                      and _agrees(resp.get("analysis", {}), verdicts(what),
                                  len(what))
                      and resp.get("committed_weight_float", 1e9)
                      <= resp.get("capacity", 0))
            elif kind == "leave":
                ok = sorted(resp.get("departures", {})) == sorted(what)
            else:
                ok = resp.get("misses") == 0 and not resp.get("failed_joins")
            out.check(ok, f"{kind} answer disagrees with the oracle or the "
                          f"live system: {json.dumps(resp)[:300]}")


def _sets(records: List[List[Record]]) -> int:
    return sum(len(what) if kind == "batch" else 1
               for conn_records in records
               for kind, what, _, _ in conn_records
               if kind in ("query", "batch", "admit"))


# -- untraced -------------------------------------------------------------------

def measure(ctx: Context, seconds: float, probe: common.HostProbe
            ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """The closed loop for ``seconds``, paused every ``SEGMENT_S`` for a
    host probe."""
    out = common.Outcome()
    records: List[List[Record]] = [[] for _ in ctx.scripts]
    wall = 0.0
    while wall < seconds:
        part, elapsed = _run(ctx.server, ctx.scripts,
                             min(SEGMENT_S, seconds - wall), 10**9)
        for conn, conn_records in enumerate(part):
            records[conn].extend(conn_records)
        wall += elapsed
        probe.between_units()
    rss = common.peak_rss_mb()
    teardown(ctx)
    _check(records, out)
    flat = [r for conn_records in records for r in conn_records]
    latencies = [r[2] for r in flat]
    kinds: Dict[str, int] = {}
    for r in flat:
        kinds[r[0]] = kinds.get(r[0], 0) + 1
    advance_s = sum(r[2] for r in flat if r[0] == "advance")
    metrics = {
        "sets_per_s": _sets(records) / wall,
        "slots_per_s": kinds.get("advance", 0) * ADVANCE_SLOTS / advance_s,
        "req_per_s": len(latencies) / wall,
        "latency_p50_ms": common.ms(common.percentile(latencies, 50)),
        "latency_p99_ms": common.ms(common.percentile(latencies, 99)),
        "peak_rss_mb": rss,
        "ok_frac": out.ok_frac,
    }
    queries = sum(s.queries for s in ctx.scripts)
    info = {"requests": len(latencies), "latency_samples": len(latencies),
            "latency_unit": "request round trip", "by_verb": kinds,
            "connections": CONNECTIONS, "wall_s": wall,
            "assumed_mix": {"hot_share": HOT_SHARE, "hot_sets": HOT_SETS,
                            "query": QUERY_SHARE, "batch": BATCH_SHARE,
                            "write": round(1 - QUERY_SHARE - BATCH_SHARE, 6),
                            "admit_share_of_writes": ADMIT_SHARE_OF_WRITES},
            "hot_query_frac": common.per(
                sum(s.hot_queries for s in ctx.scripts), queries)}
    return metrics, out, info


# -- traced ---------------------------------------------------------------------

def traced(ctx: Context, seconds: float
           ) -> Tuple[Dict[str, float], common.Outcome, Dict]:
    """The same fixed scripts against an untraced server and then two
    traced servers; counts of the traced passes must agree exactly."""
    out = common.Outcome()
    plain, wall_plain = _run(ctx.server, [Script(ctx.seed, c) for c in
                                          range(CONNECTIONS)],
                             10**6, TRACED_REQUESTS)
    teardown(ctx)
    _check(plain, out)
    passes = []
    for tag in ("b", "c"):
        server = ctx.server = Server(common.WORK / f"serve-{tag}.json")
        records, wall = _run(server, [Script(ctx.seed, c)
                                      for c in range(CONNECTIONS)],
                             10**6, TRACED_REQUESTS)
        stats = server.close()
        ctx.server = None
        if stats is None:
            raise common.BenchError("traced server wrote no statistics: "
                                    + "".join(server.stderr)[-2000:])
        _check(records, out)
        passes.append(_layer_metrics(records, wall, wall_plain, stats))
    metrics, counts = passes[0]
    for key, value in counts.items():
        out.check(value == passes[1][1][key],
                  f"{key} differs between two traced passes: "
                  f"{value} != {passes[1][1][key]}")
    return metrics, out, {"requests_per_pass": CONNECTIONS * TRACED_REQUESTS,
                          "untraced_wall_s": wall_plain}


def _layer_metrics(records: List[List[Record]], wall: float,
                   wall_plain: float, stats: Dict[str, Any]
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
    tracer = probes.Tracer()
    tracer.merge(stats["trace"])
    sets = _sets(records)
    rtts = [r[2] for conn_records in records for r in conn_records]
    per_set = lambda seconds: common.ms(common.per(seconds, sets))  # noqa: E731

    def per_call(span: str) -> float:
        return common.ms(common.per(tracer.total[span], tracer.calls[span]))

    lru, cache = stats["lru"], stats["analysis_cache"]
    counts = {
        "overheads.inflate_calls": tracer.calls["overheads.inflate"],
        "overheads.eq3_iterations": tracer.counts["eq3_iterations"],
        "partition.ff_probes": tracer.counts["ff_probes"],
        "partition.bins": tracer.counts["bins"],
        "analysis.cache_key_calls": tracer.calls["analysis.cache_key"],
    }
    metrics = common.zero_layer_metrics()
    metrics.update({
        "overheads.inflate_ms": per_set(tracer.total["overheads.inflate"]),
        "overheads.inflate_calls": common.per(
            counts["overheads.inflate_calls"], sets),
        "overheads.eq3_iterations": common.per(
            counts["overheads.eq3_iterations"], sets),
        "analysis.pd2_search_self_ms": per_set(
            tracer.self_time("analysis.pd2_search")),
        "analysis.cache_key_ms": per_set(tracer.total["analysis.cache_key"]),
        "analysis.cache_key_calls": common.per(
            counts["analysis.cache_key_calls"], sets),
        "analysis.cache_hit_ratio": common.per(
            cache["hits"], cache["hits"] + cache["misses"]),
        "partition.edf_ff_ms": per_set(tracer.total["partition.edf_ff"]),
        "partition.ff_probes": common.per(counts["partition.ff_probes"], sets),
        "partition.bins": common.per(counts["partition.bins"],
                                     tracer.counts["packings"]),
        "partition.load_den_bits": tracer.counts["load_den_bits_max"],
        "service.analyze_ms": per_call("service.analyze"),
        "service.wire_ms": common.ms(
            common.per(sum(rtts), len(rtts))
            - common.per(tracer.total["service.handle"],
                         tracer.calls["service.handle"])),
        "service.lru_hit_ratio": common.per(
            lru["hits"], lru["hits"] + lru["misses"]),
        "service.admit_ms": per_call("service.admit"),
        "service.advance_ms": per_call("service.advance"),
        "service.batch_ms": per_call("service.batch"),
        "trace.overhead_frac": wall / wall_plain - 1.0,
        "trace.stage_coverage": sum(rtts) / (wall * CONNECTIONS),
    })
    return metrics, counts
