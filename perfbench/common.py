"""Shared plumbing for the benchmark: repository location, work directory,
host fingerprint, speed probe, process memory and the result line."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def require_repo() -> None:
    """Put ``src`` on ``sys.path``; fail when the program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}: the benchmark must "
                         "run from the root of a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    """An empty directory under the work directory."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def subprocess_env() -> Dict[str, str]:
    """Environment for child interpreters, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


# -- statistics --------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- host --------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    """What a reader needs to tell two hosts (or two host states) apart."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        load = [round(x, 2) for x in os.getloadavg()]
    except OSError:
        load = []
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "cpus_usable": cpus,
        "numpy": numpy_version,
        "loadavg": load,
    }


def _probe_pass() -> None:
    table: Dict[int, int] = {}
    acc = 1
    for i in range(6_000):
        acc = (acc * 6_700_417 + i) % (1 << 127)
        table[acc & 0xFFFF] = i
        if (acc >> 64) & 1 and table.get(i & 0xFFFF) is not None:
            acc += 1
    sorted(table.items())


def probe_ms(repeats: int = 20) -> float:
    """Mean time of a fixed pure-Python pass, in ms (about 5 ms each, so a
    reading takes about 0.1 s).

    The pass mixes big-integer arithmetic, dict traffic and a sort, like
    the program, but touches no code of it: a change in this number
    between runs is the host, not the change under test.  The mean, not
    the median: the host flips between a fast and a slow state many
    times a second, and the timed work pays the average.
    """
    start = time.perf_counter()
    for _ in range(repeats):
        _probe_pass()
    return (time.perf_counter() - start) * 1000.0 / repeats


#: Probe time of the reference host that time-based metrics are scaled to.
PROBE_REF_MS = 6.0

#: Time-based end-to-end metrics: rates scale with host speed, latencies
#: inversely.  ``setup_s`` has a probe of its own: see :func:`setup_probe_s`.
RATES = ("sets_per_s", "slots_per_s", "req_per_s")
TIMES = ("latency_p50_ms", "latency_p99_ms")


class HostProbe:
    """Probe readings taken between timed units, never inside one.

    The host is shared and its speed drifts by tens of percent over
    minutes.  One reading is noisy (the host flips between a fast and a
    slow state many times a second), but the mean of a run's readings
    follows the drift: see :func:`scale`.
    """

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.samples = [probe_ms()]
        self._last = time.perf_counter()

    def between_units(self) -> None:
        """Take a reading if ``interval`` seconds passed since the last."""
        if time.perf_counter() - self._last >= self.interval:
            self.samples.append(probe_ms())
            self._last = time.perf_counter()


def scale(metrics: Dict[str, float], samples: Sequence[float]
          ) -> Dict[str, float]:
    """Time-based metrics as on a host whose probe reads ``PROBE_REF_MS``
    (the run's mean reading standing in for this host); returns the raw
    values that were replaced."""
    speed = statistics.fmean(samples) / PROBE_REF_MS
    raw = {}
    for name in RATES + TIMES:
        raw[name] = metrics[name]
        metrics[name] = (metrics[name] * speed if name in RATES
                         else metrics[name] / speed)
    return raw


#: What a set-up imports from outside the program: numpy and the
#: standard-library modules that the program pulls in.
SETUP_PROBE_MODULES = (
    "numpy", "asyncio", "concurrent.futures", "multiprocessing", "json",
    "fractions", "decimal", "hashlib", "socket", "ssl", "logging",
    "dataclasses", "inspect", "pickle", "subprocess",
)

#: Pure-Python passes the set-up probe runs after its imports, so that
#: its mix of import work and interpreted work is about that of a set-up.
SETUP_PROBE_PASSES = 30

#: Set-up probe time of the reference host that ``setup_s`` is scaled to.
SETUP_PROBE_REF_S = 0.33


def setup_probe_s() -> float:
    """Time of a fixed set-up in a fresh interpreter, in s: import
    :data:`SETUP_PROBE_MODULES`, then run :data:`SETUP_PROBE_PASSES` probe
    passes.

    Set-up time follows the host's speed at loading modules (files,
    shared libraries, page faults), which drifts apart from its speed at
    running Python: on a shared 2-vCPU Xeon host, import time doubled for
    minutes while :func:`probe_ms` stayed put.  This probe moves with
    both, and touches no code of the program.
    """
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import common, {', '.join(SETUP_PROBE_MODULES)}; "
            f"[common._probe_pass() for _ in range({SETUP_PROBE_PASSES})]; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def scale_setups(setups: Sequence[float], probes: Sequence[float]) -> float:
    """``setup_s`` as on a host whose set-up probe reads
    :data:`SETUP_PROBE_REF_S`: the median over the run's set-ups, each
    scaled by the probe reading taken next to it."""
    return statistics.median(s * SETUP_PROBE_REF_S / p
                             for s, p in zip(setups, probes))


# -- memory ------------------------------------------------------------------

def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    kids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return kids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            kids.append(int(entry))
    return kids


def peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant, MB."""
    total = 0
    todo = [os.getpid()]
    seen = set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _status_kb(pid, "VmHWM")
        todo.extend(_children(pid))
    return total / 1024.0


# -- output ------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "sets_per_s": "1/s",
    "slots_per_s": "1/s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "workload.generate_ms": "ms",
    "overheads.inflate_ms": "ms",
    "overheads.inflate_calls": "count",
    "overheads.eq3_iterations": "count",
    "analysis.pd2_search_self_ms": "ms",
    "analysis.cache_key_ms": "ms",
    "analysis.cache_key_calls": "count",
    "analysis.cache_hit_ratio": "frac",
    "partition.edf_ff_ms": "ms",
    "partition.ff_probes": "count",
    "partition.bins": "count",
    "partition.load_den_bits": "bits",
    "campaign.checkpoint_ms": "ms",
    "campaign.ipc_ms": "ms",
    "campaign.dispatch_wait_ms": "ms",
    "campaign.pool_busy_frac": "frac",
    "campaign.assemble_ms": "ms",
    "campaign.retries": "count",
    "service.analyze_ms": "ms",
    "service.wire_ms": "ms",
    "service.lru_hit_ratio": "frac",
    "service.admit_ms": "ms",
    "service.advance_ms": "ms",
    "service.batch_ms": "ms",
    "sim.vector_mslots_per_s": "Mslot/s",
    "sim.fastpath_mslots_per_s": "Mslot/s",
    "sim.reference_mslots_per_s": "Mslot/s",
    "sim.tier_slots_frac.vector": "frac",
    "sim.tier_slots_frac.fastpath": "frac",
    "sim.memo_slots_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.stage_coverage": "frac",
}

class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok

    def fail(self, reason: str) -> None:
        """Mark an already-counted operation as failed."""
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)


def emit(outcome: Outcome, metrics: Mapping[str, float],
         units: Mapping[str, str], info: Mapping[str, object]) -> None:
    """Print the info line, then the result as the last stdout line."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for reason in outcome.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)


def zero_layer_metrics() -> Dict[str, float]:
    """Every per-layer metric at 0: layers off a workload's path read 0."""
    return {name: 0.0 for name in PER_LAYER_UNITS}


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


def ms(seconds: float) -> float:
    return seconds * 1000.0
