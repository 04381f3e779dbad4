"""Extension — ERfair improves job response times (paper, Sec. 2).

"Work-conserving algorithms are of interest because they tend to improve
job response times, especially in lightly-loaded systems."  This bench
measures mean job response time under plain PD² and ER-PD² across load
levels: the gap is largest when the system is lightly loaded (plain Pfair
strands capacity between windows) and closes as load approaches M.
"""

import numpy as np
from conftest import full_scale, write_report

from repro.analysis.report import format_table
from repro.core.erfair import ERPD2Scheduler
from repro.core.metrics import job_response_times
from repro.core.pd2 import PD2Scheduler
from repro.core.rational import Weight, weight_sum
from repro.core.task import PeriodicTask

SETS = 100 if full_scale() else 20
M = 2
HORIZON = 240
LOADS = [0.3, 0.6, 0.9]


def random_set(rng, target):
    pairs = []
    for _ in range(100):
        p = int(rng.integers(4, 20))
        e = int(rng.integers(1, max(2, p // 2)))
        w = Weight.of_task(e, p)
        total = weight_sum([Weight.of_task(*x) for x in pairs] + [w])
        if float(total) <= target * M:
            pairs.append((e, p))
        else:
            break
    return pairs


def mean_response(scheduler_cls, pairs):
    tasks = [PeriodicTask(e, p) for e, p in pairs]
    res = scheduler_cls(tasks, M, trace=True, on_miss="raise").run(HORIZON)
    responses = []
    for t in tasks:
        responses.extend(r for _, r in job_response_times(res.trace, t))
    return responses


def run_experiment():
    rows = []
    for load in LOADS:
        rng = np.random.default_rng(int(load * 100))
        plain_all, er_all = [], []
        for _ in range(SETS):
            pairs = random_set(rng, load)
            if not pairs:
                continue
            plain_all.extend(mean_response(PD2Scheduler, pairs))
            er_all.extend(mean_response(ERPD2Scheduler, pairs))
        mp = sum(plain_all) / len(plain_all)
        me = sum(er_all) / len(er_all)
        rows.append([load, round(mp, 2), round(me, 2),
                     f"{(mp - me) / mp:.1%}"])
    return rows


def test_erfair_response_times(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    report = format_table(
        ["load (U/M)", "PD2 mean response", "ER-PD2 mean response",
         "improvement"],
        rows,
        title=f"Job response times, {SETS} sets per load on {M} CPUs "
              "(slots; ERfair = work-conserving PD2)")
    write_report("ext_response_times.txt", report)
    for load, plain, er, _ in rows:
        assert er <= plain, f"ERfair should never be slower (load {load})"
    # The paper's qualitative claim: the improvement is largest when the
    # system is lightly loaded.
    light_gain = rows[0][1] - rows[0][2]
    heavy_gain = rows[-1][1] - rows[-1][2]
    assert light_gain > 0
    assert light_gain >= heavy_gain * 0.8  # monotone up to noise
