"""An independent oracle for the paper's Fig. 3/4 analysis.

Written from the paper's equations, not from the program: it imports
nothing from ``repro.overheads``, ``repro.analysis`` or ``repro.partition``.

* Eq. (3), PD² branch — ``e' = e + E·S_PD2(N, M) + C + min(E−1, P−E)·(C+D)``
  iterated on the quantum count ``E = ceil(e'/q)`` until it repeats.
* Eq. (2) — the smallest ``M`` whose quantised inflated weights sum to at
  most ``M``, every task fitting its period; searched upward from
  ``ceil(U)`` one processor at a time, so a search that skips a feasible
  ``M`` shows up as a mismatch.
* EDF-FF — tasks by decreasing period (then decreasing execution, then
  name), each into the first processor whose exact rational load stays
  at most 1 with ``e' = e + 2(S_EDF + C) + max D`` of the residents.

The scheduling-cost curves are the paper's Fig. 2 readings; they are
repeated here as data, so a change to the program's tables makes the
oracle disagree rather than follow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

#: (execution, period, cache delay, name) in µs ticks.
Task = Tuple[int, int, int, str]

CONTEXT_SWITCH = 5
QUANTUM = 1000
MAX_ITERATIONS = 64

EDF_COST = ((15, 100, 250, 500, 1000), (0.8, 1.2, 1.6, 2.0, 2.5))
PD2_COST = {
    1: ((15, 100, 250, 500, 1000), (1.0, 2.5, 3.5, 5.0, 7.5)),
    2: ((15, 100, 250, 500, 1000), (1.5, 3.5, 5.0, 7.0, 10.0)),
    4: ((15, 100, 250, 500, 1000), (2.0, 5.0, 8.0, 11.0, 16.0)),
    8: ((15, 100, 250, 500, 1000), (3.0, 8.0, 13.0, 18.0, 27.0)),
    16: ((15, 100, 250, 500, 1000), (5.0, 13.0, 21.0, 30.0, 45.0)),
}


class Verdict(NamedTuple):
    """The oracle's answer for one task set."""

    utilization: float
    m_pd2: Optional[int]
    inflated_u_pd2: Optional[float]
    pd2_iterations_max: int
    m_ff: Optional[int]
    inflated_u_edf: Optional[float]


def _lerp(table: Tuple[Sequence[float], Sequence[float]], x: float) -> float:
    xs, ys = table
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = 0
    while x > xs[i + 1]:
        i += 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + t * (ys[i + 1] - ys[i])


def s_edf(n: int) -> float:
    return _lerp(EDF_COST, n)


def s_pd2(n: int, m: int) -> float:
    """Fig. 2 PD² cost, linear in N and in log2 M between measured rows."""
    rows = sorted(PD2_COST)
    m = max(rows[0], min(m, rows[-1]))
    lo = max(k for k in rows if k <= m)
    hi = min(k for k in rows if k >= m)
    y_lo = _lerp(PD2_COST[lo], n)
    if lo == hi:
        return y_lo
    y_hi = _lerp(PD2_COST[hi], n)
    t = (math.log2(m) - math.log2(lo)) / (math.log2(hi) - math.log2(lo))
    return y_lo + t * (y_hi - y_lo)


def inflate(e: int, p: int, d: int, s: float) -> Tuple[int, int, int]:
    """Eq. (3): ``(E, P, evaluations)`` for one task at cost ``s``.

    On a cycle the largest quantum count in the cycle is kept (the safe
    choice); ``E > P`` means the task cannot run even alone.
    """
    if p % QUANTUM:
        raise ValueError(f"period {p} is not a multiple of the quantum")
    big_p = p // QUANTUM
    e_q = -(-e // QUANTUM)
    history = [e_q]
    evaluations = 0
    while True:
        evaluations += 1
        preemptions = min(e_q - 1, big_p - e_q)
        if preemptions < 0:
            return e_q, big_p, evaluations
        e_prime = math.ceil(e + e_q * s + CONTEXT_SWITCH
                            + preemptions * (CONTEXT_SWITCH + d))
        nxt = -(-e_prime // QUANTUM)
        if nxt == e_q or evaluations >= MAX_ITERATIONS:
            return nxt, big_p, evaluations
        if nxt in history:
            cycle = history[history.index(nxt):]
            return max(cycle), big_p, evaluations
        history.append(nxt)
        e_q = nxt


def pd2(tasks: Sequence[Task]) -> Tuple[Optional[int], Optional[float], int]:
    """Eq. (2) with Eq. (3): ``(M, Σ E/P at M, max evaluations at M)``."""
    n = len(tasks)
    u = sum(Fraction(e, p) for e, p, _, _ in tasks)
    for m in range(max(1, math.ceil(u)), n + 1):
        s = s_pd2(n, m)
        infl = [inflate(e, p, d, s) for e, p, d, _ in tasks]
        if any(e_q > big_p for e_q, big_p, _ in infl):
            continue
        lcm = math.lcm(*(big_p for _, big_p, _ in infl))
        num = sum(e_q * (lcm // big_p) for e_q, big_p, _ in infl)
        if num <= m * lcm:
            return m, float(Fraction(num, lcm)), max(k for _, _, k in infl)
    return None, None, 0


def edf_ff(tasks: Sequence[Task]) -> Tuple[Optional[int], Optional[float]]:
    """Overhead-aware EDF first fit: ``(processors, Σ packed loads)``."""
    fixed = math.ceil(2 * (s_edf(len(tasks)) + CONTEXT_SWITCH))
    order = sorted(tasks, key=lambda t: (-t[1], -t[0], t[3]))
    loads: List[Fraction] = []
    delays: List[int] = []
    for e, p, d, _ in order:
        for i, load in enumerate(loads):
            e_prime = e + fixed + delays[i]
            # load + e'/p <= 1, cross-multiplied: no Fraction per probe.
            if e_prime <= p and (load.numerator * p + e_prime
                                 * load.denominator <= load.denominator * p):
                loads[i] = load + Fraction(e_prime, p)
                delays[i] = max(delays[i], d)
                break
        else:
            e_prime = e + fixed
            if e_prime > p:
                return None, None
            loads.append(Fraction(e_prime, p))
            delays.append(d)
    return len(loads), float(sum(loads))


def verdict(tasks: Sequence[Task]) -> Verdict:
    m_pd2, u_pd2, iters = pd2(tasks)
    m_ff, u_edf = edf_ff(tasks)
    return Verdict(float(sum(Fraction(e, p) for e, p, _, _ in tasks)),
                   m_pd2, u_pd2, iters, m_ff, u_edf)


def as_tasks(specs) -> List[Task]:
    """Plain tuples from anything with execution/period/cache_delay/name."""
    return [(s.execution, s.period, s.cache_delay, s.name) for s in specs]


class OracleCache:
    """Verdicts memoised by task-set content (the service repeats sets)."""

    def __init__(self) -> None:
        self._memo: Dict[tuple, Verdict] = {}

    def __call__(self, tasks: Sequence[Task]) -> Verdict:
        key = tuple(sorted(tasks))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = verdict(tasks)
        return hit
