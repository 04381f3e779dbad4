"""Aperiodic servers for EDF: the Total Bandwidth Server (TBS).

The paper's temporal-isolation discussion (Sec. 5.3) notes that EDF needs
*added mechanisms* — bandwidth-reserving servers — to get the isolation
Pfairness provides structurally.  :class:`repro.core.uniproc.CBSServer`
implements the constant-bandwidth server the paper cites (Abeni &
Buttazzo); this module adds Spuri & Buttazzo's **Total Bandwidth Server**,
the other canonical EDF server, so the comparison suite covers both
deadline-assignment styles:

* **CBS** meters execution with a budget and postpones its own deadline on
  exhaustion — isolation even against *overrunning* requests;
* **TBS** assigns each request its deadline up front,
  ``d_k = max(r_k, d_{k-1}) + C_k / U_s``, charging the request's *declared*
  cost against the reserved bandwidth ``U_s``.  EDF schedulability is
  preserved whenever ``U_periodic + U_s <= 1`` — but a request that lies
  about ``C_k`` breaks isolation, which is exactly CBS's motivation.

TBS needs no runtime machinery: deadlines are computable at arrival, so
the server materialises plain EDF jobs (:class:`~repro.core.uniproc.UniJob`
with explicit deadlines) for :class:`~repro.core.uniproc.UniprocSimulator`.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

from ..core.uniproc import UniJob, UniTask

__all__ = ["TotalBandwidthServer"]


class TotalBandwidthServer:
    """Deadline assignment for aperiodic requests at reserved bandwidth.

    ``bandwidth`` is the exact fraction ``(num, den)`` with
    ``0 < num/den <= 1``.  ``requests`` are ``(arrival, declared_cost)``
    pairs in nondecreasing arrival order (ticks).
    """

    def __init__(self, bandwidth: Tuple[int, int],
                 requests: Sequence[Tuple[int, int]] = (), *,
                 name: Optional[str] = None) -> None:
        num, den = bandwidth
        if num <= 0 or den <= 0 or num > den:
            raise ValueError(f"bandwidth must be in (0, 1], got {num}/{den}")
        g = gcd(num, den)
        self.bandwidth = (num // g, den // g)
        self.name = name or "TBS"
        self.requests: List[Tuple[int, int]] = []
        self._deadlines: List[int] = []
        self._last_deadline = 0
        for arrival, cost in requests:
            self.submit(arrival, cost)

    def submit(self, arrival: int, cost: int) -> int:
        """Admit a request; returns its assigned absolute deadline.

        ``d_k = max(r_k, d_{k-1}) + ceil(C_k · den / num)`` — the ceiling
        keeps the integer grid conservative (never an earlier deadline
        than the exact rational one).
        """
        if cost <= 0:
            raise ValueError("request cost must be positive")
        if self.requests and arrival < self.requests[-1][0]:
            raise ValueError("requests must arrive in nondecreasing order")
        num, den = self.bandwidth
        start = max(arrival, self._last_deadline)
        deadline = start + -(-cost * den // num)
        self.requests.append((arrival, cost))
        self._deadlines.append(deadline)
        self._last_deadline = deadline
        return deadline

    def deadline_of(self, index: int) -> int:
        """Assigned deadline of the 1-based request ``index``."""
        return self._deadlines[index - 1]

    def jobs(self) -> List[UniJob]:
        """Materialise the admitted requests as EDF jobs.

        All jobs share one stand-in :class:`UniTask` (so per-task response
        statistics aggregate under the server's name); each carries its
        assigned absolute deadline.
        """
        if not self.requests:
            return []
        max_c = max(c for _, c in self.requests)
        span = max(self._last_deadline, 1)
        source = UniTask(max_c, span, name=self.name)
        return [
            UniJob(source, k + 1, arrival, cost, deadline=self._deadlines[k])
            for k, (arrival, cost) in enumerate(self.requests)
        ]
