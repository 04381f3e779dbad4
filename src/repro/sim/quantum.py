"""Front end of the slot-synchronous engine.

The engine itself — :class:`~repro.core.quantum.QuantumSimulator` — lives
in :mod:`repro.core.quantum`: it *is* the decision procedure the paper's
argument rests on (PD² is defined by what the engine does each slot), so
the layering pass (rule R003) homes it in ``core`` beneath the
campaign-level simulators.  What belongs at the ``sim`` layer is the
dispatch between decision-identical implementations: ``simulate_pfair``
picks the vector kernel (:mod:`repro.sim.vector`) or the packed-key
fast path (:mod:`repro.sim.fastpath`) when one supports the
configuration and the reference engine otherwise.  The historical
``repro.sim.quantum`` import path keeps working for both.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.priority import PriorityPolicy
from ..core.quantum import DeadlineMissError, QuantumSimulator, SimResult
from ..core.task import PfairTask

__all__ = ["QuantumSimulator", "SimResult", "DeadlineMissError", "simulate_pfair"]


def simulate_pfair(
    tasks: Iterable[PfairTask],
    processors: int,
    horizon: int,
    policy: Optional[PriorityPolicy] = None,
    *,
    vector: Optional[bool] = None,
    fastpath: Optional[bool] = None,
    **kwargs: object,
) -> SimResult:
    """One-call convenience wrapper: build a simulator and run it.

    Dispatches down the decision-identical kernel chain **vector →
    fastpath → reference**: the struct-of-arrays
    :class:`~repro.sim.vector.VectorPD2Simulator` when it supports the
    configuration, else the packed-key
    :class:`~repro.sim.fastpath.FastPD2Simulator`, else the reference
    :class:`QuantumSimulator`.  By default each tier's ``supports()``
    alone decides.  The keywords select tiers per call: ``vector=False``
    skips the vector kernel, ``fastpath=False`` forces the reference
    (it disables the vector tier too — both accelerated kernels are
    "the fast path" from the caller's point of view).  Passing
    ``vector=True`` or ``fastpath=True`` *requires* that tier and raises
    if the configuration is unsupported.
    """
    task_list = list(tasks)
    explicit, explicit_vector = bool(fastpath), bool(vector)
    if fastpath is None:
        fastpath = True
    if vector is None:
        vector = fastpath
    if vector:
        from .vector import VectorPD2Simulator
        from .vector import supports as vector_supports

        if vector_supports(task_list, processors, horizon, policy, kwargs):
            return VectorPD2Simulator(task_list, processors, policy,
                                      **kwargs).run(horizon)
        if explicit_vector:
            raise ValueError(
                "vector=True but the configuration is not supported by "
                "the vector kernel (see repro.sim.vector.supports)"
            )
    if fastpath:
        from .fastpath import FastPD2Simulator, supports

        if supports(task_list, processors, horizon, policy, kwargs):
            return FastPD2Simulator(task_list, processors, policy,
                                    **kwargs).run(horizon)
        if explicit:
            raise ValueError(
                "fastpath=True but the configuration is not supported by "
                "the fast path (see repro.sim.fastpath.supports)"
            )
    sim = QuantumSimulator(task_list, processors, policy, **kwargs)
    return sim.run(horizon)
