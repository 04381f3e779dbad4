"""Reusable builders for the paper's figure reproductions.

The benchmark harness (``benchmarks/``) and the command-line interface
(``python -m repro``) both need the same artefacts — Fig. 1's window
diagrams, Fig. 5's supertask run, the Fig. 3/4 campaign tables.  The
campaign machinery already lives in :mod:`repro.analysis.experiments`;
this module holds the remaining figure-specific builders so they exist
exactly once.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.supertask import ComponentDispatch, Supertask, SupertaskSystem
from ..core.task import IntraSporadicTask, PeriodicTask, PfairTask
from ..core.trace import render_schedule, render_windows
from ..sim.quantum import SimResult
from .experiments import CampaignRow
from .report import format_table

__all__ = ["fig1_report", "fig5_build", "fig5_report", "fig3_table", "fig4_table"]


def fig1_report() -> str:
    """Both panels of Fig. 1 as ASCII art plus the parameter table."""
    lines = ["Fig. 1(a): windows of the first two jobs of a periodic task "
             "with weight 8/11"]
    task = PeriodicTask(8, 11, name="T")
    lines.append(render_windows(task, 1, 16))
    lines.append("")
    lines.append("subtask   r   d   b   group-deadline")
    for i in range(1, 9):
        s = task.subtask(i)
        lines.append(f"  T{i:<6} {s.release:3d} {s.deadline:3d} "
                     f"{s.b_bit:3d}   {s.group_deadline}")
    lines.append("")
    lines.append("Fig. 1(b): IS variant — subtask T5 released one slot late")
    is_task = IntraSporadicTask(8, 11, offsets=[0, 0, 0, 0, 1, 1, 1, 1],
                                name="T")
    lines.append(render_windows(is_task, 1, 8))
    return "\n".join(lines)


def fig5_build(reweight: bool) -> Tuple[List[PfairTask], Supertask]:
    """The Fig. 5 task set: V=1/2, W=X=1/3, Y=2/9, S={T=1/5, U=1/45}."""
    T = PeriodicTask(1, 5, name="T")
    U = PeriodicTask(1, 45, name="U")
    V = PeriodicTask(1, 2, name="V")
    W = PeriodicTask(1, 3, name="W")
    X = PeriodicTask(1, 3, name="X")
    Y = PeriodicTask(2, 9, name="Y")
    S = Supertask([T, U], name="S", reweight=reweight)
    return [V, W, X, Y, S], S


def fig5_report(horizon: int = 900
                ) -> Tuple[str, Dict[bool, Tuple[SimResult, ComponentDispatch]]]:
    """Run Fig. 5 with and without reweighting; return (report, results)."""
    lines = []
    results: Dict[bool, Tuple[SimResult, ComponentDispatch]] = {}
    picture = None
    for reweight in (False, True):
        tasks, S = fig5_build(reweight)
        system = SupertaskSystem(tasks, 2)
        res, dispatches = system.run(horizon)
        d = dispatches[S.task_id]
        results[reweight] = (res, d)
        label = "reweighted 19/45" if reweight else "cumulative 2/9"
        lines.append(f"wt(S) = {S.weight} ({label}): "
                     f"top-level misses = {res.stats.miss_count}, "
                     f"component misses = {d.miss_count}")
        if d.misses:
            m = d.misses[0]
            lines.append(f"  first miss: {m.task.name}[{m.subtask_index}] "
                         f"deadline {m.deadline}, completed {m.completed_at}")
        if not reweight:
            picture = render_schedule(res.trace, tasks, 12)
    lines.append("")
    lines.append("First 12 slots of the unweighted schedule (cf. Fig. 5):")
    lines.append(picture or "")
    return "\n".join(lines), results


def fig3_table(rows: List[CampaignRow], n_tasks: int, sets: int) -> str:
    """Format a Fig. 3 campaign as the paper's series."""
    table = [[round(r.utilization, 2),
              round(r.m_pd2.mean, 2), round(r.m_pd2.ci99_halfwidth, 2),
              round(r.m_ff.mean, 2), round(r.m_ff.ci99_halfwidth, 2)]
             for r in rows]
    return format_table(
        ["total U", "M Pfair", "ci99", "M EDF-FF", "ci99"], table,
        title=f"Fig. 3: processors required for {n_tasks} tasks "
              f"({sets} sets/point)")


def fig4_table(rows: List[CampaignRow], n_tasks: int, sets: int) -> str:
    """Format a Fig. 4 campaign as the paper's series."""
    table = [[round(r.mean_utilization, 3),
              round(r.loss_pfair.mean, 4),
              round(r.loss_edf.mean, 4),
              round(r.loss_ff.mean, 4),
              round(r.loss_ff.relative_error, 2)]
             for r in rows]
    return format_table(
        ["mean task U", "Pfair loss", "EDF loss", "FF loss", "FF rel.err"],
        table,
        title=f"Fig. 4: fraction of schedulability lost, {n_tasks} tasks "
              f"({sets} sets/point)")
