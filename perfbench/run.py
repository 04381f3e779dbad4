"""Layered benchmark of the Fig. 3 campaigns, the admission service and
the PD² simulator.

    python3 perfbench/run.py --workload fig3-n500 --seed 1 --seconds 15 --trace 0

Runs one workload from the root of a checkout and prints, as its last
stdout line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The line before it carries the host
fingerprint and a fixed pure-Python probe time.  See perfbench/README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import common  # noqa: E402

WORKLOADS = ("fig3-n500", "fig3-n50", "service-mix", "sim-pd2")

#: Set-ups per run: this process's own, plus fresh interpreters that set
#: up the same way and exit.  Each is paired with a set-up probe reading
#: taken next to it, and ``setup_s`` is the median of the scaled set-ups.
SETUPS = 5


def _module(workload: str):
    if workload.startswith("fig3-"):
        import campaign_wl
        return campaign_wl
    if workload == "service-mix":
        import service_wl
        return service_wl
    import sim_wl
    return sim_wl


def _child_setup(args: argparse.Namespace) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=str(common.ROOT), capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise common.BenchError(f"set-up child failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    common.require_repo()
    mod = _module(args.workload)
    ctx = None
    try:
        ctx = mod.setup(args.workload, args.seed)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            mod.teardown(ctx)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_probes = [] if args.trace else [common.setup_probe_s()]
        probe = common.HostProbe()
        if args.trace:
            metrics, outcome, info = mod.traced(ctx, args.seconds)
            units = common.PER_LAYER_UNITS
        else:
            metrics, outcome, info = mod.measure(ctx, args.seconds, probe)
            setups = [setup_s]
            for _ in range(SETUPS - 1):
                setup_probes.append(common.setup_probe_s())
                setups.append(_child_setup(args))
            metrics["setup_s"] = common.scale_setups(setups, setup_probes)
            info["setup_samples_s"] = setups
            info["setup_probes_s"] = setup_probes
            units = common.END_TO_END_UNITS
        probe.samples.append(common.probe_ms())
        info["probes_ms"] = probe.samples
        if not args.trace:
            info["raw"] = common.scale(metrics, probe.samples)
            info["raw"]["setup_s"] = common.median(setups)
        ctx = None
        info.update({"workload": args.workload, "seed": args.seed,
                     "trace": args.trace, "host": common.host_fingerprint()})
        common.emit(outcome, metrics, units, info)
        return 0
    finally:
        if ctx is not None:
            mod.teardown(ctx)
        if not args.setup_only:
            common.clean_work()


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception:  # noqa: BLE001 — report, and exit without a result
        traceback.print_exc()
        sys.exit(1)
