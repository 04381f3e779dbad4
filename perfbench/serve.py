"""Run ``repro serve`` in its own process, optionally traced.

    python3 perfbench/serve.py [--trace-out FILE] serve --port 0 ...

Everything after the optional ``--trace-out FILE`` is handed to the
program's own CLI unchanged.  With ``--trace-out`` the analysis and
service layers are wrapped in spans (see probes.py) and, when the server
shuts down, their totals, the service LRU statistics and the shared
analysis cache statistics are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    common.require_repo()
    from repro.cli import main as repro_main

    if trace_out is None:
        return repro_main(argv)

    import probes
    from repro.analysis.schedulability import ANALYSIS_CACHE

    tracer = probes.Tracer()
    patches = probes.Patches()
    states: list = []
    probes.install_analysis(tracer, patches)
    probes.install_service(tracer, patches, states)
    rc = repro_main(argv)
    Path(trace_out).write_text(json.dumps({
        "trace": tracer.snapshot(),
        "lru": states[0].cache.info() if states else {},
        "analysis_cache": ANALYSIS_CACHE.info(),
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
