"""Golden digests of small fixed-seed Fig. 3 campaigns.

The other byte-identity tests compare two runs of the *same* code
(serial vs pooled, interrupted vs resumed, two hash seeds), so a change
to the analysis itself would pass them all.  These digests pin the
bytes of ``result.json`` for three fixed campaigns instead: any change
to generation, Eq. (3) inflation, the PD² search, EDF-FF packing or the
row statistics shows up as a mismatch.

A deliberate change to what the campaign computes must regenerate the
digests (``python tests/test_golden_fig3.py`` prints them) and say why
in the change log.
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis.experiments import utilization_grid
from repro.campaign import run_schedulability_campaign

#: ``N -> (grid points, sets per point, seed)``; about one second in all.
CASES = {
    50: (4, 4, 11),
    250: (3, 2, 12),
    500: (3, 2, 13),
}

#: sha256 of ``result.json`` for each case.
GOLDEN = {
    50: "68c3c2541288cd7a47527468bf5ecf795a5cc2af5ef88d3d35231ffa9869c7f2",
    250: "ca6a557a2f1f757848e9960c34e510f5099a2d58884567d2ad97cc339a32f08b",
    500: "27682ed271bc3a4e836ba84e85a08aec4ed919a299f86806086b3e4afecd73df",
}


def result_digest(n_tasks: int, run_dir: Path, workers: int = 1) -> str:
    points, sets, seed = CASES[n_tasks]
    run_schedulability_campaign(n_tasks, utilization_grid(n_tasks, points),
                                sets_per_point=sets, seed=seed,
                                workers=workers, run_dir=str(run_dir))
    return hashlib.sha256((run_dir / "result.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("n_tasks", sorted(CASES))
def test_fig3_result_matches_golden_digest(tmp_path, n_tasks):
    assert result_digest(n_tasks, tmp_path / "run") == GOLDEN[n_tasks]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for n in sorted(CASES):
            print(f"    {n}: \"{result_digest(n, Path(tmp) / str(n))}\",")
    sys.exit(0)
