"""One traced round of the benchmark runs and passes its checks.

``perfbench/spans.py`` wraps library functions with hooks that read their
arguments (the term-pair count of ``LaurentPoly.__mul__`` reads both
operands' terms), so a call shape the hooks do not expect fails only under
``--trace 1``.  The Macdonald workload is the one that reaches the fill's
operator matrix; the series workload reaches the traced localization sums
(``bracket_bruteforce``, ``chi_C2_series``) and the partitions' cells.
The evaluated workload's traced round takes about three times as long as
the other two together and is not run here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _traced_round(workload: str, seed: int):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                         cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0, run.stderr


def test_one_traced_macdonald_round_passes():
    _traced_round("macdonald_symbolic", 101)


def test_one_traced_series_round_passes():
    _traced_round("series_symbolic", 103)
