"""One traced round of the benchmark runs and passes its checks.

``perfbench/spans.py`` wraps library functions with hooks that read their
arguments (the term-pair count of ``LaurentPoly.__mul__`` reads both
operands' terms), so a call shape the hooks do not expect fails only under
``--trace 1``.  The Macdonald workload is the one that reaches the fill's
operator matrix.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_one_traced_macdonald_round_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "macdonald_symbolic",
                          "--seed", "101", "--seconds", "0", "--trace", "1"],
                         cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0, run.stderr
