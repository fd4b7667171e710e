"""The example scripts under ``scripts/`` run to the end and report no
failed check."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["correlator_tables.py", "--order", "3", "--seed", "7"],
    ["hilbert_series_demo.py", "--order", "2"],
])
def test_example_script_runs(argv):
    run = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert run.returncode == 0, run.stderr
    assert not [line for line in run.stdout.splitlines() if line.startswith("FAIL")]
