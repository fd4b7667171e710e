"""The names the benchmark under ``perfbench/`` traces and reads still resolve,
and one round of each workload runs and passes its checks.

``perfbench/spans.py`` wraps the functions and methods listed in its
``TARGETS`` table, and ``perfbench/run.py`` reads the size of the monomial
key cache every round.  The workloads call the library through its public
names and call shapes.  A rename or a changed signature would otherwise show
up only as a broken benchmark run.
"""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPANS_PATH = REPO / "perfbench" / "spans.py"
WORKLOADS = ("macdonald_symbolic", "series_symbolic", "point_eval")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_contract", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_span_target_resolves(span):
    modname, attrs, _hook = TARGETS[span]
    module = importlib.import_module(modname)
    if attrs is None:
        criteria = [a for a in vars(module) if re.fullmatch(r"c\d\d_\w+", a)]
        assert criteria, f"{modname} has no cNN_* functions"
        assert all(inspect.isfunction(getattr(module, a)) for a in criteria)
        return
    for attr in attrs:
        owner, _, name = attr.rpartition(".")
        if owner:
            assert name in vars(getattr(module, owner)), f"{modname}.{attr} is gone"
        else:
            assert inspect.isfunction(getattr(module, name, None)), f"{modname}.{attr} is gone"


def test_mono_key_cache_has_a_size():
    from hilbmac.exactalg import poly
    assert len(poly._MONO_KEY_CACHE) >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_benchmark_round_passes(workload):
    """--seconds 0 runs exactly one round; its last stdout line is the report."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "101", "--seconds", "0"],
                         cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
