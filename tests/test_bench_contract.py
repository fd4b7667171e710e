"""The names the benchmark under ``perfbench/`` traces and reads still resolve.

``perfbench/spans.py`` wraps the functions and methods listed in its
``TARGETS`` table, and ``perfbench/run.py`` reads the size of the monomial
key cache every round.  A rename in the library would otherwise show up only
as a broken benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
