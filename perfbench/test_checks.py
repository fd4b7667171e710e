"""Tests of the benchmark's checks: each feeds the check a correct result of the
program and then a perturbed one, and expects the perturbed one rejected.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from hilbmac import (MacdonaldTable, RationalFunction, bracket_bruteforce,  # noqa: E402
                     inner_product_qt, tilde_e_op)

PT = W.make_inputs("test", 0)["points"][0]
INPUTS = {"points": [PT], "xs": [Fraction(k + 1, k + 3) for k in range(8)]}


@pytest.fixture(scope="module")
def symbolic():
    q, t, u, v = (RationalFunction.var(n) for n in "qtuv")
    table = MacdonaldTable(q, t)
    parts = list(O.partitions(3))
    return {
        "q": q, "t": t, "table": table,
        "P_m": {lam: table.P(lam) for lam in parts},
        "P_p": {lam: table.P_in_p(lam) for lam in parts},
        "series": bracket_bruteforce([tilde_e_op(1, q, t)], u, v, q, t, 3, primed=True),
    }


def drop_last_term(text: str) -> str:
    """Remove the last term of the numerator of a canonical string."""
    num, slash, den = text.partition("/")
    inner = num[1:-1] if num.startswith("(") else num
    cut = max(inner.rfind(" + "), inner.rfind(" - "))
    assert cut > 0, "needs a numerator of two terms or more"
    inner = inner[:cut]
    return f"({inner}){slash}{den}" if slash else inner


def check_series(rendered):
    W.expect_series(rendered, O.bracket([("E", 1)], PT, 3), W.Ctx(INPUTS), PT, "E1")


def check_table(P_m, P_p):
    ctx = W.Ctx(INPUTS)
    W.check_P_m(P_m, 3, ctx, PT)
    W.check_P_p(P_p, P_m, 3, ctx, PT)


def test_program_output_passes(symbolic):
    check_series(W.render(symbolic["series"]))
    check_table(W.render(symbolic["P_m"]), W.render(symbolic["P_p"]))


def test_changed_coefficient_rejected(symbolic):
    rendered = W.render(symbolic["series"])
    rendered[2] = rendered[3]
    with pytest.raises(W.CheckFailed, match="Q\\^2"):
        check_series(rendered)


def test_dropped_term_rejected(symbolic):
    rendered = W.render(symbolic["series"])
    rendered[3] = drop_last_term(rendered[3])
    with pytest.raises(W.CheckFailed, match="Q\\^3"):
        check_series(rendered)


def test_dropped_term_of_P_rejected(symbolic):
    P_m = W.render(symbolic["P_m"])
    P_m[(2, 1)][(1, 1, 1)] = drop_last_term(P_m[(2, 1)][(1, 1, 1)])
    with pytest.raises(W.CheckFailed, match="m- and p-expansions differ"):
        check_table(P_m, W.render(symbolic["P_p"]))


def test_non_orthogonal_P_rejected(symbolic):
    # P_(2,1) + 2 P_(1,1,1) is monic, triangular, and consistent between the
    # two bases, but not orthogonal to P_(1,1,1).
    bad_m = dict(symbolic["P_m"])
    bad_p = dict(symbolic["P_p"])
    bad_m[(2, 1)] = bad_m[(2, 1)] + bad_m[(1, 1, 1)].scale(2)
    bad_p[(2, 1)] = bad_p[(2, 1)] + bad_p[(1, 1, 1)].scale(2)
    P_m, P_p = W.render(bad_m), W.render(bad_p)
    W.check_P_m(P_m, 3, W.Ctx(INPUTS), PT)
    with pytest.raises(W.CheckFailed, match="not orthogonal|<P, P>"):
        check_table(P_m, P_p)


def test_wrong_gram_entry_rejected(symbolic):
    table, q, t = symbolic["table"], symbolic["q"], symbolic["t"]
    gram = {((2, 1), (2, 1)): inner_product_qt(table.P_in_p((2, 1)), table.P_in_p((2, 1)), q, t),
            ((2, 1), (1, 1, 1)): inner_product_qt(table.P_in_p((2, 1)), table.P_in_p((1, 1, 1)), q, t)}
    rendered = W.render(gram)
    W.check_gram(rendered, W.Ctx(INPUTS), PT)
    rendered[((2, 1), (1, 1, 1))] = rendered[((2, 1), (2, 1))]
    with pytest.raises(W.CheckFailed):
        W.check_gram(rendered, W.Ctx(INPUTS), PT)


def test_routes_that_differ_are_rejected():
    with pytest.raises(W.CheckFailed):
        W._agree({"a": ["1", "2/3"], "b": ["1", "3/2"]}, "a", "b")


def test_parse_round_trips_canonical_strings():
    q, t = RationalFunction.var("q"), RationalFunction.var("t1")
    f = (q - 3 * t ** -2) / (1 - q * t ** 2) - Fraction(5, 7)
    assert O.evaluate(O.parse(f.canonical_str()), PT) == f.eval(PT)
    assert O.evaluate(O.parse("-3/4"), {}) == Fraction(-3, 4)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    per = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in spans.TARGETS}
    counts = {"exactalg.poly_mul.term_pairs": 0, "exactalg.divide_exact.quotients": 0}
    rnd = SimpleNamespace(max_num_terms=1, max_den_terms=1, mono_key_cache_entries=0,
                          cli_output_bytes=0, wall_s=1.0)
    metrics = run.layer_metrics(per, counts, rnd, rnd)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_round_checks_again_a_result_unlike_the_one_that_passed(monkeypatch):
    value, checked = [1], []

    def check(r, ctx):
        checked.append(r["job"])
        W.expect(r["job"] == "1", "job: wrong value")
    monkeypatch.setitem(W.WORKLOADS, "fake",
                        lambda hb, inputs: [W.Job("job", lambda: Fraction(value[0]), check)])
    hb = SimpleNamespace(exactalg=SimpleNamespace(poly=SimpleNamespace(_MONO_KEY_CACHE={})))
    passed = {}
    assert run.Round(hb, INPUTS, "fake", passed=passed).wrong == []
    assert run.Round(hb, INPUTS, "fake", passed=passed).wrong == []
    assert checked == ["1"]           # the equal result was not checked again
    value[0] = 2
    assert run.Round(hb, INPUTS, "fake", passed=passed).wrong == ["job"]
    assert checked == ["1", "2"]
