import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hilbmac
from hilbmac import correlators, macdonald
from hilbmac.correlators import (CLOSED_FORMS, CorrelatorError,
                                 DiagonalOperator, base_bracket_series,
                                 base_bracket_z, bracket_bruteforce,
                                 bracket_one_closed, closed_form_library,
                                 closed_form_series, connected_correlators,
                                 correlators_from_Z,
                                 disconnected_from_connected, fqft_layer,
                                 identity_op, lambda_op, operator_word, power_op,
                                 psi_op, set_partitions,
                                 sigma_op, tilde_e_op, vertex_correlator)
from hilbmac.exactalg import (RationalFunction, RationalSampler,
                              TruncatedSeries, expand_closed_form, generators)
from hilbmac.macdonald import eigen_tildeE
from oracles import bracket_definition

qs, ts, us, vs = generators("q", "t", "u", "v")


@pytest.fixture(scope="module")
def point():
    return RationalSampler(101, magnitude=30).point(["q", "t", "u", "v"])


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_identity_bracket_first_coefficient(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    ser = bracket_bruteforce([], u, v, q, t, 1)
    assert ser.coeffs[0] == 1
    assert ser.coeffs[1] == (1 - u) * (1 - v) / ((1 - q) * (1 - t ** -1))


def test_identity_bracket_equals_exponential_form(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    assert bracket_bruteforce([], u, v, q, t, 5) == bracket_one_closed(u, v, q, t, 5)
    assert bracket_bruteforce([identity_op(q, t)], u, v, q, t, 4) == \
        bracket_one_closed(u, v, q, t, 4)


def test_bracket_rejects_vanishing_u(point):
    q, t, v = point["q"], point["t"], point["v"]
    with pytest.raises(CorrelatorError):
        bracket_bruteforce([], Fraction(0), v, q, t, 3)


def test_e1_bracket_closed_form(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    bf = bracket_bruteforce([tilde_e_op(1, q, t)], u, v, q, t, 4, primed=True)
    cf = closed_form_series("E1", 4, point)
    assert bf == cf


def test_e1_bracket_symbolic_order_3():
    bf = bracket_bruteforce([tilde_e_op(1, qs, ts)], us, vs, qs, ts, 3, primed=True)
    assert bf == closed_form_series("E1", 3)


def test_bracket_matches_its_displayed_definition_symbolic():
    """The chart sum against the docstring's formula summed term by term,
    with (-uQ)^{|mu|}, u^{-1} and a_mu as displayed."""
    word = [tilde_e_op(1, qs, ts)]
    assert bracket_bruteforce(word, us, vs, qs, ts, 3) == \
        bracket_definition(word, us, vs, qs, ts, 3)


def test_bracket_matches_its_displayed_definition_at_a_point():
    pt = RationalSampler(67, magnitude=30).point(["q", "t", "u", "v"])
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    word = [tilde_e_op(2, q, t), tilde_e_op(1, q, t)]
    for primed in (False, True):
        assert bracket_bruteforce(word, u, v, q, t, 6, primed=primed) == \
            bracket_definition(word, u, v, q, t, 6, primed=primed), primed


def test_operators_with_one_label_keep_their_own_eigenvalues():
    """Two E1 operators built at different (q, t) share a label, not an
    eigenvalue: the bracket of the word does not depend on their order and
    equals the bracket of one operator with the product eigenvalue."""
    a = tilde_e_op(1, Fraction(2, 3), Fraction(5, 7))
    b = tilde_e_op(1, Fraction(1, 5), Fraction(7, 2))
    args = (Fraction(3, 11), Fraction(13, 17), Fraction(2, 3), Fraction(5, 7), 3)
    ab = DiagonalOperator("ab", lambda mu: a.eigenvalue(mu) * b.eigenvalue(mu))
    assert bracket_bruteforce([a, b], *args) == bracket_bruteforce([b, a], *args)
    assert bracket_bruteforce([a, b], *args) == bracket_bruteforce([ab], *args)


def test_repeated_weight_operators_compute_their_euler_tails_once_each(point, monkeypatch):
    """Each E~_r operator keeps its own table of Euler tails, which lives as
    long as the operator: a word of two E2 computes the tails twice, not once
    per operator and partition, and the bracket equals its definition with
    every eigenvalue computed afresh."""
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    calls = []
    real = macdonald._euler_tails
    monkeypatch.setattr(macdonald, "_euler_tails", lambda j, t_: calls.append(j) or real(j, t_))
    got = bracket_bruteforce([tilde_e_op(2, q, t), tilde_e_op(2, q, t)], u, v, q, t, 5)
    assert calls == [2, 2]
    fresh = DiagonalOperator("E2", lambda mu: eigen_tildeE(mu, 2, q, t))
    assert got == bracket_definition([fresh, fresh], u, v, q, t, 5)


def test_power_op_rejects_an_unknown_operation():
    with pytest.raises(CorrelatorError, match="psi, lambda, sigma"):
        power_op("x", 1, 2, 3)


def test_evaluated_engine_coefficients_are_fractions(point):
    """The engine runs on integer numerators over one denominator at a
    Fraction point and makes every coefficient a Fraction, zeros and the
    empty word's 1 included."""
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    for weights in ([], [2], [1, 1], [3, 1]):
        series = correlators.vertex_tilde_bracket(weights, u, v, q, t, 4)
        assert [type(c) for c in series.coeffs] == [Fraction] * 5, weights
    for spec in ([("E", 2)], [("Psi", 2)], [("Lambda", 3)], [("Sigma", 2), ("E", 1)]):
        for primed in (True, False):
            series = vertex_correlator(operator_word(spec, q, t), u, v, q, t, 4, primed=primed)
            assert [type(c) for c in series.coeffs] == [Fraction] * 5, (spec, primed)


def test_bruteforce_cell_tables_against_vertex_engine_at_order_8():
    """From order 8 on many cells share (a, l) but not (a', l'), and the
    reverse, so a cell factor stored under the wrong key changes the sum.
    Two seeded points in one process: each call builds its own tables."""
    for seed in (41, 43):
        pt = RationalSampler(seed, magnitude=30).point(["q", "t", "u", "v"])
        q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
        word = [tilde_e_op(2, q, t), tilde_e_op(1, q, t)]
        assert bracket_bruteforce(word, u, v, q, t, 8, primed=True) == \
            vertex_correlator(word, u, v, q, t, 8), seed


def test_evaluated_engines_equal_the_symbolic_series_at_a_point():
    """The Fraction routes share their sums and products (scalar_dot,
    scalar_product), so a fault there could break both alike; the symbolic
    bracket folds its RationalFunctions instead and is evaluated at the
    point afterwards."""
    pt = RationalSampler(23, magnitude=30).point(["q", "t", "u", "v"])
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    word = [tilde_e_op(2, q, t), tilde_e_op(1, q, t)]
    symbolic = bracket_bruteforce([tilde_e_op(2, qs, ts), tilde_e_op(1, qs, ts)],
                                  us, vs, qs, ts, 5)
    want = [c.eval(pt) for c in symbolic.coeffs]
    assert list(bracket_bruteforce(word, u, v, q, t, 5).coeffs) == want
    assert list(vertex_correlator(word, u, v, q, t, 5, primed=False).coeffs) == want


def test_symbolic_bruteforce_prints_the_same_when_repeated():
    """The stored cell factors are shared by every partition of a call; none
    is changed in place, so the same call made twice prints the same."""
    def printed():
        series = bracket_bruteforce([tilde_e_op(1, qs, ts)], us, vs, qs, ts, 3)
        return [c.canonical_str() for c in series.coeffs]
    assert printed() == printed()


# ---------------------------------------------------------------------------
# base brackets
# ---------------------------------------------------------------------------

def test_base_bracket_closed_form_examples():
    Q = RationalFunction.var("Q")
    assert base_bracket_z(0) == 1 - Q * (1 - us) * (1 - vs) / (1 - us * Q)
    assert base_bracket_z(3) == -(1 - vs) * (1 - Q) / (1 - us * Q)
    assert base_bracket_z(-2) == (-us * Q) * Q * (1 - us) * (1 - us * vs * Q) / (1 - us * Q)


def test_base_bracket_series_matches_closed_forms():
    for k in range(-6, 7):
        closed = expand_closed_form(base_bracket_z(k), 8)
        direct = base_bracket_series(k, us, vs, 8)
        assert closed == direct, k


def test_base_bracket_k_dependence_is_sign_and_power():
    assert base_bracket_z(2) == -base_bracket_z(3)
    Q = RationalFunction.var("Q")
    assert base_bracket_z(-3) == base_bracket_z(-2) * (-us * Q)


# ---------------------------------------------------------------------------
# vertex engine
# ---------------------------------------------------------------------------

def test_vertex_engine_against_bruteforce(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    for weights in [(1,), (2,), (3,), (1, 1), (1, 2)]:
        word = [tilde_e_op(r, q, t) for r in weights]
        assert vertex_correlator(word, u, v, q, t, 5) == \
            bracket_bruteforce(word, u, v, q, t, 5, primed=True), weights


def test_vertex_engine_commutativity(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    a = vertex_correlator([tilde_e_op(1, q, t), tilde_e_op(2, q, t)], u, v, q, t, 5)
    b = vertex_correlator([tilde_e_op(2, q, t), tilde_e_op(1, q, t)], u, v, q, t, 5)
    assert a == b


def test_vertex_engine_unnormalized(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    word = [tilde_e_op(2, q, t)]
    raw = vertex_correlator(word, u, v, q, t, 4, primed=False)
    assert raw == bracket_bruteforce(word, u, v, q, t, 4, primed=False)


def test_vertex_engine_identity_word(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    assert vertex_correlator([identity_op(q, t)], u, v, q, t, 3) == \
        TruncatedSeries.constant(u * 0 + 1, 3)


def test_operator_without_kernel_is_rejected(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    bad = DiagonalOperator("opaque", lambda mu: Fraction(1))
    with pytest.raises(CorrelatorError):
        vertex_correlator([bad], u, v, q, t, 3)


def test_grading_check_reads_the_lowest_order_of_a_sparse_state():
    """The engine's state maps exponents to {Q-order: nonzero coefficient};
    an entry passes when no exponent exceeds its lowest order, in whatever
    order the orders were inserted."""
    one = Fraction(1)
    assert correlators._check_grading({(): {0: one}})
    assert correlators._check_grading({(2, 0): {3: one, 2: one}, (0, -1): {0: one}})
    assert not correlators._check_grading({(0, 1): {1: one}, (2, 0): {4: one, 1: one}})
    assert not correlators._check_grading({(1,): {0: one}})


GRADING_VIOLATION = """
from fractions import Fraction
from hilbmac import correlators as C
C._check_grading = lambda state: False
try:
    C.vertex_tilde_bracket([1], Fraction(2), Fraction(3), Fraction(5), Fraction(7), 2)
except C.CorrelatorError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_grading_violation_raises_also_under_python_O(point, monkeypatch):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    with monkeypatch.context() as m:
        m.setattr(correlators, "_check_grading", lambda state: False)
        with pytest.raises(CorrelatorError, match="Q-grading"):
            vertex_correlator([tilde_e_op(1, q, t)], u, v, q, t, 3)
    # python -O strips assert statements; the check must survive it
    package_root = str(Path(hilbmac.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-O", "-c", GRADING_VIOLATION],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_psi_words_through_decomposition(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    for m in (1, 2, 3):
        word = [psi_op(m, q, t)]
        assert vertex_correlator(word, u, v, q, t, 5) == \
            bracket_bruteforce(word, u, v, q, t, 5, primed=True), m
    two = [psi_op(1, q, t), psi_op(2, q, t)]
    assert vertex_correlator(two, u, v, q, t, 4) == \
        bracket_bruteforce(two, u, v, q, t, 4, primed=True)


def test_lambda_sigma_words(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    for make in (lambda_op, sigma_op):
        word = [make(2, q, t)]
        assert vertex_correlator(word, u, v, q, t, 4) == \
            bracket_bruteforce(word, u, v, q, t, 4, primed=True)


# ---------------------------------------------------------------------------
# closed-form library
# ---------------------------------------------------------------------------

def test_library_names_and_errors():
    for name in CLOSED_FORMS:
        closed_form_library(name)
    with pytest.raises(CorrelatorError):
        closed_form_library("Psi7")


def test_library_psi1_display():
    Q = RationalFunction.var("Q")
    expect = Q * (1 - us) * (1 - vs) / ((1 - qs) * (1 - ts ** -1) * (1 - us * Q))
    assert closed_form_library("Psi1") == expect


def test_library_lambda2_is_half_difference():
    lhs = closed_form_library("Lambda2")
    rhs = closed_form_library("Psi1sq") - closed_form_library("Psi2")
    assert lhs == rhs


def test_library_against_bruteforce(point):
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    cases = [("E2", [tilde_e_op(2, q, t)], 1),
             ("E1E1", [tilde_e_op(1, q, t), tilde_e_op(1, q, t)], 1),
             ("Psi2", [psi_op(2, q, t)], 1),
             ("Psi1sq", [psi_op(1, q, t), psi_op(1, q, t)], 1),
             ("Lambda2", [lambda_op(2, q, t)], 2)]
    for name, word, factor in cases:
        bf = bracket_bruteforce(word, u, v, q, t, 5, primed=True) * factor
        assert bf == closed_form_series(name, 5, point), name


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_library_scalars_agree_with_symbolic_evaluation(name, point):
    at_point = closed_form_series(name, 4).map(lambda c: c.eval(point))
    assert closed_form_series(name, 4, point) == at_point
    partial = expand_closed_form(closed_form_library(name, q=point["q"], t=point["t"]), 4)
    assert partial.map(lambda c: c.eval({"u": point["u"], "v": point["v"]})) == at_point


# ---------------------------------------------------------------------------
# connected correlators and the formal-QFT layer
# ---------------------------------------------------------------------------

def test_set_partitions_count():
    # Bell numbers 1, 1, 2, 5, 15
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)]:
        assert len(list(set_partitions(range(n)))) == bell


def test_connected_two_and_three_point_displays():
    rng = random.Random(2)
    labels = ("a", "b", "c")
    raw = {}
    for r in range(1, 4):
        for combo in itertools.combinations_with_replacement(labels, r):
            raw[combo] = Fraction(rng.randint(1, 30), rng.randint(1, 30))
    conn = connected_correlators(raw)
    assert conn[("a",)] == raw[("a",)]
    assert conn[("a", "b")] == raw[("a", "b")] - raw[("a",)] * raw[("b",)]
    expect = (raw[("a", "b", "c")]
              - raw[("a", "b")] * raw[("c",)]
              - raw[("a", "c")] * raw[("b",)]
              - raw[("b", "c")] * raw[("a",)]
              + 2 * raw[("a",)] * raw[("b",)] * raw[("c",)])
    assert conn[("a", "b", "c")] == expect


def test_connected_missing_subword():
    with pytest.raises(CorrelatorError):
        connected_correlators({("a", "b"): Fraction(1)})


def test_connected_inverts_disconnected_up_to_length_4():
    rng = random.Random(12)
    labels = ("p", "q", "r", "s")
    raw = {}
    for r in range(1, 5):
        for combo in itertools.combinations(labels, r):
            raw[combo] = Fraction(rng.randint(1, 40), rng.randint(1, 40))
    conn = connected_correlators(raw)
    assert disconnected_from_connected(conn) == raw


def test_fqft_trivial_and_single_correlator():
    res = fqft_layer({}, 3)
    assert res.Z == {(): Fraction(1)} and res.F == {} and res.G == {}
    c = Fraction(3, 2)
    res = fqft_layer({("1",): c, ("1", "1"): c * c}, 2)
    assert res.Z[("1",)] == c
    assert res.Z[("1", "1")] == c * c / 2
    assert res.F == {("1",): c}
    assert res.G == {}


def test_fqft_negative_degree_is_a_correlator_error():
    with pytest.raises(CorrelatorError, match="D must be >= 0"):
        fqft_layer({("a",): Fraction(2)}, -1)


def test_unknown_operator_names_the_known_ones():
    with pytest.raises(CorrelatorError, match="'Foo'; known: E, Psi, Lambda, Sigma"):
        operator_word([("E", 1), ("Foo", 1)], qs, ts)


def test_fqft_entropy_and_roundtrip():
    table = {("a",): Fraction(2), ("b",): Fraction(5),
             ("a", "b"): Fraction(3), ("a", "a"): Fraction(7),
             ("b", "b"): Fraction(11)}
    res = fqft_layer(table, 2)
    assert correlators_from_Z(res.Z) == table
    # G = sum (deg - 1) F-coefficient; degree-1 terms drop out
    assert ("a",) not in res.G
    assert res.G[("a", "b")] == res.F[("a", "b")]


@pytest.mark.parametrize("kind", ["fraction", "rational_function"])
def test_free_energy_generates_connected_correlators(kind):
    """F = log Z against the set-partition inversion: the coefficient of a
    sorted word w in F times prod (multiplicity)! is the connected correlator
    of w, for words with repeated labels."""
    rng = random.Random(5)
    table = {}
    for r in range(1, 4):
        for w in itertools.combinations_with_replacement(("a", "b", "c"), r):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            table[w] = c if kind == "fraction" else c * qs ** rng.randint(0, 2) + ts
    F = fqft_layer(table, 3).F
    for w, conn in connected_correlators(table).items():
        mult = 1
        for label in set(w):
            mult *= math.factorial(w.count(label))
        assert F.get(w, 0) * mult == conn, w


def test_oracle_equivalence_all_short_words(point):
    """Every word of length <= 2 over the weight-1..3 family agrees with the
    brute-force sum, including the six-variable case."""
    q, t, u, v = point["q"], point["t"], point["u"], point["v"]
    ops = {r: tilde_e_op(r, q, t) for r in (1, 2, 3)}
    words = [(r,) for r in (1, 2, 3)] + \
        [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a <= b]
    for ws in words:
        word = [ops[r] for r in ws]
        assert vertex_correlator(word, u, v, q, t, 4) == \
            bracket_bruteforce(word, u, v, q, t, 4, primed=True), ws


def test_vertex_engine_symbolic_small_order():
    word = [tilde_e_op(2, qs, ts)]
    vx = vertex_correlator(word, us, vs, qs, ts, 3)
    assert vx == closed_form_series("E2", 3)
