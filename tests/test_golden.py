"""CLI output and vertex-engine series compared byte for byte against a
golden corpus.

The goldens pin printed values and their reduction: a changed value, or a
value reduced further or less far before it prints, shows here.  They do
not pin the order of the arithmetic.  Sums are put over a factored common
denominator before they print, so reordered terms usually print the same
bytes, and a test that must catch reordering has to compare something else:
test_vertex_engine_factor_maps compares the factor maps of the engine's
series and of the localization sums, hashed, and
test_macdonald_table_factor_maps those of the symbolic table's
p-expansions, operator matrices and (q,t) Gram entries.  Each monomial is
hashed as its (name, exponent) pairs, so a digest does not depend on how
the kernel packs a monomial into an int.
A file is re-captured only when its output changes on purpose, with the
reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hilbmac.cli import dispatch, parse_word
from hilbmac.correlators import bracket_bruteforce, operator_word, vertex_correlator
from hilbmac.exactalg import BASE_ALPHABET, generators
from hilbmac.exactalg.poly import mono_key
from hilbmac.hilbert import (BundleInsertion, ToricInsertion, chi_C2_series, chi_via_correlators,
                             load_surface, toric_chi_series)
from hilbmac.macdonald import MacdonaldTable
from hilbmac.partitions import enumerate_partitions
from hilbmac.symfun import inner_product_qt

GOLDEN = Path(__file__).with_name("golden")

COMMANDS = {
    "symfun_convert": ["symfun", "convert", "--to", "m", "--input", json.dumps(
        {"basis": "e", "terms": [{"partition": [2, 1], "coeff": "3/2"}]})],
    "symfun_alpha": ["symfun", "alpha", "--degree", "4"],
    "symfun_betagamma": ["symfun", "betagamma", "--degree", "3"],
    "macdonald_P": ["macdonald", "P", "--mu", "3,1"],
    "macdonald_P_5_4": ["macdonald", "P", "--mu", "5,4"],
    "macdonald_norm": ["macdonald", "norm", "--mu", "3,1"],
    "macdonald_eigen": ["macdonald", "eigen", "--mu", "2,1", "--r", "2"],
    "macdonald_eps": ["macdonald", "eps", "--mu", "2,2"],
    "correlate_E1": ["correlate", "--word", "E1", "--order", "3", "--normalized"],
    "correlate_E2": ["correlate", "--word", "E2", "--order", "3", "--normalized"],
    "correlate_Psi2": ["correlate", "--word", "Psi2", "--order", "3", "--normalized"],
    "correlate_E1E1": ["correlate", "--word", "E1,E1", "--order", "3", "--normalized"],
    "correlate_Lambda2": ["correlate", "--word", "Lambda2", "--order", "3", "--normalized"],
    "correlate_Sigma2": ["correlate", "--word", "Sigma2", "--order", "3", "--normalized"],
    "correlate_E1_evaluate": ["correlate", "--word", "E1", "--order", "6", "--mode",
                              "evaluate", "--seed", "7", "--normalized"],
    "chi_psi2": ["chi", "--insert", "psi:2:1,0", "--order", "3"],
    "chi_psi2_order5": ["chi", "--insert", "psi:2:1,0", "--order", "5"],
    "chi_lambda_sigma": ["chi", "--insert", "lambda:2:0,1", "--insert", "sigma:2:1,0",
                         "--order", "3"],
    "chi_psi1_evaluate": ["chi", "--insert", "psi:1:0,0", "--order", "6", "--mode",
                          "evaluate", "--seed", "3"],
    "verify_main": ["verify", "main", "--order", "3"],
    "verify_main_A": ["verify", "main", "--A", "2,-1", "--order", "3"],
    "toric_check_P2": ["toric-check", "--surface", "P2", "--order", "2"],
    "toric_check_P1xP1": ["toric-check", "--surface", "P1xP1", "--order", "2"],
    "verify_all_C13_C14": ["verify-all", "--only", "C13,C14", "--format", "plain"],
    "symfun_convert_e_to_h": ["symfun", "convert", "--to", "h", "--input", json.dumps(
        {"basis": "e", "terms": [{"partition": [3, 1], "coeff": "2"}]})],
    "symfun_convert_m_to_e": ["symfun", "convert", "--to", "e", "--input", json.dumps(
        {"basis": "m", "terms": [{"partition": [2, 2, 1], "coeff": "1/3"}]})],
    "macdonald_eigen_r3": ["macdonald", "eigen", "--mu", "3,2,1", "--r", "3"],
    "chi_sigma3": ["chi", "--insert", "sigma:3:1,0", "--order", "3"],
    "correlate_Sigma3": ["correlate", "--word", "Sigma3", "--order", "2", "--normalized"],
    "toric_check_P2_lambda2": ["toric-check", "--surface", "P2", "--which", "lambda2",
                               "--order", "2"],
    "symfun_alpha_6": ["symfun", "alpha", "--degree", "6"],
    "symfun_betagamma_5": ["symfun", "betagamma", "--degree", "5"],
    "macdonald_eigen_r4": ["macdonald", "eigen", "--mu", "4,2", "--r", "4"],
    "toric_check_P1xP1_lambda2": ["toric-check", "--surface", "P1xP1", "--which", "lambda2",
                                  "--order", "3"],
    "symfun_convert_p_to_m": ["symfun", "convert", "--to", "m", "--input", json.dumps(
        {"basis": "p", "terms": [{"partition": [3, 2, 1], "coeff": "5"}]})],
    "symfun_convert_m_to_p": ["symfun", "convert", "--to", "p", "--input", json.dumps(
        {"basis": "m", "terms": [{"partition": [3, 2, 1], "coeff": "5"}]})],
    "symfun_convert_p_to_m_8": ["symfun", "convert", "--to", "m", "--input", json.dumps(
        {"basis": "p", "terms": [{"partition": [1] * 8, "coeff": "1"}]})],
    "symfun_convert_m_to_p_8": ["symfun", "convert", "--to", "p", "--input", json.dumps(
        {"basis": "m", "terms": [{"partition": [3, 2, 2, 1], "coeff": "1"}]})],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_cli_output(capsys, name):
    assert dispatch(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


#: symbolic vertex-engine series: label -> (operator word as (name, weight)
#: pairs, Q-order, primed).  The correlate goldens print the brute-force
#: series, so only these pin the engine's printed form.
E_WORDS = {(2,): 4, (1, 1): 4, (3,): 4, (2, 2): 3, (1, 2): 4, (2, 1): 4, (1, 1, 1): 3}
VERTEX_CASES = {
    **{f"E{ws} order {order}": ([("E", w) for w in ws], order, True)
       for ws, order in E_WORDS.items()},
    **{f"{op.lower()}2 unprimed order 3": ([(op, 2)], 3, False)
       for op in ("Psi", "Lambda", "Sigma")},
}


def vertex_golden_lines():
    """label -> printed series, one line each of vertex_engine_series.txt."""
    lines = (GOLDEN / "vertex_engine_series.txt").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


@pytest.mark.parametrize("label", list(VERTEX_CASES))
def test_golden_vertex_engine_series(label):
    spec, order, primed = VERTEX_CASES[label]
    q, t, u, v = generators("q", "t", "u", "v")
    series = vertex_correlator(operator_word(spec, q, t), u, v, q, t, order, primed=primed)
    assert str(series) == vertex_golden_lines()[label]


#: symbolic engine words whose factor maps pin the engine's arithmetic
#: order: (word as the CLI writes it, Q-order, primed); unprimed Lambda3,E1
#: is left out, as it equals the primed series below order 4
FACTOR_MAP_WORDS = [("E2", 4, True), ("E2", 4, False), ("E1,E1", 4, True),
                    ("E1,E1", 4, False), ("E1,E2", 4, True), ("E1,E2", 4, False),
                    ("Psi3", 3, True), ("Psi3", 3, False), ("Lambda3,E1", 3, True),
                    ("E1", 6, True)]
#: label -> the series as a function of the generators q, t, u, v, t1, t2;
#: the engine's words, then the localization route
FACTOR_MAP_CASES = {
    **{f"{word} order {order}{'' if primed else ' unprimed'}":
       (lambda q, t, u, v, t1, t2, word=word, order=order, primed=primed: vertex_correlator(
           operator_word(parse_word(word), q, t), u, v, q, t, order, primed=primed))
       for word, order, primed in FACTOR_MAP_WORDS},
    "chi psi:2:1,0 twist 1,-1 order 3": lambda q, t, u, v, t1, t2: chi_via_correlators(
        [BundleInsertion("psi", 2, (1, 0))], (1, -1), u, v, 3, t1, t2),
    # the localization route: chart_series multiplies each mu's twist
    # factors, then its tangent factors, then the key's factors
    **{f"bruteforce {word} order 3": (
        lambda q, t, u, v, t1, t2, word=word: bracket_bruteforce(
            operator_word(parse_word(word), q, t), u, v, q, t, 3, primed=True))
       for word in ("E1", "Psi2", "Lambda2", "Sigma2")},
    "bruteforce E2 order 3 unprimed": lambda q, t, u, v, t1, t2: bracket_bruteforce(
        operator_word(parse_word("E2"), q, t), u, v, q, t, 3),
    "chi_C2 psi:2:1,0 lambda:1:0,1 sigma:2:0,0 twist 1,0 order 3":
        lambda q, t, u, v, t1, t2: chi_C2_series(
            [BundleInsertion("psi", 2, (1, 0)), BundleInsertion("lambda", 1, (0, 1)),
             BundleInsertion("sigma", 2, (0, 0))], (1, 0), u, v, 3, t1, t2),
    "toric P2 L1 lambda, L1 sigma order 2 key 1,1": lambda q, t, u, v, t1, t2: toric_chi_series(
        load_surface("P2"), [ToricInsertion("L1", "lambda"), ToricInsertion("L1", "sigma")],
        None, u, v, 2, t1, t2)[(1, 1)],
}

#: label -> the first 16 hex digits of the sha256 of factor_maps(series)
FACTOR_MAP_DIGESTS = {
    "E2 order 4": "212c68d79f22b97a",
    "E2 order 4 unprimed": "5cf1751d1f3f8980",
    "E1,E1 order 4": "f01ee8c91da94b53",
    "E1,E1 order 4 unprimed": "0acecd4b115d65e1",
    "E1,E2 order 4": "4d59987cb9a05be9",
    "E1,E2 order 4 unprimed": "54035e040c974fde",
    "Psi3 order 3": "07f0897488fc1179",
    "Psi3 order 3 unprimed": "b6fd2f4cd76c4505",
    "Lambda3,E1 order 3": "da9f9e3f2f3a7d00",
    "E1 order 6": "0d178dee9e36c82f",
    "chi psi:2:1,0 twist 1,-1 order 3": "bbbf55f68560127e",
    "bruteforce E1 order 3": "f097bdaf93e0a8c8",
    "bruteforce Psi2 order 3": "8e31ce0100439edf",
    "bruteforce Lambda2 order 3": "6502b9fa66636b24",
    "bruteforce Sigma2 order 3": "78844eddfea8f98e",
    "bruteforce E2 order 3 unprimed": "e3e2f20f7b73d11b",
    "chi_C2 psi:2:1,0 lambda:1:0,1 sigma:2:0,0 twist 1,0 order 3": "585f1bda603484ee",
    "toric P2 L1 lambda, L1 sigma order 2 key 1,1": "045fee75404471d5",
}


def exponents(m) -> tuple:
    """A packed monomial as its (name, exponent) pairs, so that a digest
    pins the arithmetic and not how the kernel packs a monomial."""
    return tuple((BASE_ALPHABET[i], -ne) for i, ne in mono_key(m)[1])


def terms(p) -> list:
    """A polynomial's terms in dict order, each monomial decoded."""
    return [(exponents(m), c) for m, c in p.terms.items()]


def factor_map(c) -> tuple:
    """A rational function's constants, monomial and factor map, the factors
    and each factor's terms in the order the arithmetic put them there."""
    return (c.nc, c.dc, exponents(c.mono), [(terms(p), k) for p, k in c.fac.items()])


def factor_maps(series) -> str:
    """Each coefficient's factor_map.  Sorted terms would not do: a
    contraction that visits its state in reverse leaves every factor map
    equal up to the order of the terms."""
    return repr([factor_map(c) for c in series.coeffs])


@pytest.mark.parametrize("label", list(FACTOR_MAP_CASES))
def test_vertex_engine_factor_maps(label):
    """The engine's and the localization sums' symbolic sums and products in
    a fixed order: a reordered contraction, or a chart term that multiplies
    its cell factors in another order, prints the same bytes above but
    builds other factor maps."""
    series = FACTOR_MAP_CASES[label](*generators("q", "t", "u", "v", "t1", "t2"))
    digest = hashlib.sha256(factor_maps(series).encode()).hexdigest()[:16]
    assert digest == FACTOR_MAP_DIGESTS[label]


def _operator_matrices(q, t, top: int, entry) -> list:
    """The table's operator matrix at each degree 1..top, rows and entries in
    the order it builds them, each entry read by entry."""
    table = MacdonaldTable(q, t)
    return [[(kappa, [(nu, entry(e)) for nu, e in row.items()])
             for kappa, row in table._operator_matrix(enumerate_partitions(n)).items()]
            for n in range(1, top + 1)]


def _p_expansions(q, t, top: int) -> list:
    table = MacdonaldTable(q, t)
    return [(mu, [(k, factor_map(c)) for k, c in table.P_in_p(mu).terms.items()])
            for n in range(1, top + 1) for mu in enumerate_partitions(n)]


def _qt_gram(q, t, degrees) -> list:
    table = MacdonaldTable(q, t)
    return [(lam, mu, factor_map(inner_product_qt(table.P_in_p(lam), table.P_in_p(mu), q, t)))
            for n in degrees for lam in enumerate_partitions(n) for mu in enumerate_partitions(n)]


#: label -> the value as a function of the generators q, t: the symbolic
#: table's p-expansions (L1 m -> p transition), its operator matrix over
#: LaurentPoly and over rational functions (L2), and <P_lam, P_mu>_{q,t}
TABLE_FACTOR_MAP_CASES = {
    "P_in_p to degree 4": lambda q, t: _p_expansions(q, t, 4),
    "Laurent operator matrix to degree 5": lambda q, t: _operator_matrices(
        q, t, 5, terms),
    "Laurent operator matrix at 1/q to degree 5": lambda q, t: _operator_matrices(
        1 / q, t, 5, terms),
    "rational operator matrix to degree 3": lambda q, t: _operator_matrices(
        (1 - q) / (1 + t), t ** 2 / (1 - q), 3, factor_map),
    "qt Gram of P to degree 3": lambda q, t: _qt_gram(q, t, (1, 2, 3)),
    "qt Gram of P at degree 4": lambda q, t: _qt_gram(q, t, (4,)),
}

#: label -> the first 16 hex digits of the sha256 of the value's repr
TABLE_FACTOR_MAP_DIGESTS = {
    "P_in_p to degree 4": "947a69118c2656fa",
    "Laurent operator matrix to degree 5": "f8273984bec0bf93",
    "Laurent operator matrix at 1/q to degree 5": "c89db85001f7c5df",
    "rational operator matrix to degree 3": "9f08125cee162d25",
    "qt Gram of P to degree 3": "218e7c3ccd4fd60b",
    "qt Gram of P at degree 4": "d77ee0bde4b453db",
}


@pytest.mark.parametrize("label", list(TABLE_FACTOR_MAP_CASES))
def test_macdonald_table_factor_maps(label):
    """The symbolic table's sums and products in a fixed order: a transition,
    an operator matrix or a Gram entry that adds or multiplies in another
    order can print the same value but builds other factor maps or terms."""
    value = TABLE_FACTOR_MAP_CASES[label](*generators("q", "t"))
    digest = hashlib.sha256(repr(value).encode()).hexdigest()[:16]
    assert digest == TABLE_FACTOR_MAP_DIGESTS[label]
