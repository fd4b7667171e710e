"""The library's verification gate: every displayed identity checked against
an independent route, each criterion named by a stable identifier.

Criteria run in evaluate mode (seeded random rational points, one-sided
error) or symbolic mode (exact rational-function identities) as indicated.
Orders are pinned; they are part of the contract, not tuning knobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .correlators import (bracket_bruteforce, base_bracket_series,
                          base_bracket_z, closed_form_series,
                          connected_correlators, disconnected_from_connected,
                          lambda_op, psi_op, tilde_e_op, vertex_correlator)
from .exactalg.ratfun import RationalFunction
from .exactalg.sampling import RationalSampler
from .exactalg.series import TruncatedSeries, expand_closed_form
from .hilbert import (BundleInsertion, chi_C2_series, chi_via_correlators,
                      load_surface, toric_correlator_checks,
                      verify_main_identity)
from .macdonald import (MacdonaldTable, apply_E, b_norm, eigen_E,
                        specialize_eps, specialize_eps_via_p, sym_of_cells)
from .partitions import (enumerate_partitions, goettsche_count_check,
                         nekrasov_okounkov_check, partitions_upto)
from .symfun import (alpha_coefficients, bc_product_check,
                     beta_gamma_coefficients, inner_product_qt)


@dataclass
class CriterionResult:
    ident: str
    name: str
    ok: bool
    detail: str = ""


def _mismatch(where: str, n, lhs, rhs) -> str:
    return f"{where}: order {n}: {lhs} != {rhs}"


def _series_eq(a: TruncatedSeries, b: TruncatedSeries, where: str) -> Tuple[bool, str]:
    for n in range(min(a.order, b.order) + 1):
        if not a.coeffs[n] == b.coeffs[n]:
            return False, _mismatch(where, n, a.coeffs[n], b.coeffs[n])
    return True, ""


def _points(seed: int, trials: int, names=("q", "t", "u", "v")) -> List[Dict[str, Fraction]]:
    sampler = RationalSampler(seed, magnitude=40)
    return [sampler.point(names) for _ in range(trials)]


# --- C01 -------------------------------------------------------------------

def c01_base_brackets(seed: int = 0, trials: int = 3) -> CriterionResult:
    u, v = RationalFunction.var("u"), RationalFunction.var("v")
    for k in range(-6, 7):
        closed = expand_closed_form(base_bracket_z(k), 8)
        direct = base_bracket_series(k, u, v, 8)
        ok, msg = _series_eq(closed, direct, f"z^{k}")
        if not ok:
            return CriterionResult("C01", "base brackets", False, msg)
    return CriterionResult("C01", "base brackets", True)


# --- C02..C04: one- and two-point closed forms -------------------------------

def _closed_vs_bruteforce(ident, label, make_word, name, order, seed, trials,
                          factor=1) -> CriterionResult:
    for pt in _points(seed, trials):
        q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
        bf = bracket_bruteforce(make_word(q, t), u, v, q, t, order, primed=True)
        if factor != 1:
            bf = bf * factor
        cf = closed_form_series(name, order, pt)
        ok, msg = _series_eq(bf, cf, f"{label} at {pt}")
        if not ok:
            return CriterionResult(ident, label, False, msg)
    return CriterionResult(ident, label, True)


def c02_e1_bracket(seed: int = 0, trials: int = 3) -> CriterionResult:
    res = _closed_vs_bruteforce("C02", "one-point weight-1 bracket",
                                lambda q, t: [tilde_e_op(1, q, t)], "E1", 6, seed, trials)
    if not res.ok:
        return res
    # symbolic at Q^4
    q, t = RationalFunction.var("q"), RationalFunction.var("t")
    u, v = RationalFunction.var("u"), RationalFunction.var("v")
    bf = bracket_bruteforce([tilde_e_op(1, q, t)], u, v, q, t, 4, primed=True)
    cf = closed_form_series("E1", 4)
    ok, msg = _series_eq(bf, cf, "symbolic")
    return CriterionResult("C02", res.name, ok, msg)


def c03_e2_bracket(seed: int = 0, trials: int = 3) -> CriterionResult:
    return _closed_vs_bruteforce("C03", "one-point weight-2 bracket",
                                 lambda q, t: [tilde_e_op(2, q, t)], "E2", 6, seed, trials)


def c04_e1e1_bracket(seed: int = 0, trials: int = 3) -> CriterionResult:
    return _closed_vs_bruteforce("C04", "two-point weight-1 bracket",
                                 lambda q, t: [tilde_e_op(1, q, t), tilde_e_op(1, q, t)],
                                 "E1E1", 6, seed, trials)


# --- C05: engine vs oracle ---------------------------------------------------

def c05_vertex_vs_bruteforce(seed: int = 0, trials: int = 3) -> CriterionResult:
    words = [(1,), (2,), (3,), (1, 1), (1, 2)]
    for pt in _points(seed, trials):
        q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
        for ws in words:
            word = [tilde_e_op(r, q, t) for r in ws]
            bf = bracket_bruteforce(word, u, v, q, t, 5, primed=True)
            vx = vertex_correlator(word, u, v, q, t, 5)
            ok, msg = _series_eq(bf, vx, f"word {ws} at {pt}")
            if not ok:
                return CriterionResult("C05", "vertex engine vs brute force", False, msg)
    return CriterionResult("C05", "vertex engine vs brute force", True)


# --- C06: Adams/exterior one- and two-point forms ----------------------------

def c06_psi_closed_forms(seed: int = 0, trials: int = 3) -> CriterionResult:
    cases = [
        ("Psi1", lambda q, t: [psi_op(1, q, t)], 1),
        ("Psi2", lambda q, t: [psi_op(2, q, t)], 1),
        ("Psi1sq", lambda q, t: [psi_op(1, q, t), psi_op(1, q, t)], 1),
        ("Lambda2", lambda q, t: [lambda_op(2, q, t)], 2),
    ]
    for name, mk, factor in cases:
        res = _closed_vs_bruteforce("C06", "power-operation closed forms",
                                    mk, name, 5, seed, trials, factor=factor)
        if not res.ok:
            return res
    return CriterionResult("C06", "power-operation closed forms", True)


# --- C07: Macdonald suite, exact symbolic ------------------------------------

def c07_macdonald_suite(seed: int = 0, trials: int = 3) -> CriterionResult:
    from .partitions import dominates
    q, t = RationalFunction.var("q"), RationalFunction.var("t")
    u = RationalFunction.var("u")
    table = MacdonaldTable(q, t, degree_bound=6)
    for n in range(0, 7):
        parts = enumerate_partitions(n)
        for lam in parts:
            P = table.P(lam)
            if not P.terms.get(lam) == 1:
                return CriterionResult("C07", "Macdonald suite", False,
                                       f"unit leading coefficient fails at {lam}")
            for mu in P.terms:
                if mu != lam and not dominates(lam, mu):
                    return CriterionResult("C07", "Macdonald suite", False,
                                           f"triangularity fails: {mu} in P_{lam}")
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                ip = inner_product_qt(table.P_in_p(lam), table.P_in_p(mu), q, t)
                if lam == mu:
                    if not ip * b_norm(lam, q, t) == 1:
                        return CriterionResult("C07", "Macdonald suite", False,
                                               f"norm fails at {lam}")
                elif ip:
                    return CriterionResult("C07", "Macdonald suite", False,
                                           f"orthogonality fails at {lam}, {mu}")
        for lam in parts:
            lhs = apply_E(table.P_in_p(lam), q, t)
            rhs = table.P_in_p(lam).scale(eigen_E(lam, q, t))
            if not lhs == rhs:
                return CriterionResult("C07", "Macdonald suite", False,
                                       f"eigenrelation fails at {lam}")
    for lam in partitions_upto(5):
        if not specialize_eps(lam, u, q, t) == specialize_eps_via_p(lam, u, table):
            return CriterionResult("C07", "Macdonald suite", False,
                                   f"specialization two-path fails at {lam}")
    return CriterionResult("C07", "Macdonald suite", True)


# --- C08: universal coefficient tables ----------------------------------------

def c08_alpha_bc_tables(seed: int = 0, trials: int = 3) -> CriterionResult:
    al = alpha_coefficients(3)
    expected = {(1,): Fraction(1), (2,): Fraction(1), (1, 1): Fraction(-1, 2),
                (3,): Fraction(1), (2, 1): Fraction(-1), (1, 1, 1): Fraction(1, 3)}
    for k, v in expected.items():
        if al[k] != v:
            return CriterionResult("C08", "alpha and b/c tables", False,
                                   f"alpha{k} = {al[k]} != {v}")
    q = RationalFunction.var("q")
    beta, gamma = beta_gamma_coefficients(4, q)
    # displayed b_1..b_4
    b_expect = {
        (1,): 1 / (1 - q),
        (2,): 1 / (1 - q ** 2),
        (1, 1): q / ((1 - q) * (1 - q ** 2)),
        (3,): 1 / (1 - q ** 3),
        (2, 1): (q + 2 * q ** 2) / ((1 - q ** 2) * (1 - q ** 3)),
        (1, 1, 1): q ** 3 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
        (4,): 1 / (1 - q ** 4),
        (3, 1): (q + q ** 2 + 2 * q ** 3) / ((1 - q ** 3) * (1 - q ** 4)),
        (2, 2): q ** 2 / ((1 - q ** 2) * (1 - q ** 4)),
        (2, 1, 1): (q ** 3 + 2 * q ** 4 + 3 * q ** 5) / ((1 - q ** 2) * (1 - q ** 3) * (1 - q ** 4)),
        (1, 1, 1, 1): q ** 6 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - q ** 4)),
    }
    for k, v in b_expect.items():
        if not beta[k] == v:
            return CriterionResult("C08", "alpha and b/c tables", False,
                                   f"beta{k} = {beta[k]} != {v}")
    # displayed c_1..c_4 magnitudes; the composite-term signs follow the
    # (-1)^{length} pattern forced by the recursion and the inverse-product
    # identity (the printed all-minus variants contradict both)
    c_expect = {
        (1,): -1 / (1 - q),
        (2,): -1 / (1 - q ** 2),
        (1, 1): 1 / ((1 - q) * (1 - q ** 2)),
        (3,): -1 / (1 - q ** 3),
        (2, 1): (q + 2) / ((1 - q ** 2) * (1 - q ** 3)),
        (1, 1, 1): -1 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3)),
        (4,): -1 / (1 - q ** 4),
        (3, 1): (q ** 2 + q + 2) / ((1 - q ** 3) * (1 - q ** 4)),
        (2, 2): 1 / ((1 - q ** 2) * (1 - q ** 4)),
        (2, 1, 1): -(q ** 2 + 2 * q + 3) / ((1 - q ** 2) * (1 - q ** 3) * (1 - q ** 4)),
        (1, 1, 1, 1): 1 / ((1 - q) * (1 - q ** 2) * (1 - q ** 3) * (1 - q ** 4)),
    }
    for k, v in c_expect.items():
        if not gamma[k] == v:
            return CriterionResult("C08", "alpha and b/c tables", False,
                                   f"gamma{k} = {gamma[k]} != {v}")
    if not bc_product_check(8):
        return CriterionResult("C08", "alpha and b/c tables", False,
                               "inverse-product identity fails at order 8")
    return CriterionResult("C08", "alpha and b/c tables", True,
                           "composite c-term signs follow the recursion")


# --- C09: cell-multiset two-path ----------------------------------------------

def c09_sym_of_cells(seed: int = 0, trials: int = 3) -> CriterionResult:
    for pt in _points(seed, trials, names=("q", "t")):
        q, t = pt["q"], pt["t"]
        for lam in partitions_upto(6):
            for basis in ("e", "h", "p"):
                for k in (1, 2, 3):
                    res = sym_of_cells(lam, basis, k, q, t)
                    if not res.agree:
                        return CriterionResult(
                            "C09", "cell-multiset two-path", False,
                            f"{basis}_{k} at {lam}: {res.value} != {res.formula_value}")
    return CriterionResult("C09", "cell-multiset two-path", True)


# --- C10: the exponential identity --------------------------------------------

def c10_main_identity(seed: int = 0, trials: int = 3) -> CriterionResult:
    for pt in _points(seed, trials, names=("t1", "t2", "u", "v")):
        for A in [(0, 0), (1, 0), (2, -1)]:
            rep = verify_main_identity(A, 6, pt["u"], pt["v"], pt["t1"], pt["t2"])
            if not rep.ok:
                return CriterionResult("C10", "exponential identity", False,
                                       _mismatch(f"A={A} at {pt}", *rep.first_mismatch))
    t1, t2 = RationalFunction.var("t1"), RationalFunction.var("t2")
    u, v = RationalFunction.var("u"), RationalFunction.var("v")
    rep = verify_main_identity((0, 0), 3, u, v, t1, t2)
    if not rep.ok:
        return CriterionResult("C10", "exponential identity", False,
                               _mismatch("symbolic A=(0,0)", *rep.first_mismatch))
    return CriterionResult("C10", "exponential identity", True)


# --- C11: the central theorem --------------------------------------------------

def c11_central_theorem(seed: int = 0, trials: int = 3) -> CriterionResult:
    weights = [(0, 0), (1, 0), (0, 1)]
    rng = random.Random(seed + 1)
    for pt in _points(seed, trials, names=("t1", "t2", "u", "v")):
        t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
        cases = []
        for m1 in (1, 2):
            for A1 in weights:
                cases.append(([BundleInsertion("psi", m1, A1)], rng.choice(weights)))
        for m1 in (1, 2):
            for m2 in (1, 2):
                cases.append(([
                    BundleInsertion("psi", m1, rng.choice(weights)),
                    BundleInsertion("psi", m2, rng.choice(weights))],
                    rng.choice(weights)))
        for ins, A in cases:
            lhs = chi_C2_series(ins, A, u, v, 5, t1, t2)
            rhs = chi_via_correlators(ins, A, u, v, 5, t1, t2)
            ok, msg = _series_eq(lhs, rhs, f"ins={ins} A={A}")
            if not ok:
                return CriterionResult("C11", "central theorem", False, msg)
    return CriterionResult("C11", "central theorem", True)


# --- C12: toric checks -----------------------------------------------------------

def c12_toric_checks(seed: int = 0, trials: int = 3) -> CriterionResult:
    for pt in _points(seed, trials, names=("t1", "t2", "u", "v")):
        for name in ("P2", "P1xP1"):
            surf = load_surface(name)
            rep = toric_correlator_checks(surf, 3, pt["u"], pt["v"], pt["t1"], pt["t2"])
            if not rep.ok:
                bad = ", ".join(k for k, s in rep.details.items() if s != "ok")
                return CriterionResult("C12", "toric surface checks", False,
                                       f"{name} at {pt}: {bad}")
    return CriterionResult("C12", "toric surface checks", True)


# --- C13: classical q-series -----------------------------------------------------

def c13_classical_qseries(seed: int = 0, trials: int = 3) -> CriterionResult:
    for m in (0, 1, 2, Fraction(1, 2)):
        if not nekrasov_okounkov_check(m, 6):
            return CriterionResult("C13", "classical q-series checks", False,
                                   f"hook-length identity fails at m={m}")
    if not goettsche_count_check(20):
        return CriterionResult("C13", "classical q-series checks", False,
                               "partition counts disagree with the Euler product")
    return CriterionResult("C13", "classical q-series checks", True)


# --- C14: connected-correlator inversion ------------------------------------------

def c14_connected_inversion(seed: int = 0, trials: int = 3) -> CriterionResult:
    rng = random.Random(seed)
    labels = ("w", "x", "y", "z")
    raw: Dict[Tuple, object] = {}
    import itertools
    for r in range(1, 5):
        for combo in itertools.combinations(labels, r):
            raw[combo] = Fraction(rng.randint(1, 60), rng.randint(1, 60))
    conn = connected_correlators(raw)
    # two-point display
    for a, b in itertools.combinations(labels, 2):
        expect = raw[(a, b)] - raw[(a,)] * raw[(b,)]
        if conn[(a, b)] != expect:
            return CriterionResult("C14", "connected-correlator inversion", False,
                                   f"two-point at ({a},{b})")
    back = disconnected_from_connected(conn)
    for w in raw:
        if back[w] != raw[w]:
            return CriterionResult("C14", "connected-correlator inversion", False,
                                   f"roundtrip at {w}")
    fwd = disconnected_from_connected({w: Fraction(rng.randint(1, 9)) for w in raw})
    conn2 = connected_correlators(fwd)
    for w in raw:
        if len(w) == 1 and conn2[w] != fwd[w]:
            return CriterionResult("C14", "connected-correlator inversion", False,
                                   f"one-point at {w}")
    return CriterionResult("C14", "connected-correlator inversion", True)


CRITERIA: List[Tuple[str, Callable[..., CriterionResult]]] = [
    ("C01", c01_base_brackets),
    ("C02", c02_e1_bracket),
    ("C03", c03_e2_bracket),
    ("C04", c04_e1e1_bracket),
    ("C05", c05_vertex_vs_bruteforce),
    ("C06", c06_psi_closed_forms),
    ("C07", c07_macdonald_suite),
    ("C08", c08_alpha_bc_tables),
    ("C09", c09_sym_of_cells),
    ("C10", c10_main_identity),
    ("C11", c11_central_theorem),
    ("C12", c12_toric_checks),
    ("C13", c13_classical_qseries),
    ("C14", c14_connected_inversion),
]


def run_all(seed: int = 1, trials: int = 3,
            only: Optional[List[str]] = None) -> List[CriterionResult]:
    return [f(seed, trials) for i, f in CRITERIA if only is None or i in only]
