"""The library's verification gate: every displayed identity checked against
an independent route, each criterion named by a stable identifier.

Criteria run in evaluate mode (seeded random rational points, one-sided
error) or symbolic mode (exact rational-function identities) as indicated.
Orders are pinned; they are part of the contract, not tuning knobs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .correlators import (CLOSED_FORMS, bracket_bruteforce, base_bracket_series,
                          base_bracket_z, closed_form_series,
                          connected_correlators, disconnected_from_connected,
                          operator_word, power_op, tilde_e_op, vertex_correlator)
from .exactalg.ratfun import (ExactAlgError, RationalFunction, generators, one_like,
                              scalar_product, scalar_sum)
from .exactalg.sampling import RationalSampler
from .exactalg.series import TruncatedSeries, expand_closed_form, first_difference
from .hilbert import (BundleInsertion, chi_C2_series, chi_via_correlators,
                      load_surface, toric_correlator_checks,
                      verify_main_identity)
from .macdonald import (MacdonaldTable, apply_E, b_norm, eigen_E, eigen_tildeE,
                        integral_factors, specialize_eps, specialize_eps_via_p)
from .partitions import (LazyTable, dominates, enumerate_partitions, goettsche_count_check,
                         nekrasov_okounkov_check, partitions_upto, z_factor)
from .symfun import (SymmetricFunction, alpha_coefficients, bc_product_check,
                     beta_gamma_coefficients, to_p)


@dataclass
class CriterionResult:
    ident: str
    name: str
    ok: bool
    detail: str = ""


#: the gate, in order: (identifier, criterion taking (seed, trials))
CRITERIA: List[Tuple[str, Callable[..., CriterionResult]]] = []


def criterion(ident: str, name: str):
    """Register a check as the gate criterion ident.  The check takes (seed,
    trials) and returns (ok, detail); the registered criterion returns them
    as a CriterionResult."""
    def register(check: Callable[[int, int], Tuple[bool, str]]):
        @functools.wraps(check)
        def run(seed: int = 0, trials: int = 3) -> CriterionResult:
            ok, detail = check(seed, trials)
            return CriterionResult(ident, name, ok, detail)
        CRITERIA.append((ident, run))
        return run
    return register


def _mismatch(where: str, n, lhs, rhs) -> str:
    return f"{where}: order {n}: {lhs} != {rhs}"


def _series_eq(a: TruncatedSeries, b: TruncatedSeries, where: str) -> Tuple[bool, str]:
    n = first_difference(a, b)
    if n is None:
        return True, ""
    return False, _mismatch(where, n, a.coeffs[n], b.coeffs[n])


def _points(seed: int, trials: int, names=("q", "t", "u", "v")) -> List[Dict[str, Fraction]]:
    sampler = RationalSampler(seed, magnitude=40)
    return [sampler.point(names) for _ in range(trials)]


@criterion("C01", "base brackets")
def c01_base_brackets(seed, trials):
    u, v = generators("u", "v")
    for k in range(-6, 7):
        closed = expand_closed_form(base_bracket_z(k), 8)
        direct = base_bracket_series(k, u, v, 8)
        ok, msg = _series_eq(closed, direct, f"z^{k}")
        if not ok:
            return ok, msg
    return True, ""


# --- C02..C04, C06: closed forms against the brute-force sum -----------------

def _closed_vs_bruteforce(names, order: int, seed: int, trials: int) -> Tuple[bool, str]:
    """Each named library entry against its word's brute-force normalized
    bracket times the entry's multiple, at seeded points."""
    for name in names:
        spec, multiple = CLOSED_FORMS[name]
        for pt in _points(seed, trials):
            q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
            bf = bracket_bruteforce(operator_word(spec, q, t), u, v, q, t, order, primed=True)
            cf = closed_form_series(name, order, pt)
            ok, msg = _series_eq(bf * multiple, cf, f"{name} at {pt}")
            if not ok:
                return ok, msg
    return True, ""


@criterion("C02", "one-point weight-1 bracket")
def c02_e1_bracket(seed, trials):
    ok, msg = _closed_vs_bruteforce(("E1",), 6, seed, trials)
    if not ok:
        return ok, msg
    # symbolic at Q^4
    q, t, u, v = generators("q", "t", "u", "v")
    bf = bracket_bruteforce([tilde_e_op(1, q, t)], u, v, q, t, 4, primed=True)
    cf = closed_form_series("E1", 4)
    return _series_eq(bf, cf, "symbolic")


@criterion("C03", "one-point weight-2 bracket")
def c03_e2_bracket(seed, trials):
    return _closed_vs_bruteforce(("E2",), 6, seed, trials)


@criterion("C04", "two-point weight-1 bracket")
def c04_e1e1_bracket(seed, trials):
    return _closed_vs_bruteforce(("E1E1",), 6, seed, trials)


@criterion("C05", "vertex engine vs brute force")
def c05_vertex_vs_bruteforce(seed, trials):
    words = [(1,), (2,), (3,), (1, 1), (1, 2)]
    for pt in _points(seed, trials):
        q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
        for ws in words:
            word = [tilde_e_op(r, q, t) for r in ws]
            bf = bracket_bruteforce(word, u, v, q, t, 5, primed=True)
            vx = vertex_correlator(word, u, v, q, t, 5)
            ok, msg = _series_eq(bf, vx, f"word {ws} at {pt}")
            if not ok:
                return ok, msg
    return True, ""


@criterion("C06", "power-operation closed forms")
def c06_psi_closed_forms(seed, trials):
    return _closed_vs_bruteforce(("Psi1", "Psi2", "Psi1sq", "Lambda2"), 5, seed, trials)


def gram_failure(table: MacdonaldTable, n: int) -> Optional[str]:
    """Orthogonality and norms of the table's integral forms at degree n, as
    one integer identity per pair lam >= mu (in the frozen order):

        sum_rho z_rho D prod(1 - q^rho_i)/prod(1 - t^rho_i) J_lam[rho] J_mu[rho]
            = delta_{lam mu} D c_lam c'_lam,

    J[rho] the p-coefficients and D = prod_k (1 - t^k)^floor(n/k), so every
    weight is a polynomial.  With N the common denominator of the m -> p
    matrix, N^2 (lhs - rhs) is an integer polynomial; both sides are
    evaluated at q = 2^K, t = 2^{KB} (Kronecker substitution), where B
    exceeds its q-degree and 2^K its l1 coefficient bound, so equal values
    prove equal polynomials.  Returns the first failure, or None.  Needs a
    table over Laurent polynomials in q and t (generators q, t)."""
    q, t = table.q, table.t
    parts = enumerate_partitions(n)
    J = {lam: table.J(lam).terms for lam in parts}
    M = {kappa: to_p(SymmetricFunction("m", {kappa: Fraction(1)})).terms for kappa in parts}
    N = math.lcm(*(c.denominator for row in M.values() for c in row.values()))
    NM = {kappa: {rho: int(c * N) for rho, c in row.items()} for kappa, row in M.items()}
    D = [(k, n // k) for k in range(1, n + 1)]

    def product(factors):
        return functools.reduce(operator.mul, factors, one_like(q))
    W = {rho: product([1 - q ** part for part in rho] +
                      [(1 - t ** k) ** (e - rho.count(k)) for k, e in D]).as_poly()
         for rho in parts}
    rhs = {}
    for lam in parts:
        c, c_prime = map(product, integral_factors(lam, q, t))
        if not c / c_prime == b_norm(lam, q, t):
            return f"c/c' differs from b_norm at {lam}"
        rhs[lam] = product([c, c_prime] + [(1 - t ** k) ** e for k, e in D]).as_poly()
    # q-degree and l1 bounds of N^2 (lhs - rhs)
    width = 1 + max([n + 2 * max(x.degree("q") for row in J.values() for x in row.values())] +
                    [r.degree("q") for r in rhs.values()])
    a = {lam: {rho: sum(J[lam][kappa].norm1() * abs(NM[kappa].get(rho, 0)) for kappa in J[lam])
               for rho in parts} for lam in parts}
    bound = max(sum(z_factor(rho) * W[rho].norm1() * a[lam][rho] * a[mu][rho] for rho in parts) +
                (N * N * rhs[lam].norm1() if lam == mu else 0)
                for i, lam in enumerate(parts) for mu in parts[i:])
    slot = bound.bit_length() + 1
    shifts = {"q": slot, "t": slot * width}
    try:
        X = {lam: {rho: sum(x.kronecker(shifts) * NM[kappa].get(rho, 0) for kappa, x in J[lam].items())
                   for rho in parts} for lam in parts}
    except ExactAlgError as exc:
        return f"J has a coefficient that is not a polynomial in q, t at degree {n}: {exc}"
    weight = {rho: z_factor(rho) * W[rho].kronecker(shifts) for rho in parts}
    for i, lam in enumerate(parts):
        weighted = {rho: weight[rho] * X[lam][rho] for rho in parts}
        for mu in parts[i:]:
            lhs = sum(weighted[rho] * X[mu][rho] for rho in parts)
            if lam == mu:
                if lhs != N * N * rhs[lam].kronecker(shifts):
                    return f"norm fails at {lam}"
            elif lhs:
                return f"orthogonality fails at {lam}, {mu}"
    return None


@criterion("C07", "Macdonald suite")
def c07_macdonald_suite(seed, trials):
    """Unit leading coefficients, triangularity, the Gram identity, the
    eigenrelation and the two-path specialization.  The table's operator
    matrix comes from a closed m-basis formula, so the eigenrelation
    compares it with apply_E's independent power-sum route."""
    q, t, u = generators("q", "t", "u")
    table = MacdonaldTable(q, t, degree_bound=6)
    for n in range(0, 7):
        parts = enumerate_partitions(n)
        for lam in parts:
            P = table.P(lam)
            if not P.terms.get(lam) == 1:
                return False, f"unit leading coefficient fails at {lam}"
            for mu in P.terms:
                if mu != lam and not dominates(lam, mu):
                    return False, f"triangularity fails: {mu} in P_{lam}"
        failure = gram_failure(table, n)
        if failure:
            return False, failure
        for lam in parts:
            lhs = apply_E(table.P_in_p(lam), q, t)
            rhs = table.P_in_p(lam).scale(eigen_E(lam, q, t))
            if not lhs == rhs:
                return False, f"eigenrelation fails at {lam}"
    for lam in partitions_upto(5):
        if not specialize_eps(lam, u, q, t) == specialize_eps_via_p(lam, u, table):
            return False, f"specialization two-path fails at {lam}"
    return True, ""


@criterion("C08", "alpha and b/c tables")
def c08_alpha_bc_tables(seed, trials):
    al = alpha_coefficients(3)
    expected = {(1,): Fraction(1), (2,): Fraction(1), (1, 1): Fraction(-1, 2),
                (3,): Fraction(1), (2, 1): Fraction(-1), (1, 1, 1): Fraction(1, 3)}
    for k, v in expected.items():
        if al[k] != v:
            return False, f"alpha{k} = {al[k]} != {v}"
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
            return False, f"beta{k} = {beta[k]} != {v}"
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
            return False, f"gamma{k} = {gamma[k]} != {v}"
    if not bc_product_check(8):
        return False, "inverse-product identity fails at order 8"
    return True, "composite c-term signs follow the recursion"


@criterion("C09", "cell-multiset two-path")
def c09_sym_of_cells(seed, trials):
    """Each power operator of the engines, built once per point: its eigenvalue
    at lam (a symmetric function of the cell multiset) against the sum of
    c * prod eigen_tildeE(lam, w) over the expansion the vertex engine uses."""
    for pt in _points(seed, trials, names=("q", "t")):
        q, t = pt["q"], pt["t"]
        ops = [(operation, k, power_op(operation, k, q, t))
               for operation in ("lambda", "sigma", "psi") for k in (1, 2, 3)]
        for lam in partitions_upto(6):
            eigen = LazyTable(lambda part: eigen_tildeE(lam, part, q, t))
            for operation, k, op in ops:
                direct = op.eigenvalue(lam)
                formula = scalar_sum([scalar_product([c, *(eigen[w] for w in ws)])
                                      for ws, c in op.expansion])
                if not direct == formula:
                    return False, f"{operation}^{k} at {lam}: {direct} != {formula}"
    return True, ""


@criterion("C10", "exponential identity")
def c10_main_identity(seed, trials):
    for pt in _points(seed, trials, names=("t1", "t2", "u", "v")):
        for A in [(0, 0), (1, 0), (2, -1)]:
            rep = verify_main_identity(A, 6, pt["u"], pt["v"], pt["t1"], pt["t2"])
            if not rep.ok:
                return False, _mismatch(f"A={A} at {pt}", *rep.first_mismatch)
    t1, t2, u, v = generators("t1", "t2", "u", "v")
    rep = verify_main_identity((0, 0), 3, u, v, t1, t2)
    if not rep.ok:
        return False, _mismatch("symbolic A=(0,0)", *rep.first_mismatch)
    return True, ""


@criterion("C11", "central theorem")
def c11_central_theorem(seed, trials):
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
                return ok, msg
    return True, ""


@criterion("C12", "toric surface checks")
def c12_toric_checks(seed, trials):
    for pt in _points(seed, trials, names=("t1", "t2", "u", "v")):
        for name in ("P2", "P1xP1"):
            surf = load_surface(name)
            rep = toric_correlator_checks(surf, 3, pt["u"], pt["v"], pt["t1"], pt["t2"])
            if not rep.ok:
                bad = ", ".join(k for k, s in rep.details.items() if s != "ok")
                return False, f"{name} at {pt}: {bad}"
    return True, ""


@criterion("C13", "classical q-series checks")
def c13_classical_qseries(seed, trials):
    for m in (0, 1, 2, Fraction(1, 2)):
        if not nekrasov_okounkov_check(m, 6):
            return False, f"hook-length identity fails at m={m}"
    if not goettsche_count_check(20):
        return False, "partition counts disagree with the Euler product"
    return True, ""


@criterion("C14", "connected-correlator inversion")
def c14_connected_inversion(seed, trials):
    rng = random.Random(seed)
    labels = ("w", "x", "y", "z")
    raw: Dict[Tuple, object] = {}
    for r in range(1, 5):
        for combo in itertools.combinations(labels, r):
            raw[combo] = Fraction(rng.randint(1, 60), rng.randint(1, 60))
    conn = connected_correlators(raw)
    # two-point display
    for a, b in itertools.combinations(labels, 2):
        expect = raw[(a, b)] - raw[(a,)] * raw[(b,)]
        if conn[(a, b)] != expect:
            return False, f"two-point at ({a},{b})"
    back = disconnected_from_connected(conn)
    for w in raw:
        if back[w] != raw[w]:
            return False, f"roundtrip at {w}"
    fwd = disconnected_from_connected({w: Fraction(rng.randint(1, 9)) for w in raw})
    conn2 = connected_correlators(fwd)
    for w in raw:
        if len(w) == 1 and conn2[w] != fwd[w]:
            return False, f"one-point at {w}"
    return True, ""


def run_all(seed: int = 1, trials: int = 3,
            only: Optional[List[str]] = None) -> List[CriterionResult]:
    return [f(seed, trials) for i, f in CRITERIA if only is None or i in only]
