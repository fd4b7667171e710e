"""Macdonald polynomials P_mu(x;q,t), the stable degree-1 operator, eigenvalue
families for the stabilized higher operators, and the symmetric functions of
the cell multiset {t^{-l'(s)} q^{a'(s)}}.

Everything is parametrized by scalars (q, t) that may be symbolic
RationalFunctions or exact Fractions, so the same code runs in symbolic and
evaluation mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg.ratfun import exact_scalars, one_like, scalar_sum
from .exactalg.series import TruncatedSeries
from .partitions import Partition, cells, enumerate_partitions
from .symfun import (SymmetricFunction, alpha_coefficients,
                     beta_gamma_coefficients, basis_convert, merge_parts, to_p)

DEFAULT_DEGREE_BOUND = 8


class MacdonaldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cell products and norms
# ---------------------------------------------------------------------------

def b_norm(lam: Partition, q, t):
    """b_lam = prod over cells (1 - q^a t^{l+1})/(1 - q^{a+1} t^l)."""
    q, t = exact_scalars(q, t)
    out = one_like(q)
    for c in cells(lam):
        out = out * (1 - q ** c.arm * t ** (c.leg + 1))
        out = out / (1 - q ** (c.arm + 1) * t ** c.leg)
    return out


def cell_multiset(lam: Partition, q, t) -> List:
    """The finite multiset {t^{-l'(s)} q^{a'(s)} : s in lam}, row-major."""
    return [t ** (-c.coleg) * q ** c.coarm for c in cells(lam)]


def _elementary_list(values: Sequence, one, k: int) -> List:
    """e_0..e_k of a finite multiset: the z^0..z^k coefficients of
    prod_w (1 + w z), with one the unit of the values' ring."""
    es = [one] + [one * 0] * k
    for n, w in enumerate(values, start=1):
        for i in range(min(k, n), 0, -1):
            es[i] = es[i] + es[i - 1] * w
    return es


def elementary_of(values: Sequence, k: int):
    """e_k of a finite multiset of ring elements."""
    if k == 0:
        return one_like(values[0]) if values else Fraction(1)
    if k > len(values):
        return values[0] * 0 if values else Fraction(0)
    return _elementary_list(values, one_like(values[0]), k)[k]


def power_of(values: Sequence, m: int):
    if not values:
        return Fraction(0)
    out = values[0] * 0
    for w in values:
        out = out + w ** m
    return out


def complete_of(values: Sequence, k: int):
    """h_k of a finite multiset: the z^k coefficient of 1/E(-z)."""
    if not values:
        return Fraction(int(k == 0))
    es = _elementary_list(values, one_like(values[0]), k)
    signed = TruncatedSeries([-e if i % 2 else e for i, e in enumerate(es)])
    return (TruncatedSeries.one(k, es[0] * 0) / signed).coeffs[k]


# ---------------------------------------------------------------------------
# Macdonald polynomials by Gram-Schmidt in the monomial basis
# ---------------------------------------------------------------------------

class MacdonaldTable:
    """Fill-once cache of P_mu expansions for fixed scalars (q, t).

    P_lam = m_lam + sum over strictly dominated mu of u_{lam mu} m_mu is the
    eigenvector of the stable degree-1 operator with eigenvalue
    (q-1)/t sum_s t^{-l'} q^{a'}.  The operator's monomial-basis matrix is
    dominance-triangular with the eigenvalues on the diagonal, so each
    coefficient comes from one back-substitution step and one division by a
    difference of eigenvalues (distinct for distinct partitions).  The result
    satisfies the defining triangularity and orthogonality conditions, which
    the test suite checks directly against <.,.>_{q,t}.
    """

    def __init__(self, q, t, degree_bound: int = DEFAULT_DEGREE_BOUND):
        q, t = exact_scalars(q, t)
        self.q = q
        self.t = t
        self.degree_bound = degree_bound
        one = one_like(q)
        self._P: Dict[Partition, SymmetricFunction] = {(): SymmetricFunction("m", {(): one})}
        self._P_p: Dict[Partition, SymmetricFunction] = {(): SymmetricFunction("p", {(): one})}
        self._degrees_done = {0}

    def _fill_degree(self, n: int):
        if n in self._degrees_done:
            return
        if n > self.degree_bound:
            raise MacdonaldError(f"degree {n} above bound {self.degree_bound}")
        q, t = self.q, self.t
        one = one_like(q)
        order = enumerate_partitions(n)   # dominance-compatible, dominant first
        pos = {lam: i for i, lam in enumerate(order)}
        # columns of the operator in the m-basis: E m_nu = sum_kappa A[kappa][nu] m_kappa
        A: Dict[Partition, Dict[Partition, object]] = {kappa: {} for kappa in order}
        for nu in order:
            img = apply_E(SymmetricFunction("m", {nu: one}), q, t)
            for kappa, c in basis_convert(img, "m").terms.items():
                if c:
                    A[kappa][nu] = c
        ev = {lam: eigen_E(lam, q, t) for lam in order}
        for mu in order:
            coeffs: Dict[Partition, object] = {mu: one}
            for kappa in order[pos[mu] + 1:]:
                pieces = [A[kappa][nu] * coeffs[nu] for nu in coeffs if nu in A[kappa]]
                if not pieces:
                    continue
                s = scalar_sum(pieces)
                if not s:
                    continue
                coeffs[kappa] = s / (ev[mu] - ev[kappa])
            self._P[mu] = SymmetricFunction("m", coeffs)
            self._P_p[mu] = to_p(self._P[mu])
        self._degrees_done.add(n)

    def P(self, mu: Partition) -> SymmetricFunction:
        """P_mu in the monomial basis."""
        mu = tuple(mu)
        self._fill_degree(sum(mu))
        return self._P[mu]

    def P_in_p(self, mu: Partition) -> SymmetricFunction:
        mu = tuple(mu)
        self._fill_degree(sum(mu))
        return self._P_p[mu]


def macdonald_P(mu: Partition, q, t, table: Optional[MacdonaldTable] = None) -> SymmetricFunction:
    table = table or MacdonaldTable(q, t)
    return table.P(mu)


# ---------------------------------------------------------------------------
# specialization homomorphism
# ---------------------------------------------------------------------------

def specialize_eps(lam: Partition, u, q, t):
    """Closed-form specialization prod (t^{l'} - q^{a'} u)/(1 - q^a t^{l+1})."""
    u, q, t = exact_scalars(u, q, t)
    out = one_like(q)
    for c in cells(lam):
        out = out * (t ** c.coleg - q ** c.coarm * u)
        out = out / (1 - q ** c.arm * t ** (c.leg + 1))
    return out


def specialize_eps_via_p(lam: Partition, u, q, t, table: Optional[MacdonaldTable] = None):
    """Apply eps(p_n) = (1-u^n)/(1-t^n) termwise to the p-expansion of P_lam."""
    table = table or MacdonaldTable(q, t)
    f = table.P_in_p(lam)
    total = None
    for kappa, coeff in f.terms.items():
        v = coeff
        for part in kappa:
            v = v * (1 - u ** part) / (1 - t ** part)
        total = v if total is None else total + v
    return Fraction(0) if total is None else total


# ---------------------------------------------------------------------------
# the stable degree-1 operator on the power-sum basis
# ---------------------------------------------------------------------------

def _mult_series_coeff(k: int, t) -> List[Tuple[Partition, object]]:
    """Degree-k coefficient of exp(sum (1-t^{-n})/n p_n z^n) as p-basis terms."""
    from .partitions import z_factor
    out = []
    for kappa in enumerate_partitions(k):
        c = Fraction(1, z_factor(kappa)) * one_like(t)
        for part in kappa:
            c = c * (1 - t ** (-part))
        out.append((kappa, c))
    return out


def apply_E(f: SymmetricFunction, q, t) -> SymmetricFunction:
    """Action of the modified degree-1 Macdonald operator on the Fock space.

    Realized as 1/(t-1) [ M(z) . f(p_n + (q^n - 1) z^{-n}) |_{z^0} - f ]
    with M(z) = exp(sum (1-t^{-n})/n p_n z^n): the translation part collects
    z^{-k}, the multiplication series restores degree k.
    """
    q, t = exact_scalars(q, t)
    g = to_p(f)
    dmax = g.degree()
    # shifted[k] = z^{-k} coefficient of f(p + a), a_n = (q^n - 1) z^{-n}
    shifted: List[Dict[Partition, object]] = [dict() for _ in range(dmax + 1)]
    for kappa, coeff in g.terms.items():
        parts = list(kappa)
        nparts = len(parts)
        for mask in range(1 << nparts):
            dropped = 0
            factor = coeff
            kept: List[int] = []
            for i in range(nparts):
                if mask >> i & 1:
                    dropped += parts[i]
                    factor = factor * (q ** parts[i] - 1)
                else:
                    kept.append(parts[i])
            key = tuple(sorted(kept, reverse=True))
            tgt = shifted[dropped]
            tgt[key] = tgt.get(key, factor * 0) + factor
    out: Dict[Partition, object] = {}
    for k in range(dmax + 1):
        if not shifted[k]:
            continue
        for kappa, mc in _mult_series_coeff(k, t):
            for rest, c in shifted[k].items():
                key = merge_parts(kappa, rest)
                v = mc * c
                out[key] = out.get(key, v * 0) + v
    for kappa, c in g.terms.items():
        out[kappa] = out.get(kappa, c * 0) - c
    scale = one_like(t) / (t - 1)
    return SymmetricFunction("p", {k: v * scale for k, v in out.items()})


def eigen_E(mu: Partition, q, t):
    """(q-1)/t * sum over cells t^{-l'} q^{a'}; vacuum eigenvalue 0."""
    q, t = exact_scalars(q, t)
    return (q - 1) / t * power_of(cell_multiset(mu, q, t), 1) if mu else Fraction(0)


# ---------------------------------------------------------------------------
# stabilized higher-operator eigenvalues
# ---------------------------------------------------------------------------

def euler_tail(j: int, t):
    """e_j(t^{-1}, t^{-2}, ...) = prod_{a<=j} 1/(t^a - 1), by Euler's formula."""
    out = one_like(t)
    for a in range(1, j + 1):
        out = out / (t ** a - 1)
    return out


def eigen_tildeE(mu: Partition, r: int, q, t):
    """e_r(q^{mu_1} t^{-1}, q^{mu_2} t^{-2}, ...): coefficient of z^r in the
    finite head product times the Euler-summed tail."""
    q, t = exact_scalars(q, t)
    if r < 0:
        raise MacdonaldError("weight must be >= 0")
    if r == 0:
        return one_like(q)
    l = len(mu)
    head = _elementary_list([q ** m * t ** (-j) for j, m in enumerate(mu, start=1)],
                            one_like(q), l)
    total = None
    for n in range(0, r + 1):
        jdeg = r - n
        if jdeg < len(head):
            v = head[jdeg] * (t ** (-n * l)) * euler_tail(n, t)
            total = v if total is None else total + v
    return total


def eigen_E_r(mu: Partition, r: int, q, t):
    """Coefficient of z^r in prod_{j<=l} (1 + q^{mu_j} t^{-j} z)/(1 + t^{-j} z)."""
    q, t = exact_scalars(q, t)
    if r < 0:
        raise MacdonaldError("weight must be >= 0")
    if r == 0:
        return one_like(q)
    if not mu:
        return q * 0
    one = one_like(q)
    num = _elementary_list([q ** m * t ** (-j) for j, m in enumerate(mu, start=1)], one, r)
    den = _elementary_list([t ** (-j) for j in range(1, len(mu) + 1)], one, r)
    return (TruncatedSeries(num) / TruncatedSeries(den)).coeffs[r]


# ---------------------------------------------------------------------------
# symmetric functions of the cell multiset: direct and universal-formula paths
# ---------------------------------------------------------------------------

@dataclass
class TwoPathValue:
    value: object          # direct over cells
    formula_value: object  # through the stabilized-family decomposition

    @property
    def agree(self) -> bool:
        return self.value == self.formula_value


def _e_tail_shifted(r: int, t):
    """e_r(1, t^{-1}, t^{-2}, ...) = e_r(t^{-1},...) + e_{r-1}(t^{-1},...)."""
    out = euler_tail(r, t)
    if r >= 1:
        out = out + euler_tail(r - 1, t)
    return out


def sym_of_cells(lam: Partition, basis: str, k: int, q, t) -> TwoPathValue:
    """k-th elementary/complete/power symmetric function of the cell multiset,
    computed directly and through the decomposition in the stabilized family
    that the Lambda/Sigma/Psi operators hand to the vertex engine, each
    E~-word evaluated by eigen_tildeE."""
    q, t = exact_scalars(q, t)
    if k < 0:
        raise MacdonaldError("k must be >= 0")
    values = cell_multiset(lam, q, t)
    if basis == "e":
        direct, decomposition = elementary_of(values, k), lambda_decomposition
    elif basis == "h":
        direct, decomposition = complete_of(values, k), sigma_decomposition
    elif basis == "p":
        if k == 0:
            raise MacdonaldError("p_0 of the cell multiset is not defined")
        direct, decomposition = power_of(values, k), psi_decomposition
    else:
        raise MacdonaldError(f"unknown basis {basis!r}")
    if k == 0:
        return TwoPathValue(direct, one_like(q))
    terms, formula = decomposition(k, q, t)
    for c, mu in terms:
        for part in mu:
            c = c * eigen_tildeE(lam, part, q, t)
        formula = formula + c
    return TwoPathValue(direct, formula)


# ---------------------------------------------------------------------------
# diagonal operators as polynomials in the stabilized family
# ---------------------------------------------------------------------------

def psi_decomposition(m: int, q, t) -> Tuple[List[Tuple[object, Partition]], object]:
    """Adams-type operator as a weighted polynomial in the stabilized family:

        Psi^m = (-1)^m m t^m/(1-q^m) sum_{|lam|=m} alpha_lam E~^lam
                + 1/((1-q^m)(1-t^{-m})).
    """
    q, t = exact_scalars(q, t)
    if m < 1:
        raise MacdonaldError("m must be >= 1")
    alpha = alpha_coefficients(m)
    pref = Fraction((-1) ** m) * m * t ** m / (1 - q ** m)
    terms = [(pref * alpha[lam], lam) for lam in enumerate_partitions(m)]
    const = 1 / ((1 - q ** m) * (1 - t ** (-m)))
    return terms, const


def lambda_decomposition(m: int, q, t) -> Tuple[List[Tuple[object, Partition]], object]:
    """Exterior-power operator as a polynomial in the stabilized family."""
    return _power_decomposition(m, q, t, symmetric=False)


def sigma_decomposition(m: int, q, t) -> Tuple[List[Tuple[object, Partition]], object]:
    """Symmetric-power operator as a polynomial in the stabilized family."""
    return _power_decomposition(m, q, t, symmetric=True)


def _power_decomposition(m: int, q, t, symmetric: bool):
    """Lambda^m pairs gamma on the head with beta on the tail; Sigma^m swaps
    the two tables and carries the sign (-1)^m."""
    if m < 1:
        raise MacdonaldError("m must be >= 1")
    beta, gamma = beta_gamma_coefficients(m, q)
    head, tail = (beta, gamma) if symmetric else (gamma, beta)
    one = one_like(q)
    acc: Dict[Partition, object] = {}
    for w_mu in range(0, m + 1):
        for mu in enumerate_partitions(w_mu):
            h = head[mu] if mu else one
            for nu in enumerate_partitions(m - w_mu):
                c = h * (tail[nu] if nu else one) * t ** w_mu
                if symmetric:
                    c = c * Fraction((-1) ** m)
                for part in nu:
                    c = c * _e_tail_shifted(part, t)
                acc[mu] = acc.get(mu, c * 0) + c
    const = acc.pop((), Fraction(0))
    return [(c, mu) for mu, c in sorted(acc.items())], const
