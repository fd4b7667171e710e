"""Macdonald polynomials P_mu(x;q,t) and their integral forms J_mu, the stable
degree-1 operator, eigenvalue families for the stabilized higher operators,
and the symmetric functions of the cell multiset {t^{-l'(s)} q^{a'(s)}}.

Everything is parametrized by scalars (q, t) that may be symbolic
RationalFunctions or exact Fractions, so the same code runs in symbolic and
evaluation mode.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactalg import HilbmacError, TruncatedSeries
from .exactalg.ratfun import (ExactAlgError, RationalFunction, clear_denominators,
                              exact_scalars, one_like, poly_over, power_ratio,
                              rational_scalars, scalar_sum, scalar_sum_of_products)
from .partitions import (LazyTable, Partition, cells, dominates, enumerate_partitions,
                         is_partition, multiplicity_factorial, partitions_upto, z_factor)
from .symfun import (M_DEGREE_BOUND, SymmetricFunction, alpha_coefficients,
                     beta_gamma_coefficients, merge_parts, to_p)


class MacdonaldError(HilbmacError, ValueError):
    pass


# ---------------------------------------------------------------------------
# cell products and norms
# ---------------------------------------------------------------------------

def integral_factors(lam: Partition, q, t) -> Tuple[List, List]:
    """The cell factors of c_lam = prod (1 - q^a t^{l+1}), which turns P_lam
    into the integral form J_lam, and of c'_lam = prod (1 - q^{a+1} t^l).
    c_lam / c'_lam is b_lam, which b_norm computes on its own so that the
    acceptance gate can compare the two.  At ints and Fractions each factor
    1 - n/d, with n/d from power_ratio, is made once as Fraction(d - n, d),
    an int when q and t are; any other ring forms it as written."""
    cs = cells(lam)
    if rational_scalars((q, t)):
        frac = Fraction in (type(q), type(t))

        def one_minus(*powers):
            n, d = power_ratio(*powers)
            return Fraction(d - n, d) if frac else d - n

        return ([one_minus((q, c.arm), (t, c.leg + 1)) for c in cs],
                [one_minus((q, c.arm + 1), (t, c.leg)) for c in cs])
    return ([1 - q ** c.arm * t ** (c.leg + 1) for c in cs],
            [1 - q ** (c.arm + 1) * t ** c.leg for c in cs])


def b_norm(lam: Partition, q, t):
    """b_lam = prod over cells (1 - q^a t^{l+1})/(1 - q^{a+1} t^l)."""
    q, t = exact_scalars(q, t)
    out = one_like(q)
    for c in cells(lam):
        out = out * (1 - q ** c.arm * t ** (c.leg + 1))
        out = out / (1 - q ** (c.arm + 1) * t ** c.leg)
    return out


def cell_weights(q, t) -> LazyTable:
    """At (a', l'), the cell weight t^{-l'} q^{a'}: the weight of a cell of
    coarm a' and coleg l' in cell_multiset, and at (m, j) the monomial
    q^m t^{-j} of a part m in row j in eigen_tildeE's head.  At ints and
    Fractions each weight is one Fraction from power_ratio's integer
    powers; any other ring forms it as written."""
    q, t = exact_scalars(q, t)
    if rational_scalars((q, t)):
        return LazyTable(lambda a_, l_: Fraction(*power_ratio((t, -l_), (q, a_))))
    return LazyTable(lambda a_, l_: t ** (-l_) * q ** a_)


def cell_multiset(lam: Partition, q, t) -> List:
    """The finite multiset {t^{-l'(s)} q^{a'(s)} : s in lam}, row-major."""
    weights = cell_weights(q, t)
    return [weights[c.coarm, c.coleg] for c in cells(lam)]


def _elementary_recurrence(ws: Sequence, unit, top: int) -> List:
    """e_0..e_top of ws, unit the 1 of their ring, by the recurrence
    e_i <- e_i + e_(i-1) w, one add and one multiply at a time."""
    es = [unit] + [unit * 0] * top
    for n, w in enumerate(ws, start=1):
        for i in range(min(top, n), 0, -1):
            es[i] = es[i] + es[i - 1] * w
    return es


def _elementary_list(values: Sequence, one, k: int) -> List:
    """e_0..e_k of a finite multiset: the z^0..z^k coefficients of
    prod_w (1 + w z), with one the unit of the values' ring.

    When one and every value are ints or Fractions, the recurrence runs on
    the values' integer numerators over their common denominator d, and
    e_i is made once as a Fraction over d^i; the types are the pairwise
    fold's: ints from ints, and Fractions for e_1..e_min(k, n) when one or
    any value is a Fraction.  Any other ring runs the fold, operation for
    operation."""
    top = min(k, len(values))
    cleared = clear_denominators(values) if type(one) in (int, Fraction) else None
    if cleared is None:
        es = _elementary_recurrence(values, one, top)
    else:
        d, ns = cleared
        es = _elementary_recurrence(ns, 1, top)
        if type(one) is Fraction or any(type(w) is Fraction for w in values):
            es = [one] + [Fraction(e, d ** i) for i, e in enumerate(es[1:], start=1)]
    return es + [one * 0] * (k - top)


def elementary_of(values: Sequence, k: int):
    """e_k of a finite multiset of ring elements."""
    if k == 0:
        return one_like(values[0]) if values else Fraction(1)
    if k > len(values):
        return values[0] * 0 if values else Fraction(0)
    return _elementary_list(values, one_like(values[0]), k)[k]


def power_of(values: Sequence, m: int):
    """p_m of a finite multiset.  When every value is an int or a Fraction
    and m >= 0 it is the sum of the m-th powers of the integer numerators
    over d^m, d their common denominator: an int from ints, else one
    Fraction.  Any other ring runs the fold."""
    if not values:
        return Fraction(0)
    cleared = clear_denominators(values) if m >= 0 else None
    if cleared:
        d, ns = cleared
        s = sum(x ** m for x in ns)
        return Fraction(s, d ** m) if any(type(w) is Fraction for w in values) else s
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
# Macdonald polynomials through their integral forms
# ---------------------------------------------------------------------------

def _laurent_unit(x) -> bool:
    """Whether x is a RationalFunction equal to a signed Laurent monomial."""
    if not isinstance(x, RationalFunction):
        return False
    try:
        return x.as_poly().norm1() == 1
    except ExactAlgError:
        return False


def _splits(nu: Partition) -> List[Tuple[Partition, Partition]]:
    """Every pair (beta, nu minus beta) with beta a sub-multiset of nu's
    parts, each distinct beta once."""
    out: List[Tuple[Partition, Partition]] = [((), ())]
    for part, mult in Counter(nu).items():
        out = [(beta + (part,) * k, rest + (part,) * (mult - k))
               for beta, rest in out for k in range(mult + 1)]
    return out


def _signed_arrangements(delta: Sequence[int]) -> int:
    """m_delta[-1] = (-1)^l(delta) l(delta)! / prod_i m_i(delta)!: a sign
    times the number of distinct rearrangements of delta."""
    count = math.factorial(len(delta)) // multiplicity_factorial(delta)
    return -count if len(delta) % 2 else count


def _m_at_q_minus_one(beta: Partition, q_powers: Sequence):
    """m_beta[q - 1], the image of m_beta under p_n -> q^n - 1, with
    q_powers[a] = q^a in the caller's ring.  The coproduct of m_beta over
    the alphabets q and -1 leaves sum over gamma of q^|gamma| m_{beta - gamma}[-1],
    gamma empty or one part of beta (each distinct part value once), since
    m_gamma[q] vanishes for two or more parts."""
    out = _signed_arrangements(beta) * q_powers[0]
    for i, part in enumerate(beta):
        if i and part == beta[i - 1]:
            continue
        out = out + _signed_arrangements(beta[:i] + beta[i + 1:]) * q_powers[part]
    return out


def _rearrangement_counts(kappa: Partition, rest: Partition,
                          memo: Dict[Tuple[Partition, Partition], Dict[int, int]]) -> Dict[int, int]:
    """j -> N_j, the number of distinct rearrangements r of rest (a
    partition zero-padded to len(kappa)) with r_i <= kappa_i for every i
    and j = #{i : r_i < kappa_i}.  Position by position over kappa; memo
    holds the counts of each (remaining positions, remaining values)."""
    key = (kappa, rest)
    if key in memo:
        return memo[key]
    out: Dict[int, int] = {}
    if not kappa:
        out[0] = 1
    for i, value in enumerate(rest):
        if value > kappa[0] or (i and value == rest[i - 1]):
            continue
        step = int(value < kappa[0])
        for j, count in _rearrangement_counts(kappa[1:], rest[:i] + rest[i + 1:], memo).items():
            out[j + step] = out.get(j + step, 0) + count
    memo[key] = out
    return out


class MacdonaldTable:
    """Cache of the integral forms J_mu = c_mu P_mu and of P_mu for fixed
    scalars (q, t), c_mu = prod over cells (1 - q^a t^{l+1}), filled one
    column per request over one operator matrix per degree.

    P_lam = m_lam + sum over strictly dominated mu of u_{lam mu} m_mu is the
    eigenvector of the stable degree-1 operator with eigenvalue
    (q-1)/t sum_s t^{-l'} q^{a'}.  The operator's monomial-basis matrix is
    dominance-triangular with the eigenvalues on the diagonal, so a column
    starts at J[mu][mu] = c_mu and each later coefficient is one
    back-substitution step divided by a difference of eigenvalues (distinct
    for distinct partitions).  Column mu reads only the rows kappa that mu
    dominates; a degree's matrix and eigenvalues are built at its first
    request and serve every column of that degree.  One loop serves every
    scalar ring:

    - when q and t are signed Laurent monomials (the generators, q^-1, t^-1)
      the loop runs over LaurentPoly, where J's m-coefficients live
      (Macdonald, Symmetric Functions and Hall Polynomials, 2nd ed., VI §8), and
      every division is exact: a remainder raises MacdonaldError, with no
      fallback.  P = J / c_mu is then reduced by trial division over the
      binomial factors of c_mu;
    - otherwise (Fractions, other rational functions) it runs with field
      division and P = J / c_mu directly.

    The operator's m-basis matrix is built in the same ring from one closed
    formula, with no division and no change of basis (Macdonald, op. cit.,
    VI §3, for the triangular m-basis action; Bergeron, Garsia, Haiman &
    Tesler, Methods Appl. Anal. 6 (1999), for the plethystic form):

        E m_nu = sum over nonempty sub-multisets beta of nu's parts of
                 m_beta[q - 1] sum_kappa sum_r t^-1 (1 - t^-1)^(j(r) - 1) m_kappa,

    r over the distinct rearrangements of nu - beta, zero-padded to
    l(kappa), with r_i <= kappa_i for every i, and j(r) = #{i : r_i < kappa_i}.
    From apply_E's definition E f = (t - 1)^-1 (sum_k h_k[X(1 - t^-1)]
    f[X + (q - 1)/z]|_{z^-k} - f):
      - the coproduct of m_nu splits off m_beta[(q - 1)/z] = z^-|beta| m_beta[q - 1];
      - h_k[X(1 - t^-1)] = sum over lam |- k of (1 - t^-1)^l(lam) m_lam, and
        m_lam m_{nu - beta} counts the r with kappa - r a rearrangement of lam;
      - beta = () cancels -f, and (1 - t^-1)^j / (t - 1) = t^-1 (1 - t^-1)^(j - 1).
    The ring values are m_beta[q - 1], one per beta, and t^-1 (1 - t^-1)^(j - 1),
    one per j; the rest are integer counts.  apply_E stays the independent
    route, which the eigenrelation check of C07 compares with the table.

    The tests check the result against <.,.>_{q,t} and against the
    Haglund-Haiman-Loehr formula for J.
    """

    def __init__(self, q, t, degree_bound: int = M_DEGREE_BOUND):
        q, t = exact_scalars(q, t)
        self.q = q
        self.t = t
        self.degree_bound = degree_bound
        self._laurent = _laurent_unit(q) and _laurent_unit(t)
        one = one_like(q)
        self._J: Dict[Partition, SymmetricFunction] = {(): SymmetricFunction("m", {(): self._ring(one)})}
        self._P: Dict[Partition, SymmetricFunction] = {(): SymmetricFunction("m", {(): one})}
        self._P_p: Dict[Partition, SymmetricFunction] = {}
        self._degrees: Dict[int, tuple] = {}

    def _ring(self, x):
        """x in the ring J is filled over."""
        if not self._laurent:
            return x
        try:
            return x.as_poly()
        except ExactAlgError as exc:
            raise MacdonaldError(f"not a Laurent polynomial: {x}") from exc

    def _over(self, x, factors, product):
        """x / c, c = product of the factors, as a scalar of the table."""
        if self._laurent:
            return poly_over(x, factors)
        if not product:
            raise MacdonaldError(f"c vanishes at q = {self.q}, t = {self.t}")
        return x / product

    def _degree(self, n: int) -> tuple:
        """(order, A, ev) of degree n: the dominance-compatible order, dominant
        first, the operator's m-basis matrix and the eigenvalues, in the
        fill's ring; built at the degree's first column request."""
        if n not in self._degrees:
            if n > self.degree_bound:
                raise MacdonaldError(f"degree {n} above bound {self.degree_bound}")
            order = enumerate_partitions(n)
            A = self._operator_matrix(order)
            ev = {lam: self._ring(eigen_E(lam, self.q, self.t)) for lam in order}
            self._degrees[n] = (order, A, ev)
        return self._degrees[n]

    def _fill_column(self, mu: Partition):
        """J_mu and P_mu by back-substitution over the partitions mu dominates."""
        order, A, ev = self._degree(sum(mu))
        factors = [self._ring(f) for f in integral_factors(mu, self.q, self.t)[0]]
        c_mu = functools.reduce(operator.mul, factors)
        J: Dict[Partition, object] = {mu: c_mu}
        for kappa in order[order.index(mu) + 1:]:
            if not dominates(mu, kappa):
                continue
            s = scalar_sum_of_products((A[kappa][nu], J[nu]) for nu in J if nu in A[kappa])
            if not s:
                continue
            try:
                J[kappa] = s / (ev[mu] - ev[kappa])
            except (ExactAlgError, ZeroDivisionError) as exc:
                raise MacdonaldError(f"J_{mu}: the m_{kappa} step does not divide "
                                     f"by its eigenvalue difference") from exc
        self._J[mu] = SymmetricFunction("m", J)
        self._P[mu] = SymmetricFunction("m", {kappa: self._over(c, factors, c_mu)
                                              for kappa, c in J.items()})

    def _operator_matrix(self, order: List[Partition]) -> Dict[Partition, Dict[Partition, object]]:
        """The m-basis matrix of the degree-1 operator on the partitions of
        one degree, E m_nu = sum_kappa A[kappa][nu] m_kappa, in the fill's
        ring, by the closed formula of the class docstring.  The rearrangement
        counts are tabulated for this call only.  At rational (q, t) the loop
        runs on the integer numerators of the q powers (over d_q) and of the
        weights (over d_w), and each entry, linear in both, is made once as
        a Fraction over d_q d_w; any other ring runs it on its own values."""
        one = self._ring(one_like(self.q))
        q, t_inv = self._ring(self.q), self._ring(1 / self.t)
        n = sum(order[0])
        q_powers = [one]
        zero = 0 * one
        weights = [zero, t_inv]     # weights[j] = t^-1 (1 - t^-1)^(j-1), j >= 1
        for _ in range(n):
            q_powers.append(q_powers[-1] * q)
            weights.append(weights[-1] * (one - t_inv))
        cleared_q, cleared_w = clear_denominators(q_powers), clear_denominators(weights)
        scale = None
        if cleared_q and cleared_w:
            (dq, q_powers), (dw, weights) = cleared_q, cleared_w
            zero, scale = 0, dq * dw
        at_q_minus_one = {beta: _m_at_q_minus_one(beta, q_powers) for beta in partitions_upto(n)}
        counts: Dict[Tuple[Partition, Partition], Dict[int, int]] = {}
        A: Dict[Partition, Dict[Partition, object]] = {kappa: {} for kappa in order}
        for nu in order:
            splits = [(at_q_minus_one[beta], rho) for beta, rho in _splits(nu) if beta]
            for kappa in order:
                by_j: Dict[int, object] = {}    # j -> sum over beta of N_j m_beta[q - 1]
                for m_beta, rho in splits:
                    if len(rho) > len(kappa):
                        continue
                    padded = rho + (0,) * (len(kappa) - len(rho))
                    for j, count in _rearrangement_counts(kappa, padded, counts).items():
                        v = count * m_beta
                        by_j[j] = by_j[j] + v if j in by_j else v
                entry = zero
                for j, v in by_j.items():
                    entry = entry + weights[j] * v
                if entry:
                    A[kappa][nu] = Fraction(entry, scale) if scale else entry
        return A

    def _column(self, mu) -> Partition:
        """mu as a tuple, its column filled."""
        mu = tuple(mu)
        if not is_partition(mu):
            raise MacdonaldError(f"not a partition: {mu!r}")
        if mu not in self._J:
            self._fill_column(mu)
        return mu

    def J(self, mu: Partition) -> SymmetricFunction:
        """J_mu in the monomial basis, with coefficients in the fill's ring
        (LaurentPoly when q and t are signed Laurent monomials)."""
        return self._J[self._column(mu)]

    def P(self, mu: Partition) -> SymmetricFunction:
        """P_mu in the monomial basis."""
        return self._P[self._column(mu)]

    def P_in_p(self, mu: Partition) -> SymmetricFunction:
        """P_mu in the power-sum basis, converted on first request."""
        mu = self._column(mu)
        if mu not in self._P_p:
            self._P_p[mu] = to_p(self._P[mu])
        return self._P_p[mu]


def macdonald_P(mu: Partition, q, t) -> SymmetricFunction:
    return MacdonaldTable(q, t).P(mu)


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


def specialize_eps_via_p(lam: Partition, u, table: MacdonaldTable):
    """Apply eps(p_n) = (1-u^n)/(1-t^n) termwise to the p-expansion of P_lam,
    with t the table's."""
    (u,) = exact_scalars(u)
    t = table.t
    terms = []
    for kappa, coeff in table.P_in_p(lam).terms.items():
        v = coeff
        for part in kappa:
            v = v * (1 - u ** part) / (1 - t ** part)
        terms.append(v)
    return scalar_sum(terms)


# ---------------------------------------------------------------------------
# the stable degree-1 operator on the power-sum basis
# ---------------------------------------------------------------------------

def _mult_series_coeff(k: int, t) -> List[Tuple[Partition, object]]:
    """Degree-k coefficient of exp(sum (1-t^{-n})/n p_n z^n) as p-basis terms."""
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
    z^{-k}, the multiplication series restores degree k.  Within the call
    the degree-k coefficients of M(z) and q^n - 1 are computed once each,
    and the shifted factors of a p_kappa, one per subset of its parts, are
    built subset by subset: each is a smaller subset's factor times one
    more q^n - 1.
    """
    q, t = exact_scalars(q, t)
    g = to_p(f)
    dmax = g.degree()
    shift = LazyTable(lambda n: q ** n - 1)
    # shifted[k] = z^{-k} coefficient of f(p + a), a_n = (q^n - 1) z^{-n}
    shifted: List[Dict[Partition, object]] = [dict() for _ in range(dmax + 1)]
    for kappa, coeff in g.terms.items():
        factors = [coeff]     # factors[mask]: coeff times q^n - 1 for each dropped part
        for part in kappa:
            factors += [x * shift[part] for x in factors]
        for mask, factor in enumerate(factors):
            dropped = 0
            kept: List[int] = []
            for i, part in enumerate(kappa):
                if mask >> i & 1:
                    dropped += part
                else:
                    kept.append(part)
            key = tuple(sorted(kept, reverse=True))
            tgt = shifted[dropped]
            tgt[key] = tgt[key] + factor if key in tgt else factor
    out: Dict[Partition, object] = {}
    for k in range(dmax + 1):
        if not shifted[k]:
            continue
        for kappa, mc in _mult_series_coeff(k, t):
            for rest, c in shifted[k].items():
                key = merge_parts(kappa, rest)
                v = mc * c
                out[key] = out[key] + v if key in out else v
    for kappa, c in g.terms.items():
        out[kappa] = out[kappa] - c if kappa in out else -c
    scale = one_like(t) / (t - 1)
    return SymmetricFunction("p", {k: v * scale for k, v in out.items()})


def eigen_E(mu: Partition, q, t):
    """(q-1)/t * sum over cells t^{-l'} q^{a'}; at the vacuum, the zero of q's ring."""
    q, t = exact_scalars(q, t)
    return (q - 1) / t * power_of(cell_multiset(mu, q, t), 1) if mu else q * 0


# ---------------------------------------------------------------------------
# stabilized higher-operator eigenvalues
# ---------------------------------------------------------------------------

def _euler_tails(j: int, t) -> List:
    """e_0..e_j of (t^{-1}, t^{-2}, ...): by Euler's formula e_n is
    prod_{a<=n} 1/(t^a - 1), so each is the one before over t^n - 1."""
    tails = [one_like(t)]
    for a in range(1, j + 1):
        tails.append(tails[-1] / (t ** a - 1))
    return tails


def tail_weights(r: int, t) -> LazyTable:
    """At each length l, the list t^{-n l} e_n(t^{-1}, t^{-2}, ...) for
    n = 0..r: the part of E~_r's eigenvalue at mu that depends on mu only
    through its length.  One table serves every mu of one operator; the
    Euler tails are computed at its first lookup, once per table.  At an
    int or Fraction t each entry is one Fraction, from power_ratio's
    integer power of t and e_n's numerator and denominator; any other ring
    forms it as written."""
    (t,) = exact_scalars(t)
    rational = rational_scalars((t,))
    tails: List = []

    def at_length(l: int) -> List:
        if not tails:
            tails.extend(_euler_tails(r, t))
        if rational:
            return [Fraction(*power_ratio((t, -n * l), (e, 1))) for n, e in enumerate(tails)]
        return [t ** (-n * l) * e for n, e in enumerate(tails)]

    return LazyTable(at_length)


def eigen_tildeE(mu: Partition, r: int, q, t, weights: Optional[LazyTable] = None,
                 monomials: Optional[LazyTable] = None):
    """e_r(q^{mu_1} t^{-1}, q^{mu_2} t^{-2}, ...): coefficient of z^r in the
    finite head product times the Euler-summed tail.

    weights is tail_weights(r, t) and monomials is cell_weights(q, t),
    each built here when it is not given; an operator passes its own
    tables, which live as long as the operator.  Within the call the head
    is built only to e_min(l, r), the entries the sum reads.  When the head
    and the tail are ints or Fractions, the head's e_i are integers E_i over
    d^i and the tail integers T_n over d_T, and the eigenvalue is made once
    as sum E_(r-n) T_n d^n / (d^r d_T); any other ring sums the head-tail
    products as one scalar_sum_of_products."""
    q, t = exact_scalars(q, t)
    if r < 0:
        raise MacdonaldError("weight must be >= 0")
    if r == 0:
        return one_like(q)
    if weights is None:
        weights = tail_weights(r, t)
    if monomials is None:
        monomials = cell_weights(q, t)
    l = len(mu)
    values = [monomials[m, j] for j, m in enumerate(mu, start=1)]
    tail = weights[l]
    top = min(l, r)
    cleared_head, cleared_tail = clear_denominators(values), clear_denominators(tail)
    if cleared_head and cleared_tail:
        (d, ns), (dt, ts) = cleared_head, cleared_tail
        es = _elementary_recurrence(ns, 1, top)
        return Fraction(sum(es[r - n] * ts[n] * d ** n for n in range(r - top, r + 1)),
                        d ** r * dt)
    head = _elementary_list(values, one_like(q), top)
    return scalar_sum_of_products((head[r - n], tail[n]) for n in range(r - top, r + 1))


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
# diagonal operators as polynomials in the stabilized family
# ---------------------------------------------------------------------------

def psi_decomposition(m: int, q, t) -> Tuple[List[Tuple[object, Partition]], object]:
    """Adams operator as a weighted polynomial in the stabilized family:

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
    the two tables and carries the sign (-1)^m.

    A tail part j contributes e_j(1, t^{-1}, t^{-2}, ...) =
    e_j(t^{-1}, ...) + e_{j-1}(t^{-1}, ...); these and the powers t^w are
    computed once per call, before the loops over head and tail."""
    if m < 1:
        raise MacdonaldError("m must be >= 1")
    beta, gamma = beta_gamma_coefficients(m, q)
    head, tail = (beta, gamma) if symmetric else (gamma, beta)
    one = one_like(q)
    tails = _euler_tails(m, t)
    shifted = [tails[0]] + [tails[j] + tails[j - 1] for j in range(1, m + 1)]
    acc: Dict[Partition, object] = {}
    for w_mu in range(0, m + 1):
        t_w = t ** w_mu
        for mu in enumerate_partitions(w_mu):
            h = head[mu] if mu else one
            for nu in enumerate_partitions(m - w_mu):
                c = h * (tail[nu] if nu else one) * t_w
                if symmetric:
                    c = c * Fraction((-1) ** m)
                for part in nu:
                    c = c * shifted[part]
                acc[mu] = acc[mu] + c if mu in acc else c
    const = acc.pop((), Fraction(0))
    return [(c, mu) for mu, c in sorted(acc.items())], const


#: power operation -> (its symmetric function of a finite multiset, its
#: operator's decomposition in the stabilized family)
POWER_OPERATIONS = {"psi": (power_of, psi_decomposition),
                    "lambda": (elementary_of, lambda_decomposition),
                    "sigma": (complete_of, sigma_decomposition)}
