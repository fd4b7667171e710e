"""Reference implementations that only the tests use.

Finite-n Macdonald operators evaluated at concrete points, the finite-n
eigenvalue family, the Gauss binomial, Euler's tail product, the
Haglund-Haiman-Loehr formula for the integral forms J_mu, and the plane's
localization data (tangent denominator, fiber weights, insertion
characters, the bracket's displayed partition sum).  They are written from
their definitions, independently of the stable-limit code and the cached
cell tables they check.

Also a reference Laurent kernel over tuple monomials: a polynomial is a dict
from a tuple of (variable index, exponent) pairs, sorted by index with
nonzero exponents, to an int coefficient.  It multiplies, divides and
prints term by term, with no packing, so it checks the packed kernel of
hilbmac.exactalg.poly.  And a sum of rational functions that expands each
cofactor as a whole polynomial before it adds it, which checks rf_sum's
one-pass numerator.  And the expansion of a closed form in Q by the
division of two expanded series, which checks expand_closed_form.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from hilbmac.exactalg import (BASE_ALPHABET, LaurentPoly, RationalFunction, SeriesError,
                              TruncatedSeries, one_like, rf)
from hilbmac.exactalg.ratfun import _reduce_over
from hilbmac.macdonald import MacdonaldError, elementary_of
from hilbmac.partitions import Partition, iter_partitions
from hilbmac.symfun import SymmetricFunction, to_p


def q_binomial(n: int, k: int, q):
    """Gauss binomial coefficient [n choose k]_q."""
    if k < 0 or k > n:
        return q * 0
    out = one_like(q)
    for i in range(k):
        out = out * (1 - q ** (n - i))
        out = out / (1 - q ** (i + 1))
    return out


def finite_coefficient_c(j: int, n: int, t):
    """c_{j,n}(t) = (-1)^j t^{-j} [n+j-1 choose j]_{t^{-1}}.

    Equals (-1)^j t^{(j^2-3j)/2} e_j(1, t^{-1}, ..., t^{-(n+j-2)}); the Gauss
    reduction fixes the binomial's upper index to n+j-1 (the e_j argument list
    has n+j-1 entries).
    """
    return (-1) ** j * t ** (-j) * q_binomial(n + j - 1, j, t ** -1)


def eigen_E_r_finite(mu: Partition, r: int, n: int, q, t):
    """Finite-n eigenvalue sum_{j<=r} c_{j,n}(t) e_{r-j}(q^{mu_1}t^{-1},...,q^{mu_n}t^{-n}).

    Stable once n >= |mu| + r; kept at test scale only.
    """
    if len(mu) > n:
        raise MacdonaldError("need n >= l(mu)")
    vals = [q ** (mu[j - 1] if j <= len(mu) else 0) * t ** (-j) for j in range(1, n + 1)]
    total = None
    for j in range(0, r + 1):
        v = finite_coefficient_c(j, n, t) * elementary_of(vals, r - j)
        total = v if total is None else total + v
    return total


def euler_tail(j: int, t):
    """e_j(t^{-1}, t^{-2}, ...) = prod_{a<=j} 1/(t^a - 1), by Euler's formula."""
    out = one_like(t)
    for a in range(1, j + 1):
        out = out / (t ** a - 1)
    return out


def dn1_apply_power_sum(mu: Partition, xs: Sequence[Fraction], q: Fraction, t: Fraction) -> Fraction:
    """D_n^1 p_mu evaluated at concrete points x_1..x_n (n = len(xs))."""
    n = len(xs)
    total = Fraction(0)
    for i in range(n):
        coef = Fraction(1)
        for j in range(n):
            if j != i:
                coef *= (t * xs[i] - xs[j]) / (xs[i] - xs[j])
        prod = Fraction(1)
        for part in mu:
            prod *= sum(x ** part for x in xs) + (q ** part - 1) * xs[i] ** part
        total += coef * prod
    return total


def En_apply_power_sum(mu: Partition, xs: Sequence[Fraction], q: Fraction, t: Fraction) -> Fraction:
    """E restricted to n variables: t^{-n} D_n^1 - sum_{i<=n} t^{-i}, applied
    to p_mu and evaluated at the xs."""
    n = len(xs)
    p_mu = Fraction(1)
    for part in mu:
        p_mu *= sum(x ** part for x in xs)
    return t ** (-n) * dn1_apply_power_sum(mu, xs, q, t) - sum(t ** (-i) for i in range(1, n + 1)) * p_mu


def eval_p_basis(f: SymmetricFunction, xs: Sequence[Fraction]) -> Fraction:
    """Evaluate a p-basis symmetric function at concrete points."""
    g = to_p(f)
    total = Fraction(0)
    for kappa, c in g.terms.items():
        v = c
        for part in kappa:
            v = v * sum(x ** part for x in xs)
        total += v if isinstance(v, Fraction) else v.as_fraction()
    return total


def hhl_integral_form(mu: Partition, kappa: Partition, q, t):
    """The m_kappa coefficient of J_mu(x; q, t) by the Haglund-Haiman-Loehr
    sum over nonattacking fillings (JAMS 18 (2005), section 8), with no
    division:

        sum_sigma q^maj t^coinv prod_{sigma(u) = sigma(s(u))} (1 - q^{leg u + 1} t^{arm u + 1})
                                 prod_{sigma(u) != sigma(s(u))} (1 - t),

    s(u) the cell below u (none in the bottom row), over fillings with
    content kappa.  HHL's diagram is French with columns of heights mu_1,
    mu_2, ..., so their leg is this library's arm and their arm its leg.
    Cells are (r, c), r = 0 the bottom row; two cells attack when they share
    a row, or lie in adjacent rows with the upper one strictly to the right.
    Reading order is by rows from the top, left to right; maj sums leg + 1
    over the descents sigma(u) > sigma(s(u)), and
    coinv = sum of arms - (inversions - sum of the descents' arms), an
    inversion being an attacking pair in reading order with the earlier cell
    larger.  The conventions were fixed against the Macdonald table at
    |mu| <= 3."""
    height = dict(enumerate(mu))
    cells = [(r, c) for c, h in enumerate(mu) for r in range(h)]

    def leg(r, c):
        return height[c] - 1 - r

    def arm(r, c):
        return sum(1 for c2 in range(c + 1, len(mu)) if height[c2] > r)

    def attack(u, v):
        (r1, c1), (r2, c2) = sorted((u, v))
        return r1 == r2 or (r2 == r1 + 1 and c2 > c1)

    reading = sorted(cells, key=lambda u: (-u[0], u[1]))
    content = [i for i, k in enumerate(kappa, start=1) for _ in range(k)]
    total = q * 0
    for values in set(itertools.permutations(content)):
        sigma = dict(zip(cells, values))
        if any(sigma[u] == sigma[v] for u, v in itertools.combinations(cells, 2) if attack(u, v)):
            continue
        weight, maj, descent_arms = one_like(q), 0, 0
        for r, c in cells:
            below = sigma.get((r - 1, c))
            if below == sigma[(r, c)]:
                weight = weight * (1 - q ** (leg(r, c) + 1) * t ** (arm(r, c) + 1))
            else:
                weight = weight * (1 - t)
            if below is not None and sigma[(r, c)] > below:
                maj += leg(r, c) + 1
                descent_arms += arm(r, c)
        inversions = sum(1 for i, u in enumerate(reading) for v in reading[i + 1:]
                         if attack(u, v) and sigma[u] > sigma[v])
        coinv = sum(arm(*u) for u in cells) - (inversions - descent_arms)
        total = total + weight * q ** maj * t ** coinv
    return total


# ---------------------------------------------------------------------------
# localization on the plane, cell by cell
# ---------------------------------------------------------------------------

def diagram_cells(lam: Partition) -> List[Tuple[int, int, int, int]]:
    """(a, l, a', l') of each cell (i, j) of the diagram, row-major:
    a = lam_i - j, l = #{k : lam_k >= j} - i, a' = j - 1, l' = i - 1."""
    return [(p - j, sum(1 for r in lam if r >= j) - i, j - 1, i - 1)
            for i, p in enumerate(lam, start=1) for j in range(1, p + 1)]


def tangent_denominator(lam: Partition, t1, t2):
    """prod over cells (1 - t1^{-l} t2^{a+1})(1 - t1^{l+1} t2^{-a})."""
    out = one_like(t1)
    for a, l, _, _ in diagram_cells(lam):
        out = out * (1 - t1 ** (-l) * t2 ** (a + 1)) * (1 - t1 ** (l + 1) * t2 ** (-a))
    return out


def bundle_weights(lam: Partition, A, t1, t2) -> List:
    """Weight multiset of the rank-|lam| fiber: {t1^{l'+a} t2^{a'+b}}, A = (a, b)."""
    a, b = A
    return [t1 ** (coleg + a) * t2 ** (coarm + b) for _, _, coarm, coleg in diagram_cells(lam)]


def insertion_factor(ins, lam: Partition, t1, t2):
    """Character of the insertion's power operation of the fiber at I_lam:
    p_m, e_m or h_m of the fiber weights, summed over the monomials of its
    definition (m-th powers, m-subsets, m-multisets of the cells)."""
    ws = bundle_weights(lam, ins.A, t1, t2)
    monomials = {"psi": [(w,) * ins.m for w in ws],
                 "lambda": itertools.combinations(ws, ins.m),
                 "sigma": itertools.combinations_with_replacement(ws, ins.m)}[ins.operation]
    total = t1 * 0
    for mono in monomials:
        total = total + functools.reduce(operator.mul, mono)
    return total


def bracket_definition(word, u, v, q, t, order: int, primed: bool = False) -> TruncatedSeries:
    """The (u,v)-bracket summed term by term from its displayed definition

        sum_mu (-uQ)^{|mu|} prod_s (q^{a'} - v t^{l'})/(1 - t^l q^{a+1})
               * a_mu * prod_s (t^{-l'} - u^{-1} q^{-a'})/(1 - q^{-a} t^{-(l+1)}),

    a_mu the product of the word's eigenvalues at mu; primed divides by the
    same sum for the empty word."""
    coeffs = []
    for n in range(order + 1):
        total = u * 0
        for mu in iter_partitions(n):
            term = (-u) ** n
            for a, l, a_, l_ in diagram_cells(mu):
                term = term * (q ** a_ - v * t ** l_) / (1 - t ** l * q ** (a + 1))
                term = term * (t ** (-l_) - u ** -1 * q ** (-a_)) \
                    / (1 - q ** (-a) * t ** (-(l + 1)))
            for op in word:
                term = term * op.eigenvalue(mu)
            total = total + term
        coeffs.append(total)
    series = TruncatedSeries(coeffs)
    if primed:
        series = series / bracket_definition([], u, v, q, t, order)
    return series


# ---------------------------------------------------------------------------
# reference Laurent kernel over tuple monomials
# ---------------------------------------------------------------------------

TupleMono = Tuple[Tuple[int, int], ...]
TuplePoly = Dict[TupleMono, int]


def tuple_mono(exponents: Dict[str, int]) -> TupleMono:
    """The tuple monomial of a map from variable name to exponent."""
    return tuple(sorted((BASE_ALPHABET.index(n), e) for n, e in exponents.items() if e))


def _tuple_mono_mul(a: TupleMono, b: TupleMono) -> TupleMono:
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted((i, e) for i, e in d.items() if e))


def _tuple_mono_key(a: TupleMono):
    """Absolute degree, then (index, -exponent) lexicographically."""
    return sum(abs(e) for _, e in a), tuple((i, -e) for i, e in a)


def tuple_poly_mul(a: TuplePoly, b: TuplePoly) -> TuplePoly:
    out: TuplePoly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _tuple_mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def tuple_poly_add(a: TuplePoly, b: TuplePoly) -> TuplePoly:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def tuple_poly_divide(a: TuplePoly, b: TuplePoly) -> Optional[TuplePoly]:
    """Exact quotient a/b of polynomials with nonnegative exponents, or None
    when b does not divide a over the integers.  Each step cancels the
    remainder's largest term in the graded order of _tuple_mono_key."""
    blm = max(b, key=_tuple_mono_key)
    rem, quot = dict(a), {}
    while rem:
        rlm = max(rem, key=_tuple_mono_key)
        qm = _tuple_mono_mul(rlm, tuple((i, -e) for i, e in blm))
        if any(e < 0 for _, e in qm) or rem[rlm] % b[blm]:
            return None
        quot[qm] = rem[rlm] // b[blm]
        rem = {m: c for m, c in rem.items() if m != rlm}
        for m, c in b.items():
            if m != blm:
                mm = _tuple_mono_mul(m, qm)
                rem[mm] = rem.get(mm, 0) - quot[qm] * c
                if not rem[mm]:
                    del rem[mm]
    return quot


def tuple_poly_str(a: TuplePoly) -> str:
    """Terms in _tuple_mono_key order, as LaurentPoly prints them."""
    out = []
    for m in sorted(a, key=_tuple_mono_key):
        c = a[m]
        body = "*".join(BASE_ALPHABET[i] if e == 1 else f"{BASE_ALPHABET[i]}^{e}" for i, e in m)
        chunk = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not out:
            out.append(chunk if c > 0 else f"-{chunk}")
        else:
            out.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
    return " ".join(out) or "0"


# ---------------------------------------------------------------------------
# a sum of rational functions, cofactor by cofactor
# ---------------------------------------------------------------------------

def rf_sum_fold(values) -> RationalFunction:
    """The sum over the least common denominator, as rf_sum once formed it:
    each cofactor is expanded from const(1) by repeated products, then
    shifted by its value's monomial, scaled by its share of the integer
    denominator and added to the numerator as a new polynomial.  The
    numerator is reduced by the library's _reduce_over, so nc, dc, mono and
    fac can be compared with rf_sum's exactly."""
    vals = [v for v in map(rf, values) if v.nc != 0]
    if not vals:
        return RationalFunction.from_int(0)
    if len(vals) == 1:
        return vals[0]
    den: Dict[LaurentPoly, int] = {}
    for v in vals:
        for p, k in v.fac.items():
            if k < 0 and den.get(p, 0) < -k:
                den[p] = -k
    dc = math.lcm(*(v.dc for v in vals))
    num = LaurentPoly({})
    for v in vals:
        cofactor = dict(den)
        for p, k in v.fac.items():
            cofactor[p] = cofactor.get(p, 0) + k
        part = LaurentPoly.const(1)
        for p, k in cofactor.items():
            for _ in range(k):
                part = part * p
        num = num + part.mono_shift(v.mono).scale(v.nc * (dc // v.dc))
    return _reduce_over(num, dc, den)


# ---------------------------------------------------------------------------
# a closed form expanded in Q by series division
# ---------------------------------------------------------------------------

def expand_by_series_division(f: RationalFunction, order: int) -> TruncatedSeries:
    """f expanded in Q as expand_closed_form once did it: numerator and
    denominator fully expanded, each Q-coefficient made a rational function,
    and the two series divided by TruncatedSeries' generic fold, whose
    every coefficient is a sum of rational functions over the expanded
    lead.  A pole at Q = 0 is a SeriesError."""
    num, den = f.expanded()
    nd = {k: p for (k,), p in num.group_by(["Q"]).items()}
    dd = {k: p for (k,), p in den.group_by(["Q"]).items()}
    dmin = min(dd)
    if nd and min(nd) < dmin:
        raise SeriesError("negative valuation in Q: expression is not a power series")

    def coeff_rf(table, k):
        return RationalFunction.from_poly(table.get(k, LaurentPoly({})))

    a = TruncatedSeries([coeff_rf(nd, k + dmin) for k in range(order + 1)])
    b = TruncatedSeries([coeff_rf(dd, k + dmin) for k in range(order + 1)])
    return a / b
