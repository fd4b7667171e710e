"""The (u,v)-bracket correlator calculus.

Brute-force partition sums, the iterated constant-term engine for products of
diagonal operators realized by vertex kernels, the library of closed forms,
connected correlators, and the formal-QFT layer (partition function, free
energy, entropy) over formal coupling variables.

Scalars (q, t, u, v) may be Fractions (evaluation mode) or symbolic
RationalFunctions; the series variable is always Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactalg import (HilbmacError, RationalFunction, TruncatedSeries, exact_scalars,
                       expand_closed_form, one_like, power_ratio, rational_scalars,
                       scalar_product, scalar_sum)
from .macdonald import POWER_OPERATIONS, cell_weights, eigen_tildeE, tail_weights
from .partitions import (CellStat, LazyTable, Partition, cells, iter_partitions,
                         multiplicity_factorial, set_partition_moebius, set_partitions)
from .symfun import SymmetricFunction


class CorrelatorError(HilbmacError, ValueError):
    pass


def _check_order(order: int) -> None:
    if order < 0:
        raise CorrelatorError(f"order must be >= 0, got {order}")


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator diagonal on the Macdonald basis.

    expansion: pairs of a tuple of stabilized weights and a scalar, with the
    key () for an additive multiple of the identity.
    """
    label: str
    eigenvalue: Callable[[Partition], object]
    expansion: Optional[Tuple[Tuple[Partition, object], ...]] = None

    def __repr__(self):
        return self.label


def identity_op(q, t) -> DiagonalOperator:
    one = one_like(q)
    return DiagonalOperator("1", lambda mu: one, expansion=(((), one),))


def tilde_e_op(r: int, q, t) -> DiagonalOperator:
    q, t = exact_scalars(q, t)
    if r < 0:
        raise CorrelatorError("weight must be >= 0")
    if r == 0:
        return identity_op(q, t)
    weights, monomials = tail_weights(r, t), cell_weights(q, t)
    return DiagonalOperator(f"E{r}", lambda mu: eigen_tildeE(mu, r, q, t, weights, monomials),
                            expansion=(((r,), one_like(q)),))


def power_op(operation: str, m: int, q, t) -> DiagonalOperator:
    """The operator Psi^m, Lambda^m or Sigma^m of the power operation psi,
    lambda or sigma: its eigenvalue at mu is the operation's symmetric
    function of the cell multiset of mu (the zero of q's ring at the empty
    mu), and its expansion in the stabilized family is the operation's
    decomposition (macdonald.POWER_OPERATIONS)."""
    q, t = exact_scalars(q, t)
    if operation not in POWER_OPERATIONS:
        raise CorrelatorError(f"unknown operation {operation!r}; "
                              f"have {', '.join(POWER_OPERATIONS)}")
    cell_function, decomposition = POWER_OPERATIONS[operation]
    terms, const = decomposition(m, q, t)
    expansion = tuple([(lam, c) for c, lam in terms] + [((), const)])
    weights = cell_weights(q, t)
    return DiagonalOperator(
        f"{operation.capitalize()}{m}",
        lambda mu: (cell_function([weights[c.coarm, c.coleg] for c in cells(mu)], m)
                    if mu else q * 0),
        expansion=expansion)


def psi_op(m: int, q, t) -> DiagonalOperator:
    return power_op("psi", m, q, t)


def lambda_op(m: int, q, t) -> DiagonalOperator:
    return power_op("lambda", m, q, t)


def sigma_op(m: int, q, t) -> DiagonalOperator:
    return power_op("sigma", m, q, t)


#: operator name in a word -> its constructor (weight, q, t)
OPERATORS = {"E": tilde_e_op, "Psi": psi_op, "Lambda": lambda_op, "Sigma": sigma_op}


def operator_word(spec: Sequence[Tuple[str, int]], q, t) -> List[DiagonalOperator]:
    """The operators of a word given as (operator name, weight) pairs."""
    for name, _ in spec:
        if name not in OPERATORS:
            raise CorrelatorError(f"unknown operator {name!r}; known: {', '.join(OPERATORS)}")
    return [OPERATORS[name](m, q, t) for name, m in spec]


# ---------------------------------------------------------------------------
# brute-force partition sums
# ---------------------------------------------------------------------------

def bracket_one_closed(u, v, q, t, order: int) -> TruncatedSeries:
    """<1>_{u,v} = exp( sum Q^n/n (1-u^n)(1-v^n)/((1-q^n)(1-t^-n)) ).

    At rational u, v, q, t each log term is one Fraction from power_ratio's
    integer powers; any other ring forms it as written."""
    _check_order(order)
    u, v, q, t = exact_scalars(u, v, q, t)
    rational = rational_scalars((u, v, q, t))
    log_terms = [u * 0]
    for n in range(1, order + 1):
        if rational:
            (un, ud), (vn, vd), (qn, qd), (tn, td) = (
                power_ratio(x) for x in ((u, n), (v, n), (q, n), (t, -n)))
            log_terms.append(Fraction((ud - un) * (vd - vn) * qd * td,
                                      n * ud * vd * (qd - qn) * (td - tn)))
        else:
            log_terms.append(Fraction(1, n) * (1 - u ** n) * (1 - v ** n)
                             / ((1 - q ** n) * (1 - t ** (-n))))
    return TruncatedSeries(log_terms).exp()


def bracket_bruteforce(word: Sequence[DiagonalOperator], u, v, q, t,
                       order: int, primed: bool = False) -> TruncatedSeries:
    """Partition-sum definition of the (u,v)-bracket of a product of diagonal
    operators:

        sum_mu (-uQ)^{|mu|} prod_s (q^{a'} - v t^{l'})/(1 - t^l q^{a+1})
               * a_mu * prod_s (t^{-l'} - u^{-1} q^{-a'})/(1 - q^{-a} t^{-(l+1)})

    with a_mu the product of the word's eigenvalues at mu.  The primed flag
    divides by <1>_{u,v}.

    This is the localization sum of the chart (t1, t2) = (t^{-1}, q), with
    the word's eigenvalues as the factors of mu: for w = t^{-l'} q^{a'},

        -u (q^{a'} - v t^{l'})(t^{-l'} - u^{-1} q^{-a'}) = (1 - u w)(1 - v/w),

    and the two denominators are the chart's tangent factors verbatim.  Each
    operator's eigenvalue is computed once per mu.
    """
    u, v, q, t = exact_scalars(u, v, q, t)
    if not u:
        raise CorrelatorError("u must be invertible: the weights contain u^{-1}")
    series = chart_series(1 / t, q, u, v, order,
                          lambda mu, _: {(): [op.eigenvalue(mu) for op in word]})[()]
    if primed:
        series = series / bracket_one_closed(u, v, q, t, order)
    return series


def chart_series(t1, t2, u, v, order: int,
                 extra: Callable[[Partition, List[CellStat]], Dict[object, Sequence]]
                 ) -> Dict[object, TruncatedSeries]:
    """Fixed-point localization sum on the plane chart with tangent weights
    t1, t2 and the dual exterior-algebra twist (u, v), graded by keys.  The
    base term of mu is, with w = t1^{l'} t2^{a'},

        prod_s (1 - u w)(1 - v/w) / prod_s (1 - t1^{-l} t2^{a+1})(1 - t1^{l+1} t2^{-a});

    extra(mu, cells(mu)) maps each key to the factors that multiply the base
    at that key, and the Q^n coefficient at a key sums over |mu| = n.  Cell
    factors are computed once per call for each (a', l') or (a, l): the
    twist pair's product and the inverse of the tangent pair's.

    At rational t1, t2, u, v each cell factor is one reduced Fraction from
    power_ratio's integer powers, kept as its (numerator, denominator), and
    mu's base is the pair of their integer products, formed once for all
    keys.  A key whose factors are ints and Fractions multiplies them in
    and adds the term to the Q^n coefficient's numerator over a running lcm
    of the denominators, so each coefficient is one Fraction.  A key with
    any other factor takes the base as one Fraction and runs the generic
    term and sum below on it.  In any other ring a term is one
    scalar_product of the twist factors, the tangent factors and the key's
    factors, in that order (with several keys the base product is formed
    once per mu and heads each key's product), and a coefficient is one
    scalar_sum of its terms.
    """
    _check_order(order)
    t1, t2, u, v = exact_scalars(t1, t2, u, v)
    one = one_like(t1)
    rational = rational_scalars((t1, t2, u, v))
    if rational:
        (nu, du), (nv, dv) = u.as_integer_ratio(), v.as_integer_ratio()

        def twist_at(a_, l_):
            wn, wd = power_ratio((t1, l_), (t2, a_))     # w = wn / wd
            f = Fraction((du * wd - nu * wn) * (dv * wn - nv * wd), du * dv * wd * wn)
            return f.numerator, f.denominator

        def tangent_at(a, l):
            xn, xd = power_ratio((t1, -l), (t2, a + 1))
            yn, yd = power_ratio((t1, l + 1), (t2, -a))
            f = Fraction(xd * yd, (xd - xn) * (yd - yn))
            return f.numerator, f.denominator

        twist, tangent = LazyTable(twist_at), LazyTable(tangent_at)
    else:
        twist = LazyTable(lambda a_, l_: (1 - u * t1 ** l_ * t2 ** a_)
                          * (1 - v / (t1 ** l_ * t2 ** a_)))
        tangent = LazyTable(lambda a, l: 1 / ((1 - t1 ** (-l) * t2 ** (a + 1))
                                              * (1 - t1 ** (l + 1) * t2 ** (-a))))
    coeffs: Dict[object, List] = {}
    for n in range(order + 1):
        terms: Dict[object, List] = {}
        for mu in iter_partitions(n):
            cs = cells(mu)
            keyed = extra(mu, cs)
            if rational:
                bn = bd = 1
                for c in cs:
                    (wn, wd), (xn, xd) = twist[c.coarm, c.coleg], tangent[c.arm, c.leg]
                    bn *= wn * xn
                    bd *= wd * xd
                for key, factors in keyed.items():
                    terms.setdefault(key, []).append(_rational_term(bn, bd, factors))
                continue
            base = ([one] + [twist[c.coarm, c.coleg] for c in cs]
                    + [tangent[c.arm, c.leg] for c in cs])
            if len(keyed) > 1:
                base = [scalar_product(base)]
            for key, factors in keyed.items():
                terms.setdefault(key, []).append(scalar_product([*base, *factors]))
        for key, vals in terms.items():
            coeffs.setdefault(key, []).append(_sum_terms(vals))
    return {key: TruncatedSeries(c) for key, c in coeffs.items()}


def _rational_term(base_num: int, base_den: int, factors: Sequence):
    """The term base_num/base_den * prod factors: an integer (numerator,
    denominator) pair when every factor is an int or a Fraction, else the
    generic scalar_product from the Fraction base_num/base_den."""
    num, den = base_num, base_den
    for f in factors:
        kind = type(f)
        if kind is Fraction:
            num *= f.numerator
            den *= f.denominator
        elif kind is int:
            num *= f
        else:
            return scalar_product([Fraction(base_num, base_den), *factors])
    return num, den


def _sum_terms(vals: List):
    """One Q-coefficient of chart_series: the sum of integer pairs as one
    Fraction, numerators added over a running lcm of the denominators; when
    any term is another value, scalar_sum of the terms with each pair made a
    Fraction."""
    if any(type(x) is not tuple for x in vals):
        return scalar_sum([Fraction(*x) if type(x) is tuple else x for x in vals])
    num, den = 0, 1
    for n, d in vals:
        if not n:
            continue
        if d == den:
            num += n
        else:
            g = math.gcd(den, d)
            s = d // g
            num = num * s + n * (den // g)
            den *= s
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# base brackets in one variable
# ---------------------------------------------------------------------------

def base_bracket_z(k: int, u=None, v=None) -> RationalFunction:
    """Closed form of the depth-one bracket of z^k:

        k = 0:   1 - Q (1-u)(1-v)/(1-uQ)
        k > 0:   (-1)^k (1-v)(1-Q)/(1-uQ)
        k < 0:   (-uQ)^{|k|-1} Q (1-u)(1-uvQ)/(1-uQ)
    """
    u, v = exact_scalars(u, v)
    u = RationalFunction.var("u") if u is None else u
    v = RationalFunction.var("v") if v is None else v
    Q = RationalFunction.var("Q")
    if k == 0:
        return 1 - Q * (1 - u) * (1 - v) / (1 - u * Q)
    if k > 0:
        return (-1) ** k * (1 - v) * (1 - Q) / (1 - u * Q)
    m = -k
    return (-u * Q) ** (m - 1) * Q * (1 - u) * (1 - u * v * Q) / (1 - u * Q)


def _depth_one_factors(u, v, nq: int, nv: int) -> Tuple[List, List]:
    """Coefficient lists fq (to Q^nq z^nq) and fv (to z^-nv) of the two
    depth-one factors under the fixed expansion conventions (positive powers
    of zQ, negative powers of z):

        (1+zQ)/(1+uzQ) = 1 + sum_{n>=1} (-1)^{n-1} u^{n-1} (1-u) Q^n z^n
        (1+v/z)/(1+1/z) = 1 + sum_{m>=1} (-1)^m (1-v) z^-m
    """
    one = one_like(u)
    fq = [one] + [(-1) ** (n - 1) * u ** (n - 1) * (1 - u) for n in range(1, nq + 1)]
    fv = [one] + [(-1) ** m * (1 - v) for m in range(1, nv + 1)]
    return fq, fv


def base_bracket_series(k: int, u, v, order: int) -> TruncatedSeries:
    """Defining series expansion of the depth-one bracket of z^k: the z^0
    coefficient of z^k (1+zQ)/(1+uzQ) (1+v z^-1)/(1+z^-1)."""
    zero = u * 0
    mmax = order + abs(k)
    fq, fv = _depth_one_factors(u, v, order, mmax)
    out = [zero] * (order + 1)
    for n in range(0, order + 1):        # z^n with Q^n from the first factor
        m = n + k                        # need z^{-m} with m = n + k
        if m == 0:
            out[n] = out[n] + fq[n]
        elif 1 <= m <= mmax:
            out[n] = out[n] + fq[n] * fv[m]
    return TruncatedSeries(out)


# ---------------------------------------------------------------------------
# the iterated constant-term engine
# ---------------------------------------------------------------------------

def _check_grading(state: Dict[Tuple[int, ...], Dict[int, object]]) -> bool:
    """Q-grading bound: a positive exponent k in any variable forces Q-valuation >= k."""
    return all(max(expv, default=0) <= min(ser) for expv, ser in state.items())


def vertex_tilde_bracket(weights: Sequence[int], u, v, q, t, order: int) -> TruncatedSeries:
    """Normalized bracket of a product of stabilized operators of the given
    weights (leftmost first), by iterated constant-term extraction.

    Variables z_1..z_R are assigned so the leftmost factor holds the highest
    indices; extraction runs z_R down to z_1.  All series expansions follow
    the fixed conventions; composition cross-factors couple each earlier-block
    variable (negative powers) with each later-block variable (positive
    powers).  Extraction is a contraction: the state maps the exponents of the
    variables not yet extracted, z_i last, to their nonzero Q-coefficients by
    order, and each factor of z_i yields per state entry, with z_i-exponent e,
    only the terms that survive the constant term in z_i: fq[n] z_i^n Q^n
    (n <= N), then per lower partner z_j coeff[m] z_j^m z_i^-m (m <= min(N, e)),
    then the single v-factor term fv[e] z_i^-e, after which z_i is dropped.
    Termination rests on the Q-grading invariant, checked on entering each
    extraction; a violation raises CorrelatorError.

    At rational u, v, q, t the prefactor is one Fraction and the four
    coefficient tables (fq, fv and the two pair factors) are made directly
    as integer numerators over one denominator each (_integer_tables): the
    state then holds ints over one common denominator D, which each
    contraction multiplies by its table's denominator, and each result
    coefficient is made once as a Fraction of x times the prefactor's
    numerator over D times its denominator.  After each variable's
    extraction D and the state are divided by their gcd, so D stays near
    the size of the result's denominators.  Any other ring builds the
    tables as written and runs the same contractions on them.
    """
    _check_order(order)
    u, v, q, t = exact_scalars(u, v, q, t)
    weights = [w for w in weights if w]
    R = sum(weights)
    N = order
    zero = u * 0
    cleared = rational_scalars((u, v, q, t))
    if cleared:
        one = num = den = 1
        for w in weights:
            for a in range(1, w + 1):
                n, d = power_ratio((t, -a))         # t^-a / (1 - t^-a) = n / (d - n)
                num, den = num * n, den * (d - n)
        prefactor = Fraction(num, den)
        tables = _integer_tables(u, v, q, t, N)
    else:
        one = one_like(u)
        prefactor = one
        for w in weights:
            for a in range(1, w + 1):
                prefactor = prefactor * (t ** (-a) / (1 - t ** (-a)))
        fq, fv = _depth_one_factors(u, v, N, N)
        g_coeff = [one] + [(t ** -1 - 1) * t ** (-(m - 1)) for m in range(1, N + 1)]
        # exp(-sum (1-q^n)(1-t^-n)/n x^n) = 1 - sum (1-q)(1-t^-1) h_{m-1}(q, t^-1) x^m
        x_coeff = [one] + [-(1 - q) * (1 - t ** -1)
                           * scalar_sum([q ** a * t ** (-(m - 1 - a)) for a in range(m)])
                           for m in range(1, N + 1)]
        tables = [(1, c) for c in (fq, fv, g_coeff, x_coeff)]
    (fq_den, fq), (fv_den, fv), g_table, x_table = tables

    blocks = [range(R - end + 1, R - end + w + 1)
              for w, end in zip(weights, itertools.accumulate(weights))]
    # variable -> its lower partners with the pair factor's table: the
    # earlier variables of its block, then every variable of the later blocks
    partners: Dict[int, List[Tuple[int, Tuple[int, List]]]] = {}
    for bi, b in enumerate(blocks):
        later = [j for lo_block in blocks[bi + 1:] for j in lo_block]
        for pos, i in enumerate(b):
            partners[i] = [(j, g_table) for j in b[:pos]] + [(j, x_table) for j in later]

    def contract(state, factor):
        """The state times a factor, where factor(exponents) yields the
        surviving (exponents, Q-shift, coefficient) terms of one entry.
        Each target coefficient is accumulated as x + a*c in visiting order,
        starting from its first product; only nonzero sums are kept."""
        new: Dict[Tuple[int, ...], Dict[int, object]] = {}
        for expv, ser in state.items():
            for ne, dq, c in factor(expv):
                if c:
                    tgt = new.setdefault(ne, {})
                    for n, a in ser.items():
                        n += dq
                        if n <= N:
                            tgt[n] = tgt[n] + a * c if n in tgt else a * c
        new = {k: {n: x for n, x in s.items() if x} for k, s in new.items()}
        return {k: s for k, s in new.items() if s}

    state = {(0,) * R: {0: one}}
    D = 1
    for i in range(R, 0, -1):
        if not _check_grading(state):
            raise CorrelatorError("Q-grading invariant violated entering extraction")
        state = contract(state, lambda e: [(e[:-1] + (e[-1] + n,), n, fq[n])
                                           for n in range(N + 1)])
        D *= fq_den
        for j, (den, coeff) in partners[i]:
            state = contract(state, lambda e: [
                (e[:j - 1] + (e[j - 1] + m,) + e[j:-1] + (e[-1] - m,), 0, coeff[m])
                for m in range(min(N, e[-1]) + 1)])
            D *= den
        state = contract(state, lambda e: [(e[:-1], 0, fv[e[-1]])] if e[-1] <= N else [])
        D *= fv_den
        if cleared:
            g = math.gcd(D, *(x for s in state.values() for x in s.values()))
            if g > 1:
                D //= g
                state = {k: {n: x // g for n, x in s.items()} for k, s in state.items()}
    result = state.get((), {})
    if cleared:
        num, den = prefactor.numerator, D * prefactor.denominator
        return TruncatedSeries([Fraction(result[n] * num, den) if n in result else zero
                                for n in range(N + 1)])
    return TruncatedSeries([result.get(n, zero) for n in range(N + 1)]) * prefactor


def _integer_tables(u, v, q, t, N: int) -> List[Tuple[int, List[int]]]:
    """vertex_tilde_bracket's tables fq, fv, g and x at Fraction u, v, q, t,
    each as (denominator, integer numerators of entries 0..N), built from
    integer powers: with x = n_x / d_x for each scalar and s = t^-1,

        fq_n = (-1)^(n-1) u^(n-1) (1 - u)       over d_u^N
        fv_m = (-1)^m (1 - v)                   over d_v
        g_m  = (s - 1) s^(m-1)                  over d_s^N
        x_m  = -(1 - q)(1 - s) h_(m-1)(q, s)    over (d_q d_s)^N

    and entry 0, the coefficient 1, the denominator itself.  Over
    (d_q d_s)^k, h_k(q, s) = sum_(a<=k) q^a s^(k-a) is the integer
    H_k = sum_(a<=k) (n_q d_s)^a (d_q n_s)^(k-a) = d_q n_s H_(k-1) + (n_q d_s)^k.
    s is read only when N > 0, where t = 0 raises ZeroDivisionError as t^-1
    does."""
    (nu, du), (nv, dv), (nq, dq) = (x.as_integer_ratio() for x in (u, v, q))
    ns, ds = power_ratio((t, -1)) if N else (1, 1)
    fq = [du ** N] + [(-nu) ** (n - 1) * (du - nu) * du ** (N - n) for n in range(1, N + 1)]
    fv = [dv] + [(-1) ** m * (dv - nv) for m in range(1, N + 1)]
    g = [ds ** N] + [(ns - ds) * ns ** (m - 1) * ds ** (N - m) for m in range(1, N + 1)]
    dx = dq * ds
    x, h = [dx ** N], 1
    for m in range(1, N + 1):
        x.append(-(dq - nq) * (ds - ns) * h * dx ** (N - m))
        h = dq * ns * h + (nq * ds) ** m
    return [(du ** N, fq), (dv, fv), (ds ** N, g), (dx ** N, x)]


def _expand_word(word: Sequence[DiagonalOperator]) -> List[Tuple[object, Tuple[int, ...]]]:
    """Distribute a word of diagonal operators into scalar multiples of
    stabilized-weight tuples."""
    combos: List[Tuple[object, Tuple[int, ...]]] = [(Fraction(1), ())]
    for op in word:
        if op.expansion is None:
            raise CorrelatorError(f"operator {op.label} has no vertex realization")
        new = []
        for c0, ws in combos:
            for lam, c in op.expansion:
                new.append((c0 * c, ws + tuple(lam)))
        combos = new
    return combos


def vertex_correlator(word: Sequence[DiagonalOperator], u, v, q, t,
                      order: int, primed: bool = True) -> TruncatedSeries:
    """Bracket of a word through the vertex kernels (normalized by default)."""
    u, v, q, t = exact_scalars(u, v, q, t)
    zero = u * 0
    total = TruncatedSeries.constant(zero, order)
    cache: Dict[Tuple[int, ...], TruncatedSeries] = {}
    for c, ws in _expand_word(word):
        key = tuple(sorted(ws))
        if key not in cache:
            cache[key] = vertex_tilde_bracket(list(ws), u, v, q, t, order)
        total = total + cache[key] * c
    if not primed:
        total = total * bracket_one_closed(u, v, q, t, order)
    return total


# ---------------------------------------------------------------------------
# closed-form library
# ---------------------------------------------------------------------------

#: library entry -> (its operator word as (operator, weight) pairs, the
#: multiple of the word's normalized bracket that the entry is)
CLOSED_FORMS = {
    "E1": ((("E", 1),), 1),
    "E2": ((("E", 2),), 1),
    "E1E1": ((("E", 1), ("E", 1)), 1),
    "Psi1": ((("Psi", 1),), 1),
    "Psi2": ((("Psi", 2),), 1),
    "Psi1sq": ((("Psi", 1), ("Psi", 1)), 1),
    "Lambda2": ((("Lambda", 2),), 2),
}


def closed_form_library(name: str, q=None, t=None, u=None, v=None) -> RationalFunction:
    """Closed forms of the normalized one- and two-point brackets.

    All expressions are rational in Q over (q, t, u, v).  Each scalar left
    at None is its symbolic generator; a Fraction or int scalar is put in
    while the expression is built, so with all four given the result is
    rational in Q alone.  Lambda2 denotes twice the normalized bracket of
    the weight-2 exterior operator.
    """
    q, t, u, v = (RationalFunction.var(n) if x is None else x
                  for n, x in zip("qtuv", exact_scalars(q, t, u, v)))
    Q = RationalFunction.var("Q")
    ti = t ** -1
    one_minus = 1 - Q * (1 - u) * (1 - v) / (1 - u * Q)
    x0 = Q * (1 - Q) * (1 - u) * (1 - v) * (1 - u * v * Q) \
        / ((1 - u * Q) ** 2 * (1 - u * q * Q) * (1 - u * ti * Q))
    if name == "E1":
        return ti / (1 - ti) * one_minus
    if name == "E2":
        x2 = Q * (1 - Q) * (1 - u) * (1 - v) * (1 - u * v * Q) \
            / ((1 - ti * u * Q) * (1 - u * Q) ** 2)
        return ti ** 3 / ((1 - ti) * (1 - ti ** 2)) * (one_minus ** 2 + (1 - ti) * x2)
    if name == "E1E1":
        return (ti / (1 - ti)) ** 2 * (one_minus ** 2 + (1 - q) * (1 - ti) * x0)
    psi1 = Q * (1 - u) * (1 - v) / ((1 - q) * (1 - ti) * (1 - u * Q))
    c2 = 1 / ((1 - q ** 2) * (1 - ti ** 2))
    if name == "Psi1":
        return psi1
    if name == "Psi2":
        return c2 * (1 - one_minus ** 2) \
            + (-1 + q + ti + q * ti - 2 * u * q * ti * Q) * c2 * x0
    if name == "Psi1sq":
        return psi1 ** 2 + x0 / ((1 - q) * (1 - ti))
    if name == "Lambda2":
        return psi1 ** 2 - c2 + c2 * one_minus ** 2 \
            + (2 + 2 * u * q * ti * Q) * c2 * x0
    raise CorrelatorError(f"unknown closed form {name!r}; "
                          f"known: {', '.join(CLOSED_FORMS)}")


def closed_form_series(name: str, order: int,
                       bindings: Optional[Dict[str, Fraction]] = None) -> TruncatedSeries:
    """Expand a library entry in Q.  bindings may give any of q, t, u and v,
    which closed_form_library takes as scalars; with all four the
    coefficients come back as exact Fractions."""
    bindings = bindings or {}
    series = expand_closed_form(closed_form_library(name, **bindings), order)
    if len(bindings) == 4:
        return series.map(lambda c: c.as_fraction())
    return series


# ---------------------------------------------------------------------------
# connected correlators and the formal-QFT layer
# ---------------------------------------------------------------------------

def connected_correlators(raw: Dict[Tuple, object]) -> Dict[Tuple, object]:
    """Moebius inversion over set partitions of the word positions:

        conn(w) = sum over partitions pi of (-1)^{|pi|-1} (|pi|-1)! prod_B raw(w|_B)
    """
    return _set_partition_sums(raw, lambda k: Fraction(set_partition_moebius(k)))


def disconnected_from_connected(conn: Dict[Tuple, object]) -> Dict[Tuple, object]:
    """Inverse of connected_correlators: raw(w) = sum over pi prod_B conn(w|_B)."""
    return _set_partition_sums(conn, lambda k: Fraction(1))


def _set_partition_sums(table: Dict[Tuple, object],
                        coeff: Callable[[int], Fraction]) -> Dict[Tuple, object]:
    """out(w) = sum over set partitions pi of w's positions of
    coeff(|pi|) prod_B table(w|_B), for every nonempty word w of the table."""
    out: Dict[Tuple, object] = {}
    for w in table:
        if not w:
            continue
        pieces = []
        for pi in set_partitions(range(len(w))):
            term = coeff(len(pi))
            for block in pi:
                key = tuple(w[i] for i in sorted(block))
                if key not in table:
                    raise CorrelatorError(f"missing subword {key} for {w}")
                term = term * table[key]
            pieces.append(term)
        out[w] = scalar_sum(pieces)
    return out


@dataclass
class FqftResult:
    Z: Dict[Tuple, object]
    F: Dict[Tuple, object]
    G: Dict[Tuple, object]


def fqft_layer(table: Dict[Tuple, object], D: int) -> FqftResult:
    """Partition function, free energy and entropy from a normalized
    correlator table.

    table maps sorted words (tuples of generator labels, length <= D) to
    values.  Z = sum_M table[M] prod t_m^{k_m}/k_m!; F = log Z truncated at
    total degree D; G = sum t_n dF/dt_n - F.  Polynomials are returned as
    sparse maps from sorted label tuples to coefficients.
    """
    if D < 0:
        raise CorrelatorError(f"total degree D must be >= 0, got {D}")
    Z: Dict[Tuple, object] = {(): Fraction(1)}
    for word, val in table.items():
        if not word or len(word) > D:
            continue
        key = tuple(sorted(word))
        v = val * Fraction(1, multiplicity_factorial(key))
        Z[key] = Z[key] + v if key in Z else v
    # F = log Z as a series graded by word length; a sorted word reversed
    # is a p-basis key, and p-basis products merge keys as words multiply
    grades: List[Dict[Tuple, object]] = [{} for _ in range(D + 1)]
    for key, v in Z.items():
        grades[len(key)][key[::-1]] = v
    log = TruncatedSeries([SymmetricFunction("p", g) for g in grades]).log()
    F = {key[::-1]: v for g in log.coeffs for key, v in g.terms.items()}
    G = {key: v * (len(key) - 1) for key, v in F.items()}
    return FqftResult(Z=Z, F=F, G={k: v for k, v in G.items() if v})


def correlators_from_Z(Z: Dict[Tuple, object]) -> Dict[Tuple, object]:
    """Recover the normalized correlator table from the partition function:
    the derivative at 0 multiplies back the multinomial factor."""
    out: Dict[Tuple, object] = {}
    for key, v in Z.items():
        if not key:
            continue
        out[key] = v * multiplicity_factorial(key)
    return out
