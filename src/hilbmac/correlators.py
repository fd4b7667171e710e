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

from .exactalg.ratfun import RationalFunction, exact_scalars, one_like, scalar_sum
from .exactalg.series import TruncatedSeries
from .macdonald import (cell_multiset, complete_of, eigen_tildeE,
                        elementary_of, lambda_decomposition, power_of,
                        psi_decomposition, sigma_decomposition)
from .partitions import Partition, cells, iter_partitions

Word = Tuple["DiagonalOperator", ...]


class CorrelatorError(ValueError):
    pass


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
    return DiagonalOperator(
        f"E{r}", lambda mu: eigen_tildeE(mu, r, q, t), expansion=(((r,), one_like(q)),))


def _cell_op(label: str, decomposition, cell_function, m: int, q, t) -> DiagonalOperator:
    """The operator with eigenvalue cell_function(cell multiset of mu, m),
    expanded in the stabilized family by decomposition(m, q, t)."""
    q, t = exact_scalars(q, t)
    terms, const = decomposition(m, q, t)
    expansion = tuple([(lam, c) for c, lam in terms] + [((), const)])
    return DiagonalOperator(
        f"{label}{m}", lambda mu: cell_function(cell_multiset(mu, q, t), m),
        expansion=expansion)


def psi_op(m: int, q, t) -> DiagonalOperator:
    return _cell_op("Psi", psi_decomposition, power_of, m, q, t)


def lambda_op(m: int, q, t) -> DiagonalOperator:
    return _cell_op("Lambda", lambda_decomposition, elementary_of, m, q, t)


def sigma_op(m: int, q, t) -> DiagonalOperator:
    return _cell_op("Sigma", sigma_decomposition, complete_of, m, q, t)


# ---------------------------------------------------------------------------
# brute-force partition sums
# ---------------------------------------------------------------------------

def bracket_one_closed(u, v, q, t, order: int) -> TruncatedSeries:
    """<1>_{u,v} = exp( sum Q^n/n (1-u^n)(1-v^n)/((1-q^n)(1-t^-n)) )."""
    zero = u * 0
    log_terms = [zero]
    for n in range(1, order + 1):
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
    """
    u, v, q, t = exact_scalars(u, v, q, t)
    if not u:
        raise CorrelatorError("u must be invertible: the weights contain u^{-1}")
    memo: Dict[Tuple[str, Partition], object] = {}

    def eig(op: DiagonalOperator, mu: Partition):
        key = (op.label, mu)
        if key not in memo:
            memo[key] = op.eigenvalue(mu)
        return memo[key]

    uinv = 1 / u

    def term(mu: Partition):
        out = (-u) ** sum(mu)
        for c in cells(mu):
            out = out * (q ** c.coarm - v * t ** c.coleg)
            out = out / (1 - t ** c.leg * q ** (c.arm + 1))
            out = out * (t ** (-c.coleg) - uinv * q ** (-c.coarm))
            out = out / (1 - q ** (-c.arm) * t ** (-(c.leg + 1)))
        for op in word:
            out = out * eig(op, mu)
        return out

    series = partition_series(term, order)
    if primed:
        series = series / bracket_one_closed(u, v, q, t, order)
    return series


def partition_series(term: Callable[[Partition], object], order: int) -> TruncatedSeries:
    """The series whose Q^n coefficient is the sum of term(mu) over |mu| = n."""
    return TruncatedSeries([scalar_sum([term(mu) for mu in iter_partitions(n)])
                            for n in range(order + 1)])


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

def _check_grading(state: Dict[Tuple[int, ...], List], order: int) -> bool:
    """Q-grading bound: a positive exponent k in any variable forces Q-valuation >= k."""
    for expv, ser in state.items():
        val = next((i for i, c in enumerate(ser) if c), order + 1)
        for e in expv:
            if e > 0 and val < e:
                return False
    return True


def vertex_tilde_bracket(weights: Sequence[int], u, v, q, t, order: int) -> TruncatedSeries:
    """Normalized bracket of a product of stabilized operators of the given
    weights (leftmost first), by iterated constant-term extraction.

    Variables z_1..z_R are assigned so the leftmost factor holds the highest
    indices; extraction runs z_R down to z_1.  All series expansions follow
    the fixed conventions; composition cross-factors couple each earlier-block
    variable (negative powers) with each later-block variable (positive
    powers).  Termination rests on the Q-grading invariant, checked at every
    extraction boundary; a violation raises CorrelatorError.
    """
    weights = [w for w in weights if w]
    R = sum(weights)
    zero = u * 0
    one = one_like(u)
    prefactor = one
    for w in weights:
        for a in range(1, w + 1):
            prefactor = prefactor * (t ** (-a) / (1 - t ** (-a)))
    if R == 0:
        return TruncatedSeries.constant(prefactor, order)

    blocks: List[List[int]] = []
    hi = R
    for w in weights:
        blocks.append(list(range(hi - w + 1, hi + 1)))
        hi -= w
    pair_partners: Dict[int, List[Tuple[int, str]]] = {i: [] for i in range(1, R + 1)}
    for b in blocks:
        for lo_pos in range(len(b)):
            for hi_pos in range(lo_pos + 1, len(b)):
                pair_partners[b[hi_pos]].append((b[lo_pos], "block"))
    for bi in range(len(blocks)):
        for bj in range(bi + 1, len(blocks)):
            for hi_var in blocks[bi]:
                for lo_var in blocks[bj]:
                    pair_partners[hi_var].append((lo_var, "cross"))

    N = order
    fq, fv = _depth_one_factors(u, v, N, N)
    g_coeff = [one] + [(t ** -1 - 1) * t ** (-(m - 1)) for m in range(1, N + 1)]
    # exp(-sum (1-q^n)(1-t^-n)/n x^n) = 1 - sum (1-q)(1-t^-1) h_{m-1}(q, t^-1) x^m
    x_coeff = [one]
    for m in range(1, N + 1):
        h = scalar_sum([q ** a * t ** (-(m - 1 - a)) for a in range(m)])
        x_coeff.append(-(1 - q) * (1 - t ** -1) * h)

    def mul_terms(state, terms):
        new: Dict[Tuple[int, ...], List] = {}
        for expv, ser in state.items():
            for dv, dq, c in terms:
                if not c:
                    continue
                ne = tuple(e + d for e, d in zip(expv, dv)) if dv else expv
                tgt = new.get(ne)
                if tgt is None:
                    tgt = [zero] * (N + 1)
                    new[ne] = tgt
                for n in range(N + 1 - dq):
                    if ser[n]:
                        tgt[n + dq] = tgt[n + dq] + ser[n] * c
        return {k: s for k, s in new.items() if any(s)}

    state = {(0,) * R: [one] + [zero] * N}
    for i in range(R, 0, -1):
        if not _check_grading(state, N):
            raise CorrelatorError("Q-grading invariant violated entering extraction")
        ii = i - 1
        # positive powers of z_i, Q-graded
        terms = []
        for n in range(0, N + 1):
            dv = [0] * R
            dv[ii] = n
            terms.append((tuple(dv), n, fq[n]))
        state = mul_terms(state, terms)
        # pair factors: z_i carries the negative powers
        for j, kind in pair_partners[i]:
            coeff = g_coeff if kind == "block" else x_coeff
            terms = []
            for m in range(0, N + 1):
                dv = [0] * R
                dv[ii] = -m
                dv[j - 1] = m
                terms.append((tuple(dv), 0, coeff[m]))
            state = mul_terms(state, terms)
            state = {k: s for k, s in state.items() if k[ii] >= 0}
        # negative powers from the v-factor
        terms = []
        for m in range(0, N + 1):
            dv = [0] * R
            dv[ii] = -m
            terms.append((tuple(dv), 0, fv[m]))
        state = mul_terms(state, terms)
        state = {k: s for k, s in state.items() if k[ii] == 0}
    if not _check_grading(state, N):
        raise CorrelatorError("Q-grading invariant violated after extraction")
    result = state.get((0,) * R)
    if result is None:
        return TruncatedSeries.constant(zero, order)
    return TruncatedSeries(result) * prefactor


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

CLOSED_FORM_NAMES = ("E1", "E2", "E1E1", "Psi1", "Psi2", "Psi1sq", "Lambda2")


def closed_form_library(name: str) -> RationalFunction:
    """Symbolic closed forms of the normalized one- and two-point brackets.

    All expressions are rational in Q over (q, t, u, v).  Lambda2 denotes
    twice the normalized bracket of the weight-2 exterior operator.
    """
    q = RationalFunction.var("q")
    t = RationalFunction.var("t")
    u = RationalFunction.var("u")
    v = RationalFunction.var("v")
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
                          f"known: {', '.join(CLOSED_FORM_NAMES)}")


def closed_form_series(name: str, order: int,
                       bindings: Optional[Dict[str, Fraction]] = None) -> TruncatedSeries:
    """Expand a library entry in Q; with full (q,t,u,v) bindings the
    coefficients come back as exact Fractions."""
    from .exactalg.series import expand_closed_form
    f = closed_form_library(name)
    if bindings:
        f = f.subs(bindings)
    series = expand_closed_form(f, order)
    if bindings and all(k in bindings for k in ("q", "t", "u", "v")):
        return series.map(lambda c: c.as_fraction())
    return series


# ---------------------------------------------------------------------------
# connected correlators and the formal-QFT layer
# ---------------------------------------------------------------------------

def set_partitions(items: Sequence) -> List[List[List]]:
    """All set partitions of the given positions."""
    items = list(items)
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        out.append([[first]] + [list(b) for b in part])
        for i in range(len(part)):
            blocks = [list(b) for b in part]
            blocks[i] = [first] + blocks[i]
            out.append(blocks)
    return out


def connected_correlators(raw: Dict[Tuple, object]) -> Dict[Tuple, object]:
    """Moebius inversion over set partitions of the word positions:

        conn(w) = sum over partitions pi of (-1)^{|pi|-1} (|pi|-1)! prod_B raw(w|_B)
    """
    return _set_partition_sums(
        raw, lambda k: Fraction((-1) ** (k - 1) * math.factorial(k - 1)))


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


def _poly_mul_trunc(a: Dict[Tuple, object], b: Dict[Tuple, object], D: int):
    out: Dict[Tuple, object] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if len(ka) + len(kb) > D:
                continue
            k = tuple(sorted(ka + kb))
            v = va * vb
            out[k] = out.get(k, v * 0) + v
    return {k: v for k, v in out.items() if v}


def _multiplicity_factorials(key: Tuple) -> Fraction:
    """prod over the labels of a sorted word of (multiplicity)!: the
    multinomial factor between a correlator and its Z coefficient."""
    out = Fraction(1)
    for _, grp in itertools.groupby(key):
        out *= math.factorial(len(list(grp)))
    return out


def fqft_layer(table: Dict[Tuple, object], D: int) -> FqftResult:
    """Partition function, free energy and entropy from a normalized
    correlator table.

    table maps sorted words (tuples of generator labels, length <= D) to
    values.  Z = sum_M table[M] prod t_m^{k_m}/k_m!; F = log Z truncated at
    total degree D; G = sum t_n dF/dt_n - F.  Polynomials are returned as
    sparse maps from sorted label tuples to coefficients.
    """
    Z: Dict[Tuple, object] = {(): Fraction(1)}
    for word, val in table.items():
        if not word or len(word) > D:
            continue
        key = tuple(sorted(word))
        v = val * (1 / _multiplicity_factorials(key))
        Z[key] = Z.get(key, v * 0) + v
    # F = log Z = sum (-1)^{k-1} (Z-1)^k / k
    zminus = {k: v for k, v in Z.items() if k != ()}
    F: Dict[Tuple, object] = {}
    power: Dict[Tuple, object] = {(): Fraction(1)}
    for k in range(1, D + 1):
        power = _poly_mul_trunc(power, zminus, D)
        if not power:
            break
        c = Fraction((-1) ** (k - 1), k)
        for key, v in power.items():
            w = v * c
            F[key] = F.get(key, w * 0) + w
    F = {k: v for k, v in F.items() if v}
    G = {key: v * (len(key) - 1) for key, v in F.items()}
    return FqftResult(Z=Z, F=F, G={k: v for k, v in G.items() if v})


def correlators_from_Z(Z: Dict[Tuple, object]) -> Dict[Tuple, object]:
    """Recover the normalized correlator table from the partition function:
    the derivative at 0 multiplies back the multinomial factor."""
    out: Dict[Tuple, object] = {}
    for key, v in Z.items():
        if not key:
            continue
        out[key] = v * _multiplicity_factorials(key)
    return out
