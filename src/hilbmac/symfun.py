"""Symmetric-function workspace: p/m/e/h bases, the two inner products, the
involution omega, and the universal coefficient families alpha, beta, gamma.

A SymmetricFunction is a basis tag plus a sparse map partition -> coefficient.
Coefficients may be Fractions or RationalFunctions.  Both m <-> p matrices of
a degree come from one exact, cached sum over set partitions, and the alpha
table from the same Moebius values in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .exactalg import (HilbmacError, RationalFunction, TruncatedSeries, exact_scalars,
                       one_like, scalar_dot, scalar_sum)
from .partitions import (LazyTable, Partition, enumerate_partitions, is_partition,
                         multiplicity_factorial, partitions_upto, set_partition_moebius,
                         set_partitions, z_factor)

BASES = ("p", "m", "e", "h")


class SymFunError(HilbmacError, ValueError):
    pass


def merge_parts(a: Partition, b: Partition) -> Partition:
    return tuple(sorted(a + b, reverse=True))


def _merge_product(a: Dict[Partition, object], b: Dict[Partition, object]) -> Dict[Partition, object]:
    """Product of two partition-keyed term maps whose keys multiply by merging parts."""
    d: Dict[Partition, object] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = merge_parts(ka, kb)
            v = va * vb
            d[k] = d[k] + v if k in d else v
    return d


@dataclass
class SymmetricFunction:
    """Basis-tagged sparse symmetric function.  A scalar multiplies every term
    and adds to the constant term (key ()), so in the p, e and h bases this is
    the free algebra on the graded generators that alpha, beta, gamma expand in."""
    basis: str
    terms: Dict[Partition, object]

    def __post_init__(self):
        if self.basis not in BASES:
            raise SymFunError(f"unknown basis {self.basis!r}")
        self.terms = {k: v for k, v in self.terms.items() if v}

    def __bool__(self) -> bool:
        return bool(self.terms)

    @staticmethod
    def generator(basis: str, n: int, scalar=Fraction(1)) -> "SymmetricFunction":
        """p_n, m_(n), e_n or h_n."""
        return SymmetricFunction(basis, {(n,): scalar})

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __add__(self, other) -> "SymmetricFunction":
        if not isinstance(other, SymmetricFunction):
            other = SymmetricFunction(self.basis, {(): other})
        if self.basis != other.basis:
            raise SymFunError("mixed-basis addition; convert first")
        d = dict(self.terms)
        for k, v in other.terms.items():
            d[k] = d[k] + v if k in d else v
        return SymmetricFunction(self.basis, d)

    def __neg__(self) -> "SymmetricFunction":
        return SymmetricFunction(self.basis, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "SymmetricFunction":
        return self + (-other)

    def scale(self, c) -> "SymmetricFunction":
        return SymmetricFunction(self.basis, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other) -> "SymmetricFunction":
        if not isinstance(other, SymmetricFunction):
            return self.scale(other)
        if self.basis != other.basis:
            raise SymFunError("mixed-basis product; convert first")
        if self.basis not in ("p", "e", "h"):
            a = to_p(self)
            b = to_p(other)
            return basis_convert(a * b, self.basis)
        return SymmetricFunction(self.basis, _merge_product(self.terms, other.terms))

    def __eq__(self, other):
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self.basis == other.basis:
            keys = set(self.terms) | set(other.terms)
            return all(self.terms.get(k, Fraction(0)) == other.terms.get(k, Fraction(0))
                       for k in keys)
        return to_p(self) == to_p(other)

    __hash__ = None


# ---------------------------------------------------------------------------
# universal expansions of e_k / h_k / p_k in the p-basis and back
# ---------------------------------------------------------------------------

def _eps(lam: Partition) -> int:
    return (-1) ** (sum(lam) - len(lam))


@lru_cache(maxsize=None)
def e_in_p(k: int) -> Tuple[Tuple[Partition, Fraction], ...]:
    """e_k = sum over |kappa|=k of eps(kappa) p_kappa / z_kappa."""
    return tuple((kappa, Fraction(_eps(kappa), z_factor(kappa)))
                 for kappa in enumerate_partitions(k))


@lru_cache(maxsize=None)
def h_in_p(k: int) -> Tuple[Tuple[Partition, Fraction], ...]:
    return tuple((kappa, Fraction(1, z_factor(kappa)))
                 for kappa in enumerate_partitions(k))


@lru_cache(maxsize=None)
def _p_in_generators(n: int, target: str) -> Tuple[Tuple[Partition, Fraction], ...]:
    """Expansion of p_n in e's (target='e') or h's (target='h').

    From sum p_n z^n/n = log H(z) = -log E(-z) and the alpha table of the
    logarithm: p_n = n sum alpha_lam h_lam = n (-1)^{n-1} sum alpha_lam e_lam.
    """
    scale = n * (-1) ** (n - 1) if target == "e" else n
    return tuple(sorted((lam, scale * c) for lam, c in alpha_coefficients(n).items()
                        if sum(lam) == n))


# ---------------------------------------------------------------------------
# m <-> p transition matrices (per-degree, exact, cached)
# ---------------------------------------------------------------------------

#: highest degree converted through the monomial basis, and to or from e and
#: h; bounds the transition matrices built for input from outside the program
#: (degree 10: the Bell(10) = 115975 set partitions, about 1 s and 17 MiB as a
#: whole process) and the expansions through the alpha table and the p-basis
#: sums over partitions.
M_DEGREE_BOUND = 10


@lru_cache(maxsize=None)
def _transition_matrices(n: int) -> Dict[str, Dict[Partition, Dict[Partition, object]]]:
    """Both matrices by target basis: row lam of 'm' is p_lam in the m basis
    (ints), of 'p' is m_lam in the p basis (Fractions), nonzero entries in
    reverse-lex order.

    One pass over the set partitions pi of lam's parts (Doubilet 1972): with
    lam(pi) the partition of the block sums, m~_lam = prod_i m_i(lam)! m_lam
    and mu_k the set-partition Moebius value,

        p_lam = sum_pi m~_{lam(pi)},   m~_lam = sum_pi prod_{B in pi} mu_|B| p_{lam(pi)}.
    """
    order = enumerate_partitions(n)
    rows: Dict[str, Dict[Partition, Dict[Partition, object]]] = {"m": {}, "p": {}}
    for lam in order:
        count: Dict[Partition, int] = {}
        signed: Dict[Partition, int] = {}
        for pi in set_partitions(lam):
            mu = tuple(sorted(map(sum, pi), reverse=True))
            count[mu] = count.get(mu, 0) + 1
            signed[mu] = signed.get(mu, 0) + math.prod(set_partition_moebius(len(b)) for b in pi)
        scale = multiplicity_factorial(lam)
        rows["m"][lam] = {mu: count[mu] * multiplicity_factorial(mu) for mu in order if mu in count}
        rows["p"][lam] = {mu: Fraction(signed[mu], scale) for mu in order if signed.get(mu)}
    return rows


# ---------------------------------------------------------------------------
# basis conversion
# ---------------------------------------------------------------------------

def to_p(f: SymmetricFunction) -> SymmetricFunction:
    if f.basis == "p":
        return f
    if f.basis == "m":
        return _transition(f, "p")
    return _expand_products(f, e_in_p if f.basis == "e" else h_in_p, "p")


def _check_partition(lam) -> None:
    if not is_partition(lam):
        raise SymFunError(f"not a partition: {lam!r}")


def _expand_products(f: SymmetricFunction, expansion, basis: str) -> SymmetricFunction:
    """Expand each term c * prod_i g_{lam_i} of f, where expansion(n) lists
    the terms of g_n in the target basis; a term of degree above
    M_DEGREE_BOUND raises SymFunError before any expansion is built."""
    out: Dict[Partition, object] = {}
    for lam, c in f.terms.items():
        _check_partition(lam)
        n = sum(lam)
        if n > M_DEGREE_BOUND:
            raise SymFunError(f"{f.basis} to {basis} conversion degree {n} "
                              f"above bound {M_DEGREE_BOUND}")
        acc: Dict[Partition, object] = {(): c}
        for part in lam:
            acc = _merge_product(acc, dict(expansion(part)))
        for k, v in acc.items():
            out[k] = out[k] + v if k in out else v
    return SymmetricFunction(basis, out)


def _transition(f: SymmetricFunction, basis: str) -> SymmetricFunction:
    """Apply the per-degree m <-> p transition matrix into basis to each term
    of f.  The (c, w) pairs of each target mu, in f's term order, are summed
    as one scalar_dot from the first product: one Fraction per target when
    every coefficient is an int or a Fraction, and the left fold of the
    products for any other ring."""
    pairs: Dict[Partition, list] = {}
    for lam, c in f.terms.items():
        _check_partition(lam)
        n = sum(lam)
        if n > M_DEGREE_BOUND:
            raise SymFunError(f"monomial conversion degree {n} above bound {M_DEGREE_BOUND}")
        for mu, w in _transition_matrices(n)[basis][lam].items():
            pairs.setdefault(mu, []).append((c, w))
    return SymmetricFunction(basis, {mu: scalar_dot(ps[1:], ps[0][0] * ps[0][1])
                                     for mu, ps in pairs.items()})


def basis_convert(f: SymmetricFunction, target: str) -> SymmetricFunction:
    """Convert between the p/m/e/h bases, always through p.

    Conversions through the monomial basis, and to or from e and h, stop at
    degree M_DEGREE_BOUND: the transition matrices are built per degree, e
    and h are reached by expanding each p_n through the alpha table
    (_p_in_generators), and left through sums over the partitions of each
    part (e_in_p, h_in_p).
    """
    if target not in BASES:
        raise SymFunError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    g = to_p(f)
    if target == "p":
        return g
    if target == "m":
        return _transition(g, "m")
    return _expand_products(g, lambda n: _p_in_generators(n, target), target)


def omega(f: SymmetricFunction) -> SymmetricFunction:
    """The classical involution: omega(p_lam) = (-1)^{|lam|-l(lam)} p_lam."""
    g = to_p(f)
    out = {lam: c * _eps(lam) for lam, c in g.terms.items()}
    res = SymmetricFunction("p", out)
    return basis_convert(res, f.basis)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def inner_product_hall(f: SymmetricFunction, g: SymmetricFunction):
    """(p_lam, p_mu) = delta z_lam, extended bilinearly."""
    a, b = to_p(f), to_p(g)
    terms = [ca * b.terms[lam] * z_factor(lam)
             for lam, ca in a.terms.items() if lam in b.terms]
    return scalar_sum(terms)


def inner_product_qt(f: SymmetricFunction, g: SymmetricFunction, q, t):
    """<p_lam, p_mu>_{q,t} = delta z_lam prod (1-q^{lam_i})/(1-t^{lam_i}).
    1 - q^k and 1 - t^k are formed once per call for each part k."""
    q, t = exact_scalars(q, t)
    a, b = to_p(f), to_p(g)
    num, den = LazyTable(lambda k: 1 - q ** k), LazyTable(lambda k: 1 - t ** k)
    terms = []
    for lam, ca in a.terms.items():
        cb = b.terms.get(lam)
        if cb is None:
            continue
        v = ca * cb * z_factor(lam)
        for part in lam:
            v = v * num[part]
            v = v / den[part]
        terms.append(v)
    return scalar_sum(terms)


# ---------------------------------------------------------------------------
# universal coefficient families
# ---------------------------------------------------------------------------

def alpha_coefficients(n: int) -> Dict[Partition, Fraction]:
    """log(sum e_k z^k) = sum alpha_lam e_lam z^{|lam|}: rational alpha table.

    The l-th term (-1)^{l-1}/l (sum e_k z^k)^l of the logarithm holds e_lam,
    l = l(lam), in l!/prod_i m_i(lam)! orders, so alpha_lam = mu_l / prod_i m_i(lam)!
    with mu_l the set-partition Moebius value."""
    if n < 1:
        raise SymFunError("n must be >= 1")
    return {lam: Fraction(set_partition_moebius(len(lam)), multiplicity_factorial(lam))
            for lam in partitions_upto(n) if lam}


def beta_gamma_coefficients(n: int, q=None) -> Tuple[Dict[Partition, object], Dict[Partition, object]]:
    """Coefficients of a_mu in b_m and c_m from the two recursions

        b_m = 1/(1-q^m) sum_{r=1..m} q^{m-r} a_r b_{m-r}
        c_m = -1/(1-q^m) sum_{r=1..m} a_r c_{m-r}

    with deg a_r = r, the formal a_r being the generators p_r.  q defaults
    to the symbolic generator.
    """
    (q,) = exact_scalars(q)
    if n < 1:
        raise SymFunError("n must be >= 1")
    if q is None:
        q = RationalFunction.var("q")
    one = one_like(q)
    b = [SymmetricFunction("p", {(): one})]
    c = [SymmetricFunction("p", {(): one})]
    for m in range(1, n + 1):
        sb = SymmetricFunction("p", {})
        sc = SymmetricFunction("p", {})
        for r in range(1, m + 1):
            a_r = SymmetricFunction.generator("p", r, one)
            sb = sb + a_r * b[m - r] * (q ** (m - r))
            sc = sc + a_r * c[m - r]
        scale_b = one / (1 - q ** m)
        b.append(sb * scale_b)
        c.append(sc * (-scale_b))
    return ({lam: w for g in b[1:] for lam, w in g.terms.items()},
            {lam: w for g in c[1:] for lam, w in g.terms.items()})


def bc_product_check(n: int, q=None) -> bool:
    """(sum b_m z^m)(sum c_m z^m) = 1 to order n with generic formal a_r."""
    if q is None:
        q = RationalFunction.var("q")
    one = one_like(q)
    beta, gamma = beta_gamma_coefficients(n, q)

    def series(table):
        return TruncatedSeries([SymmetricFunction("p", {(): one})] + [
            SymmetricFunction("p", {lam: w for lam, w in table.items() if sum(lam) == m})
            for m in range(1, n + 1)])

    prod = series(beta) * series(gamma)
    return prod == TruncatedSeries.one(n, SymmetricFunction("p", {}))
