"""Symmetric-function workspace: p/m/e/h bases, the two inner products, the
involution omega, and the universal coefficient families alpha, beta, gamma.

A SymmetricFunction is a basis tag plus a sparse map partition -> coefficient.
Coefficients may be Fractions or RationalFunctions; conversion matrices are
exact rationals cached per degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .exactalg.ratfun import RationalFunction, exact_scalars, one_like, scalar_sum
from .exactalg.series import TruncatedSeries
from .partitions import Partition, enumerate_partitions, z_factor

BASES = ("p", "m", "e", "h")


class SymFunError(ValueError):
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
            d[k] = d.get(k, v * 0) + v
    return d


class FormalSum:
    """Element of the free commutative algebra on graded generators.

    Keys are partitions (multisets of generator degrees), values scalars.
    Used for universal expansions: log/exp of generating series with formal
    e_n or a_n coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Partition, object]):
        self.terms = {k: v for k, v in terms.items() if v}

    def __bool__(self) -> bool:
        return bool(self.terms)

    @staticmethod
    def unit(scalar=Fraction(1)) -> "FormalSum":
        return FormalSum({(): scalar})

    @staticmethod
    def gen(k: int, scalar=Fraction(1)) -> "FormalSum":
        return FormalSum({(k,): scalar})

    def __add__(self, other):
        if isinstance(other, FormalSum):
            d = dict(self.terms)
            for k, v in other.terms.items():
                d[k] = d.get(k, v * 0) + v
            return FormalSum(d)
        d = dict(self.terms)
        d[()] = d.get((), other * 0) + other
        return FormalSum(d)

    __radd__ = __add__

    def __neg__(self):
        return FormalSum({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            return FormalSum(_merge_product(self.terms, other.terms))
        return FormalSum({k: v * other for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FormalSum):
            return self.terms == other.terms
        if not self.terms:
            return not other
        return set(self.terms) == {()} and self.terms[()] == other

    __hash__ = None

    def coeff(self, key: Partition):
        return self.terms.get(key, Fraction(0))

    def __repr__(self):
        return "FormalSum(" + ", ".join(f"{k}: {v}" for k, v in sorted(self.terms.items())) + ")"


@dataclass
class SymmetricFunction:
    """Basis-tagged sparse symmetric function."""
    basis: str
    terms: Dict[Partition, object]

    def __post_init__(self):
        if self.basis not in BASES:
            raise SymFunError(f"unknown basis {self.basis!r}")
        self.terms = {k: v for k, v in self.terms.items() if v}

    @staticmethod
    def zero(basis: str = "p") -> "SymmetricFunction":
        return SymmetricFunction(basis, {})

    @staticmethod
    def generator(basis: str, n: int, scalar=Fraction(1)) -> "SymmetricFunction":
        """p_n, m_(n), e_n or h_n."""
        return SymmetricFunction(basis, {(n,): scalar})

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        if self.basis != other.basis:
            raise SymFunError("mixed-basis addition; convert first")
        d = dict(self.terms)
        for k, v in other.terms.items():
            d[k] = d.get(k, v * 0) + v
        return SymmetricFunction(self.basis, d)

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        return self + other.scale(-1)

    def scale(self, c) -> "SymmetricFunction":
        return SymmetricFunction(self.basis, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "SymmetricFunction") -> "SymmetricFunction":
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

#: highest degree converted through the monomial basis; bounds the
#: transition matrices built for input from outside the program.
M_DEGREE_BOUND = 10


@lru_cache(maxsize=None)
def _p_to_m_matrix(n: int) -> Dict[Partition, Dict[Partition, int]]:
    """Row lam: integer coefficients of p_lam in the monomial basis.

    Computed by expanding the power-sum product in n concrete variables and
    reading coefficients at dominant (sorted) exponent vectors.
    """
    parts = enumerate_partitions(n)
    rows: Dict[Partition, Dict[Partition, int]] = {}
    for lam in parts:
        state: Dict[Tuple[int, ...], int] = {(0,) * max(n, 1): 1}
        for part in lam:
            new: Dict[Tuple[int, ...], int] = {}
            for vec, c in state.items():
                for i in range(len(vec)):
                    v2 = list(vec)
                    v2[i] += part
                    key = tuple(v2)
                    new[key] = new.get(key, 0) + c
            state = new
        row: Dict[Partition, int] = {}
        for mu in parts:
            vec = tuple(list(mu) + [0] * (max(n, 1) - len(mu)))
            c = state.get(vec, 0)
            if c:
                row[mu] = c
        rows[lam] = row
    return rows

def _solve_unitriangular(mat: Dict[Partition, Dict[Partition, int]],
                         order: List[Partition]) -> Dict[Partition, Dict[Partition, Fraction]]:
    """Invert the p->m matrix (triangular in dominance, refined by the frozen
    reverse-lex order) by back substitution over exact rationals."""
    inv: Dict[Partition, Dict[Partition, Fraction]] = {}
    for mu in order:
        # p_mu = diag * m_mu + sum over strictly dominating nu (earlier in the
        # frozen order) of c_{mu nu} m_nu, so m_mu back-substitutes from those.
        diag = mat[mu][mu]
        out: Dict[Partition, Fraction] = {mu: Fraction(1, diag)}
        for nu, c in mat[mu].items():
            if nu == mu:
                continue
            for kappa, w in inv[nu].items():
                out[kappa] = out.get(kappa, Fraction(0)) - Fraction(c, diag) * w
        inv[mu] = {k: v for k, v in out.items() if v}
    return inv


@lru_cache(maxsize=None)
def _m_to_p_matrix(n: int) -> Dict[Partition, Dict[Partition, Fraction]]:
    order = enumerate_partitions(n)
    return _solve_unitriangular(_p_to_m_matrix(n), order)


# ---------------------------------------------------------------------------
# basis conversion
# ---------------------------------------------------------------------------

def to_p(f: SymmetricFunction) -> SymmetricFunction:
    if f.basis == "p":
        return f
    out: Dict[Partition, object] = {}
    if f.basis == "m":
        for mu, c in f.terms.items():
            n = sum(mu)
            if n > M_DEGREE_BOUND:
                raise SymFunError(f"monomial conversion degree {n} above bound {M_DEGREE_BOUND}")
            for kappa, w in _m_to_p_matrix(n)[mu].items():
                v = c * w
                out[kappa] = out.get(kappa, v * 0) + v
        return SymmetricFunction("p", out)
    return _expand_products(f, e_in_p if f.basis == "e" else h_in_p, "p")


def _expand_products(f: SymmetricFunction, expansion, basis: str) -> SymmetricFunction:
    """Expand each term c * prod_i g_{lam_i} of f, where expansion(n) lists
    the terms of g_n in the target basis."""
    out: Dict[Partition, object] = {}
    for lam, c in f.terms.items():
        acc: Dict[Partition, object] = {(): c}
        for part in lam:
            acc = _merge_product(acc, dict(expansion(part)))
        for k, v in acc.items():
            out[k] = out.get(k, v * 0) + v
    return SymmetricFunction(basis, out)


def _p_to_m(f: SymmetricFunction) -> SymmetricFunction:
    out: Dict[Partition, object] = {}
    for lam, c in f.terms.items():
        n = sum(lam)
        if n > M_DEGREE_BOUND:
            raise SymFunError(f"monomial conversion degree {n} above bound {M_DEGREE_BOUND}")
        for mu, w in _p_to_m_matrix(n)[lam].items():
            v = c * w
            out[mu] = out.get(mu, v * 0) + v
    return SymmetricFunction("m", out)


def basis_convert(f: SymmetricFunction, target: str) -> SymmetricFunction:
    """Convert between the p/m/e/h bases, always through p.

    Conversions through the monomial basis stop at degree M_DEGREE_BOUND:
    the transition matrices are built per degree.  e and h are reached by
    expanding each p_n through the alpha table (_p_in_generators).
    """
    if target not in BASES:
        raise SymFunError(f"unknown basis {target!r}")
    if f.basis == target:
        return f
    g = to_p(f)
    if target == "p":
        return g
    if target == "m":
        return _p_to_m(g)
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
    """<p_lam, p_mu>_{q,t} = delta z_lam prod (1-q^{lam_i})/(1-t^{lam_i})."""
    q, t = exact_scalars(q, t)
    a, b = to_p(f), to_p(g)
    terms = []
    for lam, ca in a.terms.items():
        cb = b.terms.get(lam)
        if cb is None:
            continue
        v = ca * cb * z_factor(lam)
        for part in lam:
            v = v * (1 - q ** part)
            v = v / (1 - t ** part)
        terms.append(v)
    return scalar_sum(terms)


# ---------------------------------------------------------------------------
# universal coefficient families
# ---------------------------------------------------------------------------

def alpha_coefficients(n: int) -> Dict[Partition, Fraction]:
    """log(sum e_k z^k) = sum alpha_lam e_lam z^{|lam|}: rational alpha table."""
    if n < 1:
        raise SymFunError("n must be >= 1")
    series = TruncatedSeries([FormalSum.unit()] +
                             [FormalSum.gen(k) for k in range(1, n + 1)])
    return {lam: c for fs in series.log().coeffs[1:] for lam, c in fs.terms.items()}


def beta_gamma_coefficients(n: int, q=None) -> Tuple[Dict[Partition, object], Dict[Partition, object]]:
    """Coefficients of a_mu in b_m and c_m from the two recursions

        b_m = 1/(1-q^m) sum_{r=1..m} q^{m-r} a_r b_{m-r}
        c_m = -1/(1-q^m) sum_{r=1..m} a_r c_{m-r}

    with deg a_r = r.  q defaults to the symbolic generator.
    """
    (q,) = exact_scalars(q)
    if n < 1:
        raise SymFunError("n must be >= 1")
    if q is None:
        q = RationalFunction.var("q")
    one = one_like(q)
    b: List[FormalSum] = [FormalSum.unit(one)]
    c: List[FormalSum] = [FormalSum.unit(one)]
    for m in range(1, n + 1):
        sb = FormalSum({})
        sc = FormalSum({})
        for r in range(1, m + 1):
            a_r = FormalSum.gen(r, one)
            sb = sb + a_r * b[m - r] * (q ** (m - r))
            sc = sc + a_r * c[m - r]
        scale_b = one / (1 - q ** m)
        b.append(sb * scale_b)
        c.append(sc * (-scale_b))
    return ({lam: w for fs in b[1:] for lam, w in fs.terms.items()},
            {lam: w for fs in c[1:] for lam, w in fs.terms.items()})


def bc_product_check(n: int, q=None) -> bool:
    """(sum b_m z^m)(sum c_m z^m) = 1 to order n with generic formal a_r."""
    if q is None:
        q = RationalFunction.var("q")
    one = one_like(q)
    beta, gamma = beta_gamma_coefficients(n, q)
    b = [FormalSum.unit(one)] + [
        FormalSum({lam: w for lam, w in beta.items() if sum(lam) == m})
        for m in range(1, n + 1)]
    c = [FormalSum.unit(one)] + [
        FormalSum({lam: w for lam, w in gamma.items() if sum(lam) == m})
        for m in range(1, n + 1)]
    prod = TruncatedSeries(b) * TruncatedSeries(c)
    return prod == TruncatedSeries([FormalSum.unit(one)] + [FormalSum({})] * n)
