"""Rational functions: quotients of sparse integer Laurent polynomials.

Values are kept in partially factored form
    (nc/dc) * monomial * prod(num factors) / prod(den factors)
with each factor a primitive polynomial (integer content 1, no monomial
content, positive first term in the print order).  There is no full
multivariate gcd: fractions reduce by content, by cancellation of identical
factors, and by exact trial division of freshly expanded numerators against
tracked denominator factors.  So a value is not reduced: equal values may
have different factors.  Full expansion happens only at comparison and
rendering boundaries.

Trial division takes the numerator's primitive part once: an exact quotient
by a factor is already primitive with a positive first term and is kept as
it is.  The tracked factors are mostly binomials, which
LaurentPoly.divide_exact divides without a heap.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, Tuple

from .poly import (ALPHABET, MONO_ONE, ExactAlgError, LaurentPoly, PoleError,
                   mono_eval, mono_inv, mono_mul, poly_pow)


class DivisionByZero(ExactAlgError):
    """Division of rational functions by the zero value."""


FactorList = Tuple[Tuple[LaurentPoly, int], ...]


def _exponents(signed, start=()) -> Dict[LaurentPoly, int]:
    """Map from primitive factor to signed exponent: the start map plus each
    (factor list, sign) pair's exponents times its sign."""
    exps: Dict[LaurentPoly, int] = dict(start)
    for factors, sign in signed:
        for p, k in factors:
            exps[p] = exps.get(p, 0) + sign * k
    return exps


def _split(exps: Dict[LaurentPoly, int]) -> Tuple[FactorList, FactorList]:
    """Numerator and denominator factor lists of a signed exponent map, each
    in the frozen key() order."""
    items = sorted(exps.items(), key=lambda t: t[0].key())
    return (tuple((p, k) for p, k in items if k > 0),
            tuple((p, -k) for p, k in items if k < 0))


def _expand(factors: FactorList) -> LaurentPoly:
    out = LaurentPoly.const(1)
    for p, k in factors:
        out = out * poly_pow(p, k)
    return out


class RationalFunction:
    """Exact rational function over the frozen alphabet.

    Equality is semantic: two values compare equal iff cross-multiplication
    of expanded numerators and denominators yields equal polynomials.
    """

    __slots__ = ("nc", "dc", "mono", "nfac", "dfac", "_expanded")

    def __init__(self, nc: int, dc: int, mono: int, nfac: FactorList, dfac: FactorList):
        if dc == 0:
            raise DivisionByZero("zero denominator")
        if nc == 0:
            dc, mono, nfac, dfac = 1, MONO_ONE, (), ()
        else:
            g = math.gcd(nc, dc)
            if dc < 0:
                g = -g
            nc //= g
            dc //= g
        self.nc = nc
        self.dc = dc
        self.mono = mono
        self.nfac = nfac
        self.dfac = dfac
        self._expanded = None

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "RationalFunction":
        return RationalFunction(int(n), 1, MONO_ONE, (), ())

    @staticmethod
    def from_fraction(f: Fraction) -> "RationalFunction":
        f = Fraction(f)
        return RationalFunction(f.numerator, f.denominator, MONO_ONE, (), ())

    @staticmethod
    def var(name: str, exp: int = 1) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.var(name, exp))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return _reduce_over(p, 1, ())

    # -- coercion --------------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, int):
            return RationalFunction.from_int(x)
        if isinstance(x, Fraction):
            return RationalFunction.from_fraction(x)
        return NotImplemented

    # -- predicates -------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.nc == 0

    def __bool__(self) -> bool:
        return self.nc != 0

    def as_fraction(self) -> Fraction:
        if (self.mono, self.nfac, self.dfac) != (MONO_ONE, (), ()):
            raise ExactAlgError(f"not a constant: {self}")
        return Fraction(self.nc, self.dc)

    def as_poly(self) -> LaurentPoly:
        """The value as a Laurent polynomial; raises ExactAlgError when the
        denominator does not divide the numerator."""
        num, den = self.expanded()
        return num / den

    # -- core arithmetic ----------------------------------------------------------
    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.nc == 0 or other.nc == 0:
            return RationalFunction.from_int(0)
        nfac, dfac = _split(_exponents(((self.nfac, 1), (other.nfac, 1),
                                        (self.dfac, -1), (other.dfac, -1))))
        return RationalFunction(self.nc * other.nc, self.dc * other.dc,
                                mono_mul(self.mono, other.mono), nfac, dfac)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.nc == 0:
            raise DivisionByZero("inverting zero rational function")
        return RationalFunction(self.dc if self.nc > 0 else -self.dc,
                                abs(self.nc), mono_inv(self.mono), self.dfac, self.nfac)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.nc == 0:
            raise DivisionByZero("division by zero rational function")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunction.from_int(1)
        for _ in range(n):
            out = out * self
        return out

    def __neg__(self):
        return RationalFunction(-self.nc, self.dc, self.mono, self.nfac, self.dfac)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return rf_sum((self, other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    # -- comparison ------------------------------------------------------------------
    def expanded(self) -> Tuple[LaurentPoly, LaurentPoly]:
        """(numerator, denominator) as fully expanded Laurent polynomials.

        The numerator absorbs the sign and both integer coefficients are
        cleared to a canonical pair (den has positive canonical leading term,
        gcd of all integer coefficients across num and den is 1, monomial
        prefactor folded into the numerator).
        """
        if self._expanded is None:
            num = _expand(self.nfac).mono_shift(self.mono).scale(self.nc)
            den = _expand(self.dfac).scale(self.dc)
            self._expanded = (num, den)
        return self._expanded

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if (self.nc, self.dc, self.mono, self.nfac, self.dfac) == \
           (other.nc, other.dc, other.mono, other.nfac, other.dfac):
            return True
        na, da = self.expanded()
        nb, db = other.expanded()
        return na * db == nb * da

    __hash__ = None

    # -- evaluation ----------------------------------------------------------------
    def eval(self, bindings: Dict[str, Fraction]) -> Fraction:
        """Exact evaluation at rational points; raises PoleError on vanishing
        denominator factors and ExactAlgError on an unbound variable."""
        idx = {ALPHABET.index(k): Fraction(v) for k, v in bindings.items()}
        if self.nc == 0:
            return Fraction(0)
        val = Fraction(self.nc, self.dc) * mono_eval(self.mono, idx)
        for p, k in self.nfac:
            val *= p.eval(idx) ** k
        for p, k in self.dfac:
            pv = p.eval(idx)
            if pv == 0:
                raise PoleError(f"denominator factor vanishes: {p}")
            val /= pv ** k
        return val

    # -- rendering -----------------------------------------------------------------
    def canonical_str(self) -> str:
        """Fully expanded numerator and denominator with monomials in the
        frozen order, e.g. ``(1 - u - v + u*v)/(1 - q - t^-1 + q*t^-1)``.

        The value is expanded but not reduced, so equal values may print
        differently; the same computation always prints the same string."""
        num, den = self.expanded()
        ns, ds = str(num), str(den)
        if ds == "1":
            return ns
        if len(num.terms) > 1:
            ns = f"({ns})"
        if len(den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __str__(self) -> str:
        return self.canonical_str()

    def __repr__(self) -> str:
        return f"RF({self.canonical_str()})"


def _reduce_over(num: LaurentPoly, dc: int, den: FactorList) -> RationalFunction:
    """Build num/(dc * prod den) reduced by content and trial division; den is
    in key() order, and the remaining denominator keeps that order.

    An exact quotient of primitive parts is the new primitive part as it
    is: by Gauss's lemma it has content 1, its least exponents are 0, and
    its lowest term is positive, since lowest terms multiply under the
    integer order."""
    if num.is_zero():
        return RationalFunction.from_int(0)
    c, mono, prim = num.primitive()
    dfac = []
    for p, k in den:
        while k:
            if prim == p:
                prim = LaurentPoly.const(1)
            else:
                q = prim.divide_exact(p)
                if q is None:
                    break
                prim = q
            k -= 1
        if k:
            dfac.append((p, k))
    if prim.is_const():
        return RationalFunction(c * prim.const_value(), dc, mono, (), tuple(dfac))
    return RationalFunction(c, dc, mono, ((prim, 1),), tuple(dfac))


def poly_over(num: LaurentPoly, factors) -> RationalFunction:
    """num / prod(factors), reduced by trial division of num over the
    factors' primitive parts after their integer and monomial contents are
    divided out."""
    dc, mono, den = 1, MONO_ONE, {}
    for f in factors:
        g, m, prim = f.primitive()
        dc *= g
        mono = mono_mul(mono, m)
        den[prim] = den.get(prim, 0) + 1
    return _reduce_over(num.mono_shift(mono_inv(mono)), dc, _split(den)[0])


def rf(x) -> RationalFunction:
    """Coerce ints, Fractions and RationalFunctions to RationalFunction."""
    r = RationalFunction._coerce(x)
    if r is NotImplemented:
        raise TypeError(f"cannot coerce {type(x)} to RationalFunction")
    return r


def rf_sum(values) -> RationalFunction:
    """Sum many rational functions over one common denominator.

    Expands and reduces once, which is substantially cheaper than a fold of
    two-term sums for long sums (inner products, partition sums).  Two-term
    addition is this function on a pair.  Each term's cofactor is expanded
    in the order its factors come, unsorted: the product is exact.
    """
    vals = [rf(v) for v in values]
    vals = [v for v in vals if v.nc != 0]
    if not vals:
        return RationalFunction.from_int(0)
    if len(vals) == 1:
        return vals[0]
    den: Dict[LaurentPoly, int] = {}
    for v in vals:
        for p, k in v.dfac:
            if den.get(p, 0) < k:
                den[p] = k
    dc = 1
    for v in vals:
        dc = dc * v.dc // math.gcd(dc, v.dc)
    num = LaurentPoly({})
    for v in vals:
        part = _expand([(p, k) for p, k in _exponents(((v.nfac, 1), (v.dfac, -1)), den).items()
                        if k > 0])
        num = num + part.mono_shift(v.mono).scale(v.nc * (dc // v.dc))
    return _reduce_over(num, dc, _split(den)[0])


def scalar_sum(values):
    """Sum ints, Fractions, RationalFunctions or series of them.

    Rational functions go through rf_sum; anything that is not a scalar
    (a TruncatedSeries, say) is added as a left fold, term by term.
    """
    vals = list(values)
    if any(isinstance(v, RationalFunction) for v in vals):
        return rf_sum(vals)
    if vals and not isinstance(vals[0], (int, Fraction)):
        return functools.reduce(operator.add, vals)
    return sum(vals, Fraction(0))


def one_like(x):
    """The unit of x's scalar ring: 1 as an int, Fraction or RationalFunction."""
    return x * 0 + 1


def exact_scalars(*values) -> tuple:
    """The values with each int made a Fraction, so that no division turns
    it into a float; a float raises TypeError, anything else passes."""
    if any(isinstance(x, float) for x in values):
        raise TypeError("float scalar: pass an int, Fraction or RationalFunction")
    return tuple(Fraction(x) if isinstance(x, int) else x for x in values)


def generators(*names: str) -> Tuple[RationalFunction, ...]:
    return tuple(RationalFunction.var(n) for n in names)
