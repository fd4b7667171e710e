"""Normalized rational functions: quotients of sparse integer Laurent polynomials.

Values are kept in partially factored form
    (nc/dc) * monomial * prod(num factors) / prod(den factors)
with each factor a primitive polynomial (integer content 1, no monomial
content, canonically positive leading coefficient).  There is no full
multivariate gcd: fractions reduce by content, by cancellation of identical
factors, and by exact trial division of freshly expanded numerators against
tracked denominator factors.  Full expansion happens only at comparison and
rendering boundaries.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, Tuple

from .poly import (ALPHABET, LaurentPoly, Monomial, mono_inv, mono_mul,
                   poly_pow)


class ExactAlgError(ArithmeticError):
    pass


class DivisionByZero(ExactAlgError):
    """Division of rational functions by the zero value."""


class PoleError(ExactAlgError):
    """Evaluation point lies on a pole; caller should retry elsewhere."""


FactorList = Tuple[Tuple[LaurentPoly, int], ...]


def _factor_mul(a: FactorList, b: FactorList) -> FactorList:
    d: Dict[LaurentPoly, int] = dict(a)
    for p, k in b:
        d[p] = d.get(p, 0) + k
    return tuple(sorted(((p, k) for p, k in d.items() if k), key=lambda t: t[0].key()))


def _factor_cancel(num: FactorList, den: FactorList) -> Tuple[FactorList, FactorList]:
    dn: Dict[LaurentPoly, int] = dict(num)
    dd: Dict[LaurentPoly, int] = {}
    for p, k in den:
        if p in dn:
            c = min(dn[p], k)
            dn[p] -= c
            k -= c
            if not dn[p]:
                del dn[p]
        if k:
            dd[p] = dd.get(p, 0) + k
    out_n = tuple(sorted(((p, k) for p, k in dn.items() if k), key=lambda t: t[0].key()))
    out_d = tuple(sorted(dd.items(), key=lambda t: t[0].key()))
    return out_n, out_d


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

    def __init__(self, nc: int, dc: int, mono: Monomial, nfac: FactorList, dfac: FactorList):
        if dc == 0:
            raise DivisionByZero("zero denominator")
        if nc == 0:
            dc, mono, nfac, dfac = 1, (), (), ()
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
        return RationalFunction(int(n), 1, (), (), ())

    @staticmethod
    def from_fraction(f: Fraction) -> "RationalFunction":
        f = Fraction(f)
        return RationalFunction(f.numerator, f.denominator, (), (), ())

    @staticmethod
    def var(name: str, exp: int = 1) -> "RationalFunction":
        if exp == 0:
            return RationalFunction.from_int(1)
        return RationalFunction(1, 1, ((ALPHABET.index(name), exp),), (), ())

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        c, mono, prim = p.primitive()
        if c == 0:
            return RationalFunction(0, 1, (), (), ())
        nf = () if prim.is_const() else ((prim, 1),)
        return RationalFunction(c, 1, mono, nf, ())

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

    def is_rational(self) -> bool:
        return not self.mono and not self.nfac and not self.dfac

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactAlgError(f"not a constant: {self}")
        return Fraction(self.nc, self.dc)

    # -- core arithmetic ----------------------------------------------------------
    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.nc == 0 or other.nc == 0:
            return RationalFunction(0, 1, (), (), ())
        nfac = _factor_mul(self.nfac, other.nfac)
        dfac = _factor_mul(self.dfac, other.dfac)
        nfac, dfac = _factor_cancel(nfac, dfac)
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
        denominator factors."""
        idx = {ALPHABET.index(k): Fraction(v) for k, v in bindings.items()}
        val = Fraction(self.nc, self.dc)
        if self.nc == 0:
            return val
        for i, e in self.mono:
            if i not in idx:
                raise ExactAlgError(f"unbound variable {ALPHABET.name(i)}")
            base = idx[i]
            if base == 0 and e < 0:
                raise PoleError("zero base with negative exponent")
            val *= base ** e
        for p, k in self.nfac:
            val *= p.eval(idx) ** k
        for p, k in self.dfac:
            pv = p.eval(idx)
            if pv == 0:
                raise PoleError(f"denominator factor vanishes: {p}")
            val /= pv ** k
        return val

    def subs(self, bindings: Dict[str, object]) -> "RationalFunction":
        """Partial substitution; values may be Fractions, ints or
        RationalFunctions.  Unbound variables stay symbolic."""
        rbind: Dict[int, RationalFunction] = {}
        for k, v in bindings.items():
            rv = self._coerce(v)
            if rv is NotImplemented:
                raise TypeError(f"cannot substitute {type(v)} for {k}")
            rbind[ALPHABET.index(k)] = rv
        if not rbind:
            return self

        def sub_poly(p: LaurentPoly) -> RationalFunction:
            if not any(i in rbind for m in p.terms for i, _ in m):
                return RationalFunction.from_poly(p)
            total = RationalFunction.from_int(0)
            for m, c in p.terms.items():
                term = RationalFunction.from_int(c)
                for i, e in m:
                    term = term * rbind.get(i, RationalFunction.var(ALPHABET.name(i))) ** e
                total = total + term
            return total

        out = RationalFunction(self.nc, self.dc, (), (), ())
        for i, e in self.mono:
            base = rbind.get(i, RationalFunction.var(ALPHABET.name(i)))
            out = out * base ** e
        for p, k in self.nfac:
            out = out * sub_poly(p) ** k
        for p, k in self.dfac:
            out = out / sub_poly(p) ** k
        return out

    def variables(self) -> Tuple[str, ...]:
        seen = set(i for i, _ in self.mono)
        for p, _ in self.nfac + self.dfac:
            seen.update(p.variables())
        return tuple(ALPHABET.name(i) for i in sorted(seen))

    # -- rendering -----------------------------------------------------------------
    def canonical_str(self) -> str:
        """Canonical rendering: fully expanded numerator and denominator with
        monomials in the frozen order, e.g. ``(1 - u - v + u*v)/(1 - q - t^-1 + q*t^-1)``."""
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
    """Build num/(dc * prod den) reduced by content and trial division."""
    if num.is_zero():
        return RationalFunction(0, 1, (), (), ())
    c, mono, prim = num.primitive()
    remaining: Dict[LaurentPoly, int] = dict(den)
    for p in sorted(remaining, key=lambda t: t.key()):
        while remaining[p]:
            if prim == p:
                prim = LaurentPoly.const(1)
                remaining[p] -= 1
                continue
            q = prim.divide_exact(p)
            if q is None:
                break
            gq, mq, prim = q.primitive()
            c *= gq
            mono = mono_mul(mono, mq)
            remaining[p] -= 1
    dfac = tuple(sorted(((p, k) for p, k in remaining.items() if k), key=lambda t: t[0].key()))
    nfac = () if prim.is_const() else ((prim, 1),)
    if prim.is_const():
        c *= prim.const_value()
    return RationalFunction(c, dc, mono, nfac, dfac)


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
    addition is this function on a pair.
    """
    vals = [rf(v) for v in values]
    vals = [v for v in vals if v.nc != 0]
    if not vals:
        return RationalFunction(0, 1, (), (), ())
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
        own = dict(v.dfac)
        extra = [(p, den[p] - own.get(p, 0)) for p in den]
        part = _expand(_factor_mul(v.nfac, tuple((p, k) for p, k in extra if k)))
        part = part.mono_shift(v.mono).scale(v.nc * (dc // v.dc))
        num = num + part
    den_list = tuple(sorted(((p, k) for p, k in den.items() if k), key=lambda t: t[0].key()))
    return _reduce_over(num, dc, den_list)


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


def rf_coefficient(f: RationalFunction, exponents: Dict[str, int]) -> RationalFunction:
    """Coefficient of prod var^k in f, for variables the denominator is free of.

    Groups the expanded numerator by the requested exponents; anything else in
    the monomial stays.  Raises if a requested variable occurs in the
    denominator (the coefficient would not be a polynomial section).
    """
    num, den = f.expanded()
    wanted = {ALPHABET.index(name): k for name, k in exponents.items()}
    if any(i in wanted for i in den.variables()):
        raise ExactAlgError("denominator involves a coefficient-extraction variable")
    picked: Dict[Monomial, int] = {}
    for m, c in num.terms.items():
        dm = dict(m)
        if all(dm.get(i, 0) == k for i, k in wanted.items()):
            rest = tuple((i, e) for i, e in m if i not in wanted)
            picked[rest] = picked.get(rest, 0) + c
    return RationalFunction.from_poly(LaurentPoly(picked)) / RationalFunction.from_poly(den)
