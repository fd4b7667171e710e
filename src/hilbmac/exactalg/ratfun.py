"""Rational functions: quotients of sparse integer Laurent polynomials.

Values are kept in partially factored form
    (nc/dc) * monomial * prod(p**k for p, k in fac.items())
with fac one map from primitive polynomial (integer content 1, no monomial
content, positive first term in the print order) to a nonzero signed
exponent: positive exponents make the numerator, negative ones the
denominator.  A map is never changed once a value holds it, so values
share maps.  Products merge exponents in no order; only trial division
(_reduce_over) orders the factors, by key().  There is no full
multivariate gcd: fractions reduce by content, by cancellation of identical
factors, and by exact trial division of freshly expanded numerators against
tracked denominator factors.  So a value is not reduced: equal values may
have different factors.  Full expansion happens only at comparison and
rendering boundaries.

Trial division takes the numerator's primitive part once: an exact quotient
by a factor is already primitive with a positive first term and is kept as
it is.  The tracked factors are mostly binomials, which
LaurentPoly.divide_exact divides without a heap.

A sum (rf_sum) multiplies only where a cofactor has two factors or a power:
a product starts from its first factor, never from one, and each cofactor's
terms are added, shifted and scaled, straight into the one numerator.  Most
two-term sums share their denominator, so their cofactors are single
factors and the sum multiplies no polynomials at all.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, Tuple

from .poly import (MONO_ONE, ExactAlgError, LaurentPoly, PoleError, add_shifted,
                   check_power, mono_eval, mono_inv, mono_mul, mono_pow, poly_pow,
                   var_index)


class DivisionByZero(ExactAlgError):
    """Division of rational functions by the zero value."""


def _expand(factors) -> LaurentPoly:
    """The product of p**k over the (factor, exponent) pairs, each k > 0,
    from the first pair's power on: one factor to the first power is
    itself, with no product; no factors give const(1)."""
    out = None
    for p, k in factors:
        out = poly_pow(p, k) if out is None else out * poly_pow(p, k)
    return LaurentPoly.const(1) if out is None else out


class RationalFunction:
    """Exact rational function over the frozen alphabet.

    Equality is semantic: two values compare equal iff cross-multiplication
    of expanded numerators and denominators yields equal polynomials.
    """

    __slots__ = ("nc", "dc", "mono", "fac")

    def __init__(self, nc: int, dc: int, mono: int, fac: Dict[LaurentPoly, int]):
        if dc == 0:
            raise DivisionByZero("zero denominator")
        if nc == 0:
            dc, mono, fac = 1, MONO_ONE, {}
        else:
            g = math.gcd(nc, dc)
            if dc < 0:
                g = -g
            nc //= g
            dc //= g
        self.nc = nc
        self.dc = dc
        self.mono = mono
        self.fac = fac

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_int(n: int) -> "RationalFunction":
        return RationalFunction(int(n), 1, MONO_ONE, {})

    @staticmethod
    def from_fraction(f: Fraction) -> "RationalFunction":
        f = Fraction(f)
        return RationalFunction(f.numerator, f.denominator, MONO_ONE, {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.var(name, exp))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return _reduce_over(p, 1, {})

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
        if self.mono != MONO_ONE or self.fac:
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
        fac = dict(self.fac)
        for p, k in other.fac.items():
            k += fac.get(p, 0)
            if k:
                fac[p] = k
            else:
                del fac[p]
        return RationalFunction(self.nc * other.nc, self.dc * other.dc,
                                mono_mul(self.mono, other.mono), fac)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.nc == 0:
            raise DivisionByZero("inverting zero rational function")
        return RationalFunction(self.dc if self.nc > 0 else -self.dc,
                                abs(self.nc), mono_inv(self.mono),
                                {p: -k for p, k in self.fac.items()})

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
        """x**n with no loop: the constants, the monomial and every factor's
        exponent are raised at once.  ExponentOverflowError comes before any
        power is formed when an exponent of the monomial or of a factor's
        expansion would exceed EXPONENT_LIMIT."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return RationalFunction.from_int(1)
        mono = mono_pow(self.mono, n)
        fac = {p: k * n for p, k in self.fac.items()}
        for p, k in fac.items():
            check_power(p, abs(k))
        return RationalFunction(self.nc ** n, self.dc ** n, mono, fac)

    def __neg__(self):
        return RationalFunction(-self.nc, self.dc, self.mono, self.fac)

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
        num = _expand((p, k) for p, k in self.fac.items() if k > 0)
        den = _expand((p, -k) for p, k in self.fac.items() if k < 0)
        return num.mono_shift(self.mono).scale(self.nc), den.scale(self.dc)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if (self.nc, self.dc, self.mono, self.fac) == (other.nc, other.dc, other.mono, other.fac):
            return True
        na, da = self.expanded()
        nb, db = other.expanded()
        return na * db == nb * da

    __hash__ = None

    # -- evaluation ----------------------------------------------------------------
    def eval(self, bindings: Dict[str, Fraction]) -> Fraction:
        """Exact evaluation at rational points; raises PoleError on vanishing
        denominator factors and ExactAlgError on an unbound variable."""
        idx = {var_index(k): Fraction(v) for k, v in bindings.items()}
        if self.nc == 0:
            return Fraction(0)
        val = Fraction(self.nc, self.dc) * mono_eval(self.mono, idx)
        for p, k in self.fac.items():
            pv = p.eval(idx)
            if pv == 0 and k < 0:
                raise PoleError(f"denominator factor vanishes: {p}")
            val *= pv ** k
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


def _reduce_over(num: LaurentPoly, dc: int, den: Dict[LaurentPoly, int]) -> RationalFunction:
    """Build num/(dc * prod(p**k for p, k in den.items())) reduced by content
    and trial division, for den a map from primitive factor to positive
    multiplicity.  The factors are tried in key() order, the one place that
    reads the order: which factors a numerator absorbs, and so the printed
    value, depends on it.

    An exact quotient of primitive parts is the new primitive part as it
    is: by Gauss's lemma it has content 1, its least exponents are 0, and
    its lowest term is positive, since lowest terms multiply under the
    integer order."""
    if num.is_zero():
        return RationalFunction.from_int(0)
    c, mono, prim = num.primitive()
    fac = {}
    for p, k in sorted(den.items(), key=lambda pk: pk[0].key()):
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
            fac[p] = -k
    if prim.is_const():
        return RationalFunction(c * prim.const_value(), dc, mono, fac)
    fac[prim] = 1
    return RationalFunction(c, dc, mono, fac)


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
    return _reduce_over(num.mono_shift(mono_inv(mono)), dc, den)


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
    in the order its factors come, unsorted: the product is exact, and
    fewest terms first was measured to take more term pairs, not fewer.
    The numerator is built in one pass: each cofactor's terms go straight
    into one dict, shifted by the term's monomial and scaled by its share
    of the common integer denominator, with no intermediate polynomial.
    """
    vals = [rf(v) for v in values]
    vals = [v for v in vals if v.nc != 0]
    if not vals:
        return RationalFunction.from_int(0)
    if len(vals) == 1:
        return vals[0]
    den: Dict[LaurentPoly, int] = {}
    for v in vals:
        for p, k in v.fac.items():
            if k < 0 and den.get(p, 0) < -k:
                den[p] = -k
    dc = 1
    for v in vals:
        dc = dc * v.dc // math.gcd(dc, v.dc)
    num: Dict[int, int] = {}
    for v in vals:
        cofactor = dict(den)
        for p, k in v.fac.items():
            cofactor[p] = cofactor.get(p, 0) + k
        part = _expand((p, k) for p, k in cofactor.items() if k > 0)
        add_shifted(num, part, v.mono, v.nc * (dc // v.dc))
    return _reduce_over(LaurentPoly(num), dc, den)


def scalar_sum(values):
    """Sum ints, Fractions, RationalFunctions or series of them.

    Rational functions go through rf_sum; anything that is not a scalar
    (a TruncatedSeries, say) is added as a left fold, term by term.  Ints
    and Fractions take scalar_dot's integer path and give a Fraction.
    """
    vals = list(values)
    if any(isinstance(v, RationalFunction) for v in vals):
        return rf_sum(vals)
    if vals and not isinstance(vals[0], (int, Fraction)):
        return functools.reduce(operator.add, vals)
    return scalar_dot([(v, 1) for v in vals], Fraction(0))


def scalar_sum_of_products(pairs):
    """scalar_sum of the products a*b of the (a, b) pairs.  When every
    operand is an int or a Fraction it is one scalar_dot from Fraction(0),
    with no Fraction per product; any other ring forms the products in
    their order and sums them as scalar_sum does."""
    pairs = list(pairs)
    if all(rational_scalars(pair) for pair in pairs):
        return scalar_dot(pairs, Fraction(0))
    return scalar_sum([a * b for a, b in pairs])


def scalar_dot(pairs, zero):
    """zero + a0*b0 + a1*b1 + ... over the (a, b) pairs, in their order.

    When zero and every operand are ints or Fractions, the terms are added
    as integer numerators over one running denominator (the lcm of the term
    denominators) and one Fraction is made at the end, so the sum reduces
    once; it is an int when zero and every operand are ints.  Any other
    ring (RationalFunction, a modular scalar) runs the left fold above,
    operation for operation.
    """
    pairs = list(pairs)
    if not pairs:
        return zero
    kind = type(zero)
    if kind is int or kind is Fraction:
        frac = kind is Fraction
        num, den = zero.numerator, zero.denominator
        for a, b in pairs:
            kind = type(a)
            if kind is Fraction:
                an, ad, frac = a.numerator, a.denominator, True
            elif kind is int:
                an, ad = a, 1
            else:
                break
            kind = type(b)
            if kind is Fraction:
                bn, bd, frac = b.numerator, b.denominator, True
            elif kind is int:
                bn, bd = b, 1
            else:
                break
            n = an * bn
            if not n:
                continue
            d = ad * bd
            if d == den:
                num += n
            else:
                g = math.gcd(den, d)
                s = d // g
                num = num * s + n * (den // g)
                den *= s
        else:
            return Fraction(num, den) if frac else num
    out = zero
    for a, b in pairs:
        out = out + a * b
    return out


def clear_denominators(values):
    """(d, [v * d for v in values]) with d the least common denominator, when
    every value is an int or a Fraction: integer numerators over one
    denominator, so a sum-and-product recurrence on them runs on ints and
    each of its results is made a Fraction once.  None for any other ring
    (RationalFunction, a modular scalar), whose values are left alone."""
    if not rational_scalars(values):
        return None
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def power_ratio(*powers) -> Tuple[int, int]:
    """(n, d), integers with n / d the product of x ** k over the (x, k)
    pairs, each x an int or a Fraction: integer powers of the numerators
    and denominators, so a value built from them is made a Fraction once.
    Neither is reduced, and d is negative where some x < 0 has k < 0.  An x
    of 0 with k < 0 raises ZeroDivisionError, as x ** k does."""
    n = d = 1
    for x, k in powers:
        a, b = x.numerator, x.denominator
        if k < 0:
            if not a:
                raise ZeroDivisionError(f"Fraction({b ** -k}, 0)")
            a, b, k = b, a, -k
        n *= a ** k
        d *= b ** k
    return n, d


def rational_scalars(values) -> bool:
    """Whether every value is an int or a Fraction (a bool is neither): the
    values on which scalar_dot, scalar_product and clear_denominators run
    on integers."""
    return all(type(v) is int or type(v) is Fraction for v in values)


def scalar_product(values):
    """The product of the values, a left fold in their order; 1 when there
    are none.

    When every value is an int or a Fraction, the numerators and the
    denominators are multiplied as integers and one Fraction is made at the
    end; the product is an int when every value is.  Any other ring
    (RationalFunction, a modular scalar) runs the left fold."""
    values = list(values)
    num = den = 1
    frac = False
    for x in values:
        kind = type(x)
        if kind is Fraction:
            num *= x.numerator
            den *= x.denominator
            frac = True
        elif kind is int:
            num *= x
        else:
            break
    else:
        return Fraction(num, den) if frac else num
    return functools.reduce(operator.mul, values)


def one_like(x):
    """The unit of x's scalar ring: 1 as an int, Fraction or RationalFunction."""
    return Fraction(1) if type(x) is Fraction else x * 0 + 1


def exact_scalars(*values) -> tuple:
    """The values with each int made a Fraction, so that no division turns
    it into a float; a float raises TypeError, anything else passes."""
    if any(isinstance(x, float) for x in values):
        raise TypeError("float scalar: pass an int, Fraction or RationalFunction")
    return tuple(Fraction(x) if isinstance(x, int) else x for x in values)


def generators(*names: str) -> Tuple[RationalFunction, ...]:
    return tuple(RationalFunction.var(n) for n in names)
