"""Truncated formal power series with exact coefficients.

Generic over the coefficient ring: Fractions for evaluated runs,
RationalFunctions for symbolic runs, or any ring elements supporting
+, -, * and (where needed) division.  Mixed-order arithmetic truncates
to the smaller order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence

from .poly import ALPHABET, LaurentPoly
from .ratfun import RationalFunction, one_like


class SeriesError(ArithmeticError):
    pass


class TruncatedSeries:
    """Power series truncated at a fixed order N (inclusive)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise SeriesError("series needs at least the constant coefficient")
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value, order: int) -> "TruncatedSeries":
        zero = value * 0
        return TruncatedSeries([value] + [zero] * order)

    @staticmethod
    def one(order: int, zero=Fraction(0)) -> "TruncatedSeries":
        return TruncatedSeries([one_like(zero)] + [zero] * order)

    @staticmethod
    def gen(order: int, zero=Fraction(0)) -> "TruncatedSeries":
        """The series variable itself."""
        c = [zero] * (order + 1)
        if order >= 1:
            c[1] = one_like(zero)
        return TruncatedSeries(c)

    def zero_coeff(self):
        return self.coeffs[0] * 0

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order >= self.order:
            return self
        return TruncatedSeries(self.coeffs[: order + 1])

    def _align(self, other: "TruncatedSeries"):
        n = min(self.order, other.order)
        return self.truncate(n), other.truncate(n)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = list(self.coeffs)
            c[0] = c[0] + other
            return TruncatedSeries(c)
        a, b = self._align(other)
        return TruncatedSeries([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            c = list(self.coeffs)
            c[0] = c[0] - other
            return TruncatedSeries(c)
        a, b = self._align(other)
        return TruncatedSeries([x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries([c * other for c in self.coeffs])
        a, b = self._align(other)
        n = a.order
        zero = a.zero_coeff() + b.zero_coeff() * 0
        out = [zero] * (n + 1)
        for i, x in enumerate(a.coeffs):
            for j in range(0, n - i + 1):
                out[i + j] = out[i + j] + x * b.coeffs[j]
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self * (Fraction(1) / other)
        a, b = self._align(other)
        n = a.order
        out: List = []
        lead = b.coeffs[0]
        for k in range(n + 1):
            s = a.coeffs[k]
            for j in range(1, k + 1):
                s = s - b.coeffs[j] * out[k - j]
            out.append(_divide(s, lead))
        return TruncatedSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        a, b = self._align(other)
        return all(x == y for x, y in zip(a.coeffs, b.coeffs))

    __hash__ = None

    def exp(self) -> "TruncatedSeries":
        if self.coeffs[0]:
            raise SeriesError("exp needs vanishing constant term")
        n = self.order
        one = one_like(self.coeffs[0])
        out = TruncatedSeries.constant(one, n)
        term = TruncatedSeries.constant(one, n)
        fact = 1
        for k in range(1, n + 1):
            term = term * self
            fact *= k
            out = out + term * Fraction(1, fact)
        return out

    def log(self) -> "TruncatedSeries":
        one = one_like(self.coeffs[0])
        if not self.coeffs[0] == one:
            raise SeriesError("log needs constant term 1")
        n = self.order
        u = self - one
        out = TruncatedSeries.constant(self.zero_coeff(), n)
        term = TruncatedSeries.constant(one, n)
        for k in range(1, n + 1):
            term = term * u
            out = out + term * Fraction((-1) ** (k - 1), k)
        return out

    def map(self, f: Callable) -> "TruncatedSeries":
        return TruncatedSeries([f(c) for c in self.coeffs])

    def __repr__(self):
        return "Series[" + ", ".join(str(c) for c in self.coeffs) + "]"


def _divide(a, b):
    if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
        if not isinstance(a, RationalFunction):
            a = RationalFunction.from_fraction(Fraction(a))
        return a / b
    return Fraction(a) / Fraction(b)


def geometric(ratio, order: int) -> TruncatedSeries:
    """1/(1 - ratio*Q) expanded to the given order."""
    one = one_like(ratio)
    out = [one]
    cur = one
    for _ in range(order):
        cur = cur * ratio
        out.append(cur)
    return TruncatedSeries(out)


def expand_closed_form(f: RationalFunction, order: int) -> TruncatedSeries:
    """Series expansion of a rational expression in the series variable Q.

    The denominator must have a nonzero coefficient at the lowest power of Q
    (zeroth after monomial normalization); net negative valuation is an
    error since the result is a power series.
    """
    num, den = f.expanded()
    i_var = ALPHABET.index("Q")

    def split(poly):
        by_pow = {}
        for m, c in poly.terms.items():
            k = dict(m).get(i_var, 0)
            rest = tuple((i, e) for i, e in m if i != i_var)
            by_pow.setdefault(k, {})[rest] = c
        return by_pow

    nd, dd = split(num), split(den)
    if not dd:
        raise SeriesError("zero denominator")
    dmin = min(dd)
    nmin = min(nd) if nd else 0
    if nd and nmin < dmin:
        raise SeriesError("negative valuation in Q: expression is not a power series")

    def coeff_rf(table, k):
        d = table.get(k)
        if not d:
            return RationalFunction.from_int(0)
        return RationalFunction.from_poly(LaurentPoly(d))

    shift = dmin
    a = TruncatedSeries([coeff_rf(nd, k + shift) for k in range(order + 1)])
    b = TruncatedSeries([coeff_rf(dd, k + shift) for k in range(order + 1)])
    return a / b
