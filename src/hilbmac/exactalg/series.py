"""Truncated formal power series with exact coefficients.

Generic over the coefficient ring: Fractions for evaluated runs,
RationalFunctions for symbolic runs, or any ring elements supporting
+, -, * and (where needed) division.  Mixed-order arithmetic truncates
to the smaller order.  When every coefficient is an int or a Fraction, a
product, a quotient and exp make each coefficient as one scalar_dot; any
other ring runs them one operation at a time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Optional, Sequence

from .poly import (MONO_ONE, HilbmacError, LaurentPoly, add_shifted, mono_inv, mono_mul,
                   mono_pow, mono_split)
from .ratfun import (RationalFunction, _expand, one_like, poly_over, rational_scalars,
                     scalar_dot)


class SeriesError(HilbmacError, ArithmeticError):
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
        zero = a.zero_coeff() + b.zero_coeff() * 0
        x, y = a.coeffs, b.coeffs
        return TruncatedSeries([scalar_dot([(x[i], y[k - i]) for i in range(k + 1)], zero)
                                for k in range(len(x))])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self * _divide(1, other)
        a, b = self._align(other)
        n = a.order
        out: List = []
        lead = b.coeffs[0]
        if rational_scalars(a.coeffs + b.coeffs):
            # out_k = a_k / b_0 - sum_j (b_j / b_0) out_{k-j}, one scalar_dot each
            inv = _divide(1, lead)
            steps = [-c * inv for c in b.coeffs[1:]]
            for k in range(n + 1):
                out.append(scalar_dot([(a.coeffs[k], inv)]
                                      + [(steps[j - 1], out[k - j]) for j in range(1, k + 1)], 0))
            return TruncatedSeries(out)
        for k in range(n + 1):
            s = a.coeffs[k]
            for j in range(1, k + 1):
                s = s - b.coeffs[j] * out[k - j]
            out.append(_divide(s, lead))
        return TruncatedSeries(out)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return first_difference(self, other) is None

    __hash__ = None

    def exp(self) -> "TruncatedSeries":
        if self.coeffs[0]:
            raise SeriesError("exp needs vanishing constant term")
        n = self.order
        if n and rational_scalars(self.coeffs):
            # f = exp(g) solves f' = g' f: m f_m = sum_k k g_k f_{m-k}
            kg = [k * c for k, c in enumerate(self.coeffs)]
            f = [Fraction(1)]
            for m in range(1, n + 1):
                f.append(scalar_dot([(kg[k], f[m - k]) for k in range(1, m + 1)], 0) / m)
            return TruncatedSeries(f)
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


def first_difference(a: TruncatedSeries, b: TruncatedSeries) -> Optional[int]:
    """The lowest power, up to the smaller order, where a and b differ; None
    if they agree there."""
    return next((n for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)) if not x == y), None)


def _divide(a, b):
    """a / b by the scalars' own division; int / int is a Fraction."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


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
    """Series expansion of a rational function f in the series variable Q.

    f's factor map is read as it is.  Its constants, the Q-free part of its
    monomial and every factor free of Q make one scalar C; only the factors
    in Q are expanded, to a numerator N and a denominator D, each split by
    powers of Q into N_k and d_k.  Factors are primitive, so N_0 and d0 are
    nonzero and the valuation of f in Q is the Q-exponent e of its monomial;
    a negative e is an error, since the result is a power series.  So
    f = C Q^e N/D, and N/D = sum_k S_k Q^k with S_k = P_k / d0^(k+1):

        P_0 = N_0,   P_k = N_k d0^k - sum_{j=1..k} d_j d0^(j-1) P_(k-j),

    where every P_k is a Laurent polynomial, so no coefficient is a sum of
    rational functions.  When d0 is one term c*m (every library closed
    form: 1 symbolically, an integer at a rational point), the powers of d0
    are integer scalings and monomial shifts, and S_k is P_k over
    c^(k+1) m^(k+1), with no division; any other d0 is raised by products,
    and P_k is reduced over k + 1 copies of d0 by poly_over.  Each
    coefficient is C times S_k, with C's factors kept apart.
    """
    if order < 0:
        raise SeriesError("series needs at least the constant coefficient")
    zero = RationalFunction.from_int(0)
    if f.is_zero():
        return TruncatedSeries([zero] * (order + 1))
    e, mono = mono_split(f.mono, "Q")
    if e < 0:
        raise SeriesError("negative valuation in Q: expression is not a power series")
    free, num, den = {}, [], []
    for p, k in f.fac.items():
        if not p.degree("Q"):
            free[p] = k
        elif k > 0:
            num.append((p, k))
        else:
            den.append((p, -k))
    scalar = RationalFunction(f.nc, f.dc, mono, free)
    nk = {k: p for (k,), p in _expand(num).group_by(["Q"]).items()}
    dk = {k: p for (k,), p in _expand(den).group_by(["Q"]).items()}
    d0 = dk[0]
    top = order - e

    if len(d0.terms) == 1:
        ((m, c),) = d0.terms.items()

        def times_power(p: LaurentPoly, j: int) -> LaurentPoly:
            if not j or (c == 1 and m == MONO_ONE):
                return p
            acc: dict = {}
            add_shifted(acc, p, mono_pow(m, j), c ** j)
            return LaurentPoly(acc)

        def coefficient(k: int, p: LaurentPoly) -> RationalFunction:
            over = RationalFunction(scalar.nc, scalar.dc * c ** (k + 1),
                                    mono_mul(scalar.mono, mono_pow(mono_inv(m), k + 1)),
                                    scalar.fac)
            return over * RationalFunction.from_poly(p)
    else:
        powers = [LaurentPoly.const(1), d0]

        def times_power(p: LaurentPoly, j: int) -> LaurentPoly:
            while len(powers) <= j:
                powers.append(powers[-1] * d0)
            return p * powers[j] if j else p

        def coefficient(k: int, p: LaurentPoly) -> RationalFunction:
            return scalar * poly_over(p, [d0] * (k + 1))

    steps = {j: times_power(d, j - 1) for j, d in dk.items() if 0 < j <= top}
    ps: List[LaurentPoly] = []
    for k in range(top + 1):
        acc = dict(times_power(nk[k], k).terms) if k in nk else {}
        for j, step in steps.items():
            if j <= k and ps[k - j]:
                add_shifted(acc, step * ps[k - j], MONO_ONE, -1)
        ps.append(LaurentPoly(acc))
    return TruncatedSeries([zero] * min(e, order + 1)
                           + [coefficient(k, p) for k, p in enumerate(ps)])
