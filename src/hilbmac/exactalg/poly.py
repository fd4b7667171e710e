"""Sparse multivariate Laurent polynomials over a fixed, globally ordered alphabet.

Monomials are tuples of (variable_index, exponent) pairs, sorted by index,
with nonzero exponents; exponents may be negative (Laurent).  Only this
module builds or reads them: other modules pass them to its functions.
Coefficients are arbitrary-precision Python ints.  The alphabet is frozen at
import time, so term orders are stable across a run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

Monomial = Tuple[Tuple[int, int], ...]

#: the unit monomial, 1
MONO_ONE: Monomial = ()

#: exponents are kept far below this bound; exceeding it indicates a runaway
#: computation rather than a legitimate value.
EXPONENT_LIMIT = 2 ** 62

BASE_ALPHABET = ("q", "t", "u", "v", "t1", "t2", "w1", "w2", "x", "y", "Q")


class ExponentOverflowError(ArithmeticError):
    """A Laurent exponent left the supported machine-integer range."""


class ExactAlgError(ArithmeticError):
    pass


class PoleError(ExactAlgError):
    """Evaluation point lies on a pole; caller should retry elsewhere."""


class Alphabet:
    """Global ordered variable registry of the frozen base names."""

    def __init__(self):
        self._names = list(BASE_ALPHABET)
        self._index = {n: i for i, n in enumerate(self._names)}

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}")

    def name(self, idx: int) -> str:
        return self._names[idx]


ALPHABET = Alphabet()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for i, e in b:
        ne = d.get(i, 0) + e
        if ne:
            if abs(ne) > EXPONENT_LIMIT:
                raise ExponentOverflowError(f"exponent {ne} exceeds limit for var {ALPHABET.name(i)}")
            d[i] = ne
        else:
            d.pop(i)
    return tuple(sorted(d.items()))


def mono_inv(a: Monomial) -> Monomial:
    return tuple((i, -e) for i, e in a)


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return mono_mul(a, mono_inv(b))


def mono_eval(a: Monomial, point: Dict[int, Fraction]) -> Fraction:
    """Value of the monomial at a point that maps variable index to value."""
    val = Fraction(1)
    for i, e in a:
        if i not in point:
            raise ExactAlgError(f"unbound variable {ALPHABET.name(i)}")
        if point[i] == 0 and e < 0:
            raise PoleError("zero base with negative exponent")
        val *= point[i] ** e
    return val


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if monomial a divides b with nonnegative quotient exponents."""
    db = dict(b)
    for i, e in a:
        if db.get(i, 0) < e:
            return False
    return True


_MONO_KEY_CACHE: Dict[Monomial, tuple] = {}


def mono_key(a: Monomial):
    """Canonical term-order key: total absolute degree, then per-variable
    (index, -exponent) lexicographically.  Graded and multiplicative on the
    nonnegative cone, so it doubles as the division order."""
    k = _MONO_KEY_CACHE.get(a)
    if k is None:
        k = (sum(abs(e) for _, e in a), tuple((i, -e) for i, e in a))
        if len(_MONO_KEY_CACHE) < 1_000_000:
            _MONO_KEY_CACHE[a] = k
    return k


class _MaxFirst:
    """Heap wrapper ordering monomials largest-key first."""

    __slots__ = ("key", "mono")

    def __init__(self, mono: Monomial):
        self.key = mono_key(mono)
        self.mono = mono

    def __lt__(self, other: "_MaxFirst") -> bool:
        return self.key > other.key


def mono_str(a: Monomial) -> str:
    if not a:
        return "1"
    parts = []
    for i, e in a:
        n = ALPHABET.name(i)
        parts.append(n if e == 1 else f"{n}^{e}")
    return "*".join(parts)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("terms", "_key")

    def __init__(self, terms: Dict[Monomial, int]):
        self.terms = {m: c for m, c in terms.items() if c}
        self._key = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({MONO_ONE: int(c)} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return LaurentPoly.const(1)
        return LaurentPoly({((ALPHABET.index(name), exp),): 1})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def const_value(self) -> int:
        return self.terms.get(MONO_ONE, 0)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = dict(self.terms)
        for m, c in other.terms.items():
            nc = d.get(m, 0) + c
            if nc:
                d[m] = nc
            else:
                d.pop(m, None)
        return LaurentPoly(d)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return LaurentPoly({})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d: Dict[Monomial, int] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                nc = d.get(m, 0) + ca * cb
                if nc:
                    d[m] = nc
                else:
                    d.pop(m, None)
        return LaurentPoly(d)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly({})
        return LaurentPoly({m: c * v for m, v in self.terms.items()})

    def mono_shift(self, mono: Monomial) -> "LaurentPoly":
        if not mono:
            return self
        return LaurentPoly({mono_mul(m, mono): c for m, c in self.terms.items()})

    def __truediv__(self, other) -> "LaurentPoly":
        """Exact quotient in the Laurent polynomial ring; raises ExactAlgError
        when other does not divide self.  Integer and monomial contents are
        divided out first, so divide_exact sees primitive operands."""
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        c, mono, prim = self.primitive()
        oc, omono, oprim = other.primitive()
        quot = prim.divide_exact(oprim)
        if quot is None or c % oc:
            raise ExactAlgError(f"{other} does not divide {self}")
        return quot.mono_shift(mono_div(mono, omono)).scale(c // oc)

    # -- normal form -------------------------------------------------------
    def primitive(self) -> Tuple[int, Monomial, "LaurentPoly"]:
        """Decompose as content * monomial * primitive polynomial.

        Monomial content is the per-variable minimum exponent, so the
        primitive part has no common monomial factor and no negative
        exponents.  The integer content carries the sign that makes the
        primitive part's first term in the canonical order positive.
        """
        if self.is_zero():
            return 0, MONO_ONE, LaurentPoly({})
        exps = [dict(m) for m in self.terms]
        variables = sorted({i for d in exps for i in d})
        mins = [(i, min(d.get(i, 0) for d in exps)) for i in variables]
        mono = tuple((i, e) for i, e in mins if e)
        inv = mono_inv(mono)
        shifted = {mono_mul(m, inv): c for m, c in self.terms.items()}
        g = 0
        for c in shifted.values():
            g = math.gcd(g, c)
        if shifted[min(shifted, key=mono_key)] < 0:
            g = -g
        prim = LaurentPoly({m: c // g for m, c in shifted.items()})
        return g, mono, prim

    def leading(self) -> Tuple[Monomial, int]:
        """Maximal term in the graded canonical order (division leading term)."""
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def divide_exact(self, divisor: "LaurentPoly"):
        """Exact division; returns quotient LaurentPoly or None if not divisible.

        Both operands must have nonnegative exponents (primitive factors do).
        The remainder's leading term strictly decreases in the graded order,
        so the loop terminates at zero (divisible) or a failed step (not).
        Remainder maxima come from a lazy max-heap rather than a scan.
        """
        import heapq

        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return LaurentPoly({})
        dlm, dlc = divisor.leading()
        dtail = [(m, c) for m, c in divisor.terms.items() if m != dlm]
        rem = dict(self.terms)
        heap = [_MaxFirst(m) for m in rem]
        heapq.heapify(heap)
        quot: Dict[Monomial, int] = {}
        while heap:
            rlm = heapq.heappop(heap).mono
            rlc = rem.get(rlm, 0)
            if not rlc:
                continue  # stale entry
            if not mono_divides(dlm, rlm) or rlc % dlc:
                return None
            qm = mono_div(rlm, dlm)
            qc = rlc // dlc
            quot[qm] = qc
            del rem[rlm]
            for m, c in dtail:
                mm = mono_mul(m, qm)
                old = rem.get(mm, 0)
                nc = old - qc * c
                if nc:
                    rem[mm] = nc
                    if not old:
                        heapq.heappush(heap, _MaxFirst(mm))
                else:
                    rem.pop(mm, None)
        return LaurentPoly(quot) if not rem else None

    # -- evaluation --------------------------------------------------------
    def norm1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self.terms.values())

    def degree(self, name: str) -> int:
        """Largest exponent of the named variable (0 where it is absent)."""
        i = ALPHABET.index(name)
        return max((dict(m).get(i, 0) for m in self.terms), default=0)

    def kronecker(self, shifts: Dict[str, int]) -> int:
        """Value at name = 2^shift for each named variable: the Kronecker
        substitution, one integer.  Raises ExactAlgError on a negative
        exponent or on a variable that is not named."""
        idx = {ALPHABET.index(n): s for n, s in shifts.items()}
        out = 0
        for m, c in self.terms.items():
            shift = 0
            for i, e in m:
                if i not in idx or e < 0:
                    raise ExactAlgError(f"cannot pack {mono_str(m)} with {sorted(shifts)}")
                shift += idx[i] * e
            out += c << shift
        return out

    def eval(self, point: Dict[int, Fraction]) -> Fraction:
        return sum((c * mono_eval(m, point) for m, c in self.terms.items()), Fraction(0))

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[int, ...], "LaurentPoly"]:
        """Terms grouped by their exponents of the named variables: each tuple
        of exponents, in the order of names, maps to the polynomial in the
        other variables that multiplies it."""
        wanted = [ALPHABET.index(n) for n in names]
        groups: Dict[Tuple[int, ...], Dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            dm = dict(m)
            rest = tuple((i, e) for i, e in m if i not in wanted)
            groups.setdefault(tuple(dm.get(i, 0) for i in wanted), {})[rest] = c
        return {k: LaurentPoly(d) for k, d in groups.items()}

    # -- comparison / rendering ---------------------------------------------
    def key(self):
        if self._key is None:
            self._key = tuple(sorted(((mono_key(m), m, c) for m, c in self.terms.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.key())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for m in sorted(self.terms, key=mono_key):
            c = self.terms[m]
            body = mono_str(m)
            if body == "1":
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            if not out:
                out.append(chunk if c > 0 else f"-{chunk}")
            else:
                out.append(f"+ {chunk}" if c > 0 else f"- {chunk}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def poly_pow(p: LaurentPoly, n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("poly_pow needs n >= 0")
    out = LaurentPoly.const(1)
    base = p
    while n:
        if n & 1:
            out = out * base
        base = base * base if n > 1 else base
        n >>= 1
    return out
