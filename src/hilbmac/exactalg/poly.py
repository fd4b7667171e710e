"""Sparse multivariate Laurent polynomials over a fixed, globally ordered alphabet.

A monomial is one Python int.  The alphabet is frozen at import time with N
names, and each name owns a signed (balanced-digit) field of FIELD_BITS = 65
bits; the signed total degree sits above the N fields:

    packed = degree * 2**(FIELD_BITS*N) + sum_k (-e_k) * 2**(FIELD_BITS*(N-1-k))

Variable 0 holds the highest field, and the field stores the negated
exponent.  So the unit monomial is 0, a product is an integer sum, an
inverse is a negation, and divisibility is one mask test.  Exponents stay
within EXPONENT_LIMIT = 2**62, so the sum of two of them (at most 2**63 in
absolute value) never spills into a neighbouring field.  A product checks
its operands: when no operand exponent exceeds EXPONENT_LIMIT // 2 in
absolute value, no product exponent can exceed the limit, and only
otherwise is each result monomial checked.  Other constructions (shifts,
add_shifted's shifted sums, quotients) check each result monomial, and
powers (mono_pow, check_power) check their base before the power is formed.
Only this module builds or reads monomials: other modules pass them to its
functions.

Two orders serve two jobs:
  - integer comparison of the packed ints is graded by signed degree, then
    larger exponents of earlier variables rank lower.  On the nonnegative
    cone, where the signed degree is the absolute degree, this is a
    monomial order and agrees with mono_key: after equal degrees, both
    compare the exponent vectors lexicographically with larger exponents of
    earlier variables first.  divide_exact, leading() and the sign of
    primitive() (whose shifted terms lie on the cone) use it.
  - mono_key (absolute degree, then (index, -exponent) lexicographically)
    orders the printed terms, and through key() the factors that trial
    division tries; it is decoded from the int and cached.

Exact division by a binomial aX + bY (X > Y) needs no heap: the remainder
only ever moves along chains r, r - (X - Y), r - 2(X - Y), ..., and chains
do not meet, so divide_exact walks each chain from its highest term down.
Divisors with three or more terms use the heap division of Monagan and
Pearce (J. Symb. Comput. 46, 2011).

Coefficients are arbitrary-precision Python ints.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

#: exponents are kept far below this bound; exceeding it indicates a runaway
#: computation rather than a legitimate value.
EXPONENT_LIMIT = 2 ** 62

BASE_ALPHABET = ("q", "t", "u", "v", "t1", "t2", "w1", "w2", "x", "y", "Q")

#: the unit monomial, 1
MONO_ONE = 0

FIELD_BITS = 65
_N = len(BASE_ALPHABET)
_DEGREE_SHIFT = FIELD_BITS * _N
_SHIFT = tuple(FIELD_BITS * (_N - 1 - k) for k in range(_N))
#: the packed monomial of variable k to the first power
_VAR = tuple((1 << _DEGREE_SHIFT) - (1 << s) for s in _SHIFT)
_FIELD_MASK = (1 << FIELD_BITS) - 1
_HALF = 1 << (FIELD_BITS - 1)


def _each_field(x: int) -> int:
    """x placed in every exponent field."""
    return sum(x << s for s in _SHIFT)


@functools.lru_cache(maxsize=None)
def _bound_masks(b: int) -> Tuple[int, int]:
    """(bias, spill) for B = 2**b: a monomial m with no spill bit in
    m + bias has every exponent in (-B, B]."""
    return _each_field(1 << b), _each_field(_FIELD_MASK ^ ((2 << b) - 1))


#: every field's sign bit; a difference with none set has all fields >= 0
_SIGNS = _each_field(_HALF)
_LIMIT_BIAS, _SPILL = _bound_masks(EXPONENT_LIMIT.bit_length() - 1)
_HALF_BIAS, _HALF_SPILL = _bound_masks(EXPONENT_LIMIT.bit_length() - 2)
#: plus _OFFSET, every in-range field becomes an unsigned digit below _HALF
_OFFSET = _each_field(2 * EXPONENT_LIMIT)
_FIELDS = _each_field(_FIELD_MASK)


class HilbmacError(Exception):
    """Root of every library error; each subclass keeps a builtin base too."""


class ExponentOverflowError(HilbmacError, ArithmeticError):
    """A Laurent exponent left the supported machine-integer range."""


class ExactAlgError(HilbmacError, ArithmeticError):
    pass


class PoleError(ExactAlgError):
    """Evaluation point lies on a pole; caller should retry elsewhere."""


class DomainError(HilbmacError, ValueError):
    """An argument outside the range a routine accepts: a negative count,
    order or power, or a sampler that has nothing left to draw."""


_INDEX = {n: i for i, n in enumerate(BASE_ALPHABET)}


def var_index(name: str) -> int:
    """Index of the named variable in BASE_ALPHABET; ExactAlgError if none."""
    i = _INDEX.get(name)
    if i is None:
        raise ExactAlgError(f"unknown variable {name!r}")
    return i


def _exponent(m: int, k: int) -> int:
    """Exponent of variable k in m: its field, rounded past the balanced
    fields below it."""
    s = _SHIFT[k]
    x = (m + (1 << s >> 1)) >> s
    return _HALF - ((x + _HALF) & _FIELD_MASK)


def _decode(m: int) -> List[Tuple[int, int]]:
    """(index, exponent) pairs of the nonzero exponents of m, by index."""
    out = []
    for k in range(_N - 1, -1, -1):
        f = ((m + _HALF) & _FIELD_MASK) - _HALF
        m = (m - f) >> FIELD_BITS
        if f:
            out.append((k, -f))
    out.reverse()
    return out


def _pack(pairs) -> int:
    return sum(e * _VAR[k] for k, e in pairs)


def _check(monos, n: int = 1) -> None:
    """Raise ExponentOverflowError if n >= 1 times an exponent of the
    monomials exceeds EXPONENT_LIMIT in absolute value, so that a power is
    checked before it is formed.  One mask test over all of them, against
    the largest power of two B with B*n <= EXPONENT_LIMIT; the exact rule
    runs only when the test flags a field."""
    b = EXPONENT_LIMIT.bit_length() - 1 - (n - 1).bit_length()
    if b >= 0:
        bias, mask = (_LIMIT_BIAS, _SPILL) if n == 1 else _bound_masks(b)
        spill = 0
        for m in monos:
            spill |= m + bias
        if not spill & mask:
            return
    times = "" if n == 1 else f" times {n}"
    for m in monos:
        for k, e in _decode(m):
            if abs(e) * n > EXPONENT_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {e}{times} exceeds limit for var {BASE_ALPHABET[k]}")


def _past_half(monos) -> bool:
    """True if an exponent of the monomials may exceed EXPONENT_LIMIT // 2
    in absolute value; the product of two monomials with none cannot
    overflow.  One mask test, conservative at exactly -LIMIT/2."""
    spill = 0
    for m in monos:
        spill |= m + _HALF_BIAS
    return bool(spill & _HALF_SPILL)


def mono_pow(a: int, n: int) -> int:
    """a**n for n >= 0; ExponentOverflowError before the power is formed if
    an exponent of it would exceed EXPONENT_LIMIT."""
    if n > 1:
        _check((a,), n)
    return a * n


def check_power(p: "LaurentPoly", n: int) -> None:
    """Raise ExponentOverflowError if p**n (n >= 0) would have an exponent
    beyond EXPONENT_LIMIT: the largest |exponent| of p**n is n times that
    of p, reached at a vertex of p's Newton polytope, whose coefficient in
    p**n cannot cancel."""
    if n > 1:
        _check(p.terms, n)


def mono_mul(a: int, b: int) -> int:
    m = a + b
    _check((m,))
    return m


def mono_inv(a: int) -> int:
    return -a


def mono_eval(a: int, point: Dict[int, Fraction]) -> Fraction:
    """Value of the monomial at a point that maps variable index to value."""
    val = Fraction(1)
    for i, e in _decode(a):
        if i not in point:
            raise ExactAlgError(f"unbound variable {BASE_ALPHABET[i]}")
        if point[i] == 0 and e < 0:
            raise PoleError("zero base with negative exponent")
        val *= point[i] ** e
    return val


def mono_split(a: int, name: str) -> Tuple[int, int]:
    """(e, rest): the exponent e of the named variable in monomial a, and a
    with that variable taken out."""
    i = var_index(name)
    e = _exponent(a, i)
    return e, a - e * _VAR[i]


def mono_divides(a: int, b: int) -> bool:
    """True if monomial a divides b with nonnegative quotient exponents."""
    return not (a - b) & _SIGNS


_MONO_KEY_CACHE: Dict[int, tuple] = {}


def mono_key(a: int):
    """Print order key: total absolute degree, then per-variable
    (index, -exponent) lexicographically.  Orders printed terms and key();
    division and primitive()'s sign use the integer order instead."""
    k = _MONO_KEY_CACHE.get(a)
    if k is None:
        pairs = _decode(a)
        k = (sum(abs(e) for _, e in pairs), tuple((i, -e) for i, e in pairs))
        if len(_MONO_KEY_CACHE) < 1_000_000:
            _MONO_KEY_CACHE[a] = k
    return k


def mono_str(a: int) -> str:
    if not a:
        return "1"
    parts = []
    for i, ne in mono_key(a)[1]:
        n = BASE_ALPHABET[i]
        parts.append(n if ne == -1 else f"{n}^{-ne}")
    return "*".join(parts)


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int coefficients."""

    __slots__ = ("terms", "_key", "_hash")

    def __init__(self, terms: Dict[int, int]):
        """Takes ownership of terms, a fresh dict; zero coefficients are
        dropped."""
        self.terms = {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms
        self._key = None
        self._hash = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({MONO_ONE: int(c)} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "LaurentPoly":
        if abs(exp) > EXPONENT_LIMIT:
            raise ExponentOverflowError(f"exponent {exp} exceeds limit for var {name}")
        return LaurentPoly({exp * _VAR[var_index(name)]: 1})

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
        d: Dict[int, int] = {}
        get = d.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                d[m] = get(m, 0) + ca * cb
        if _past_half(a) or _past_half(b):
            _check(d)
        return LaurentPoly(d)

    def __rmul__(self, other: int) -> "LaurentPoly":
        """n * p for an int n: p.scale(n), so scalar code can multiply a
        ring element by an integer count in every ring alike."""
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly({})
        return LaurentPoly({m: c * v for m, v in self.terms.items()})

    def mono_shift(self, mono: int) -> "LaurentPoly":
        if not mono:
            return self
        shifted = {m + mono: c for m, c in self.terms.items()}
        _check(shifted)
        return LaurentPoly(shifted)

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
        return quot.mono_shift(mono_mul(mono, -omono)).scale(c // oc)

    # -- normal form -------------------------------------------------------
    def primitive(self) -> Tuple[int, int, "LaurentPoly"]:
        """Decompose as content * monomial * primitive polynomial.

        Monomial content is the per-variable minimum exponent, so the
        primitive part has no common monomial factor and no negative
        exponents.  The integer content carries the sign that makes the
        primitive part's lowest term positive.  The shifted terms lie on the
        nonnegative cone, where the integer order and mono_key agree, so the
        lowest term is the least packed int.  With content 1 the shifted
        terms are not copied again, and with no monomial content either the
        primitive part is the operand itself.
        """
        if self.is_zero():
            return 0, MONO_ONE, LaurentPoly({})
        # Field-wise maximum of the negated exponents, all fields at once:
        # offset fields are unsigned digits below their sign bit, which
        # survives (top | sign) - field exactly where top >= field.
        top = 0
        for m in self.terms:
            f = (m + _OFFSET) & _FIELDS
            ge = ((top | _SIGNS) - f) & _SIGNS
            top = f ^ ((top ^ f) & (ge - (ge >> (FIELD_BITS - 1))))
        mono = _pack(_decode(top - _OFFSET))
        shifted = self.terms
        if mono:
            shifted = {m - mono: c for m, c in shifted.items()}
            _check(shifted)
        g = math.gcd(*shifted.values())
        if shifted[min(shifted)] < 0:
            g = -g
        if g != 1:
            prim = LaurentPoly({m: c // g for m, c in shifted.items()})
        elif mono:
            prim = LaurentPoly(shifted)
        else:
            prim = self
        return g, mono, prim

    def leading(self) -> Tuple[int, int]:
        """Maximal term in the integer order (division leading term)."""
        m = max(self.terms)
        return m, self.terms[m]

    def divide_exact(self, divisor: "LaurentPoly"):
        """Exact division; returns quotient LaurentPoly or None if not divisible.

        Both operands must have nonnegative exponents (primitive factors do).
        The remainder's leading term strictly decreases in the graded order,
        so the loop terminates at zero (divisible) or a failed step (not).
        A binomial divisor goes to _divide_binomial; otherwise remainder
        maxima come from a lazy heap of negated monomials.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return LaurentPoly({})
        if len(divisor.terms) == 2:
            return _divide_binomial(self.terms, divisor.terms)
        dlm, dlc = divisor.leading()
        dtail = [(m, c) for m, c in divisor.terms.items() if m != dlm]
        rem = dict(self.terms)
        heap = [-m for m in rem]
        heapq.heapify(heap)
        quot: Dict[int, int] = {}
        while heap:
            rlm = -heapq.heappop(heap)
            rlc = rem.get(rlm, 0)
            if not rlc:
                continue  # stale entry
            if not mono_divides(dlm, rlm) or rlc % dlc:
                return None
            qm = rlm - dlm
            if (qm + _LIMIT_BIAS) & _SPILL:
                _check((qm,))
            qc = rlc // dlc
            quot[qm] = qc
            del rem[rlm]
            for m, c in dtail:
                mm = m + qm
                old = rem.get(mm, 0)
                nc = old - qc * c
                if nc:
                    rem[mm] = nc
                    if not old:
                        heapq.heappush(heap, -mm)
                else:
                    rem.pop(mm, None)
        return LaurentPoly(quot) if not rem else None

    # -- evaluation --------------------------------------------------------
    def norm1(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(c) for c in self.terms.values())

    def degree(self, name: str) -> int:
        """Largest exponent of the named variable (0 where it is absent)."""
        i = var_index(name)
        return max((_exponent(m, i) for m in self.terms), default=0)

    def kronecker(self, shifts: Dict[str, int]) -> int:
        """Value at name = 2^shift for each named variable: the Kronecker
        substitution, one integer.  Raises ExactAlgError on a negative
        exponent or on a variable that is not named."""
        idx = {var_index(n): s for n, s in shifts.items()}
        out = 0
        for m, c in self.terms.items():
            exps = [(i, _exponent(m, i)) for i in idx]
            if m != _pack(exps) or any(e < 0 for _, e in exps):
                raise ExactAlgError(f"cannot pack {mono_str(m)} with {sorted(shifts)}")
            out += c << sum(idx[i] * e for i, e in exps)
        return out

    def eval(self, point: Dict[int, Fraction]) -> Fraction:
        return sum((c * mono_eval(m, point) for m, c in self.terms.items()), Fraction(0))

    def group_by(self, names: Sequence[str]) -> Dict[Tuple[int, ...], "LaurentPoly"]:
        """Terms grouped by their exponents of the named variables: each tuple
        of exponents, in the order of names, maps to the polynomial in the
        other variables that multiplies it."""
        wanted = [var_index(n) for n in names]
        groups: Dict[Tuple[int, ...], Dict[int, int]] = {}
        for m, c in self.terms.items():
            exps = tuple(_exponent(m, i) for i in wanted)
            rest = m - _pack(zip(wanted, exps))
            groups.setdefault(exps, {})[rest] = c
        return {k: LaurentPoly(d) for k, d in groups.items()}

    # -- comparison / rendering ---------------------------------------------
    def key(self):
        if self._key is None:
            self._key = tuple(sorted(((mono_key(m), m, c) for m, c in self.terms.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

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


def _divide_binomial(num: Dict[int, int], divisor: Dict[int, int]):
    """num / (aX + bY) with X > Y in the integer order, both operands on the
    nonnegative cone: the quotient LaurentPoly, or None.

    Cancelling a remainder term r leaves -(c/a)*b at r - (X - Y), so the
    remainder moves only along the chain r, r - (X - Y), r - 2(X - Y), ...
    Each chain is walked from its highest numerator term down, carrying
    that term; the walk stops where the remainder is zero, and the division
    fails at the first nonzero remainder that X or a does not divide.  The
    chains fall in X's divisibility or in degree, so every walk ends."""
    (x, a), (y, b) = sorted(divisor.items(), reverse=True)
    step = x - y
    rem = dict(num)
    quot: Dict[int, int] = {}
    for m in sorted(num, reverse=True):
        if m not in rem:
            continue  # reached from a higher term of its chain
        carry = 0
        while True:
            c = rem.pop(m, 0) + carry
            if not c:
                break
            if (x - m) & _SIGNS or c % a:
                return None
            qm = m - x
            if (qm + _LIMIT_BIAS) & _SPILL:
                _check((qm,))
            qc = c // a
            quot[qm] = qc
            carry = -qc * b
            m -= step
    return LaurentPoly(quot)


def poly_pow(p: LaurentPoly, n: int) -> LaurentPoly:
    """p**n for n >= 0 by repeated squaring, started at the lowest set bit
    of n: p**1 is p itself, with no product by one; p**0 is const(1)."""
    if n < 0:
        raise DomainError("poly_pow needs n >= 0")
    if n == 0:
        return LaurentPoly.const(1)
    while not n & 1:
        p = p * p
        n >>= 1
    out = p
    while n > 1:
        p = p * p
        n >>= 1
        if n & 1:
            out = out * p
    return out


def add_shifted(acc: Dict[int, int], p: LaurentPoly, mono: int, c: int) -> None:
    """acc += c * mono * p in place, term by term, for acc a dict of terms
    and c != 0: a term that cancels leaves acc, and a new term goes to the
    end, as p + q orders its terms.  A shifted monomial beyond
    EXPONENT_LIMIT raises ExponentOverflowError, as mono_shift does, with
    one mask test over all of them after the terms are added."""
    get = acc.get
    spill = 0
    for m, x in p.terms.items():
        m += mono
        spill |= m + _LIMIT_BIAS
        x = get(m, 0) + c * x
        if x:
            acc[m] = x
        else:
            del acc[m]
    if spill & _SPILL:
        _check([m + mono for m in p.terms])
