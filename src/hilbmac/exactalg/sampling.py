"""Seeded random rational points for evaluation-mode checks.

Evaluation-mode identity checks are probabilistic in the Schwartz-Zippel
style: they compare values at distinct random rational points, all
numerators and denominators bounded.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, Iterable, Iterator

from .poly import DomainError

MAX_MAGNITUDE = 10 ** 6


def _dependent(x: Fraction, y: Fraction) -> bool:
    """Whether x^i = y^j for some 0 < i <= 12 and integer j (x, y > 0,
    y != 1): the candidate j/i is the fraction closest to the log ratio, and
    one exact comparison confirms it."""
    r = Fraction(math.log(x) / math.log(y)).limit_denominator(12)
    return x ** r.denominator == y ** r.numerator


class RationalSampler:
    """Deterministic stream of random rational evaluation points.
    Numerators and denominators are drawn from [2, magnitude], so below 3
    every draw would be 1."""

    def __init__(self, seed: int, magnitude: int = 1000):
        if not 3 <= magnitude <= MAX_MAGNITUDE:
            raise DomainError(f"magnitude outside [3, {MAX_MAGNITUDE}]")
        self.rng = random.Random(seed)
        self.magnitude = magnitude

    def fraction(self) -> Fraction:
        """Nonzero rational distinct from 1 (avoids the ubiquitous q=1 poles)."""
        while True:
            n = self.rng.randint(2, self.magnitude)
            d = self.rng.randint(2, self.magnitude)
            f = Fraction(n, d)
            if f != 1:
                return f

    def point(self, names: Iterable[str]) -> Dict[str, Fraction]:
        """One value per name.  A value multiplicatively dependent on an
        earlier one (equal to it, say) is drawn again: a monomial
        x^i y^-j = 1 in two coordinates would put the point on a pole of the
        brackets' cell weights 1 - q^a t^b.  Raises DomainError when no value
        within the magnitude is independent of the earlier ones."""
        out: Dict[str, Fraction] = {}
        for n in names:
            f = self.fraction()
            while any(_dependent(f, g) for g in out.values()):
                if all(any(_dependent(c, g) for g in out.values()) for c in self._values()):
                    raise DomainError(f"no value up to magnitude {self.magnitude} is "
                                      f"independent of {', '.join(map(str, out.values()))}")
                f = self.fraction()
            out[n] = f
        return out

    def _values(self) -> Iterator[Fraction]:
        """Every value fraction() can draw."""
        return (Fraction(n, d) for n in range(2, self.magnitude + 1)
                for d in range(2, self.magnitude + 1) if n != d)

