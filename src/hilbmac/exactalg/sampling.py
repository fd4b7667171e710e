"""Seeded random rational points for evaluation-mode checks.

Evaluation-mode identity checks are probabilistic in the Schwartz-Zippel
style: they compare values at distinct random rational points, all
numerators and denominators bounded.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, Iterable

MAX_MAGNITUDE = 10 ** 6


def _dependent(x: Fraction, y: Fraction) -> bool:
    """Whether x^i = y^j for some 0 < i <= 12 and integer j (x, y > 0,
    y != 1): the candidate j/i is the fraction closest to the log ratio, and
    one exact comparison confirms it."""
    r = Fraction(math.log(x) / math.log(y)).limit_denominator(12)
    return x ** r.denominator == y ** r.numerator


class RationalSampler:
    """Deterministic stream of random rational evaluation points."""

    def __init__(self, seed: int, magnitude: int = 1000):
        if magnitude > MAX_MAGNITUDE:
            raise ValueError(f"magnitude above {MAX_MAGNITUDE}")
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
        brackets' cell weights 1 - q^a t^b."""
        out: Dict[str, Fraction] = {}
        for n in names:
            while True:
                f = self.fraction()
                if not any(_dependent(f, g) for g in out.values()):
                    out[n] = f
                    break
        return out

