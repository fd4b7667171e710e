"""Seeded random rational points for evaluation-mode checks.

Evaluation-mode identity checks are probabilistic in the Schwartz-Zippel
style: they compare values at distinct random rational points, all
numerators and denominators bounded.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterable

MAX_MAGNITUDE = 10 ** 6


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
        out = {}
        used = set()
        for n in names:
            while True:
                f = self.fraction()
                if f not in used:
                    used.add(f)
                    out[n] = f
                    break
        return out

