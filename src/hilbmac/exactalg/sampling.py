"""Seeded random rational points and evaluation-mode identity checking.

Identity checking between rational functions is probabilistic in the
Schwartz-Zippel style: equality is declared only after a configurable
number of agreeing evaluations at distinct random rational points (all
numerators and denominators bounded), with pole hits retried elsewhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterable, Optional

from .ratfun import PoleError, RationalFunction

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


def equal_by_evaluation(f: RationalFunction, g: RationalFunction,
                        sampler: RationalSampler, trials: int = 3,
                        names: Optional[Iterable[str]] = None) -> bool:
    """True iff f and g agree at `trials` random pole-free points.

    One-sided error: a True verdict is probabilistic, False is certain.
    """
    if names is None:
        names = sorted(set(f.variables()) | set(g.variables()))
    names = list(names)
    agreed = 0
    attempts = 0
    while agreed < trials:
        attempts += 1
        if attempts > 50 * trials:
            raise PoleError("persistent poles while sampling")
        pt = sampler.point(names)
        try:
            if f.eval(pt) != g.eval(pt):
                return False
        except PoleError:
            continue
        agreed += 1
    return True
