"""Partitions, Young-diagram cell statistics, and two classical q-series checks.

The checks compare partition sums (hook lengths, counts) with Euler products
prod (1 - q^n)^alpha, expanded once as the exponential of their logarithm.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the partition of 0.  Enumeration order is reverse-lexicographic
(largest first part first), frozen so that every series summation in the
library is deterministic.  Cells are iterated row-major, 1-indexed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .exactalg.poly import DomainError
from .exactalg.series import TruncatedSeries

Partition = Tuple[int, ...]


class CellStat(NamedTuple):
    """Arm/leg/coarm/coleg of one cell (i, j) of a Young diagram.

    a = lam_i - j, l = lam^t_j - i, a' = j - 1, l' = i - 1; hook = a + l + 1.
    """
    i: int
    j: int
    arm: int
    leg: int
    coarm: int
    coleg: int

    @property
    def hook(self) -> int:
        return self.arm + self.leg + 1


def is_partition(parts) -> bool:
    parts = tuple(parts)
    return all(isinstance(p, int) and not isinstance(p, bool) and p >= 1 for p in parts) and \
        all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def iter_partitions(n: int) -> Iterator[Partition]:
    """Yield partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise DomainError("n must be nonnegative")

    def gen(m: int, maxpart: int) -> Iterator[Partition]:
        if m == 0:
            yield ()
            return
        for first in range(min(m, maxpart), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest

    yield from gen(n, n if n else 1)


def enumerate_partitions(n: int) -> List[Partition]:
    return list(iter_partitions(n))


def partitions_upto(n: int) -> List[Partition]:
    """All partitions of weight 0..n, ordered by weight then reverse-lex."""
    out: List[Partition] = []
    for m in range(n + 1):
        out.extend(iter_partitions(m))
    return out


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def cells(lam: Partition) -> List[CellStat]:
    """Row-major list of the statistics of every cell of the diagram."""
    conj = conjugate(lam)
    out: List[CellStat] = []
    for i, p in enumerate(lam, start=1):
        for j in range(1, p + 1):
            out.append(CellStat(i, j, p - j, conj[j - 1] - i, j - 1, i - 1))
    return out


class LazyTable(dict):
    """Values of formula at int keys, each computed on its first lookup and
    kept as long as the table: a cell's (arm, leg) or (coarm, coleg) pair
    gives formula(*key), a part size or degree k gives formula(k).  A table
    belongs to one call or one operator; the partition sums look up a cell
    factor once per distinct pair, not once per cell."""

    def __init__(self, formula: Callable):
        super().__init__()
        self._formula = formula

    def __missing__(self, key):
        value = self[key] = (self._formula(*key) if isinstance(key, tuple)
                             else self._formula(key))
        return value


def hooks(lam: Partition) -> List[int]:
    return [c.hook for c in cells(lam)]


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order (same weight assumed)."""
    if sum(lam) != sum(mu):
        return False
    pl = pm = 0
    for i in range(max(len(lam), len(mu))):
        pl += lam[i] if i < len(lam) else 0
        pm += mu[i] if i < len(mu) else 0
        if pl < pm:
            return False
    return True


def multiplicities(lam: Partition) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def z_factor(lam: Partition) -> int:
    """z_lam = prod_i i^{m_i} m_i! over part multiplicities m_i."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part ** m * math.factorial(m)
    return z


def multiplicity_factorial(lam: Sequence) -> int:
    """prod_i m_i! over the multiplicities m_i of lam's entries."""
    return math.prod(math.factorial(m) for m in multiplicities(lam).values())


def set_partitions(items: Sequence) -> Iterator[List[Tuple]]:
    """Yield every set partition of items as a list of blocks (tuples shared
    between the partitions yielded): each partition of items[1:] with items[0]
    as a block of its own, then with items[0] put in front of each block."""
    items = tuple(items)
    if not items:
        yield []
        return
    first = items[0]
    for part in set_partitions(items[1:]):
        yield [(first,)] + part
        for i, block in enumerate(part):
            yield part[:i] + [(first,) + block] + part[i + 1:]


def set_partition_moebius(k: int) -> int:
    """mu_k = (-1)^{k-1} (k-1)!: the Moebius function of the set-partition
    lattice from a partition with k blocks up to the one-block partition."""
    return (-1) ** (k - 1) * math.factorial(k - 1)


def partition_counts(n: int) -> List[int]:
    """p(0..n) via Euler's pentagonal recurrence."""
    p = [0] * (n + 1)
    p[0] = 1
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def _euler_product(alpha: Fraction, N: int) -> List[Fraction]:
    """Coefficients of prod_{n>=1} (1 - q^n)^alpha to q^N, computed as
    exp(-alpha sum_{n,k>=1} q^{nk}/k)."""
    log = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        for k in range(1, N // n + 1):
            log[n * k] -= alpha / k
    return list(TruncatedSeries(log).exp().coeffs)


def nekrasov_okounkov_check(m, N: int) -> bool:
    """Hook-length series vs Euler-product side, compared to order N.

    Left: sum over partitions of q^{|lam|} prod (h^2 - m^2)/h^2.
    Right: prod_{n>=1} (1 - q^n)^{m^2 - 1}.  m is a rational parameter.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    m = Fraction(m)
    m2 = m * m
    lhs = [Fraction(0)] * (N + 1)
    for n in range(N + 1):
        for lam in iter_partitions(n):
            term = Fraction(1)
            for h in hooks(lam):
                term *= Fraction(h * h) - m2
                term /= h * h
            lhs[n] += term
    return lhs == _euler_product(m2 - 1, N)


def goettsche_count_check(N: int) -> bool:
    """Partition counts by enumeration and by Euler's pentagonal recurrence
    match the coefficients of prod (1-q^n)^{-1} up to q^N."""
    series = _euler_product(Fraction(-1), N)
    counts = partition_counts(N)
    return all(series[n] == counts[n] and counts[n] == len(enumerate_partitions(n))
               for n in range(N + 1))
