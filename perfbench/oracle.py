"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports hilbmac.  Every quantity is written out from its
definition in exact Fraction arithmetic at a rational point, so a result of
the program is checked against a computation that shares none of its code.

Conventions (the same as the library's documentation):
  cell (i, j) of a partition, 1-based; arm a = lam_i - j, leg l = lam'_j - i,
  coarm a' = j - 1, coleg l' = i - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

Partition = Tuple[int, ...]

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def partitions(n: int, largest: int = None) -> Iterator[Partition]:
    """All partitions of n with parts <= largest, largest parts first."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(lam: Partition) -> Partition:
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0])) if lam else ()


def cells(lam: Partition) -> List[Tuple[int, int, int, int]]:
    """(arm, leg, coarm, coleg) of every cell."""
    conj = conjugate(lam)
    return [(lam[i - 1] - j, conj[j - 1] - i, j - 1, i - 1)
            for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def dominates(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order: equal weight, partial sums never smaller."""
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def z(lam: Partition) -> int:
    out = 1
    for part in set(lam):
        m = lam.count(part)
        out *= part ** m * math.factorial(m)
    return out


# ---------------------------------------------------------------------------
# canonical strings: the library's output format, parsed and evaluated here
# ---------------------------------------------------------------------------

Terms = List[Tuple[int, Tuple[Tuple[str, int], ...]]]


def _parse_poly(text: str) -> Terms:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    tokens = text.split(" ")
    signed = [("+", tokens[0])] if not tokens[0].startswith("-") else [("-", tokens[0][1:])]
    for k in range(1, len(tokens), 2):
        signed.append((tokens[k], tokens[k + 1]))
    out: Terms = []
    for sign, chunk in signed:
        coeff, mono = 1, []
        for factor in chunk.split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                name, _, exp = factor.partition("^")
                mono.append((name, int(exp) if exp else 1))
        out.append((coeff if sign == "+" else -coeff, tuple(mono)))
    return out


def parse(text: str) -> Tuple[Terms, Terms]:
    """Numerator and denominator terms of a canonical string or a Fraction's str."""
    num, _, den = text.partition("/")
    return _parse_poly(num), _parse_poly(den or "1")


def _eval_terms(terms: Terms, point: Dict[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for c, mono in terms:
        v = Fraction(c)
        for name, e in mono:
            v *= point[name] ** e
        total += v
    return total


def evaluate(parsed: Tuple[Terms, Terms], point: Dict[str, Fraction]) -> Fraction:
    num, den = parsed
    return _eval_terms(num, point) / _eval_terms(den, point)


# ---------------------------------------------------------------------------
# symmetric functions at a point
# ---------------------------------------------------------------------------


def _distinct_arrangements(values: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    if not values:
        yield ()
        return
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        for tail in _distinct_arrangements(rest):
            yield (v,) + tail


def monomial_at(mu: Partition, xs: Sequence[Fraction]) -> Fraction:
    """m_mu(x_1..x_n): the sum over distinct exponent vectors that permute mu."""
    if len(mu) > len(xs):
        return Fraction(0)
    total = Fraction(0)
    for exps in _distinct_arrangements(list(mu) + [0] * (len(xs) - len(mu))):
        v = Fraction(1)
        for x, e in zip(xs, exps):
            v *= x ** e
        total += v
    return total


def power_sum_at(kappa: Partition, xs: Sequence[Fraction]) -> Fraction:
    out = Fraction(1)
    for part in kappa:
        out *= sum(x ** part for x in xs)
    return out


def pairing_qt(f: Dict[Partition, Fraction], g: Dict[Partition, Fraction], q, t) -> Fraction:
    """<p_lam, p_mu>_{q,t} = delta z_lam prod (1 - q^{lam_i})/(1 - t^{lam_i})."""
    total = Fraction(0)
    for kappa, a in f.items():
        if kappa in g:
            v = a * g[kappa] * z(kappa)
            for part in kappa:
                v *= (1 - q ** part) / (1 - t ** part)
            total += v
    return total


def b_cells(lam: Partition, q, t) -> Fraction:
    """b_lam = prod over cells (1 - q^a t^{l+1}) / (1 - q^{a+1} t^l)."""
    out = Fraction(1)
    for a, l, _, _ in cells(lam):
        out *= (1 - q ** a * t ** (l + 1)) / (1 - q ** (a + 1) * t ** l)
    return out


def eigen_degree1(lam: Partition, q, t) -> Fraction:
    """Eigenvalue of the degree-1 operator: (q - 1)/t * sum over cells t^{-l'} q^{a'}."""
    return (q - 1) / t * sum((t ** -i * q ** j for _, _, j, i in cells(lam)), Fraction(0))


# ---------------------------------------------------------------------------
# truncated series in Q
# ---------------------------------------------------------------------------


def series_div(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    out: List[Fraction] = []
    for k in range(min(len(a), len(b))):
        out.append((a[k] - sum((b[j] * out[k - j] for j in range(1, k + 1)), Fraction(0))) / b[0])
    return out


def series_exp(a: Sequence[Fraction]) -> List[Fraction]:
    """exp of a series without constant term, by f' = a' f."""
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(sum((j * a[j] * out[k - j] for j in range(1, k + 1)), Fraction(0)) / k)
    return out


# ---------------------------------------------------------------------------
# operator eigenvalues on the cell data of mu
# ---------------------------------------------------------------------------


def _elementary(values: Sequence[Fraction], r: int) -> Fraction:
    es = [Fraction(1)] + [Fraction(0)] * r
    for w in values:
        for i in range(r, 0, -1):
            es[i] += es[i - 1] * w
    return es[r]


def eigen_stable(mu: Partition, r: int, q, t) -> Fraction:
    """e_r of the infinite alphabet {q^{mu_j} t^{-j} : j >= 1} (mu_j = 0 past the end).

    The tail {t^{-j} : j > len(mu)} contributes, by the q-binomial theorem,
    e_n = t^{-n len(mu)} t^{-n(n+1)/2} / prod_{a<=n} (1 - t^{-a}).
    """
    head = [q ** m * t ** -j for j, m in enumerate(mu, start=1)]
    total = Fraction(0)
    for n in range(r + 1):
        tail = t ** (-n * len(mu) - n * (n + 1) // 2)
        for a in range(1, n + 1):
            tail /= 1 - t ** -a
        total += _elementary(head, r - n) * tail
    return total


def _cell_weights(mu: Partition, q, t) -> List[Fraction]:
    return [t ** -i * q ** j for _, _, j, i in cells(mu)]


def eigenvalue(op: Tuple[str, int], mu: Partition, q, t) -> Fraction:
    """Eigenvalue at mu of ("E", r), ("Psi", m) or ("Lambda", m)."""
    kind, r = op
    if kind == "E":
        return eigen_stable(mu, r, q, t)
    weights = _cell_weights(mu, q, t)
    if kind == "Psi":
        return sum((w ** r for w in weights), Fraction(0))
    return _elementary(weights, r)


# ---------------------------------------------------------------------------
# defining partition sums
# ---------------------------------------------------------------------------


def bracket(word: Sequence[Tuple[str, int]], pt: Dict[str, Fraction], order: int,
            primed: bool = True) -> List[Fraction]:
    """The (u,v)-bracket by its partition sum: the Q^n coefficient is

        sum_{|mu|=n} (-u)^n a_mu prod_s (q^{a'} - v t^{l'})/(1 - t^l q^{a+1})
                                        * (t^{-l'} - u^{-1} q^{-a'})/(1 - q^{-a} t^{-(l+1)}),

    a_mu the product of the word's eigenvalues; primed divides by the bracket
    of the empty word.
    """
    q, t, u, v = pt["q"], pt["t"], pt["u"], pt["v"]
    plain, weighted = [], []
    for n in range(order + 1):
        s0 = s1 = Fraction(0)
        for mu in partitions(n):
            w = (-u) ** n
            for a, l, ap, lp in cells(mu):
                w *= (q ** ap - v * t ** lp) / (1 - t ** l * q ** (a + 1))
                w *= (t ** -lp - q ** -ap / u) / (1 - q ** -a * t ** -(l + 1))
            s0 += w
            for op in word:
                w *= eigenvalue(op, mu, q, t)
            s1 += w
        plain.append(s0)
        weighted.append(s1)
    return series_div(weighted, plain) if primed else weighted


def plane_chi(insertions: Sequence[Tuple[int, Tuple[int, int]]], twist: Tuple[int, int],
              pt: Dict[str, Fraction], order: int) -> List[Fraction]:
    """Localization sum on the plane: the Q^n coefficient is the sum over |mu| = n of

        prod_ins sum_s w_s^m  *  prod_s (1 - u t^A t1^{l'} t2^{a'})(1 - v t^{-A} t1^{-l'} t2^{-a'})
        / prod_s (1 - t1^{-l} t2^{a+1})(1 - t1^{l+1} t2^{-a}),

    with w_s = t1^{l'+a_1} t2^{a'+a_2} for an Adams insertion (m, (a_1, a_2)).
    """
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    tA = t1 ** twist[0] * t2 ** twist[1]
    out = []
    for n in range(order + 1):
        total = Fraction(0)
        for mu in partitions(n):
            cs = cells(mu)
            w = Fraction(1)
            for a, l, ap, lp in cs:
                s = t1 ** lp * t2 ** ap
                w *= (1 - u * tA * s) * (1 - v / (tA * s))
                w /= (1 - t1 ** -l * t2 ** (a + 1)) * (1 - t1 ** (l + 1) * t2 ** -a)
            for m, (a1, a2) in insertions:
                w *= sum(((t1 ** (lp + a1) * t2 ** (ap + a2)) ** m for _, _, ap, lp in cs),
                         Fraction(0))
            total += w
        out.append(total)
    return out


def plane_exp_form(twist: Tuple[int, int], pt: Dict[str, Fraction], order: int) -> List[Fraction]:
    """exp( sum_n (1 - u^n t^{nA})(1 - v^n t^{-nA}) Q^n / (n (1 - t1^n)(1 - t2^n)) )."""
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    tA = t1 ** twist[0] * t2 ** twist[1]
    log = [Fraction(0)] + [(1 - (u * tA) ** n) * (1 - (v / tA) ** n)
                           / (n * (1 - t1 ** n) * (1 - t2 ** n)) for n in range(1, order + 1)]
    return series_exp(log)
