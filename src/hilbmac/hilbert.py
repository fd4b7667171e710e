"""Equivariant intersection-number series on Hilbert schemes of points by
fixed-point localization.

K-theoretic Euler-characteristic series on the plane with power-operation
insertions and dual exterior-algebra twists, cohomological localization sums,
the bridge to the correlator engine, and the product formula over toric
surfaces with isolated fixed points.

Torus convention (frozen): the torus scales coordinates by inverses,
(t1, t2) . (x, y) = (t1^{-1} x, t2^{-1} y), which fixes the tangent weight
signs used everywhere below.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .correlators import (bracket_one_closed, partition_series, psi_op,
                          vertex_correlator)
from .exactalg.ratfun import (RationalFunction, exact_scalars, one_like, rf,
                              scalar_sum)
from .exactalg.series import TruncatedSeries, geometric
from .macdonald import complete_of, elementary_of
from .partitions import Partition, cells, iter_partitions

Weight = Tuple[int, int]


class HilbertError(ValueError):
    pass


@dataclass(frozen=True)
class BundleInsertion:
    """One tautological-bundle insertion with a K-theory power operation."""
    operation: str            # psi | lambda | sigma | plain
    m: int
    A: Weight

    def __post_init__(self):
        if self.operation not in ("psi", "lambda", "sigma", "plain"):
            raise HilbertError(f"unknown operation {self.operation!r}")
        if self.m < 1:
            raise HilbertError("m must be >= 1")


@dataclass(frozen=True)
class FixedPointDatum:
    """One isolated fixed point: tangent weights and line-bundle weights,
    each an exponent pair (e1, e2) for the monomial t1^e1 t2^e2."""
    tangent: Tuple[Weight, Weight]
    bundles: Dict[str, Weight] = field(default_factory=dict)


@dataclass(frozen=True)
class Surface:
    name: str
    fixed_points: Tuple[FixedPointDatum, ...]


_DATA_PATH = Path(__file__).with_name("surfaces.json")


def load_surface(name: str, path: Optional[Path] = None) -> Surface:
    data = json.loads(Path(path or _DATA_PATH).read_text())
    if name not in data:
        raise HilbertError(f"unknown surface {name!r}; have {sorted(data)}")
    return surface_from_dict(name, data[name])


def surface_from_dict(name: str, d: dict) -> Surface:
    pts = []
    for fp in d["fixed_points"]:
        tangent = tuple(tuple(w) for w in fp["tangent"])
        if len(tangent) != 2:
            raise HilbertError("each fixed point needs two tangent weights")
        if any(w == (0, 0) for w in tangent):
            raise HilbertError("tangent weights must be nonconstant monomials "
                               "(isolated fixed points)")
        bundles = {k: tuple(w) for k, w in fp.get("bundles", {}).items()}
        pts.append(FixedPointDatum(tangent=tangent, bundles=bundles))
    return Surface(name=name, fixed_points=tuple(pts))


def _mono(t1, t2, w: Weight):
    return t1 ** w[0] * t2 ** w[1]


# ---------------------------------------------------------------------------
# per-partition localization data on one chart
# ---------------------------------------------------------------------------

def tangent_denominator(lam: Partition, t1, t2):
    """prod over cells (1 - t1^{-l} t2^{a+1})(1 - t1^{l+1} t2^{-a})."""
    out = one_like(t1)
    for c in cells(lam):
        out = out * (1 - t1 ** (-c.leg) * t2 ** (c.arm + 1))
        out = out * (1 - t1 ** (c.leg + 1) * t2 ** (-c.arm))
    return out


def bundle_weights(lam: Partition, A: Weight, t1, t2) -> List:
    """Weight multiset of the rank-|lam| fiber: {t1^{l'+a} t2^{a'+b}}."""
    a, b = A
    return [t1 ** (c.coleg + a) * t2 ** (c.coarm + b) for c in cells(lam)]


def insertion_factor(ins: BundleInsertion, lam: Partition, t1, t2):
    """Character of the power operation applied to the fiber at I_lam.

    Adams operations scale exponents m-fold; exterior and symmetric powers
    are the elementary/complete symmetric functions of the finite weight
    multiset (the generating-series relations between the three families are
    a test, not the implementation).
    """
    ws = bundle_weights(lam, ins.A, t1, t2)
    if ins.operation in ("plain", "psi"):
        m = 1 if ins.operation == "plain" else ins.m
        return scalar_sum([w ** m for w in ws])
    if ins.operation == "lambda":
        return elementary_of(ws, ins.m)
    return complete_of(ws, ins.m)


def twist_factor(lam: Partition, A: Weight, u, v, t1, t2):
    """prod over cells (1 - u t^A t1^{l'} t2^{a'})(1 - v t^{-A} t1^{-l'} t2^{-a'})."""
    tA = _mono(t1, t2, A)
    out = one_like(t1)
    for c in cells(lam):
        w = t1 ** c.coleg * t2 ** c.coarm
        out = out * (1 - u * tA * w) * (1 - v * w ** (-1) / tA)
    return out


def chi_C2_series(insertions: Sequence[BundleInsertion], twist_A: Weight,
                  u, v, order: int, t1, t2) -> TruncatedSeries:
    """Euler-characteristic series on the plane by the fixed-point formula.

    Q^n coefficient: sum over |mu| = n of the insertion characters times the
    dual exterior-algebra twist over the tangent denominator.  u = v = 0
    gives the untwisted series.
    """
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)

    def term(mu: Partition):
        out = twist_factor(mu, twist_A, u, v, t1, t2) / tangent_denominator(mu, t1, t2)
        for ins in insertions:
            out = out * insertion_factor(ins, mu, t1, t2)
        return out

    return partition_series(term, order)


@dataclass
class VerifyReport:
    ok: bool
    first_mismatch: Optional[Tuple[int, object, object]] = None

    def __bool__(self):
        return self.ok


def main_identity_rhs(A: Weight, u, v, order: int, t1, t2) -> TruncatedSeries:
    """exp( sum_n (1 - u^n t^{nA})(1 - v^n t^{-nA}) Q^n / (n (1-t1^n)(1-t2^n)) ):
    the bracket <1> at (u t^A, v t^{-A}) under q = t2, t = t1^{-1}."""
    tA = _mono(t1, t2, A)
    return bracket_one_closed(u * tA, v / tA, t2, 1 / t1, order)


def verify_main_identity(A: Weight, order: int, u, v, t1, t2) -> VerifyReport:
    """Twisted series with no insertions against its exponential closed form."""
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    lhs = chi_C2_series([], A, u, v, order, t1, t2)
    rhs = main_identity_rhs(A, u, v, order, t1, t2)
    for n in range(order + 1):
        if not lhs.coeffs[n] == rhs.coeffs[n]:
            return VerifyReport(False, (n, lhs.coeffs[n], rhs.coeffs[n]))
    return VerifyReport(True)


def chi_via_correlators(insertions: Sequence[BundleInsertion], twist_A: Weight,
                        u, v, order: int, t1, t2) -> TruncatedSeries:
    """The same series through the vertex-operator engine.

    Under q = t2, t = t1^{-1} and the twisted parameters (u t^A, v t^{-A}),
    the series is the monomial prefactor prod t1^{m_j a_j} t2^{m_j b_j} times
    the unnormalized bracket of the corresponding Adams-operator word.
    Agreement with chi_C2_series is the library's central theorem check.
    """
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    for ins in insertions:
        if ins.operation not in ("psi", "plain"):
            raise HilbertError("the correlator bridge takes Adams-type insertions")
    q = t2
    t = 1 / t1
    tA = _mono(t1, t2, twist_A)
    u2 = u * tA
    v2 = v / tA
    word = []
    pref = one_like(t1)
    for ins in insertions:
        m = 1 if ins.operation == "plain" else ins.m
        word.append(psi_op(m, q, t))
        pref = pref * t1 ** (m * ins.A[0]) * t2 ** (m * ins.A[1])
    raw = vertex_correlator(word, u2, v2, q, t, order, primed=False)
    return raw * pref


# ---------------------------------------------------------------------------
# cohomological localization sums
# ---------------------------------------------------------------------------

def coh_euler_denominator(lam: Partition, w1, w2):
    """prod over cells (l w1 - (a+1) w2)(-(l+1) w1 + a w2)."""
    out = one_like(w1)
    for c in cells(lam):
        out = out * (c.leg * w1 - (c.arm + 1) * w2)
        out = out * (-(c.leg + 1) * w1 + c.arm * w2)
    return out


def coh_insertion_factor(k: int, A: Weight, lam: Partition, w1, w2):
    """(1/k!) sum over cells ((l'+a) w1 + (a'+b) w2)^k."""
    a, b = A
    vals = [(c.coleg + a) * w1 + (c.coarm + b) * w2 for c in cells(lam)]
    return scalar_sum([x ** k for x in vals]) * Fraction(1, math.factorial(k))


def coh_intersection_series(insertions: Sequence[Tuple[int, Weight]], order: int,
                            w1, w2, chern_twist: Optional[Tuple[Weight, object, object]] = None
                            ) -> TruncatedSeries:
    """Equivariant cohomological intersection series by localization.

    insertions: list of (k_j, A_j) graded-character factors.  chern_twist,
    when given, is (A, x, y): multiplies each cell by
    (x + (l'+a) w1 + (a'+b) w2)(y - (l'+a) w1 - (a'+b) w2); the interesting
    slice is then the coefficient of q^n x^n y^n.
    """
    w1, w2 = exact_scalars(w1, w2)

    def term(mu: Partition):
        out = 1 / coh_euler_denominator(mu, w1, w2) if mu else Fraction(1)
        for k, A in insertions:
            out = out * coh_insertion_factor(k, A, mu, w1, w2)
        if chern_twist is not None:
            A, x, y = chern_twist
            a, b = A
            for c in cells(mu):
                lin = (c.coleg + a) * w1 + (c.coarm + b) * w2
                out = out * (x + lin) * (y - lin)
        return out

    return partition_series(term, order)


def coh_chern_diagonal_slice(insertions: Sequence[Tuple[int, Weight]],
                             twist_A: Weight, order: int, w1, w2) -> List:
    """The diagonal marker slice of the Chern-polynomial-twisted series.

    Entry n is the coefficient of x^n y^n in the Q^n coefficient of
    coh_intersection_series(..., chern_twist=(twist_A, x, y)): the rank of
    the twisted fiber is n, so x^n y^n picks the untwisted part of the Chern
    polynomials and the slice recovers the plain localization sum.
    """
    from .exactalg.ratfun import rf_coefficient
    x, y = RationalFunction.var("x"), RationalFunction.var("y")
    series = coh_intersection_series(insertions, order, w1, w2,
                                     chern_twist=(twist_A, x, y))
    return [rf_coefficient(rf(series.coeffs[n]), {"x": n, "y": n})
            for n in range(order + 1)]


# ---------------------------------------------------------------------------
# K-theory vs cohomology jet comparison
# ---------------------------------------------------------------------------

def _one_minus_exp_over_eps(c, jet_order: int) -> TruncatedSeries:
    """(1 - exp(eps*c))/eps; constant term -c, invertible when c != 0."""
    return TruncatedSeries([-(c ** (k + 1)) * Fraction(1, math.factorial(k + 1))
                            for k in range(jet_order + 1)])


def ktheory_coh_jet_report(A1: Weight, order: int, w1: Fraction, w2: Fraction,
                           k_max: int = 3, jet_order: int = 4) -> VerifyReport:
    """Check that substituting t_i = exp(eps w_i) into the K-theoretic
    localization terms reproduces, at leading order in eps, the cohomological
    localization sums: per partition the tangent factor times eps^{2n} is a
    unit jet whose constant term is the equivariant-Euler-class reciprocal,
    and the ch_k slice of the single insertion matches the degree-k factor.
    """
    one = TruncatedSeries.constant(Fraction(1), jet_order)
    for n in range(order + 1):
        for k in range(k_max + 1):
            total_jet = TruncatedSeries.constant(Fraction(0), jet_order)
            for mu in iter_partitions(n):
                jet = one
                for c in cells(mu):
                    l1 = -c.leg * w1 + (c.arm + 1) * w2        # 1 - t1^{-l} t2^{a+1}
                    l2 = (c.leg + 1) * w1 - c.arm * w2         # 1 - t1^{l+1} t2^{-a}
                    jet = jet / _one_minus_exp_over_eps(l1, jet_order)
                    jet = jet / _one_minus_exp_over_eps(l2, jet_order)
                total_jet = total_jet + jet * coh_insertion_factor(k, A1, mu, w1, w2)
            coh = coh_intersection_series([(k, A1)], n, w1, w2).coeffs[n]
            if not total_jet.coeffs[0] == coh:
                return VerifyReport(False, (n, total_jet.coeffs[0], coh))
    return VerifyReport(True)


# ---------------------------------------------------------------------------
# toric surfaces: product of local charts with marker-graded insertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricInsertion:
    """Generating-series insertion of one bundle with a marker variable."""
    bundle: str
    kind: str      # exterior | symmetric

    def __post_init__(self):
        if self.kind not in ("exterior", "symmetric"):
            raise HilbertError(f"unknown insertion kind {self.kind!r}")


MarkerKey = Tuple[int, ...]


def _local_marker_series(point: FixedPointDatum, insertions: Sequence[ToricInsertion],
                         twist: Optional[str], u, v, order: int, t1, t2,
                         marker_cap: int) -> Dict[MarkerKey, TruncatedSeries]:
    """One chart's series, graded by marker exponents up to total degree cap."""
    t1i = _mono(t1, t2, point.tangent[0])
    t2i = _mono(t1, t2, point.tangent[1])
    if twist is None:
        twist_w = (0, 0)
    else:
        if twist not in point.bundles:
            raise HilbertError(f"missing bundle weight {twist!r} at a fixed point")
        twist_w = point.bundles[twist]
    tA = _mono(t1, t2, twist_w)
    u2, v2 = u * tA, v / tA
    zero = t1 * 0
    out: Dict[MarkerKey, List] = {}
    for n in range(order + 1):
        for mu in iter_partitions(n):
            base = twist_factor(mu, (0, 0), u2, v2, t1i, t2i) / tangent_denominator(mu, t1i, t2i)
            cell_ws = [t1i ** c.coleg * t2i ** c.coarm for c in cells(mu)]
            per_bundle: List[List] = []
            for ins in insertions:
                if ins.bundle not in point.bundles:
                    raise HilbertError(f"missing bundle weight {ins.bundle!r} at a fixed point")
                wB = _mono(t1, t2, point.bundles[ins.bundle])
                ws = [wB * w for w in cell_ws]
                fn = elementary_of if ins.kind == "exterior" else complete_of
                per_bundle.append([fn(ws, kk) for kk in range(marker_cap + 1)])
            for key in _marker_keys(len(insertions), marker_cap):
                factor = base
                for j, kj in enumerate(key):
                    if kj:
                        factor = factor * per_bundle[j][kj]
                tgt = out.setdefault(key, [zero] * (order + 1))
                tgt[n] = tgt[n] + factor
    return {k: TruncatedSeries(v) for k, v in out.items()}


def _marker_keys(n_markers: int, cap: int) -> List[MarkerKey]:
    if n_markers == 0:
        return [()]
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], remaining - 1, budget - k)

    rec([], n_markers, cap)
    return sorted(out)


def toric_chi_series(surface: Surface, insertions: Sequence[ToricInsertion],
                     twist: Optional[str], u, v, order: int, t1, t2,
                     marker_cap: int = 2) -> Dict[MarkerKey, TruncatedSeries]:
    """Product over fixed points of local chart series, graded by the marker
    exponents of the generating-series insertions."""
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    total: Dict[MarkerKey, TruncatedSeries] = {
        (0,) * len(insertions): TruncatedSeries.constant(one_like(t1), order)}
    for point in surface.fixed_points:
        local = _local_marker_series(point, insertions, twist, u, v, order, t1, t2, marker_cap)
        new: Dict[MarkerKey, TruncatedSeries] = {}
        for ka, sa in total.items():
            for kb, sb in local.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                if sum(key) > marker_cap:
                    continue
                prod = sa * sb
                if key in new:
                    new[key] = new[key] + prod
                else:
                    new[key] = prod
        total = new
    return total


def chi_surface(surface: Surface, bundle: Optional[str], t1, t2, square: bool = False,
                extra=None):
    """chi(X, L)(t1, t2) by surface-level localization; with square=True all
    weights are evaluated at (t1^2, t2^2).  extra(point, t1i, t2i) multiplies
    per-point factors in (e.g. symmetric-power twists)."""
    pieces = []
    for point in surface.fixed_points:
        s1, s2 = (t1, t2)
        t1i = _mono(s1, s2, point.tangent[0])
        t2i = _mono(s1, s2, point.tangent[1])
        if square:
            t1i, t2i = t1i ** 2, t2i ** 2
        w = one_like(t1)
        if bundle is not None:
            w = _mono(t1, t2, point.bundles[bundle])
            if square:
                w = w ** 2
        term = w / ((1 - t1i) * (1 - t2i))
        if extra is not None:
            term = term * extra(point, t1i, t2i)
        pieces.append(term)
    return scalar_sum(pieces)


@dataclass
class ToricCheckReport:
    details: Dict[str, str]      # check name -> "ok" | "MISMATCH"

    @property
    def ok(self) -> bool:
        return all(status == "ok" for status in self.details.values())


def toric_correlator_checks(surface: Surface, order: int, u, v, t1, t2) -> ToricCheckReport:
    """Equivariant identities for the marker slices of the twisted toric series.

    The dual-twist bundle is taken equivariantly trivial; L1, L2 are the
    bundle labels of the surface data.  Checks:
      (a) the x1 slice of the ratio equals Q(1-u)(1-v)/(1-uQ) chi(X, L1);
      (b) the x1 x2 slice equals the product of two (a)-factors plus the
          connected term with the symmetric-power twisted chi, and the
          connected part isolates that term;
      (c) the x1^2 slice equals the four-term expression with the squared-
          parameter chi(X, L1)(t1^2, t2^2) and the sign-flipped symmetric
          power slice;
      plus the exponential product formula for the no-insertion series.
    """
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    L1, L2 = "L1", "L2"
    zero = u * 0
    one = TruncatedSeries.constant(one_like(u), order)
    geo_uQ = geometric(u, order)                                          # 1/(1-uQ)
    Q = TruncatedSeries.gen(order, zero)
    pref1 = Q * (1 - u) * (1 - v) * geo_uQ                                # Q(1-u)(1-v)/(1-uQ)
    one_minus = one - pref1
    qpref = Q * (1 - TruncatedSeries.gen(order, zero)) * (1 - u) * (1 - v) \
        * (one - Q * (u * v)) * geo_uQ * geo_uQ

    graded = toric_chi_series(surface, [ToricInsertion(L1, "exterior"),
                                        ToricInsertion(L2, "exterior")],
                              None, u, v, order, t1, t2, marker_cap=2)
    base = graded[(0, 0)]
    r_x1 = graded[(1, 0)] / base
    r_x2 = graded[(0, 1)] / base
    r_x1x2 = graded[(1, 1)] / base
    r_x1sq = graded[(2, 0)] / base

    chiL1 = chi_surface(surface, L1, t1, t2)
    chiL2 = chi_surface(surface, L2, t1, t2)

    # (a)
    rhs_a = pref1 * chiL1
    lambda1_ok = (r_x1 == rhs_a)

    # (b): chi(X, L1 L2 S_{uQ}T*X) expands each cotangent factor geometrically
    def suq_extra(point, t1i, t2i):
        g1 = geometric(u * t1i, order)
        g2 = geometric(u * t2i, order)
        w2 = _mono(t1, t2, point.bundles[L2])
        return g1 * g2 * w2
    chi_12_suq = chi_surface(surface, L1, t1, t2, extra=suq_extra)
    conn_term = qpref * chi_12_suq
    rhs_b = pref1 * chiL1 * pref1 * chiL2 + conn_term
    lambda11_ok = (r_x1x2 == rhs_b)
    connected_ok = (r_x1x2 - r_x1 * r_x2 == conn_term)

    # (c): four-term identity (the closed form of twice the weight-2
    # exterior bracket absorbs the symmetric-power-only term)
    chiL1_sq = chi_surface(surface, L1, t1, t2, square=True)
    T1 = pref1 * chiL1 * pref1 * chiL1 * Fraction(1, 2)
    T2 = TruncatedSeries.constant(-chiL1_sq * Fraction(1, 2), order)
    T3 = one_minus * one_minus * chiL1_sq * Fraction(1, 2)

    def lam2_extra(point, t1i, t2i):
        g1 = geometric(u * t1i, order)
        g2 = geometric(u * t2i, order)
        w1b = _mono(t1, t2, point.bundles[L1])
        kan = t1i * t2i
        sminus = 1 / ((1 + t1i) * (1 + t2i))
        canonical = one + Q * (u * kan)
        return g1 * g2 * canonical * (w1b * sminus)
    T4 = qpref * chi_surface(surface, L1, t1, t2, extra=lam2_extra)
    rhs_c = T1 + T2 + T3 + T4
    lambda2_ok = (r_x1sq == rhs_c)

    # exponential product formula for the untwisted-insertion denominator:
    # one bracket <1> per chart, with q = t2i and t = t1i^{-1}
    product = one
    for point in surface.fixed_points:
        t1i = _mono(t1, t2, point.tangent[0])
        t2i = _mono(t1, t2, point.tangent[1])
        product = product * bracket_one_closed(u, v, t2i, 1 / t1i, order)
    denominator_ok = (base == product)

    return ToricCheckReport({
        name: "ok" if ok else "MISMATCH"
        for name, ok in (("lambda1", lambda1_ok), ("lambda11", lambda11_ok),
                         ("connected", connected_ok), ("lambda2", lambda2_ok),
                         ("denominator_formula", denominator_ok))})
