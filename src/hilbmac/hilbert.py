"""Equivariant intersection-number series on Hilbert schemes of points by
fixed-point localization.

K-theoretic Euler-characteristic series on the plane with power-operation
insertions and dual exterior-algebra twists, the bridge to the correlator
engine, and the product formula over toric surfaces with isolated fixed
points.

Torus convention (frozen): the torus scales coordinates by inverses,
(t1, t2) . (x, y) = (t1^{-1} x, t2^{-1} y), which fixes the tangent weight
signs used everywhere below.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .correlators import (bracket_one_closed, chart_series, power_op,
                          vertex_correlator)
from .exactalg import (HilbmacError, exact_scalars, one_like, power_ratio, rational_scalars,
                       scalar_sum)
from .exactalg.series import TruncatedSeries, first_difference, geometric
from .macdonald import POWER_OPERATIONS
from .partitions import LazyTable, Partition

Weight = Tuple[int, int]


class HilbertError(HilbmacError, ValueError):
    pass


@dataclass(frozen=True)
class BundleInsertion:
    """One tautological-bundle insertion with a K-theory power operation:
    the Adams operation psi^m, the exterior power lambda^m or the symmetric
    power sigma^m of the bundle with weight shift A (psi^1 is the bundle)."""
    operation: str            # psi | lambda | sigma
    m: int
    A: Weight

    def __post_init__(self):
        if self.operation not in POWER_OPERATIONS:
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


def _weight(w, what: str) -> Weight:
    """A weight read from surface data: a pair of ints (bools refused)."""
    if not (isinstance(w, (list, tuple)) and len(w) == 2
            and all(isinstance(e, int) and not isinstance(e, bool) for e in w)):
        raise HilbertError(f"{what} must be a pair of ints, got {w!r}")
    return tuple(w)


def surface_from_dict(name: str, d: dict) -> Surface:
    if "fixed_points" not in d:
        raise HilbertError(f"surface {name!r} has no fixed_points")
    pts = []
    for fp in d["fixed_points"]:
        tangent = tuple(_weight(w, "tangent weight") for w in fp.get("tangent", ()))
        if len(tangent) != 2:
            raise HilbertError("each fixed point needs two tangent weights")
        if any(w == (0, 0) for w in tangent):
            raise HilbertError("tangent weights must be nonconstant monomials "
                               "(isolated fixed points)")
        bundles = {k: _weight(w, f"bundle weight {k!r}")
                   for k, w in fp.get("bundles", {}).items()}
        pts.append(FixedPointDatum(tangent=tangent, bundles=bundles))
    return Surface(name=name, fixed_points=tuple(pts))


def _mono(t1, t2, w: Weight):
    """t1^w1 t2^w2: at ints and Fractions one Fraction from power_ratio's
    integer powers; any other ring forms it as written."""
    if rational_scalars((t1, t2)):
        return Fraction(*power_ratio((t1, w[0]), (t2, w[1])))
    return t1 ** w[0] * t2 ** w[1]


def _bundle(point: FixedPointDatum, name: str) -> Weight:
    if name not in point.bundles:
        raise HilbertError(f"missing bundle weight {name!r} at a fixed point")
    return point.bundles[name]


# ---------------------------------------------------------------------------
# the affine chart
# ---------------------------------------------------------------------------

def _bundle_weights(A: Weight, t1, t2) -> LazyTable:
    """(a', l') -> the cell's fiber weight t1^{l'+a} t2^{a'+b}, A = (a, b),
    made as _mono makes it."""
    a, b = A
    return LazyTable(lambda coarm, coleg: _mono(t1, t2, (coleg + a, coarm + b)))


def chi_C2_series(insertions: Sequence[BundleInsertion], twist_A: Weight,
                  u, v, order: int, t1, t2) -> TruncatedSeries:
    """Euler-characteristic series on the plane by the fixed-point formula.

    Q^n coefficient: sum over |mu| = n of the insertion characters times the
    dual exterior-algebra twist over the tangent denominator.  u = v = 0
    gives the untwisted series.

    This is correlators.chart_series on the chart (t1, t2) with the twist
    (u t^A, v t^{-A}) and the insertions' characters as the factors of mu:
    each insertion's power-sum, elementary or complete symmetric function of
    the fiber weights t1^{l'+a} t2^{a'+b}, each weight computed once per
    call for each (a', l').
    """
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    tA = _mono(t1, t2, twist_A)
    fibers = [(POWER_OPERATIONS[ins.operation][0], ins.m, _bundle_weights(ins.A, t1, t2))
              for ins in insertions]

    def characters(mu: Partition, cs):
        return {(): [cell_function([weights[c.coarm, c.coleg] for c in cs], m)
                     for cell_function, m, weights in fibers]}

    return chart_series(t1, t2, u * tA, v / tA, order, characters)[()]


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
    n = first_difference(lhs, rhs)
    if n is None:
        return VerifyReport(True)
    return VerifyReport(False, (n, lhs.coeffs[n], rhs.coeffs[n]))


def chi_via_correlators(insertions: Sequence[BundleInsertion], twist_A: Weight,
                        u, v, order: int, t1, t2) -> TruncatedSeries:
    """The same series through the vertex-operator engine.

    Under q = t2, t = t1^{-1} and the twisted parameters (u t^A, v t^{-A}),
    the series is the monomial prefactor prod t1^{m_j a_j} t2^{m_j b_j} times
    the unnormalized bracket of the word of the insertions' operators
    Psi^m, Lambda^m, Sigma^m: the fiber weights are t1^a t2^b times the cell
    multiset, and each of p_m, e_m, h_m of that shift is t1^{ma} t2^{mb}
    times its value on the cells.  Agreement with chi_C2_series is the
    library's central theorem check.
    """
    u, v, t1, t2 = exact_scalars(u, v, t1, t2)
    q = t2
    t = 1 / t1
    tA = _mono(t1, t2, twist_A)
    u2 = u * tA
    v2 = v / tA
    word = []
    pref = one_like(t1)
    for ins in insertions:
        word.append(power_op(ins.operation, ins.m, q, t))
        pref = pref * t1 ** (ins.m * ins.A[0]) * t2 ** (ins.m * ins.A[1])
    raw = vertex_correlator(word, u2, v2, q, t, order, primed=False)
    return raw * pref


# ---------------------------------------------------------------------------
# toric surfaces: product of local charts with marker-graded insertions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricInsertion:
    """Generating-series insertion of one bundle with a marker variable."""
    bundle: str
    operation: str      # lambda | sigma

    def __post_init__(self):
        if self.operation not in ("lambda", "sigma"):
            raise HilbertError(f"unknown insertion operation {self.operation!r}")


MarkerKey = Tuple[int, ...]


def _local_marker_series(point: FixedPointDatum, insertions: Sequence[ToricInsertion],
                         twist: Optional[str], u, v, order: int, t1, t2,
                         marker_cap: int) -> Dict[MarkerKey, TruncatedSeries]:
    """One chart's series, graded by marker exponents up to total degree cap:
    correlators.chart_series at the point's tangent weights, one key per
    marker exponent, whose factors are the insertions' characters of the
    fiber weights w_B t1i^{l'} t2i^{a'}, each one Fraction from power_ratio
    at ints and Fractions."""
    t1i = _mono(t1, t2, point.tangent[0])
    t2i = _mono(t1, t2, point.tangent[1])
    tA = _mono(t1, t2, (0, 0) if twist is None else _bundle(point, twist))
    rational = rational_scalars((t1, t2))
    fibers = []
    for ins in insertions:
        wB = _mono(t1, t2, _bundle(point, ins.bundle))
        if rational:
            weights = LazyTable(lambda coarm, coleg, wB=wB: Fraction(
                *power_ratio((wB, 1), (t1i, coleg), (t2i, coarm))))
        else:
            weights = LazyTable(lambda coarm, coleg, wB=wB: wB * t1i ** coleg * t2i ** coarm)
        fibers.append((POWER_OPERATIONS[ins.operation][0], weights))
    keys = _marker_keys(len(insertions), marker_cap)

    def characters(mu: Partition, cs):
        per_bundle = []
        for cell_function, weights in fibers:
            ws = [weights[c.coarm, c.coleg] for c in cs]
            per_bundle.append({k: cell_function(ws, k) for k in range(1, marker_cap + 1)})
        return {key: [per_bundle[j][kj] for j, kj in enumerate(key) if kj] for key in keys}

    return chart_series(t1i, t2i, u * tA, v / tA, order, characters)


def _marker_keys(n_markers: int, cap: int) -> List[MarkerKey]:
    return [key for key in itertools.product(range(cap + 1), repeat=n_markers)
            if sum(key) <= cap]


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


def chi_surface(surface: Surface, bundle: Optional[str], t1, t2, extra=None):
    """chi(X, L)(t1, t2) by surface-level localization.  extra(point, t1i,
    t2i) multiplies per-point factors in (e.g. symmetric-power twists)."""
    pieces = []
    for point in surface.fixed_points:
        t1i = _mono(t1, t2, point.tangent[0])
        t2i = _mono(t1, t2, point.tangent[1])
        w = one_like(t1)
        if bundle is not None:
            w = _mono(t1, t2, _bundle(point, bundle))
        term = w / ((1 - t1i) * (1 - t2i))
        if extra is not None:
            term = term * extra(point, t1i, t2i)
        pieces.append(term)
    return scalar_sum(pieces)


#: the identities toric_correlator_checks reports, in report order
TORIC_CHECKS = ("lambda1", "lambda11", "connected", "lambda2", "denominator_formula")


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

    graded = toric_chi_series(surface, [ToricInsertion(L1, "lambda"),
                                        ToricInsertion(L2, "lambda")],
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
        w2 = _mono(t1, t2, _bundle(point, L2))
        return g1 * g2 * w2
    chi_12_suq = chi_surface(surface, L1, t1, t2, extra=suq_extra)
    conn_term = qpref * chi_12_suq
    rhs_b = pref1 * chiL1 * pref1 * chiL2 + conn_term
    lambda11_ok = (r_x1x2 == rhs_b)
    connected_ok = (r_x1x2 - r_x1 * r_x2 == conn_term)

    # (c): four-term identity (the closed form of twice the weight-2
    # exterior bracket absorbs the symmetric-power-only term)
    chiL1_sq = chi_surface(surface, L1, t1 ** 2, t2 ** 2)
    T1 = pref1 * chiL1 * pref1 * chiL1 * Fraction(1, 2)
    T2 = TruncatedSeries.constant(-chiL1_sq * Fraction(1, 2), order)
    T3 = one_minus * one_minus * chiL1_sq * Fraction(1, 2)

    def lam2_extra(point, t1i, t2i):
        g1 = geometric(u * t1i, order)
        g2 = geometric(u * t2i, order)
        w1b = _mono(t1, t2, _bundle(point, L1))
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

    oks = (lambda1_ok, lambda11_ok, connected_ok, lambda2_ok, denominator_ok)
    return ToricCheckReport({name: "ok" if ok else "MISMATCH"
                             for name, ok in zip(TORIC_CHECKS, oks)})
