import json
from fractions import Fraction

import pytest

from hilbmac.correlators import (bracket_bruteforce, bracket_one_closed, closed_form_series,
                                 tilde_e_op, vertex_correlator, vertex_tilde_bracket)
from hilbmac.exactalg import HilbmacError, RationalSampler, generators
from hilbmac.hilbert import (BundleInsertion, HilbertError, ToricInsertion,
                             chi_C2_series, chi_surface,
                             chi_via_correlators, load_surface, main_identity_rhs,
                             surface_from_dict,
                             toric_chi_series, toric_correlator_checks,
                             verify_main_identity)
from hilbmac.partitions import iter_partitions
from oracles import bundle_weights, insertion_factor, tangent_denominator

t1s, t2s, us, vs = generators("t1", "t2", "u", "v")


@pytest.fixture(scope="module")
def pt():
    return RationalSampler(202, magnitude=30).point(["t1", "t2", "u", "v"])


# ---------------------------------------------------------------------------
# the affine chart
# ---------------------------------------------------------------------------

def test_single_box_untwisted(pt):
    t1, t2 = pt["t1"], pt["t2"]
    ser = chi_C2_series([], (0, 0), Fraction(0), Fraction(0), 1, t1, t2)
    assert ser.coeffs[0] == 1
    assert ser.coeffs[1] == 1 / ((1 - t1) * (1 - t2))


def test_single_box_with_plain_insertion(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    A1, A = (2, -1), (0, 1)
    ser = chi_C2_series([BundleInsertion("psi", 1, A1)], A, u, v, 1, t1, t2)
    tA = t2
    expect = t1 ** 2 * t2 ** -1 * (1 - u * tA) * (1 - v / tA) / ((1 - t1) * (1 - t2))
    assert ser.coeffs[1] == expect


def test_untwisted_series_matches_direct_sum(pt):
    """u = v = 0 reproduces the plain holomorphic-Lefschetz sums."""
    t1, t2 = pt["t1"], pt["t2"]
    ins = [BundleInsertion("psi", 1, (1, 0)), BundleInsertion("psi", 2, (0, 1))]
    ser = chi_C2_series(ins, (3, 3), Fraction(0), Fraction(0), 4, t1, t2)
    for n in range(5):
        direct = Fraction(0)
        for mu in iter_partitions(n):
            if not mu:
                continue   # rank-0 fibers have vanishing insertion characters
            term = 1 / tangent_denominator(mu, t1, t2)
            f1 = sum(w for w in bundle_weights(mu, (1, 0), t1, t2))
            f2 = sum(w ** 2 for w in bundle_weights(mu, (0, 1), t1, t2))
            direct += term * f1 * f2
        assert ser.coeffs[n] == direct, n


def test_newton_relations_between_power_operations(pt):
    """The Adams/exterior/symmetric insertion characters satisfy the Newton
    generating-series identities on every fixed-point weight multiset."""
    t1, t2 = pt["t1"], pt["t2"]
    A = (1, -1)
    for mu in [(1,), (2, 1), (3, 1, 1), (2, 2)]:
        psi = {m: insertion_factor(BundleInsertion("psi", m, A), mu, t1, t2)
               for m in range(1, 4)}
        lam = {m: insertion_factor(BundleInsertion("lambda", m, A), mu, t1, t2)
               for m in range(1, 4)}
        sig = {m: insertion_factor(BundleInsertion("sigma", m, A), mu, t1, t2)
               for m in range(1, 4)}
        lam[0] = sig[0] = Fraction(1)
        # p_m = sum_{i<m} (-1)^{i+1} e_i p_{m-i} + (-1)^{m+1} m e_m
        for m in range(1, 4):
            rhs = sum((-1) ** (i + 1) * lam[i] * psi[m - i] for i in range(1, m)) \
                + (-1) ** (m + 1) * m * lam[m]
            assert psi[m] == rhs, ("newton-e", m, mu)
        # h_m = (1/m) sum_{i=1..m} p_i h_{m-i}
        for m in range(1, 4):
            rhs = sum(psi[i] * sig[m - i] for i in range(1, m + 1)) / m
            assert sig[m] == rhs, ("newton-h", m, mu)


def test_main_identity_examples(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    for A in [(0, 0), (1, 0), (2, -1)]:
        assert verify_main_identity(A, 4, u, v, t1, t2).ok, A


def test_main_identity_symbolic_small():
    assert verify_main_identity((0, 0), 3, us, vs, t1s, t2s).ok


def test_main_identity_report_contains_counterexample(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    lhs = chi_C2_series([], (1, 0), u, v, 3, t1, t2)
    rhs = main_identity_rhs((0, 0), u, v, 3, t1, t2)  # mismatched weight
    assert not (lhs == rhs)


# ---------------------------------------------------------------------------
# the correlator bridge
# ---------------------------------------------------------------------------

def test_central_bridge_cases(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    cases = [
        ([BundleInsertion("psi", 1, (0, 0))], (0, 0)),
        ([BundleInsertion("psi", 2, (1, 0))], (0, 1)),
        ([BundleInsertion("psi", 1, (1, 1))], (1, 0)),
        ([BundleInsertion("psi", 1, (1, 0)), BundleInsertion("psi", 2, (0, 1))], (1, 1)),
        ([BundleInsertion("lambda", 2, (0, 0))], (0, 0)),
        ([BundleInsertion("sigma", 2, (1, 0))], (1, 0)),
        ([BundleInsertion("lambda", 1, (1, 0)), BundleInsertion("sigma", 2, (0, 0))], (1, 0)),
    ]
    for ins, A in cases:
        lhs = chi_C2_series(ins, A, u, v, 4, t1, t2)
        rhs = chi_via_correlators(ins, A, u, v, 4, t1, t2)
        assert lhs == rhs, (ins, A)


def test_localization_cell_tables_against_the_bridge_at_order_6():
    """At order 6 many cells share (a, l) but not (a', l'), and the reverse,
    so a tangent or twist factor stored under the wrong key changes the sum.
    Two seeded points in one process: each call builds its own tables."""
    ins = [BundleInsertion("psi", 2, (1, 0)), BundleInsertion("lambda", 1, (0, 1))]
    for seed in (47, 53):
        p = RationalSampler(seed, magnitude=30).point(["t1", "t2", "u", "v"])
        t1, t2, u, v = p["t1"], p["t2"], p["u"], p["v"]
        assert chi_C2_series(ins, (1, -1), u, v, 6, t1, t2) == \
            chi_via_correlators(ins, (1, -1), u, v, 6, t1, t2), seed


def test_plain_operation_is_gone():
    """The bundle itself is psi^1; there is no separate operation for it."""
    with pytest.raises(HilbertError):
        BundleInsertion("plain", 1, (0, 0))


def test_psi1_closed_form_times_normalization(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    q, t = t2, 1 / t1
    cf = closed_form_series("Psi1", 3, {"q": q, "t": t, "u": u, "v": v})
    prod = cf * bracket_one_closed(u, v, q, t, 3)
    direct = chi_C2_series([BundleInsertion("psi", 1, (0, 0))], (0, 0),
                           u, v, 3, t1, t2)
    assert prod == direct


# ---------------------------------------------------------------------------
# toric surfaces
# ---------------------------------------------------------------------------

def test_surface_loading_and_errors():
    with pytest.raises(HilbertError):
        load_surface("P3")
    with pytest.raises(HilbertError):
        surface_from_dict("bad", {"fixed_points": [{"tangent": [[1, 0]]}]})


def _one_point(tangent, bundles):
    return {"fixed_points": [{"tangent": tangent, "bundles": bundles}]}


@pytest.mark.parametrize("data", [
    _one_point([[1, 0, 5], [0, 1]], {}),
    _one_point([[1, 0], [0, 1]], {"L1": [1]}),
    _one_point([[1, 0], [0, 1]], {"L1": [1, "a"]}),
    _one_point([[1, 0], [True, 1]], {}),
    {"points": []},
    {"fixed_points": [{"bundles": {}}]},
], ids=["tangent-triple", "bundle-single", "bundle-str", "tangent-bool",
        "no-fixed-points", "no-tangent"])
def test_malformed_surface_data_is_rejected(data):
    with pytest.raises(HilbertError):
        surface_from_dict("bad", data)


def test_surface_chi_missing_bundle_is_rejected(pt):
    with pytest.raises(HilbertError, match="missing bundle weight 'L3'"):
        chi_surface(load_surface("P2"), "L3", pt["t1"], pt["t2"])


def test_surface_chi_identities(pt):
    t1, t2 = pt["t1"], pt["t2"]
    P2 = load_surface("P2")
    assert chi_surface(P2, None, t1, t2) == 1
    assert chi_surface(P2, "L1", t1, t2) == 1 + t1 + t2
    assert chi_surface(P2, "L2", t1, t2) == 1 + t1 + t2 + t1 ** 2 + t1 * t2 + t2 ** 2
    P11 = load_surface("P1xP1")
    assert chi_surface(P11, None, t1, t2) == 1
    assert chi_surface(P11, "L1", t1, t2) == 1 + t1
    assert chi_surface(P11, "L2", t1, t2) == 1 + t2


def test_surface_chi_symbolic_simplification():
    """The three-chart localization sum collapses to 1 in exact arithmetic."""
    P2 = load_surface("P2")
    assert chi_surface(P2, None, t1s, t2s) == 1


def test_single_chart_reduces_to_affine_series(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    C2 = load_surface("C2")
    g = toric_chi_series(C2, [], None, u, v, 3, t1, t2, marker_cap=0)
    assert g[()] == chi_C2_series([], (0, 0), u, v, 3, t1, t2)


def test_toric_multiplicativity(pt):
    """With trivial insertions the full series is the product of charts."""
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    P2 = load_surface("P2")
    full = toric_chi_series(P2, [], None, u, v, 3, t1, t2, marker_cap=0)[()]
    prod = None
    for fp in P2.fixed_points:
        single = surface_from_dict("chart", {"fixed_points": [
            {"tangent": [list(fp.tangent[0]), list(fp.tangent[1])], "bundles": {}}]})
        local = toric_chi_series(single, [], None, u, v, 3, t1, t2, marker_cap=0)[()]
        prod = local if prod is None else prod * local
    assert full == prod


def test_exterior_insertion_markers(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    P2 = load_surface("P2")
    graded = toric_chi_series(P2, [ToricInsertion("L1", "lambda")],
                              None, u, v, 2, t1, t2, marker_cap=2)
    assert set(graded) == {(0,), (1,), (2,)}
    # Q^0: only the empty partition tuple; exterior powers of rank 0 vanish
    assert graded[(1,)].coeffs[0] == 0
    assert graded[(0,)].coeffs[0] == 1


def test_symmetric_insertion_differs_from_exterior(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    C2 = load_surface("C2")
    ext = toric_chi_series(C2, [ToricInsertion("L1", "lambda")],
                           None, u, v, 2, t1, t2, marker_cap=2)
    sym = toric_chi_series(C2, [ToricInsertion("L1", "sigma")],
                           None, u, v, 2, t1, t2, marker_cap=2)
    assert ext[(1,)] == sym[(1,)]          # e_1 = h_1
    assert not (ext[(2,)] == sym[(2,)])    # e_2 != h_2 on rank >= 2 fibers


def test_missing_bundle_error(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    bare = surface_from_dict("bare", {"fixed_points": [
        {"tangent": [[1, 0], [0, 1]], "bundles": {}}]})
    with pytest.raises(HilbertError):
        toric_chi_series(bare, [ToricInsertion("L1", "lambda")],
                         None, u, v, 2, t1, t2)


def test_toric_checks_both_surfaces(pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    for name in ("P2", "P1xP1"):
        rep = toric_correlator_checks(load_surface(name), 3, u, v, t1, t2)
        assert rep.ok, (name, rep.details)


def test_external_surface_format(tmp_path, pt):
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "diag": {"fixed_points": [
            {"tangent": [[1, 0], [0, 1]], "bundles": {"L": [1, 1]}}]}}))
    surf = load_surface("diag", path)
    assert surf.fixed_points[0].bundles["L"] == (1, 1)
    ser = toric_chi_series(surf, [], "L", u, v, 2, t1, t2, marker_cap=0)[()]
    tA = t1 * t2
    direct = chi_C2_series([], (1, 1), u, v, 2, t1, t2)
    assert ser == direct


def test_constant_tangent_weight_rejected():
    with pytest.raises(HilbertError):
        surface_from_dict("bad", {"fixed_points": [
            {"tangent": [[0, 0], [0, 1]], "bundles": {}}]})


def test_single_chart_lambda1_reduces_to_closed_form(pt):
    """On a formal one-chart surface the first marker slice of the ratio is
    the bundle weight times the one-point closed form."""
    t1, t2, u, v = pt["t1"], pt["t2"], pt["u"], pt["v"]
    chart = surface_from_dict("chart", {"fixed_points": [
        {"tangent": [[1, 0], [0, 1]], "bundles": {"L1": [1, 1]}}]})
    graded = toric_chi_series(chart, [ToricInsertion("L1", "lambda")],
                              None, u, v, 3, t1, t2, marker_cap=1)
    ratio = graded[(1,)] / graded[(0,)]
    q, t = t2, 1 / t1
    cf = closed_form_series("Psi1", 3, {"q": q, "t": t, "u": u, "v": v})
    assert ratio == cf * (t1 * t2)


NEGATIVE_ORDER_ROUTES = {
    "bracket_bruteforce": lambda p, n: bracket_bruteforce(
        [tilde_e_op(1, p["t2"], 1 / p["t1"])], p["u"], p["v"], p["t2"], 1 / p["t1"], n),
    "vertex_correlator": lambda p, n: vertex_correlator(
        [tilde_e_op(1, p["t2"], 1 / p["t1"])], p["u"], p["v"], p["t2"], 1 / p["t1"], n),
    "vertex_tilde_bracket": lambda p, n: vertex_tilde_bracket(
        [1], p["u"], p["v"], p["t2"], 1 / p["t1"], n),
    "bracket_one_closed": lambda p, n: bracket_one_closed(
        p["u"], p["v"], p["t2"], 1 / p["t1"], n),
    "closed_form_series": lambda p, n: closed_form_series("E1", n),
    "chi_C2_series": lambda p, n: chi_C2_series(
        [], (0, 0), p["u"], p["v"], n, p["t1"], p["t2"]),
    "chi_via_correlators": lambda p, n: chi_via_correlators(
        [], (0, 0), p["u"], p["v"], n, p["t1"], p["t2"]),
    "verify_main_identity": lambda p, n: verify_main_identity(
        (0, 0), n, p["u"], p["v"], p["t1"], p["t2"]),
    "toric_chi_series": lambda p, n: toric_chi_series(
        load_surface("P2"), [], None, p["u"], p["v"], n, p["t1"], p["t2"]),
    "toric_correlator_checks": lambda p, n: toric_correlator_checks(
        load_surface("P2"), n, p["u"], p["v"], p["t1"], p["t2"]),
}


@pytest.mark.parametrize("route", sorted(NEGATIVE_ORDER_ROUTES))
def test_negative_order_is_a_library_error(pt, route):
    """Every series route refuses order -1 with the library's error and
    still accepts order 0."""
    assert NEGATIVE_ORDER_ROUTES[route](pt, 0) is not None
    with pytest.raises(HilbmacError):
        NEGATIVE_ORDER_ROUTES[route](pt, -1)
