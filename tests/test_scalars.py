"""Int scalars are exact and float scalars are rejected at every public entry
point that takes a scalar.

In Python 3 ``1 / 2`` is a float, so an int that reached a division inside
the library used to come back as a float coefficient and break exact
comparisons.
"""

from fractions import Fraction

import pytest

import hilbmac as hb
from hilbmac.exactalg import RationalFunction, exact_scalars
from hilbmac.hilbert import BundleInsertion, ToricInsertion, load_surface
from hilbmac.macdonald import specialize_eps_via_p
from hilbmac.symfun import SymmetricFunction


def _fractions(series):
    return [type(c) for c in series.coeffs] == [Fraction] * len(series.coeffs)


def test_exact_scalars_helper():
    q = RationalFunction.var("q")
    assert exact_scalars(2, Fraction(1, 3), q, None) == (Fraction(2), Fraction(1, 3), q, None)
    assert type(exact_scalars(2)[0]) is Fraction
    with pytest.raises(TypeError):
        exact_scalars(Fraction(1), 0.5)


def test_verify_main_identity_with_ints():
    assert hb.verify_main_identity((0, 0), 3, 2, 3, 5, 7).ok


def test_bracket_bruteforce_with_int_u():
    q, t = Fraction(1, 3), Fraction(5, 2)
    word = [hb.tilde_e_op(1, q, t)]
    got = hb.bracket_bruteforce(word, 2, Fraction(1, 7), q, t, 2)
    assert _fractions(got)
    assert got == hb.bracket_bruteforce(word, Fraction(2), Fraction(1, 7), q, t, 2)


def test_chi_and_vertex_correlator_with_ints():
    assert _fractions(hb.chi_C2_series([], (0, 0), 2, 3, 2, 5, 7))
    assert _fractions(hb.chi_C2_series([BundleInsertion("psi", 1, (1, 0))], (0, 0),
                                       2, 3, 2, 5, 7))
    assert _fractions(hb.vertex_correlator([hb.tilde_e_op(1, 2, 3)], 2, 5, 2, 3, 2))


def test_macdonald_table_with_ints():
    P = hb.MacdonaldTable(2, 3).P((2, 1))
    assert {type(c) for c in P.terms.values()} == {Fraction}
    assert P == hb.MacdonaldTable(Fraction(2), Fraction(3)).P((2, 1))


F = 0.5
P1 = SymmetricFunction("p", {(1,): Fraction(1)})
SURFACE = load_surface("P2")
FLOAT_CALLS = {
    "MacdonaldTable": lambda: hb.MacdonaldTable(F, 3),
    "apply_E": lambda: hb.apply_E(P1, F, 3),
    "b_norm": lambda: hb.b_norm((1,), F, 3),
    "eigen_E": lambda: hb.eigen_E((1,), F, 3),
    "eigen_E_r": lambda: hb.eigen_E_r((1,), 1, F, 3),
    "eigen_tildeE": lambda: hb.eigen_tildeE((1,), 1, F, 3),
    "macdonald_P": lambda: hb.macdonald_P((1,), F, 3),
    "psi_decomposition": lambda: hb.psi_decomposition(1, F, 3),
    "specialize_eps": lambda: hb.specialize_eps((1,), F, 2, 3),
    "specialize_eps_via_p": lambda: specialize_eps_via_p((1,), F, hb.MacdonaldTable(2, 3)),
    "bracket_bruteforce": lambda: hb.bracket_bruteforce([], F, 2, 3, 5, 1),
    "base_bracket_z": lambda: hb.base_bracket_z(1, F),
    "tilde_e_op": lambda: hb.tilde_e_op(1, F, 3),
    "psi_op": lambda: hb.psi_op(1, F, 3),
    "lambda_op": lambda: hb.lambda_op(1, F, 3),
    "sigma_op": lambda: hb.sigma_op(1, F, 3),
    "vertex_correlator": lambda: hb.vertex_correlator([], F, 2, 3, 5, 1),
    "chi_C2_series": lambda: hb.chi_C2_series([], (0, 0), F, 2, 1, 3, 5),
    "chi_via_correlators": lambda: hb.chi_via_correlators([], (0, 0), F, 2, 1, 3, 5),
    "toric_chi_series": lambda: hb.toric_chi_series(
        SURFACE, [ToricInsertion("L1", "lambda")], None, F, 2, 1, 3, 5),
    "toric_correlator_checks": lambda: hb.toric_correlator_checks(SURFACE, 1, F, 2, 3, 5),
    "verify_main_identity": lambda: hb.verify_main_identity((0, 0), 1, F, 2, 3, 5),
    "inner_product_qt": lambda: hb.inner_product_qt(P1, P1, F, 3),
    "beta_gamma_coefficients": lambda: hb.beta_gamma_coefficients(1, F),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_float_scalar_is_rejected(name):
    with pytest.raises(TypeError):
        FLOAT_CALLS[name]()
