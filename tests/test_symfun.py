import itertools
import random
from fractions import Fraction

import pytest

from hilbmac.exactalg import RationalFunction, RationalSampler, generators
from hilbmac.partitions import enumerate_partitions, partitions_upto
from hilbmac.symfun import (FormalSum, SymFunError, SymmetricFunction,
                            alpha_coefficients, basis_convert,
                            bc_product_check, beta_gamma_coefficients,
                            inner_product_hall,
                            inner_product_qt, omega, to_p)

q, t = generators("q", "t")


def sf(basis, terms):
    return SymmetricFunction(basis, {k: Fraction(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_degree_one_conversions():
    p1 = SymmetricFunction.generator("p", 1)
    assert basis_convert(p1, "e").terms == {(1,): Fraction(1)}
    assert basis_convert(p1, "h").terms == {(1,): Fraction(1)}
    assert basis_convert(p1, "m").terms == {(1,): Fraction(1)}


def test_h2_and_e2_in_p_basis():
    h2 = to_p(SymmetricFunction.generator("h", 2))
    assert h2.terms == {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}
    e2 = to_p(SymmetricFunction.generator("e", 2))
    assert e2.terms == {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}


def test_monomial_expansion_of_power_sums():
    # p_2 = m_2; p_{1,1} = m_2 + 2 m_{1,1}
    p2 = basis_convert(SymmetricFunction.generator("p", 2), "m")
    assert p2.terms == {(2,): Fraction(1)}
    p11 = basis_convert(sf("p", {(1, 1): 1}), "m")
    assert p11.terms == {(2,): Fraction(1), (1, 1): Fraction(2)}


def test_roundtrips_to_degree_8():
    sample = sf("p", {(3, 2, 1): 2, (2, 2, 2): Fraction(-1, 3), (8,): 1, (1,): 5})
    for basis in ("m", "e", "h"):
        f = basis_convert(sample, basis)
        assert basis_convert(f, "p") == sample
    # and starting from each basis
    for src, tgt in itertools.product(("p", "m", "e", "h"), repeat=2):
        g = sf(src, {(2, 1): 1, (4,): Fraction(1, 2)})
        assert basis_convert(basis_convert(g, tgt), src) == g


def test_degree_bound_on_monomial_conversion():
    with pytest.raises(SymFunError):
        basis_convert(sf("m", {(11,): 1}), "p")


def test_mixed_basis_operations_rejected():
    with pytest.raises(SymFunError):
        sf("p", {(1,): 1}) + sf("e", {(1,): 1})


def test_conversion_commutes_with_multiplication():
    rng = random.Random(3)
    parts = partitions_upto(3)[1:]
    for _ in range(8):
        f = sf("p", {rng.choice(parts): rng.randint(1, 4)})
        g = sf("p", {rng.choice(parts): rng.randint(1, 4)})
        for basis in ("e", "h", "m"):
            lhs = basis_convert(f * g, basis)
            rhs = basis_convert(f, basis) * basis_convert(g, basis)
            assert lhs == rhs, basis


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def test_omega_signs():
    assert omega(SymmetricFunction.generator("p", 1)).terms == {(1,): Fraction(1)}
    assert omega(SymmetricFunction.generator("p", 2)).terms == {(2,): Fraction(-1)}
    assert omega(sf("p", {(2, 1): 1})).terms == {(2, 1): Fraction(-1)}


def test_omega_involution_and_eh_exchange():
    for n in range(1, 9):
        en = to_p(SymmetricFunction.generator("e", n))
        hn = to_p(SymmetricFunction.generator("h", n))
        assert omega(en) == hn
        assert omega(omega(en)) == en


def test_omega_preserves_basis_tag():
    f = sf("e", {(2, 1): 3})
    g = omega(f)
    assert g.basis == "e"
    assert omega(g) == f


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_product_examples():
    p1 = SymmetricFunction.generator("p", 1)
    assert inner_product_qt(p1, p1, q, t) == (1 - q) / (1 - t)
    p2 = SymmetricFunction.generator("p", 2)
    p11 = sf("p", {(1, 1): 1})
    assert inner_product_qt(p2, p11, q, t) == 0
    assert inner_product_hall(p11, p11) == 2


def test_qt_inner_product_specializes_to_hall():
    # at q = t the deformation factor is 1
    rng = RationalSampler(8)
    x = rng.fraction()
    f = sf("p", {(2, 1): 2, (3,): 1})
    g = sf("p", {(2, 1): 1, (1, 1, 1): 4})
    assert inner_product_qt(f, g, x, x) == inner_product_hall(f, g)


# ---------------------------------------------------------------------------
# alpha, beta, gamma
# ---------------------------------------------------------------------------

def test_alpha_displayed_values():
    al = alpha_coefficients(4)
    assert al[(1,)] == 1
    assert al[(2,)] == 1
    assert al[(1, 1)] == Fraction(-1, 2)
    assert al[(3,)] == 1
    assert al[(2, 1)] == -1
    assert al[(1, 1, 1)] == Fraction(1, 3)
    assert al[(4,)] == 1


def test_alpha_reproduces_concrete_log():
    """Substituting e_k of three concrete variables reproduces log of the
    concrete generating polynomial, degree <= 6."""
    from hilbmac.exactalg import TruncatedSeries
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
    D = 6
    al = alpha_coefficients(D)

    def e_k(k):
        es = [Fraction(1)] + [Fraction(0)] * 3
        for x in xs:
            for i in range(3, 0, -1):
                es[i] += es[i - 1] * x
        return es[k] if k <= 3 else Fraction(0)

    concrete = TruncatedSeries([e_k(k) for k in range(D + 1)])
    lhs = concrete.log()
    for deg in range(1, D + 1):
        rhs = sum((al[lam] *
                   _prod(e_k(part) for part in lam)
                   for lam in enumerate_partitions(deg)
                   if lam in al), Fraction(0))
        assert lhs.coeffs[deg] == rhs, deg


def _prod(it):
    out = Fraction(1)
    for x in it:
        out *= x
    return out


def test_beta_gamma_displayed_values():
    beta, gamma = beta_gamma_coefficients(2)
    qq = RationalFunction.var("q")
    assert beta[(1,)] == 1 / (1 - qq)
    assert beta[(2,)] == 1 / (1 - qq ** 2)
    assert beta[(1, 1)] == qq / ((1 - qq) * (1 - qq ** 2))
    assert gamma[(1,)] == -1 / (1 - qq)
    assert gamma[(2,)] == -1 / (1 - qq ** 2)
    # the recursion and the inverse-product identity force the positive sign
    assert gamma[(1, 1)] == 1 / ((1 - qq) * (1 - qq ** 2))


def test_beta_gamma_poles_only_at_unity_roots():
    beta, gamma = beta_gamma_coefficients(4)
    cyclo = [1 - RationalFunction.var("q") ** k for k in range(1, 5)]
    for table in (beta, gamma):
        for lam, val in table.items():
            cleared = val
            for k in range(1, sum(lam) + 1):
                cleared = cleared * (1 - RationalFunction.var("q") ** k)
            n, d = cleared.expanded()
            assert d.is_const(), (lam, val)


def test_inverse_product_identity():
    assert bc_product_check(8)


def test_weighted_homogeneity():
    """Rescaling a_r -> lambda^r a_r rescales b_m -> lambda^m b_m: every key
    of b_m and c_m has total weight m, and a numeric substitution confirms."""
    beta, gamma = beta_gamma_coefficients(5, Fraction(1, 3))
    lam_scale = Fraction(2)
    for table in (beta, gamma):
        for m in range(1, 6):
            entries = {k: v for k, v in table.items() if sum(k) == m}
            assert entries
            direct = sum((v * _prod(lam_scale ** part for part in k)
                          for k, v in entries.items()), Fraction(0))
            plain = sum(entries.values(), Fraction(0))
            assert direct == lam_scale ** m * plain


def test_beta_gamma_fractional_q():
    beta, gamma = beta_gamma_coefficients(3, Fraction(1, 7))
    assert beta[(1,)] == Fraction(1) / (1 - Fraction(1, 7))


# ---------------------------------------------------------------------------
# the formal generator algebra
# ---------------------------------------------------------------------------

def test_formal_sum_basics():
    a = FormalSum.gen(2) * FormalSum.gen(1) + FormalSum.gen(3)
    assert a.coeff((2, 1)) == 1 and a.coeff((3,)) == 1
    b = a * Fraction(1, 2)
    assert b.coeff((2, 1)) == Fraction(1, 2)
    assert (a - a) == FormalSum({})
