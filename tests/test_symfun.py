import itertools
import random
import re
from fractions import Fraction

import pytest

from hilbmac.exactalg import RationalFunction, RationalSampler, generators
from hilbmac.partitions import enumerate_partitions, partitions_upto
from hilbmac.symfun import (SymFunError, SymmetricFunction,
                            alpha_coefficients, basis_convert,
                            bc_product_check, beta_gamma_coefficients,
                            inner_product_hall,
                            inner_product_qt, omega, to_p, _transition_matrices)

q, t = generators("q", "t")


def sf(basis, terms):
    return SymmetricFunction(basis, {k: Fraction(v) for k, v in terms.items()})


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_m_p_conversion_rejects_a_key_that_is_not_a_partition():
    with pytest.raises(SymFunError, match=r"not a partition: \(1, 2\)"):
        to_p(sf("m", {(1, 2): 1}))
    with pytest.raises(SymFunError, match=r"not a partition: \(0, 2\)"):
        basis_convert(sf("p", {(0, 2): 1}), "m")
    e1, p1 = SymmetricFunction.generator("e", 1), SymmetricFunction.generator("p", 1)
    assert e1 == p1 and not e1 == p1.scale(2)


@pytest.mark.parametrize("basis, key", [("m", (-1,)), ("e", (1, 2)), ("h", (0, 2))])
def test_every_conversion_rejects_a_key_that_is_not_a_partition(basis, key):
    """Not a bare ValueError, not the expansion of the sorted key, not
    accepted with a zero part."""
    with pytest.raises(SymFunError, match=rf"not a partition: {re.escape(repr(key))}"):
        to_p(sf(basis, {key: 1}))
    with pytest.raises(SymFunError, match="not a partition"):
        basis_convert(sf("p", {key: 1}), basis)


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


def _weak_compositions(n: int, length: int):
    if length == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, length - 1):
            yield (first,) + rest


def _monomials_at(xs, n: int):
    """m_mu(xs) for every mu of n, from the definition: the sum of x^a over
    the exponent vectors a whose nonzero entries rearrange to mu."""
    out = {}
    for a in _weak_compositions(n, len(xs)):
        mu = tuple(sorted((e for e in a if e), reverse=True))
        term = Fraction(1)
        for x, e in zip(xs, a):
            term *= x ** e
        out[mu] = out.get(mu, Fraction(0)) + term
    return out


def _power_sum_at(xs, lam):
    out = Fraction(1)
    for part in lam:
        out *= sum(x ** part for x in xs)
    return out


def test_transition_matrices_at_concrete_points():
    """p_lam = sum A[lam][mu] m_mu and m_lam = sum B[lam][rho] p_rho at seeded
    rational points x_1..x_n, every |lam| = n <= 7, each side evaluated from
    its definition."""
    rng = random.Random(18)
    for n in range(1, 8):
        xs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        m_at = _monomials_at(xs, n)
        for lam in enumerate_partitions(n):
            in_m = basis_convert(sf("p", {lam: 1}), "m")
            assert _power_sum_at(xs, lam) == sum(
                c * m_at[mu] for mu, c in in_m.terms.items()), lam
            in_p = to_p(sf("m", {lam: 1}))
            assert m_at[lam] == sum(c * _power_sum_at(xs, rho)
                                    for rho, c in in_p.terms.items()), lam


def test_transition_matrices_are_inverse():
    for n in range(10):
        matrices = _transition_matrices(n)
        for lam in enumerate_partitions(n):
            row = {}
            for mu, a in matrices["m"][lam].items():
                for rho, b in matrices["p"][mu].items():
                    row[rho] = row.get(rho, 0) + a * b
            assert {k: v for k, v in row.items() if v} == {lam: 1}, lam


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


@pytest.mark.parametrize("src, tgt", [("p", "e"), ("p", "h"), ("e", "p"), ("h", "p"),
                                      ("e", "h"), ("h", "e")])
def test_degree_bound_on_e_and_h_conversion(src, tgt):
    """A term of degree above the bound is refused before its expansion is
    built, even with a part of 10^20; degree 10 still converts."""
    assert basis_convert(sf(src, {(10,): 1}), tgt)
    for key in ((6, 5), (10 ** 20,)):
        with pytest.raises(SymFunError, match="above bound 10"):
            basis_convert(sf(src, {key: 1}), tgt)


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
    e = SymmetricFunction.generator
    a = e("e", 2) * e("e", 1) + e("e", 3)
    assert a.terms == {(2, 1): 1, (3,): 1}
    b = a * Fraction(1, 2)
    assert b.terms[(2, 1)] == Fraction(1, 2)
    assert (a - a) == SymmetricFunction("e", {})
    assert (a + 3).terms == {(2, 1): 1, (3,): 1, (): 3}
    assert (-a).terms[(3,)] == -1


def test_empty_function_is_false():
    assert not SymmetricFunction("e", {})
    assert bool(SymmetricFunction("e", {(1,): Fraction(1)}))
