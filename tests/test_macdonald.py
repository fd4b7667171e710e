import itertools
import random
from fractions import Fraction

import pytest

from hilbmac.exactalg import (RationalFunction, RationalSampler, generators,
                              scalar_sum)
from hilbmac.macdonald import (MacdonaldError, MacdonaldTable,
                               apply_E, b_norm, cell_multiset,
                               complete_of, eigen_E, eigen_E_r, eigen_tildeE,
                               elementary_of, euler_tail,
                               lambda_decomposition, macdonald_P,
                               power_of, psi_decomposition,
                               sigma_decomposition, specialize_eps,
                               specialize_eps_via_p, sym_of_cells)
from hilbmac.partitions import enumerate_partitions, partitions_upto
from hilbmac.symfun import SymmetricFunction, inner_product_qt
from oracles import (En_apply_power_sum, dn1_apply_power_sum,
                     eigen_E_r_finite, eval_p_basis, finite_coefficient_c,
                     q_binomial)

q, t = generators("q", "t")
u = RationalFunction.var("u")


@pytest.fixture(scope="module")
def table():
    return MacdonaldTable(q, t, degree_bound=6)


# ---------------------------------------------------------------------------
# the polynomials themselves
# ---------------------------------------------------------------------------

def test_P_examples(table):
    assert table.P((1,)).terms == {(1,): RationalFunction.from_int(1)}
    assert table.P((1, 1)).terms == {(1, 1): RationalFunction.from_int(1)}
    P2 = table.P((2,))
    assert P2.terms[(2,)] == 1
    assert P2.terms[(1, 1)] == (1 - t) * (1 + q) / (1 - q * t)
    assert macdonald_P((2,), q, t, table) == P2


def test_degree_bound(table):
    with pytest.raises(MacdonaldError):
        table.P((7,))


def test_b_norm_examples():
    assert b_norm((), q, t) == 1
    assert b_norm((1,), q, t) == (1 - t) / (1 - q)
    assert b_norm((2,), q, t) == (1 - t) * (1 - q * t) / ((1 - q) * (1 - q ** 2))


def test_orthogonality_and_norms_degree_4(table):
    for n in range(5):
        parts = enumerate_partitions(n)
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                ip = inner_product_qt(table.P_in_p(lam), table.P_in_p(mu), q, t)
                if lam == mu:
                    assert ip * b_norm(lam, q, t) == 1
                else:
                    assert ip.is_zero()


def test_qt_inversion_symmetry(table):
    """P(x; q^{-1}, t^{-1}) = P(x; q, t) for |lam| <= 4."""
    for lam in partitions_upto(4):
        P = table.P(lam)
        for mu, c in P.terms.items():
            flipped = c.subs({"q": q ** -1, "t": t ** -1})
            assert flipped == c, (lam, mu)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

def test_specialization_examples(table):
    assert specialize_eps((), u, q, t) == 1
    assert specialize_eps((1,), u, q, t) == (1 - u) / (1 - t)
    for lam in [(2,), (1, 1), (2, 1), (3, 1)]:
        direct = specialize_eps(lam, u, q, t)
        via_p = specialize_eps_via_p(lam, u, q, t, table)
        assert direct == via_p, lam


# ---------------------------------------------------------------------------
# the stable degree-1 operator
# ---------------------------------------------------------------------------

def test_apply_E_examples(table):
    one = SymmetricFunction("p", {(): RationalFunction.from_int(1)})
    assert apply_E(one, q, t) == SymmetricFunction("p", {})
    p1 = SymmetricFunction.generator("p", 1, RationalFunction.from_int(1))
    assert apply_E(p1, q, t) == p1.scale((q - 1) / t)
    P2 = table.P_in_p((2,))
    assert apply_E(P2, q, t) == P2.scale((q - 1) / t * (1 + q))


def test_eigenrelation_through_degree_5(table):
    for lam in partitions_upto(5):
        lhs = apply_E(table.P_in_p(lam), q, t)
        assert lhs == table.P_in_p(lam).scale(eigen_E(lam, q, t)), lam


def test_arm_leg_identity():
    """sum_{i<=l} (q^{mu_i} - 1) t^{-i} = (q-1)/t sum_s t^{-l'} q^{a'}, |mu| <= 8."""
    for mu in partitions_upto(8):
        lhs = scalar_sum([(q ** part - 1) * t ** (-i)
                          for i, part in enumerate(mu, start=1)]) if mu else Fraction(0)
        rhs = eigen_E(mu, q, t) if mu else Fraction(0)
        assert lhs == rhs, mu


def test_rational_function_symmetrization_identity():
    """sum_i prod_{j != i} (t x_j - x_i)/(x_j - x_i) = (1 - t^n)/(1 - t)."""
    sampler = RationalSampler(21)
    for n in range(1, 6):
        pt = sampler.point([f"x{i}" for i in range(n)] + ["t"])
        xs = [pt[f"x{i}"] for i in range(n)]
        tv = pt["t"]
        total = Fraction(0)
        for i in range(n):
            term = Fraction(1)
            for j in range(n):
                if j != i:
                    term *= (tv * xs[j] - xs[i]) / (xs[j] - xs[i])
            total += term
        assert total == (1 - tv ** n) / (1 - tv)


def test_finite_n_operator_is_a_valid_oracle():
    """E restricted to n variables agrees with the stable operator on degree-d
    inputs once n >= d, evaluated at random rational points."""
    sampler = RationalSampler(33)
    for mu in [(1,), (2,), (1, 1), (2, 1)]:
        d = sum(mu)
        for n in (d, d + 1):
            pt = sampler.point([f"x{i}" for i in range(n)] + ["q", "t"])
            xs = [pt[f"x{i}"] for i in range(n)]
            qv, tv = pt["q"], pt["t"]
            f = SymmetricFunction("p", {mu: Fraction(1)})
            lhs = En_apply_power_sum(mu, xs, qv, tv)
            rhs = eval_p_basis(apply_E(f, qv, tv), xs)
            assert lhs == rhs, (mu, n)


def test_dn1_eigenvalue_on_macdonald_polynomial():
    """D_n^1 P_mu = (sum_i q^{mu_i} t^{n-i}) P_mu at small n, random points."""
    sampler = RationalSampler(55)
    qv, tv = sampler.point(["q", "t"]).values()
    table_n = MacdonaldTable(qv, tv, degree_bound=3)
    for mu, n in [((1,), 2), ((2,), 2), ((1, 1), 3), ((2, 1), 3)]:
        pt = sampler.point([f"x{i}" for i in range(n)])
        xs = list(pt.values())
        P = table_n.P_in_p(mu)
        # D_n^1 is linear; apply it to each power-sum monomial
        lhs = Fraction(0)
        for kappa, c in P.terms.items():
            val = dn1_apply_power_sum(kappa, xs, qv, tv)
            lhs += (c if isinstance(c, Fraction) else c.as_fraction()) * val
        ev = sum(qv ** m * tv ** (n - i) for i, m in enumerate(mu, start=1))
        ev += sum(tv ** (n - i) for i in range(len(mu) + 1, n + 1))
        rhs = ev * eval_p_basis(P, xs)
        assert lhs == rhs, (mu, n)


# ---------------------------------------------------------------------------
# eigenvalue families
# ---------------------------------------------------------------------------

def test_eigen_tildeE_examples():
    assert eigen_tildeE((), 0, q, t) == 1
    assert eigen_tildeE((), 1, q, t) == t ** -1 / (1 - t ** -1)
    assert eigen_tildeE((1,), 1, q, t) == q * t ** -1 + t ** -2 / (1 - t ** -1)


def test_eigen_E_r_examples():
    assert eigen_E_r((), 0, q, t) == 1
    for r in (1, 2, 3):
        assert eigen_E_r((), r, q, t).is_zero()
    assert eigen_E_r((1,), 1, q, t) == (q - 1) * t ** -1


def test_tildeE_from_E_r_consistency():
    for mu in partitions_upto(5):
        for r in (1, 2, 3):
            lhs = eigen_tildeE(mu, r, q, t)
            rhs = scalar_sum([euler_tail(j, t) * eigen_E_r(mu, r - j, q, t)
                              for j in range(r + 1)])
            assert lhs == rhs, (mu, r)


def test_finite_n_family():
    """The finite-n eigenvalue sums match their generating function
    prod_{j<=n} (1 + q^{mu_j} t^{-j} z) / prod_{j<=n} (1 + t^{-j} z).

    The weight-1 case anchors the denominator range: it must reproduce
    sum_{i<=n} (q^{mu_i} - 1) t^{-i}, the restriction of the stable operator.
    """
    sampler = RationalSampler(29)
    pt = sampler.point(["q", "t"])
    qv, tv = pt["q"], pt["t"]
    for mu in [(1,), (2, 1), (2, 2)]:
        for r in (1, 2):
            n = sum(mu) + r
            vals_num = [qv ** (mu[j - 1] if j <= len(mu) else 0) * tv ** (-j)
                        for j in range(1, n + 1)]
            vals_den = [tv ** (-j) for j in range(1, n + 1)]
            num = [elementary_of(vals_num, k) for k in range(r + 1)]
            den = [elementary_of(vals_den, k) for k in range(r + 1)]
            series = []
            for m in range(r + 1):
                s = num[m]
                for k in range(1, m + 1):
                    s -= den[k] * series[m - k]
                series.append(s)
            assert eigen_E_r_finite(mu, r, n, qv, tv) == series[r], (mu, r)
    # r = 1 anchor
    mu = (2, 1)
    for n in (3, 4):
        expect = sum((qv ** (mu[i - 1] if i <= len(mu) else 0) - 1) * tv ** (-i)
                     for i in range(1, n + 1))
        assert eigen_E_r_finite(mu, 1, n, qv, tv) == expect


def test_stabilized_finite_family_hits_infinite_eigenvalue():
    """sum_j e_j(t^{-n-1}, t^{-n-2}, ...) e_{r-j}(head up to n) equals the
    stabilized eigenvalue once n >= |mu| + r."""
    sampler = RationalSampler(31)
    pt = sampler.point(["q", "t"])
    qv, tv = pt["q"], pt["t"]
    for mu in [(1,), (2,), (2, 1)]:
        for r in (1, 2, 3):
            n = sum(mu) + r
            head = [qv ** (mu[j - 1] if j <= len(mu) else 0) * tv ** (-j)
                    for j in range(1, n + 1)]
            total = Fraction(0)
            for j in range(r + 1):
                tail_j = tv ** (-j * n) * euler_tail(j, tv)
                total += tail_j * elementary_of(head, r - j)
            assert total == eigen_tildeE(mu, r, qv, tv), (mu, r)


def test_q_binomial_and_gauss_formulas():
    assert q_binomial(4, 2, q) == (1 - q ** 4) * (1 - q ** 3) / ((1 - q) * (1 - q ** 2))
    assert q_binomial(3, 0, q) == 1
    assert q_binomial(3, 5, q) == 0
    # Gauss product formulas at small n
    z = RationalFunction.var("u")  # reuse a spare variable as the series marker
    for n in (2, 3, 4):
        lhs = RationalFunction.from_int(1)
        for j in range(n):
            lhs = lhs * (1 + q ** j * z)
        rhs = scalar_sum([q ** (j * (j - 1) // 2) * q_binomial(n, j, q) * z ** j
                          for j in range(n + 1)])
        assert lhs == rhs, n


def test_finite_coefficient_against_direct_expansion():
    for j in (1, 2, 3):
        for n in (3, 4):
            vals = [t ** (-i) for i in range(0, n + j - 1)]
            direct = elementary_of(vals, j) * Fraction((-1) ** j) * t ** ((j * j - 3 * j) // 2)
            assert finite_coefficient_c(j, n, t) == direct, (j, n)


# ---------------------------------------------------------------------------
# cell-multiset symmetric functions and operator decompositions
# ---------------------------------------------------------------------------

def test_sym_of_cells_examples():
    assert sym_of_cells((), "e", 1, q, t).value == 0
    assert sym_of_cells((1,), "p", 1, q, t).value == 1
    r = sym_of_cells((2, 1), "p", 1, q, t)
    assert r.value == 1 + q + t ** -1
    assert r.agree


def test_sym_of_cells_two_path_symbolic_small():
    for lam in partitions_upto(3):
        for basis in ("e", "h", "p"):
            res = sym_of_cells(lam, basis, 2, q, t)
            assert res.agree, (lam, basis)


def test_sym_of_cells_rejects_bad_input():
    with pytest.raises(MacdonaldError):
        sym_of_cells((1,), "x", 1, q, t)
    with pytest.raises(MacdonaldError):
        sym_of_cells((1,), "p", 0, q, t)


def test_psi_decomposition_displays():
    terms, const = psi_decomposition(1, q, t)
    assert terms == [(-t / (1 - q), (1,))]
    assert const == 1 / ((1 - q) * (1 - t ** -1))
    terms, const = psi_decomposition(2, q, t)
    d = {tuple(p): c for c, p in terms}
    assert d[(2,)] == 2 * t ** 2 / (1 - q ** 2)
    assert d[(1, 1)] == -t ** 2 / (1 - q ** 2)
    assert const == 1 / ((1 - q ** 2) * (1 - t ** -2))
    terms, const = psi_decomposition(3, q, t)
    d = {tuple(p): c for c, p in terms}
    assert d[(3,)] == -3 * t ** 3 / (1 - q ** 3)
    assert d[(2, 1)] == 3 * t ** 3 / (1 - q ** 3)
    assert d[(1, 1, 1)] == -t ** 3 / (1 - q ** 3)
    assert const == 1 / ((1 - q ** 3) * (1 - t ** -3))


@pytest.mark.parametrize("decomp,basis", [(psi_decomposition, "p"),
                                          (lambda_decomposition, "e"),
                                          (sigma_decomposition, "h")])
def test_decompositions_reproduce_cell_values(decomp, basis):
    sampler = RationalSampler(71)
    pt = sampler.point(["q", "t"])
    qv, tv = pt["q"], pt["t"]
    fns = {"p": power_of, "e": elementary_of, "h": complete_of}
    for m in (1, 2, 3):
        terms, const = decomp(m, qv, tv)
        for mu in partitions_upto(4):
            expect = fns[basis](cell_multiset(mu, qv, tv), m)
            got = const
            for c, lam in terms:
                prod = c
                for r in lam:
                    prod = prod * eigen_tildeE(mu, r, qv, tv)
                got += prod
            assert got == expect, (m, mu, basis)


def _complete_by_definition(values, k):
    """h_k: the sum over multisets of size k drawn from the values of their product."""
    total = Fraction(0)
    for idx in itertools.combinations_with_replacement(range(len(values)), k):
        prod = Fraction(1)
        for i in idx:
            prod = prod * values[i]
        total = total + prod
    return total


def test_complete_of_matches_its_definition():
    rng = random.Random(29)
    for size in range(0, 5):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
        for k in range(0, 5):
            assert complete_of(values, k) == _complete_by_definition(values, k), (values, k)
    cells_21 = cell_multiset((2, 1), q, t)
    for k in range(0, 5):
        assert complete_of(cells_21, k) == _complete_by_definition(cells_21, k), k


def test_conjugate_specialization_variant():
    """Specializing the conjugate partition with swapped parameters gives the
    product prod_s (q^{a'} - t^{l'} v)/(1 - t^l q^{a+1}) over the original
    diagram, the other half of the twisted localization weight."""
    from hilbmac.partitions import conjugate, cells
    v = RationalFunction.var("v")
    for lam in [(1,), (2,), (2, 1), (3, 1), (2, 2)]:
        lhs = specialize_eps(conjugate(lam), v, t, q)
        rhs = RationalFunction.from_int(1)
        for c in cells(lam):
            rhs = rhs * (q ** c.coarm - t ** c.coleg * v)
            rhs = rhs / (1 - t ** c.leg * q ** (c.arm + 1))
        assert lhs == rhs, lam
