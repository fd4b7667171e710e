"""Int scalars are exact and float scalars are rejected at every public entry
point that takes a scalar.

In Python 3 ``1 / 2`` is a float, so an int that reached a division inside
the library used to come back as a float coefficient and break exact
comparisons.
"""

import functools
import math
import operator
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbmac as hb
from hilbmac import correlators, hilbert, macdonald, symfun
from hilbmac.correlators import power_op
from hilbmac.exactalg import RationalFunction, TruncatedSeries, exact_scalars
from hilbmac.exactalg.ratfun import (clear_denominators, power_ratio, scalar_dot, scalar_product,
                                     scalar_sum)
from hilbmac.hilbert import BundleInsertion, ToricInsertion, load_surface
from hilbmac.macdonald import specialize_eps_via_p
from hilbmac.partitions import enumerate_partitions
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


# ---------------------------------------------------------------------------
# a scalar ring that is not Fraction or RationalFunction
# ---------------------------------------------------------------------------

PRIME = 2 ** 61 - 1


class ModP:
    """The prime field GF(2^61 - 1), with ints and Fractions taken as its
    elements: the least a scalar needs for series arithmetic."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n % PRIME

    @staticmethod
    def of(x):
        if isinstance(x, ModP):
            return x
        if isinstance(x, int):
            return ModP(x)
        if isinstance(x, Fraction):
            return ModP(x.numerator * pow(x.denominator, -1, PRIME))
        return NotImplemented

    def _with(self, other, op):
        other = ModP.of(other)
        return NotImplemented if other is NotImplemented else ModP(op(self.n, other.n))

    def __add__(self, other):
        return self._with(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._with(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._with(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._with(other, lambda a, b: a * b)

    def __truediv__(self, other):
        return self._with(other, lambda a, b: a * pow(b, -1, PRIME))

    def __rtruediv__(self, other):
        return self._with(other, lambda a, b: b * pow(a, -1, PRIME))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return ModP(-self.n)

    def __pow__(self, k: int):
        return ModP(pow(self.n, k, PRIME))

    def __bool__(self):
        return bool(self.n)

    def __eq__(self, other):
        other = ModP.of(other)
        return other is not NotImplemented and self.n == other.n

    __hash__ = None


def test_series_division_uses_the_scalars_own_division():
    a = TruncatedSeries([ModP(3), ModP(1), ModP(4)])
    b = TruncatedSeries([ModP(2), ModP(7), ModP(1)])
    quotient = a / b
    assert [type(c) for c in quotient.coeffs] == [ModP] * 3
    assert quotient * b == a
    assert (a / ModP(5)) * 5 == a
    fa = TruncatedSeries([Fraction(3), Fraction(1), Fraction(4)])
    fb = TruncatedSeries([Fraction(2), Fraction(7), Fraction(1)])
    assert quotient == (fa / fb).map(ModP.of)


def test_int_series_division_still_gives_fractions():
    a, b = TruncatedSeries([3, 1, 4]), TruncatedSeries([2, 7, 1])
    assert _fractions(a / b) and _fractions(a / 2)
    assert (a / b).coeffs[0] == Fraction(3, 2) and (a / 2).coeffs[2] == 2


def test_bracket_over_a_prime_field_matches_the_fraction_bracket():
    """The primed bracket divides two series: over GF(p) the division stays
    in GF(p) and agrees with the Fraction bracket reduced mod p."""
    q, t, u, v = Fraction(2, 3), Fraction(5, 7), Fraction(3, 11), Fraction(13, 17)
    word = [hb.tilde_e_op(2, q, t), hb.psi_op(2, q, t)]
    want = hb.bracket_bruteforce(word, u, v, q, t, 3, primed=True)
    mq, mt, mu, mv = (ModP.of(x) for x in (q, t, u, v))
    word = [hb.tilde_e_op(2, mq, mt), hb.psi_op(2, mq, mt)]
    got = hb.bracket_bruteforce(word, mu, mv, mq, mt, 3, primed=True)
    assert [type(c) for c in got.coeffs] == [ModP] * 4
    assert got == want.map(ModP.of)


VACUUM_SCALARS = {
    "fraction": (Fraction(2, 3), Fraction(5, 7)),
    "rational_function": tuple(RationalFunction.var(n) for n in ("q", "t")),
    "mod_p": (ModP.of(Fraction(2, 3)), ModP.of(Fraction(5, 7))),
}


@pytest.mark.parametrize("kind", sorted(VACUUM_SCALARS))
def test_vacuum_eigenvalues_are_the_zero_of_the_scalars_ring(kind):
    q, t = VACUUM_SCALARS[kind]
    values = [hb.eigen_E((), q, t)] + [power_op(op, m, q, t).eigenvalue(())
                                       for op in ("psi", "lambda", "sigma") for m in (1, 2)]
    assert [type(v) for v in values] == [type(q)] * len(values)
    assert not any(values)


# ---------------------------------------------------------------------------
# scalar_dot and scalar_product against the left fold
# ---------------------------------------------------------------------------

def _fold_dot(pairs, zero):
    out = zero
    for a, b in pairs:
        out = out + a * b
    return out


def _fold_product(values):
    return functools.reduce(operator.mul, values, 1) if values else 1


RATIONALS = st.one_of(st.integers(-30, 30),
                      st.fractions(min_value=-30, max_value=30, max_denominator=60))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(RATIONALS, RATIONALS), max_size=12),
       st.sampled_from([0, Fraction(0), Fraction(3, 7), -2]))
def test_scalar_dot_is_the_left_fold_on_ints_and_fractions(pairs, zero):
    got, want = scalar_dot(pairs, zero), _fold_dot(pairs, zero)
    assert got == want and type(got) is type(want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(RATIONALS, max_size=12))
def test_scalar_product_is_the_left_fold_on_ints_and_fractions(values):
    got, want = scalar_product(values), _fold_product(values)
    assert got == want and type(got) is type(want)


def _fold_elementary(values, one, k):
    """e_0..e_k by the pairwise recurrence, one add and one multiply at a time."""
    es = [one] + [one * 0] * k
    for n, w in enumerate(values, start=1):
        for i in range(min(k, n), 0, -1):
            es[i] = es[i] + es[i - 1] * w
    return es


def _same_values_and_types(got, want):
    return got == want and [type(x) for x in got] == [type(x) for x in want]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.just(Fraction(0)), RATIONALS), max_size=8),
       st.sampled_from([1, Fraction(1)]), st.integers(0, 10))
def test_elementary_recurrence_on_integer_numerators_is_the_pairwise_fold(values, one, k):
    """_elementary_list clears the values' denominators and runs on ints;
    elementary_of and complete_of, which read it, give what the fold gives."""
    assert _same_values_and_types(macdonald._elementary_list(values, one, k),
                                  _fold_elementary(values, one, k))
    got = [macdonald.elementary_of(values, k), macdonald.complete_of(values, k)]
    with mock.patch.object(macdonald, "_elementary_list", _fold_elementary):
        want = [macdonald.elementary_of(values, k), macdonald.complete_of(values, k)]
    assert _same_values_and_types(got, want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(RATIONALS, max_size=8))
def test_clear_denominators_gives_integer_numerators_over_the_lcm(values):
    d, numerators = clear_denominators(values)
    assert [type(n) for n in numerators] == [int] * len(values)
    assert [Fraction(n, d) for n in numerators] == values
    assert all(d % Fraction(v).denominator == 0 for v in values)
    assert math.gcd(d, *numerators) == 1


def test_clear_denominators_leaves_other_rings_alone():
    q = RationalFunction.var("q")
    assert clear_denominators([]) == (1, [])
    assert clear_denominators([Fraction(1, 6), 2, Fraction(-3, 4)]) == (12, [2, 24, -9])
    for values in ([Fraction(1, 2), q], [ModP(3)], [True], [0.5]):
        assert clear_denominators(values) is None
    values = [Fraction(1, 2), ModP(3), Fraction(2, 3)]
    assert _same_values_and_types(macdonald._elementary_list(values, Fraction(1), 3),
                                  _fold_elementary(values, Fraction(1), 3))


def test_scalar_dot_and_product_edge_cases():
    assert scalar_dot([], Fraction(0)) == 0 and type(scalar_dot([], Fraction(0))) is Fraction
    assert scalar_dot([], 5) == 5 and type(scalar_dot([], 5)) is int
    assert scalar_dot([(2, 3), (-4, 5)], 0) == -14 and type(scalar_dot([(2, 3)], 0)) is int
    assert scalar_dot([(0, Fraction(1, 3)), (Fraction(1, 2), 0)], 0) == 0
    assert scalar_dot([(Fraction(1, 6), 1), (Fraction(1, 10), 1), (Fraction(-1, 15), 1)],
                      Fraction(0)) == Fraction(1, 5)
    assert scalar_product([]) == 1 and type(scalar_product([2, -3])) is int
    assert scalar_product([Fraction(2, 3), 0, Fraction(5, 7)]) == 0
    assert scalar_product([Fraction(-2, 3), Fraction(9, 4)]) == Fraction(-3, 2)
    assert scalar_sum([1, 2]) == 3 and type(scalar_sum([1, 2])) is Fraction


RF_POOL = [2, Fraction(-1, 3), RationalFunction.var("q"), 1 - RationalFunction.var("t"),
           (1 - RationalFunction.var("q")) / (1 - RationalFunction.var("q") * RationalFunction.var("t")),
           RationalFunction.var("t") ** -2 / (1 + RationalFunction.var("q")) ** 2,
           (3 - RationalFunction.var("q")) * RationalFunction.var("t") / 5]


def _same_rf(x, y):
    return (x.canonical_str() == y.canonical_str()
            and list(x.fac.items()) == list(y.fac.items())
            and (x.nc, x.dc, x.mono) == (y.nc, y.dc, y.mono))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(RF_POOL), st.sampled_from(RF_POOL)),
                min_size=1, max_size=5))
def test_scalar_dot_and_product_fold_rational_functions(pairs):
    """Operands may start with ints and Fractions; the fold still runs from
    zero over every pair, so the factor maps come out as the fold's."""
    zero = RationalFunction.from_int(0)
    assert _same_rf(scalar_dot(pairs, zero), _fold_dot(pairs, zero))
    values = [x for pair in pairs for x in pair] + [RationalFunction.var("t")]
    assert _same_rf(scalar_product(values), functools.reduce(operator.mul, values))


def test_scalar_dot_and_product_fold_a_modular_ring():
    pairs = [(1, 2), (ModP(3), Fraction(1, 2)), (Fraction(2, 5), ModP(7))]
    got = scalar_dot(pairs, Fraction(0))
    assert type(got) is ModP and got == _fold_dot(pairs, Fraction(0))
    assert got == ModP.of(2 + Fraction(3, 2) + Fraction(14, 5))
    values = [Fraction(2, 3), ModP(5), 4]
    got = scalar_product(values)
    assert type(got) is ModP and got == ModP.of(Fraction(40, 3))
    assert type(scalar_dot([(ModP(2), ModP(3))], ModP(0))) is ModP


# ---------------------------------------------------------------------------
# series exp and division, power sums, complete and tilde-E eigenvalues
# against the one-operation fold
# ---------------------------------------------------------------------------

def _fold_series_mul(x, y):
    zero = x[0] * 0 + y[0] * 0
    return [_fold_dot([(x[i], y[k - i]) for i in range(k + 1)], zero) for k in range(len(x))]


def _fold_exp(g):
    """exp(g) as sum_k g^k / k!, each power one more folded series product."""
    one = g[0] * 0 + 1
    out = term = [one] + [one * 0] * (len(g) - 1)
    for k in range(1, len(g)):
        term = _fold_series_mul(term, g)
        out = [a + b * Fraction(1, math.factorial(k)) for a, b in zip(out, term)]
    return out


def _fold_divide(a, b):
    """a / b by back-substitution, one subtraction at a time; int / int is a
    Fraction."""
    out = []
    for k in range(len(a)):
        s = a[k]
        for j in range(1, k + 1):
            s = s - b[j] * out[k - j]
        out.append(Fraction(s, b[0]) if type(s) is int and type(b[0]) is int else s / b[0])
    return out


def _fold_power(values, m):
    if not values:
        return Fraction(0)
    out = values[0] * 0
    for w in values:
        out = out + w ** m
    return out


def _fold_complete(values, k):
    if not values:
        return Fraction(int(k == 0))
    es = _fold_elementary(values, values[0] * 0 + 1, k)
    zero = es[0] * 0
    return _fold_divide([zero + 1] + [zero] * k, [-e if i % 2 else e for i, e in enumerate(es)])[k]


def _fold_tilde_e(mu, r, q, t):
    if r == 0:
        return Fraction(1)
    head = _fold_elementary([q ** m * t ** (-j) for j, m in enumerate(mu, start=1)],
                            Fraction(1), min(len(mu), r))
    tail = macdonald.tail_weights(r, t)[len(mu)]
    return _fold_dot([(head[r - n], tail[n]) for n in range(r + 1) if r - n < len(head)],
                     Fraction(0))


def _same(got, want):
    return _same_values_and_types([got], [want])


ZEROS_AND_RATIONALS = st.one_of(st.just(0), st.just(Fraction(0)), RATIONALS)
UNITS = st.one_of(st.integers(-30, 30), st.fractions(-30, 30, max_denominator=60)).filter(bool)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from([0, Fraction(0)]), st.lists(ZEROS_AND_RATIONALS, max_size=7))
def test_series_exp_by_its_recurrence_is_the_power_sum_fold(zero, tail):
    """exp runs m f_m = sum k g_k f_(m-k) at ints and Fractions; an order-0
    series keeps its unit's type."""
    g = [zero] + tail
    got = TruncatedSeries(g).exp().coeffs
    assert _same_values_and_types(list(got), _fold_exp(g))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(ZEROS_AND_RATIONALS, min_size=1, max_size=7), UNITS,
       st.lists(ZEROS_AND_RATIONALS, max_size=7))
def test_series_division_by_scalar_dot_is_the_back_substitution_fold(a, lead, rest):
    b = ([lead] + rest + [0] * len(a))[:len(a)]
    got = (TruncatedSeries(a) / TruncatedSeries(b)).coeffs
    assert _same_values_and_types(list(got), _fold_divide(a, b))


def _as_kind(kind, values):
    """int and Fraction series keep their values from the second on, and
    take the leading one as kind; a RationalFunction series is q times each
    value."""
    if kind is RationalFunction:
        return [RationalFunction.var("q") * x for x in values]
    return [kind(values[0]), *values[1:]]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([(int, int), (int, Fraction), (Fraction, int), (Fraction, Fraction),
                        (Fraction, RationalFunction), (RationalFunction, int)]),
       st.lists(ZEROS_AND_RATIONALS, min_size=1, max_size=6),
       st.lists(ZEROS_AND_RATIONALS, min_size=1, max_size=6), st.integers(-3, 3),
       st.integers(-3, 3))
def test_series_product_has_the_coefficient_types_of_the_folded_zero(kinds, a, b, lead_a, lead_b):
    """A product of two series takes its zero from the types of their
    leading coefficients, and every coefficient has the type and value that
    the zero a.zero_coeff() + b.zero_coeff() * 0 gives it."""
    a, b = (TruncatedSeries(_as_kind(kind, [lead, *values[1:]]))
            for kind, lead, values in zip(kinds, (lead_a, lead_b), (a, b)))
    n = min(a.order, b.order)
    zero = a.zero_coeff() + b.zero_coeff() * 0
    want = [scalar_dot([(a.coeffs[i], b.coeffs[k - i]) for i in range(k + 1)], zero)
            for k in range(n + 1)]
    assert _same_values_and_types(list((a * b).coeffs), want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(ZEROS_AND_RATIONALS, max_size=8), st.integers(0, 7), st.integers(0, 7))
def test_power_and_complete_of_are_the_folds(values, m, k):
    assert _same(macdonald.power_of(values, m), _fold_power(values, m))
    assert _same(macdonald.complete_of(values, k), _fold_complete(values, k))


def test_power_of_at_a_negative_exponent_runs_the_fold():
    values = [Fraction(2, 3), -4, Fraction(-1, 5)]
    assert _same(macdonald.power_of(values, -2), _fold_power(values, -2))
    assert _same(macdonald.power_of([2, -4], 3), -56)


PARTITIONS = st.lists(st.integers(1, 4), max_size=5).map(lambda ps: tuple(sorted(ps, reverse=True)))
NON_ROOTS = UNITS.filter(lambda x: x not in (1, -1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(PARTITIONS, st.integers(0, 5), ZEROS_AND_RATIONALS, NON_ROOTS)
def test_tilde_e_eigenvalue_by_scalar_dot_is_the_fold(mu, r, q, t):
    assert _same(macdonald.eigen_tildeE(mu, r, q, t), _fold_tilde_e(mu, r, Fraction(q), Fraction(t)))


def test_modular_series_and_cell_functions_run_the_fold():
    g = [ModP(0), ModP(3), Fraction(1, 2), ModP(5)]
    assert [type(c) for c in TruncatedSeries(g).exp().coeffs] == [ModP] * 4
    assert TruncatedSeries(g).exp() == TruncatedSeries(_fold_exp(g))
    a, b = [Fraction(1, 3), ModP(2), 4], [ModP(7), Fraction(2, 5), 1]
    assert TruncatedSeries(a) / TruncatedSeries(b) == TruncatedSeries(_fold_divide(a, b))
    values = [ModP(3), Fraction(1, 2), 5]
    for got, want in [(macdonald.power_of(values, 3), _fold_power(values, 3)),
                      (macdonald.complete_of(values, 3), _fold_complete(values, 3))]:
        assert type(got) is ModP and got == want
    q, t = ModP.of(Fraction(2, 3)), ModP.of(Fraction(5, 7))
    got = macdonald.eigen_tildeE((3, 1), 2, q, t)
    assert type(got) is ModP and got == _fold_tilde_e((3, 1), 2, Fraction(2, 3), Fraction(5, 7))


# ---------------------------------------------------------------------------
# the operator matrix, the m -> p transition, the chart's cell factors and
# the tilde-E eigenvalue on integer numerators, against the fold
# ---------------------------------------------------------------------------

def _folded_matrix(q, t, n):
    """The operator matrix as the loop builds it on the table's own values,
    with no denominator cleared."""
    with mock.patch.object(macdonald, "clear_denominators", lambda values: None):
        return macdonald.MacdonaldTable(q, t)._operator_matrix(enumerate_partitions(n))


def _same_matrix(got, want):
    return (list(got) == list(want)
            and all(_same_values_and_types(list(got[k].items()), list(want[k].items()))
                    for k in got))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ZEROS_AND_RATIONALS, UNITS, st.integers(1, 4))
def test_operator_matrix_on_integer_numerators_is_the_fold(q, t, n):
    got = macdonald.MacdonaldTable(q, t)._operator_matrix(enumerate_partitions(n))
    assert _same_matrix(got, _folded_matrix(q, t, n))


def _fold_transition(f, basis):
    """f's transition into basis, one product and one add per matrix entry."""
    out = {}
    for lam, c in f.terms.items():
        for mu, w in symfun._transition_matrices(sum(lam))[basis][lam].items():
            v = c * w
            out[mu] = out[mu] + v if mu in out else v
    return SymmetricFunction(basis, out)


M_TERMS = st.dictionaries(st.sampled_from([lam for n in range(5) for lam in enumerate_partitions(n)]),
                          ZEROS_AND_RATIONALS, max_size=8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(M_TERMS, st.sampled_from("mp"))
def test_transition_by_scalar_dot_is_the_fold(terms, source):
    f = SymmetricFunction(source, terms)
    target = "p" if source == "m" else "m"
    got, want = symfun._transition(f, target), _fold_transition(f, target)
    assert _same_values_and_types(list(got.terms.items()), list(want.terms.items()))


def _chart(t1, t2, u, v):
    """Two-key chart series at order 3, or the exception it raises."""
    def extra(mu, cs):
        return {(): [], "arms": [sum(c.arm for c in cs) - 1]}
    try:
        series = correlators.chart_series(t1, t2, u, v, 3, extra)
    except ZeroDivisionError:
        return ZeroDivisionError
    return {key: list(s.coeffs) for key, s in series.items()}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS)
def test_chart_cell_factors_on_integer_numerators_are_the_fold(t1, t2, u, v):
    """At rational points, poles and zero tangent weights included, each
    cell factor made as one Fraction gives the series the generic factors
    give, or raises as they do."""
    got = _chart(t1, t2, u, v)
    with mock.patch.object(correlators, "rational_scalars", lambda values: False):
        want = _chart(t1, t2, u, v)
    assert got == want
    if want is not ZeroDivisionError:
        assert all(_same_values_and_types(got[k], want[k]) for k in want)


def test_integer_paths_run_the_fold_over_a_prime_field():
    q, t = Fraction(2, 3), Fraction(5, 7)
    mq, mt = ModP.of(q), ModP.of(t)
    got = macdonald.MacdonaldTable(mq, mt)._operator_matrix(enumerate_partitions(4))
    want = macdonald.MacdonaldTable(q, t)._operator_matrix(enumerate_partitions(4))
    assert list(got) == list(want)
    for kappa in want:
        assert list(got[kappa]) == list(want[kappa])
        assert all(type(x) is ModP and x == want[kappa][nu] for nu, x in got[kappa].items())
    f = SymmetricFunction("m", {(2, 1): ModP(3), (1, 1, 1): Fraction(1, 2), (3,): 4})
    got, want = symfun._transition(f, "p"), _fold_transition(f, "p")
    assert _same_values_and_types(list(got.terms.items()), list(want.terms.items()))
    assert type(got.terms[(2, 1)]) is ModP
    u, v = Fraction(3, 11), Fraction(13, 17)
    mu_, mv = ModP.of(u), ModP.of(v)
    extra = lambda mu, cs: {(): []}    # noqa: E731
    series = {
        "chart_series": lambda *x: correlators.chart_series(*x, 3, extra)[()],
        "vertex_tilde_bracket": lambda *x: correlators.vertex_tilde_bracket([2, 1], *x, 3),
        "bracket_one_closed": lambda *x: correlators.bracket_one_closed(*x, 3),
    }
    for name, run in series.items():
        got = run(mq, mt, mu_, mv)
        assert [type(c) for c in got.coeffs] == [ModP] * 4, name
        assert got == run(q, t, u, v).map(ModP.of), name
    for got, want in zip(macdonald.integral_factors((3, 1), mq, mt),
                         macdonald.integral_factors((3, 1), q, t)):
        assert [type(x) for x in got] == [ModP] * 4
        assert got == [ModP.of(x) for x in want]
    got = macdonald.cell_multiset((3, 1), mq, mt)
    assert [type(x) for x in got] == [ModP] * 4
    assert got == [ModP.of(x) for x in macdonald.cell_multiset((3, 1), q, t)]


# ---------------------------------------------------------------------------
# the vertex engine's tables, the log terms of <1>, the integral factors,
# the cell weights, the localization sum, the tail weights and the plane's
# weights from integer powers, against the generic fold
# ---------------------------------------------------------------------------

def _outcome(run, *args):
    """run(*args), or the class of the ArithmeticError it raises."""
    try:
        return run(*args)
    except ArithmeticError as exc:
        return type(exc)


def _folded(module, run, *args):
    """run(*args) with module's integer paths off: the generic fold on the
    same scalars."""
    with mock.patch.object(module, "rational_scalars", lambda values: False):
        return _outcome(run, *args)


def _same_outcome(got, want):
    """The same exception class, or the same values with the same types."""
    if isinstance(want, type):
        return got is want
    return not isinstance(got, type) and _same_values_and_types(got, want)


POWERS = st.lists(st.tuples(ZEROS_AND_RATIONALS, st.integers(-4, 4)), max_size=4)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(POWERS)
def test_power_ratio_is_the_product_of_powers(powers):
    want = _outcome(lambda: _fold_product([Fraction(x) ** k for x, k in powers]))
    got = _outcome(lambda: Fraction(*power_ratio(*powers)))
    assert got == want
    if not isinstance(want, type):
        assert all(type(x) is int for x in power_ratio(*powers))


def test_power_ratio_edge_cases():
    assert power_ratio() == (1, 1)
    assert power_ratio((Fraction(-2, 3), -3)) == (27, -8)
    assert power_ratio((0, 0), (Fraction(0), 2)) == (0, 1)
    with pytest.raises(ZeroDivisionError):
        power_ratio((Fraction(2, 3), 1), (0, -1))


WORD_WEIGHTS = st.lists(st.integers(0, 2), max_size=2)


def _vertex(weights, u, v, q, t, order):
    return list(correlators.vertex_tilde_bracket(weights, u, v, q, t, order).coeffs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(WORD_WEIGHTS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS,
       ZEROS_AND_RATIONALS, st.integers(0, 3))
def test_vertex_tables_from_integer_powers_are_the_fold(weights, u, v, q, t, order):
    """Int and Fraction scalars, zeros and poles (t = 0, t^a = 1) included:
    the tables built from integer powers give the generic tables' series,
    or raise as they do."""
    args = (weights, u, v, q, t, order)
    assert _same_outcome(_outcome(_vertex, *args), _folded(correlators, _vertex, *args))


@pytest.mark.parametrize("u, v, q, t", [
    (0, Fraction(-3, 5), Fraction(7, 2), Fraction(-4, 9)),     # u = 0
    (Fraction(-5, 3), 0, Fraction(-2, 7), 3),                   # v = 0
    (2, 3, 1, Fraction(5, 7)),                                  # q = 1: x_m = 0
    (2, 3, 5, 1),                                               # t = 1: pole
    (2, 3, 5, -1),                                              # t^2 = 1: pole
    (2, 3, 5, 0),                                               # t = 0
])
def test_vertex_tables_at_zeros_and_poles(u, v, q, t):
    for weights, order in [([], 0), ([], 2), ([2], 0), ([1, 2], 3)]:
        args = (weights, u, v, q, t, order)
        assert _same_outcome(_outcome(_vertex, *args), _folded(correlators, _vertex, *args))


def _one(u, v, q, t, order):
    return list(correlators.bracket_one_closed(u, v, q, t, order).coeffs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS,
       st.one_of(st.sampled_from([1, -1, Fraction(-1)]), ZEROS_AND_RATIONALS),
       st.one_of(st.sampled_from([1, -1, 0]), ZEROS_AND_RATIONALS), st.integers(0, 4))
def test_log_terms_of_one_from_integer_powers_are_the_fold(u, v, q, t, order):
    """Poles q^n = 1 and t^n = 1, and t = 0, raise as the fold does."""
    args = (u, v, q, t, order)
    assert _same_outcome(_outcome(_one, *args), _folded(correlators, _one, *args))


def _factors(mu, q, t):
    c, c_prime = macdonald.integral_factors(mu, q, t)
    return c + c_prime


def _weights(mu, q, t):
    table = macdonald.cell_weights(q, t)
    head = [table[m, j] for j, m in enumerate(mu, start=1)]
    return macdonald.cell_multiset(mu, q, t) + head + [macdonald.eigen_tildeE(mu, 2, q, t)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(PARTITIONS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS)
def test_cell_factors_and_weights_from_integer_powers_are_the_fold(mu, q, t):
    """The integral factors (ints from ints) and the cell weights, read as
    cell_multiset and as eigen_tildeE's head monomials, give the fold's
    values and types; t = 0 raises as t^-l' does."""
    for run in (_factors, _weights):
        assert _same_outcome(_outcome(run, mu, q, t), _folded(macdonald, run, mu, q, t))


X = RationalFunction.var("q")


def _keyed(mu, cs):
    """Keys with Fraction, int and empty factors, and one whose factors are
    a rational function when |mu| is odd, so a coefficient mixes integer
    pairs with generic terms."""
    n = len(cs)
    return {(): [], "arms": [Fraction(sum(c.arm for c in cs) - 2, 3), -2],
            "mixed": [Fraction(1, n + 1)] + ([X] if n % 2 else [3])}


def _same_chart(got, want):
    if set(got) != set(want):
        return False
    for key in want:
        for x, y in zip(got[key].coeffs, want[key].coeffs, strict=True):
            if isinstance(y, RationalFunction):
                if not (isinstance(x, RationalFunction) and _same_rf(x, y)):
                    return False
            elif not _same_values_and_types([x], [y]):
                return False
    return True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS)
def test_localization_sum_on_integer_pairs_is_the_fold(t1, t2, u, v):
    """Each coefficient of a key with rational factors is one Fraction of the
    integer pairs; a key with a rational-function factor runs the generic
    products and sum, factor maps included."""
    run = lambda *x: correlators.chart_series(*x, 3, _keyed)   # noqa: E731
    got, want = _outcome(run, t1, t2, u, v), _folded(correlators, run, t1, t2, u, v)
    if isinstance(want, type):
        assert got is want
    else:
        assert _same_chart(got, want)


def _tails(r, t):
    table = macdonald.tail_weights(r, t)
    return [x for l in range(5) for x in table[l]]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 4), st.one_of(st.just(Fraction(-2, 3)), ZEROS_AND_RATIONALS))
def test_tail_weights_from_integer_powers_are_the_fold(r, t):
    """Each entry t^(-n l) e_n is one Fraction equal to the product the
    generic ring forms, and t = 0 and t^a = 1 raise as it does."""
    got, want = _outcome(_tails, r, t), _folded(macdonald, _tails, r, t)
    assert _same_outcome(got, want)
    if not isinstance(want, type):
        assert {type(x) for x in got} == {Fraction}


def _plane(t1, t2, u, v):
    insertions = [BundleInsertion("psi", 2, (1, 0)), BundleInsertion("lambda", 1, (0, -1))]
    return list(hb.chi_C2_series(insertions, (1, -1), u, v, 2, t1, t2).coeffs)


def _toric(t1, t2, u, v):
    insertions = [ToricInsertion("L1", "lambda"), ToricInsertion("L2", "sigma")]
    graded = hilbert.toric_chi_series(SURFACE, insertions, "L1", u, v, 2, t1, t2)
    return [c for key in sorted(graded) for c in graded[key].coeffs]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS, ZEROS_AND_RATIONALS)
def test_plane_weights_from_integer_powers_are_the_fold(t1, t2, u, v):
    """The twist, the fiber weights of the plane series and the toric
    charts' monomials and marker fiber weights, each one Fraction, give the
    generic products' series, or raise as they do."""
    for run in (_plane, _toric):
        assert _same_outcome(_outcome(run, t1, t2, u, v),
                             _folded(hilbert, run, t1, t2, u, v))


# ---------------------------------------------------------------------------
# int scalars give the Fractions that Fraction scalars give
# ---------------------------------------------------------------------------

INT_CALLS = {
    "chart_series": lambda *x: correlators.chart_series(
        *x, 2, lambda mu, cs: {(): []})[()].coeffs,
    "bracket_one_closed": lambda *x: correlators.bracket_one_closed(*x, 2).coeffs,
    "tail_weights": lambda q, t, u, v: macdonald.tail_weights(2, t)[3],
    "head_monomials": lambda q, t, u, v: [macdonald.cell_weights(q, t)[m, j]
                                          for m in (0, 2) for j in (1, 3)],
    "cell_multiset": lambda q, t, u, v: macdonald.cell_multiset((3, 1), q, t),
    "vertex_tilde_bracket": lambda *x: correlators.vertex_tilde_bracket([1], *x, 2).coeffs,
}


@pytest.mark.parametrize("name", sorted(INT_CALLS))
def test_int_scalars_give_the_fraction_result(name):
    ints = (5, 7, 2, 3)
    got = INT_CALLS[name](*ints)
    want = INT_CALLS[name](*map(Fraction, ints))
    assert [type(x) for x in got] == [Fraction] * len(got)
    assert got == want
