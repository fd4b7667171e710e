import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hilbmac.correlators import CLOSED_FORMS, base_bracket_z, closed_form_library
from hilbmac.exactalg import (DivisionByZero, ExactAlgError, ExponentOverflowError, LaurentPoly,
                              PoleError, RationalFunction, RationalSampler,
                              SeriesError, TruncatedSeries, expand_closed_form,
                              generators, geometric, rf_sum)
from hilbmac.exactalg import ratfun
from hilbmac.exactalg.poly import EXPONENT_LIMIT, MONO_ONE, mono_key, mono_split, poly_pow
from hilbmac.exactalg.ratfun import poly_over

import oracles

q, t, u, v = generators("q", "t", "u", "v")
Q = RationalFunction.var("Q")
HALF = EXPONENT_LIMIT // 2


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

def test_cancellation_example():
    assert (1 - u) / (1 - q) * (1 - q) == 1 - u


def test_common_denominator_example():
    assert 1 / (1 - t) + t / (1 - t) == (1 + t) / (1 - t)


def test_eval_examples():
    assert ((1 - q ** 2) / (1 - q)).eval({"q": Fraction(3)}) == 4
    assert (q + t).eval({"q": Fraction(1, 2), "t": Fraction(1, 3)}) == Fraction(5, 6)
    f = (1 - q * t) / ((1 - q) * (1 - t))
    assert f.eval({"q": Fraction(2), "t": Fraction(3)}) == Fraction(-5, 2)


def test_pole_error():
    with pytest.raises(PoleError):
        (1 / (1 - q)).eval({"q": Fraction(1)})


def test_eval_names_an_unbound_variable_in_the_prefactor():
    with pytest.raises(ExactAlgError, match="unbound variable t"):
        (q * t).eval({"q": Fraction(2)})


def test_eval_names_an_unbound_variable_in_a_factor():
    with pytest.raises(ExactAlgError, match="unbound variable t"):
        ((1 - q) * (1 - t)).eval({"q": Fraction(2)})


def test_unknown_variable_is_an_exactalg_error():
    for call in (lambda: RationalFunction.var("z"), lambda: LaurentPoly.var("z"),
                 lambda: q.eval({"z": Fraction(1)}), lambda: LaurentPoly.var("q").degree("z")):
        with pytest.raises(ExactAlgError, match="unknown variable 'z'"):
            call()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        q / (q - q)


def _random_rf(rng: random.Random) -> RationalFunction:
    def small_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = LaurentPoly.var("q", rng.randint(-1, 2))
            mono = mono * LaurentPoly.var("t", rng.randint(-1, 2))
            terms[mono] = rng.randint(-4, 4)
        p = sum((m.scale(c) for m, c in terms.items()), LaurentPoly({}))
        return p if not p.is_zero() else LaurentPoly.const(1)

    num = RationalFunction.from_poly(small_poly())
    den = RationalFunction.from_poly(small_poly())
    while den.is_zero():
        den = RationalFunction.from_poly(small_poly())
    return num / den


def test_field_axioms_on_random_samples():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_bool_agrees_with_equality_to_zero():
    rng = random.Random(11)
    values = [(1 - q) / (1 - q) - 1, q - q, RationalFunction.from_int(0)]
    for _ in range(100):
        a, b = _random_rf(rng), _random_rf(rng)
        values += [a, a + b, a - a, (a + b) - b - a, a * b - b * a, a / b * b - a]
    for f in values:
        assert bool(f) == (not f == 0)
    assert any(values) and not all(values)


def test_canonicalization_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        f = _random_rf(rng)
        n, d = f.expanded()
        g1, m1, p1 = n.primitive()
        _, _, p2 = p1.primitive()
        assert p1 == p2
        assert f.canonical_str() == f.canonical_str()


def test_canonical_string_format():
    f = (1 - u) * (1 - v)
    assert f.canonical_str() == "1 - u - v + u*v"
    g = f / ((1 - q) * (1 - t))
    assert g.canonical_str() == "(1 - u - v + u*v)/(1 - q - t + q*t)"
    assert (t ** -1).canonical_str() == "t^-1"


def test_exact_laurent_division():
    """Quotients carry the integer and monomial contents, Laurent exponents
    included; a remainder raises."""
    a = (-6 * (q ** -2) * t * (1 - q * t) * (1 + t ** 3)).as_poly()
    b = (2 * (q ** -1) * (1 - q * t)).as_poly()
    assert a / b == (-3 * (q ** -1) * t * (1 + t ** 3)).as_poly()
    assert a / -1 == -a
    with pytest.raises(ExactAlgError):
        a / (1 - t).as_poly()
    with pytest.raises(ExactAlgError):
        b / LaurentPoly.const(4)
    with pytest.raises(ExactAlgError):
        ((1 - q) / (1 + q)).as_poly()


def test_poly_over_reduces_over_binomials_with_contents():
    num = (q ** -3 * (1 - q) * (1 - q * t) * (1 + u)).as_poly()
    factors = [(1 - q ** -1).as_poly(), (2 - 2 * q * t).as_poly(), (1 - t).as_poly()]
    got = poly_over(num, factors)
    assert got == RationalFunction.from_poly(num) / ((1 - q ** -1) * (2 - 2 * q * t) * (1 - t))
    assert str(got) == "(-q^-2 - q^-2*u)/(2 - 2*t)"


def test_kronecker_substitution():
    p = (3 - 2 * q * t ** 2 + q ** 2).as_poly()
    assert p.kronecker({"q": 4, "t": 12}) == 3 - 2 * 2 ** (4 + 24) + 2 ** 8
    assert (p.norm1(), p.degree("q"), p.degree("t"), p.degree("u")) == (6, 2, 2, 0)
    with pytest.raises(ExactAlgError):
        (q ** -1).as_poly().kronecker({"q": 4, "t": 12})
    with pytest.raises(ExactAlgError):
        u.as_poly().kronecker({"q": 4, "t": 12})


def test_schwartz_zippel_consistency():
    sampler = RationalSampler(3)
    rng = random.Random(9)
    for _ in range(20):
        f = _random_rf(rng)
        g = f * (1 - q * t) / (1 - q * t)
        assert f == g
        pts = 0
        while pts < 5:
            pt = sampler.point(["q", "t"])
            try:
                lhs, rhs = f.eval(pt), g.eval(pt)
            except PoleError:
                continue
            assert lhs == rhs
            pts += 1


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_exp_log_examples():
    zero = TruncatedSeries.constant(Fraction(0), 5)
    assert zero.exp() == TruncatedSeries.one(5)
    s = TruncatedSeries.gen(6)
    assert s.exp().log() == s


def test_exp_requires_zero_constant():
    with pytest.raises(SeriesError):
        TruncatedSeries.one(3).exp()
    with pytest.raises(SeriesError):
        TruncatedSeries.gen(3).log()


def test_exp_taylor_example():
    c = (1 - u) * (1 - v) / ((1 - q) * (1 - t ** -1))
    s = TruncatedSeries([c * 0, c, c * 0])
    e = s.exp()
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == c
    assert e.coeffs[2] == c * c * Fraction(1, 2)


@given(st.lists(st.fractions(max_denominator=20), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_exp_log_roundtrip_random(coeffs):
    coeffs[0] = Fraction(0)
    s = TruncatedSeries(coeffs)
    assert s.exp().log() == s


def test_mixed_order_truncation():
    a = TruncatedSeries([Fraction(1), Fraction(2), Fraction(3)])
    b = TruncatedSeries([Fraction(1), Fraction(1)])
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_expand_closed_form_examples():
    e = expand_closed_form(1 / (1 - u * Q), 5)
    assert all(e.coeffs[n] == u ** n for n in range(6))
    e = expand_closed_form(Q * (1 - u) * (1 - v) / (1 - u * Q), 4)
    assert e.coeffs[0].is_zero()
    for n in range(1, 5):
        assert e.coeffs[n] == u ** (n - 1) * (1 - u) * (1 - v)
    e = expand_closed_form((1 - Q) / (1 - u * Q), 2)
    assert e.coeffs[0] == 1
    assert e.coeffs[1] == u - 1
    assert e.coeffs[2] == u ** 2 - u


def test_expand_closed_form_rejects_poles_in_Q():
    for f in (1 / Q, (1 - u) / (Q * (1 - q) * (1 - u * Q)), Q ** -2 * (1 + Q)):
        with pytest.raises(SeriesError):
            expand_closed_form(f, 3)


def test_expand_closed_form_edge_cases():
    """A negative order raises SeriesError; zero expands to zeros; a
    valuation above the order gives zeros only."""
    with pytest.raises(SeriesError):
        expand_closed_form(1 / (1 - u * Q), -1)
    for order in (0, 4):
        zeros = expand_closed_form(RationalFunction.from_int(0), order)
        assert zeros.order == order and all(c.is_zero() for c in zeros.coeffs)
        assert all(c.is_zero() for c in expand_closed_form(Q ** 5 / (1 - Q), order).coeffs)


def _monomial(**exps):
    p = LaurentPoly.const(1)
    for name, e in exps.items():
        p = p * LaurentPoly.var(name, e)
    (m,) = p.terms
    return m


def test_mono_split_takes_one_variable_out():
    m = _monomial(q=2, t=-3, Q=5)
    assert mono_split(m, "Q") == (5, _monomial(q=2, t=-3))
    assert mono_split(m, "t") == (-3, _monomial(q=2, Q=5))
    assert mono_split(_monomial(q=2, t=-3), "Q") == (0, _monomial(q=2, t=-3))
    assert mono_split(_monomial(Q=-(HALF + 1)), "Q") == (-(HALF + 1), MONO_ONE)


def _closed_forms():
    """Every library closed form symbolic, with q and t bound and with all
    four scalars bound, and the base brackets of z^k."""
    point = {"q": Fraction(3, 7), "t": Fraction(-5, 2), "u": Fraction(2, 9), "v": Fraction(11, 4)}
    forms = []
    for name in CLOSED_FORMS:
        for bound in ({}, {"q": point["q"], "t": point["t"]}, point):
            forms.append((f"{name} {sorted(bound)}", closed_form_library(name, **bound),
                          (0, 3, 8)))
    forms += [(f"z^{k}", base_bracket_z(k), (8,)) for k in range(-4, 5)]
    return forms


def test_expand_closed_form_prints_as_the_series_division():
    """The factor-map expansion gives the expanded series division's values
    and the same canonical strings, coefficient by coefficient."""
    for label, f, orders in _closed_forms():
        for order in orders:
            got = expand_closed_form(f, order)
            want = oracles.expand_by_series_division(f, order)
            assert got == want, (label, order)
            assert [c.canonical_str() for c in got.coeffs] == \
                [c.canonical_str() for c in want.coeffs], (label, order)


def _q_series(p: RationalFunction, order: int) -> TruncatedSeries:
    """The Q-coefficients of a polynomial in Q, read off its expansion."""
    groups = p.as_poly().group_by(["Q"])
    return TruncatedSeries([RationalFunction.from_poly(groups.get((k,), LaurentPoly({})))
                            for k in range(order + 1)])


@pytest.mark.parametrize("num, den", [
    (1 + Q, 2 - Q),                                                 # d0 = 2
    (Q ** 0, (1 + q) - t * Q),                                      # d0 = 1 + q
    ((1 - u * Q) ** 2, ((1 + q) - t * Q) * (1 - q)),
    (Q ** 2 * (1 - u * Q), (3 * q - t * Q) * (q * t + Q)),         # d0 = 3 q^2 t
    ((1 + t * Q) * (1 - u), (2 + q + q * Q) ** 2 * (1 - u * v * Q)),
])
def test_expand_closed_form_with_a_lead_that_is_not_a_unit(num, den):
    """d0, the Q^0 part of the Q-dependent denominator, one term and not
    1, or several terms: the series equals the oracle's and S * D = N."""
    f = num / den
    for order in (0, 3, 6):
        s = expand_closed_form(f, order)
        assert s == oracles.expand_by_series_division(f, order)
        assert s * _q_series(den, order) == _q_series(num, order)


def test_expand_closed_form_checks_exponent_overflow():
    """The powers of a one-term d0 are monomial shifts, checked against
    EXPONENT_LIMIT as every other shift is."""
    f = 1 / (q ** (HALF + 1) - Q)
    assert expand_closed_form(f, 0).coeffs[0] == q ** -(HALF + 1)
    with pytest.raises(ExponentOverflowError):
        expand_closed_form(f, 2)


def test_expand_closed_form_sums_no_rational_functions(monkeypatch):
    """A prebuilt symbolic closed form expands with rf_sum unreachable:
    every coefficient is one scalar times one reduced polynomial."""
    f = closed_form_library("Psi2")
    want = oracles.expand_by_series_division(f, 6)

    def refuse(values):
        raise AssertionError("rf_sum called")

    monkeypatch.setattr(ratfun, "rf_sum", refuse)
    got = expand_closed_form(f, 6)
    monkeypatch.undo()
    assert got == want


def test_expand_closed_form_ring_homomorphism():
    rng = random.Random(11)
    samples = [1 / (1 - u * Q), (1 - Q) / (1 - u * Q), Q * (1 - v) / (1 - q * Q),
               (1 + Q ** 2 * t) / (1 - Q * u)]
    for _ in range(6):
        f, g = rng.sample(samples, 2)
        assert expand_closed_form(f * g, 5) == \
            expand_closed_form(f, 5) * expand_closed_form(g, 5)


def test_geometric_helper():
    g = geometric(u, 4)
    assert g == expand_closed_form(1 / (1 - u * Q), 4)


def test_rf_sum_matches_pairwise():
    rng = random.Random(13)
    vals = [_random_rf(rng) for _ in range(6)]
    total = vals[0]
    for x in vals[1:]:
        total = total + x
    assert rf_sum(vals) == total
    assert rf_sum([]).is_zero()


def _mono(exps):
    """The packed monomial q^a t^b u^c for exps = (a, b, c)."""
    m = LaurentPoly.const(1)
    for name, e in zip("qtu", exps):
        m = m * LaurentPoly.var(name, e)
    return next(iter(m.terms))


_one = LaurentPoly.const(1)
_pq, _pt, _pu, _pv = (LaurentPoly.var(n) for n in "qtuv")
#: primitive factors for the sums below: binomials with unit and other
#: coefficients, one in two variables, and a three-term factor
SUM_FACTORS = [x.primitive()[2] for x in (
    _one - _pq, _one - _pt, _one - _pq * _pt, _pq + _pt * _pt,
    _one.scale(2) - (_pq * _pt).scale(3), _one + _pq + _pu * _pv)]


def _value(nc, dc, exps, fac):
    return RationalFunction(nc, dc, _mono(exps), {SUM_FACTORS[i]: k for i, k in fac.items()})


_sum_values = st.builds(_value, st.integers(-4, 4), st.integers(1, 6),
                        st.tuples(*[st.integers(-3, 3)] * 3),
                        st.dictionaries(st.integers(0, len(SUM_FACTORS) - 1),
                                        st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=3))


@st.composite
def _sums(draw):
    """2-5 values; or 1-2 values and their negatives, which cancel to 0."""
    if draw(st.booleans()):
        return draw(st.lists(_sum_values, min_size=2, max_size=5))
    vals = draw(st.lists(_sum_values, min_size=1, max_size=2))
    return draw(st.permutations(vals + [-x for x in vals]))


def _exactly(x):
    return x.nc, x.dc, x.mono, list(x.fac.items())


@given(_sums())
@example([_value(1, 2, (0, 0, 0), {0: 1, 1: -1}), _value(-3, 4, (1, 0, 0), {2: 1, 1: -1})])
@example([_value(1, 1, (0, 0, 0), {3: 1, 0: -1, 1: -2}), _value(2, 3, (0, 1, 0), {1: -1, 2: -1})])
@example([_value(1, 1, (0, 0, 0), {0: -2}), _value(5, 1, (0, 0, 0), {1: -1, 5: 2}),
          _value(1, 1, (0, 0, 0), {4: -3})])
@example([_value(3, 1, (0, 0, 0), {}), _value(-2, 5, (0, 0, 0), {}), _value(1, 1, (0, 0, 0), {})])
@example([_value(1, 1, (-2, 0, -3), {0: 3, 1: -2}), _value(-1, 1, (0, -1, 0), {5: 2, 1: -3})])
@example([_value(2, 3, (-1, 1, 0), {0: 2, 2: -1}), _value(-2, 3, (-1, 1, 0), {0: 2, 2: -1})])
@settings(derandomize=True, max_examples=300, deadline=None)
def test_rf_sum_matches_the_fold_of_expanded_cofactors(vals):
    """The one-pass numerator gives the old fold's value exactly: nc, dc,
    the monomial and the factor map in its order.  The examples are a shared
    denominator, a partly shared one, disjoint ones, constants, negative
    shifts with powers, and a total cancellation."""
    assert _exactly(rf_sum(vals)) == _exactly(oracles.rf_sum_fold(vals))


def test_a_sum_over_one_denominator_multiplies_no_polynomials(monkeypatch):
    """Each cofactor is one numerator factor to the first power, or none, so
    the sum forms no product: in particular no product by one."""
    den = (1 - q) * (1 - t) ** 2 * (1 - q * t)
    vals = [(1 + q * u) / den, (2 - t * v) / den, 3 * q ** -2 / den, -(u + v) * t / den]
    mul, calls = LaurentPoly.__mul__, []

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    total = rf_sum(vals)
    pair = vals[0] + vals[1]
    assert calls == []
    monkeypatch.undo()
    assert _exactly(total) == _exactly(oracles.rf_sum_fold(vals))
    assert _exactly(pair) == _exactly(oracles.rf_sum_fold(vals[:2]))


def test_trial_division_follows_the_key_order():
    """Trial division tries the denominator factors in key() order whatever
    order a product merged them in: here 1 - q divides the numerator first,
    so 1 - q^2 stays in the denominator."""
    a, b = 1 / (1 - q), 1 / (1 - q ** 2)
    for x in (a * b, b * a):
        assert rf_sum([x, -q ** 2 * x]).canonical_str() == "(1 + q)/(1 - q^2)"


def test_sampler_determinism_and_bounds():
    a = RationalSampler(17).point(["q", "t"])
    b = RationalSampler(17).point(["q", "t"])
    assert a == b
    assert all(f.numerator <= 10 ** 6 and f.denominator <= 10 ** 6
               for f in a.values())
    with pytest.raises(ValueError):
        RationalSampler(1, magnitude=10 ** 7)


def test_sampler_rejects_magnitudes_it_cannot_draw_from():
    # magnitude 2 can only draw 2/2 = 1
    with pytest.raises(ValueError, match="magnitude outside"):
        RationalSampler(0, magnitude=2)
    # magnitude 3 draws only 2/3 and 3/2, which are dependent
    sampler = RationalSampler(0, magnitude=3)
    assert sampler.fraction() in (Fraction(2, 3), Fraction(3, 2))
    with pytest.raises(ValueError, match="independent"):
        sampler.point(["q", "t", "u", "v", "t1", "t2"])


PRIMES_TO_40 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _prime_exponents(f: Fraction):
    """The exponent of each prime up to 40 in f (numerator minus denominator)."""
    out = []
    for p in PRIMES_TO_40:
        e, n, d = 0, f.numerator, f.denominator
        while n % p == 0:
            n, e = n // p, e + 1
        while d % p == 0:
            d, e = d // p, e - 1
        out.append(e)
    return out


def test_sampled_points_have_no_multiplicatively_dependent_pair():
    """x^i = y^j for some (i, j) != (0, 0) exactly when the prime-exponent
    vectors of x and y are parallel.  No two coordinates of a gate point may
    be so related, or the point can sit on a pole 1 - q^a t^b = 0."""
    for seed in range(1000):
        sampler = RationalSampler(seed, magnitude=40)
        for _ in range(3):
            values = list(sampler.point(["q", "t", "u", "v"]).values())
            for x, y in itertools.combinations(values, 2):
                ex, ey = _prime_exponents(x), _prime_exponents(y)
                assert any(ex[a] * ey[b] != ex[b] * ey[a]
                           for a, b in itertools.combinations(range(len(ex)), 2)), (seed, x, y)


OVERFLOWS = {
    "square": lambda: LaurentPoly.var("q", EXPONENT_LIMIT - 1) * LaurentPoly.var("q", EXPONENT_LIMIT - 1),
    "negative": lambda: LaurentPoly.var("q", 1 - EXPONENT_LIMIT) * LaurentPoly.var("q", 1 - EXPONENT_LIMIT),
    "construction": lambda: LaurentPoly.var("q", EXPONENT_LIMIT + 1),
    "negative_construction": lambda: LaurentPoly.var("q", -EXPONENT_LIMIT - 1),
    "quotient": lambda: LaurentPoly.var("q", EXPONENT_LIMIT) / LaurentPoly.var("q", -EXPONENT_LIMIT),
    "spill": lambda: LaurentPoly.var("t", EXPONENT_LIMIT) * LaurentPoly.var("t", EXPONENT_LIMIT),
    "negative_spill": lambda: (LaurentPoly.var("t", -EXPONENT_LIMIT) * LaurentPoly.var("q", 5)
                               * LaurentPoly.var("t", -EXPONENT_LIMIT)),
    # A product checks its result only when an operand exponent passes half
    # the limit; these operands do, and their products overflow.
    "half_operands": lambda: LaurentPoly.var("q", HALF + 1) * LaurentPoly.var("q", HALF),
    "half_operands_negative": lambda: (LaurentPoly.var("q", -HALF - 1)
                                       * LaurentPoly.var("q", -HALF - 1)),
    "half_operands_left": lambda: LaurentPoly.var("q", EXPONENT_LIMIT) * LaurentPoly.var("q"),
    "half_operands_right": lambda: LaurentPoly.var("q") * LaurentPoly.var("q", EXPONENT_LIMIT),
    "half_operands_in_sums": lambda: ((LaurentPoly.var("q", HALF + 1) + LaurentPoly.var("u"))
                                      * (LaurentPoly.var("v") - LaurentPoly.var("q", HALF))),
    "half_operands_spill": lambda: (LaurentPoly.var("t", HALF + 1) * LaurentPoly.var("q")
                                    * LaurentPoly.var("t", HALF + 1)),
    # rf_sum adds the cofactor (1 + q)(1 - t), shifted by q^LIMIT, into its
    # numerator: the shift must be checked as mono_shift checks it.  In the
    # second sum the term q^(LIMIT+1) cancels, so only that check sees it.
    "sum_shift": lambda: RationalFunction.var("q", EXPONENT_LIMIT) * (1 + q) + 1 / (1 - t),
    "sum_shift_cancelling": lambda: (RationalFunction.var("q", EXPONENT_LIMIT) * (1 + q)
                                     + RationalFunction.var("q", EXPONENT_LIMIT) * (t - q)),
}

#: products of operands past half the limit that stay in range, so the check
#: on the product runs and passes: the product's print
IN_RANGE = {
    "at_the_limit": (lambda: LaurentPoly.var("q", HALF + 1) * LaurentPoly.var("q", HALF - 1),
                     f"q^{EXPONENT_LIMIT}"),
    "other_variables": (lambda: LaurentPoly.var("q", HALF + 1) * LaurentPoly.var("t", HALF + 1),
                        f"q^{HALF + 1}*t^{HALF + 1}"),
    "cancelling": (lambda: LaurentPoly.var("t", -HALF - 1) * LaurentPoly.var("t", HALF + 1), "1"),
    "in_sums": (lambda: ((LaurentPoly.var("q", HALF + 1) - LaurentPoly.const(1))
                         * (LaurentPoly.var("q", -HALF - 1) + LaurentPoly.var("q", HALF - 1))),
                f"1 - q^{HALF - 1} - q^{-HALF - 1} + q^{EXPONENT_LIMIT}"),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_exponent_overflow_guard(case):
    """An exponent past EXPONENT_LIMIT raises wherever it is made, naming its
    own variable: the sum of two exponents at the limit does not carry into
    the next variable's field."""
    name = "t" if "spill" in case else "q"
    with pytest.raises(ExponentOverflowError, match=f"var {name}$"):
        OVERFLOWS[case]()


@pytest.mark.parametrize("case", sorted(IN_RANGE))
def test_operands_past_half_the_limit_with_a_product_in_range(case):
    make, printed = IN_RANGE[case]
    assert str(make()) == printed


def test_exponents_at_the_limit_stay_apart():
    big_q, big_t = LaurentPoly.var("q", EXPONENT_LIMIT), LaurentPoly.var("t", EXPONENT_LIMIT)
    assert str(big_q * big_t) == f"q^{EXPONENT_LIMIT}*t^{EXPONENT_LIMIT}"
    assert big_t * LaurentPoly.var("t", -EXPONENT_LIMIT) == LaurentPoly.const(1)
    assert (big_q * big_t).degree("t") == EXPONENT_LIMIT


def test_print_order_pin():
    """Printed term order and factor order follow the print order (absolute
    degree, then (index, -exponent)), not the integer order division uses.
    The sign of primitive() is picked by the integer order, which agrees with
    the print order on the nonnegative cone where the primitive part lies,
    so it is pinned here too.  The strings were captured from the
    tuple-monomial kernel."""
    pq, pt, pu, pv, pt1 = (LaurentPoly.var(n) for n in ("q", "t", "u", "v", "t1"))
    a = LaurentPoly.var("q", -1) * pt + pq * LaurentPoly.var("t", -1) + pt1 - (pu * pu * pv).scale(2)
    assert str(a) == "t1 + q*t^-1 + q^-1*t - 2*u^2*v"
    b = ((LaurentPoly.var("Q") * LaurentPoly.var("t2", -3) - LaurentPoly.var("x", 2) * pq
          + LaurentPoly.var("w1") * LaurentPoly.var("u", -1) * pt - LaurentPoly.const(5)) * (pq - pt))
    assert str(b) == ("-5*q + 5*t - q^2*x^2 + q*t*u^-1*w1 + q*t*x^2 - t^2*u^-1*w1"
                      " + q*t2^-3*Q - t*t2^-3*Q")
    for p, sign, mono, prim in [
            (a, 1, "q^-1*t^-1", "q^2 + t^2 + q*t*t1 - 2*q*t*u^2*v"),
            (-a, -1, "q^-1*t^-1", "q^2 + t^2 + q*t*t1 - 2*q*t*u^2*v"),
            (b, 1, "u^-1*t2^-3", "q*u*Q - t*u*Q - 5*q*u*t2^3 + 5*t*u*t2^3 + q*t*t2^3*w1"
                                 " - t^2*t2^3*w1 - q^2*u*t2^3*x^2 + q*t*u*t2^3*x^2")]:
        g, m, pp = p.primitive()
        assert (g, str(LaurentPoly({m: 1})), str(pp)) == (sign, mono, prim)
    rt1, rQ = generators("t1", "Q")
    f = (q / t - t / q + rt1 - 2 * u ** 2 * v) / (1 - q * rQ / rt1) / (v - u ** -1)
    assert f.canonical_str() == ("(-u*t1^2 - q*t^-1*u*t1 + q^-1*t*u*t1 + 2*u^3*v*t1)"
                                 "/(t1 - q*Q - u*v*t1 + q*u*v*Q)")
    g = (q ** -2 - rQ * t) * (1 - u * v) / ((t - q) * (1 - rt1 ** -1))
    assert g.canonical_str() == ("(q^-2*t1 - t*t1*Q - q^-2*u*v*t1 + t*u*v*t1*Q)"
                                 "/(q - t - q*t1 + t*t1)")


# Terms over six names: a coefficient and an exponent in -3..3 for each name,
# most of them 0 (absent).
KERNEL_NAMES = ("q", "t", "u", "v", "t1", "Q")
_terms = st.lists(st.tuples(st.integers(-4, 4).filter(bool),
                            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3]),
                                     min_size=len(KERNEL_NAMES), max_size=len(KERNEL_NAMES))),
                  max_size=6)


def _both(terms):
    """The same polynomial as a LaurentPoly and as a reference tuple poly."""
    packed, ref = LaurentPoly({}), {}
    for c, exps in terms:
        term = LaurentPoly.const(c)
        for n, e in zip(KERNEL_NAMES, exps):
            term = term * LaurentPoly.var(n, e)
        packed = packed + term
        m = oracles.tuple_mono(dict(zip(KERNEL_NAMES, exps)))
        ref[m] = ref.get(m, 0) + c
    return packed, {m: c for m, c in ref.items() if c}


@given(_terms, _terms, _terms)
@settings(max_examples=200, deadline=None)
def test_packed_kernel_matches_tuple_reference(ta, tb, tc):
    (a, ra), (b, rb), (c, rc) = _both(ta), _both(tb), _both(tc)
    ab = a * b
    assert str(ab) == oracles.tuple_poly_str(oracles.tuple_poly_mul(ra, rb))
    if not b:
        return
    assert ab / b == a
    # Division runs on nonnegative exponents: multiply through by a monomial.
    shift, rshift = _both([(1, [3] * len(KERNEL_NAMES))])
    (a, ra), (b, rb), (c, rc) = [(x * shift, oracles.tuple_poly_mul(rx, rshift))
                                 for x, rx in ((a, ra), (b, rb), (c, rc))]
    rab = oracles.tuple_poly_mul(ra, rb)
    for num, rnum in [(a, ra), (a * b, rab), (a * b + c, oracles.tuple_poly_add(rab, rc)),
                      (a * b * c, oracles.tuple_poly_mul(rab, rc))]:
        got, want = num.divide_exact(b), oracles.tuple_poly_divide(rnum, rb)
        assert (got is None) == (want is None)
        if got is not None:
            assert str(got) == oracles.tuple_poly_str(want)


# Terms on the nonnegative cone, where division runs.
_cone_terms = st.lists(st.tuples(st.integers(-4, 4).filter(bool),
                                 st.lists(st.sampled_from([0, 0, 1, 2, 3]),
                                          min_size=len(KERNEL_NAMES), max_size=len(KERNEL_NAMES))),
                       max_size=6)
_binomials = st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                st.lists(st.sampled_from([0, 0, 1, 2]), min_size=len(KERNEL_NAMES),
                                         max_size=len(KERNEL_NAMES))),
                      min_size=2, max_size=2).filter(lambda ts: ts[0][1] != ts[1][1])


@given(_binomials, _cone_terms, _cone_terms, st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
@settings(max_examples=300, deadline=None)
def test_binomial_division_matches_tuple_reference(td, tq, te, coeffs):
    """Division by a binomial with any coefficients, divisible or not,
    against the reference kernel's long division.  The last numerator is a
    multiple of the divisor's two monomials with other coefficients, where
    a division most often fails on a coefficient."""
    d, rd = _both(td)
    qp, rq = _both(tq)
    e, re_ = _both(te)
    other, rother = _both([(c, exps) for c, (_, exps) in zip(coeffs, td)])
    rdq = oracles.tuple_poly_mul(rd, rq)
    for num, rnum in [(d * qp, rdq), (d * qp + e, oracles.tuple_poly_add(rdq, re_)), (e, re_),
                      (other * qp, oracles.tuple_poly_mul(rother, rq))]:
        got = num.divide_exact(d)
        want = oracles.tuple_poly_divide(rnum, rd)
        assert (got is None) == (want is None)
        if got is not None:
            assert str(got) == oracles.tuple_poly_str(want)


def test_binomial_division_examples():
    pq, pt, pu = (LaurentPoly.var(n) for n in ("q", "t", "u"))
    d = pq.scale(2) - pt.scale(3)
    assert (d * (pq * pq + pt * pu - LaurentPoly.const(7))).divide_exact(d) == \
        pq * pq + pt * pu - LaurentPoly.const(7)
    # 4q^2 - 9t^2 = (2q - 3t)(2q + 3t), but 4q^2 - 9t^3 is not a multiple
    assert (pq * pq).scale(4).divide_exact(d) is None
    assert ((pq * pq).scale(4) - (pt * pt).scale(9)).divide_exact(d) == pq.scale(2) + pt.scale(3)
    assert ((pq * pq).scale(4) - (pt * pt * pt).scale(9)).divide_exact(d) is None
    # 2t - 2q: the leading term in the integer order is -3t, and the
    # remainder after one step would vanish if 3 divided 2
    assert (pt - pq).scale(2).divide_exact(d) is None
    # q*t - u^2: the leading term is not a power of one variable
    b = pq * pt - pu * pu
    assert (b * b * (pq + pu)).divide_exact(b) == b * (pq + pu)
    assert (b * b + pq).divide_exact(b) is None


@given(_cone_terms.filter(bool))
@settings(max_examples=200, deadline=None)
def test_integer_order_is_the_print_order_on_the_cone(terms):
    p = _both(terms)[0]
    assume(p)
    assert min(p.terms) == min(p.terms, key=mono_key)


@given(_terms, _terms)
@settings(max_examples=200, deadline=None)
def test_quotient_of_primitive_parts_is_primitive(ta, tb):
    """What _reduce_over relies on when it keeps a quotient as it is."""
    a, b = _both(ta)[0], _both(tb)[0]
    assume(a and b)
    p, q_ = a.primitive()[2], b.primitive()[2]
    assert (p * q_).divide_exact(p).primitive() == (1, MONO_ONE, q_)


@given(_terms)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_poly_pow_is_the_repeated_product(terms):
    p = _both(terms)[0]
    want = LaurentPoly.const(1)
    for n in range(6):
        got = poly_pow(p, n)
        assert got == want and str(got) == str(want)
        want = want * p
    assert poly_pow(p, 1) is p


@given(_terms)
@example([(1, [0, 0, 0, 0, 0, 0]), (-1, [1, 0, 0, 0, 0, 0])])
@example([(1, [1, 0, 0, 0, 0, 0]), (-1, [2, 0, 0, 0, 0, 0])])
@settings(derandomize=True, max_examples=100, deadline=None)
def test_primitive_copies_the_terms_only_when_it_must(terms):
    """The primitive part equals the divided copy of the shifted terms, in
    its term order; with content 1 and no monomial content it is the
    operand itself."""
    p = _both(terms)[0]
    assume(p)
    g, mono, prim = p.primitive()
    copied = LaurentPoly({m - mono: c // g for m, c in p.terms.items()})
    assert list(prim.terms.items()) == list(copied.terms.items())
    assert (prim is p) == (g == 1 and mono == MONO_ONE)


@given(_terms, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_equal_polynomials_hash_equal(terms, rnd):
    p = _both(terms)[0]
    items = list(p.terms.items())
    rnd.shuffle(items)
    shuffled = LaurentPoly(dict(items))
    assert shuffled == p and hash(shuffled) == hash(p)
    a, b = _both(terms[::2])[0], _both(terms[1::2])[0]
    assert hash(a + b) == hash(b + a) == hash(p)
    assert hash(a * b) == hash(b * a)


@given(_terms, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_hash_is_kept_and_agrees_across_term_orders(terms, rnd):
    """The hash is computed once per instance and kept; equal polynomials
    built in different term orders hash equal before and after a first hash."""
    p = _both(terms)[0]
    items = list(p.terms.items())
    rnd.shuffle(items)
    first, second = LaurentPoly(dict(items)), LaurentPoly(dict(items[::-1]))
    assert first._hash is None and second._hash is None
    h = hash(first)
    assert first._hash == h and second._hash is None
    assert hash(second) == h == hash(first) == hash(second)


def _ratio(tn, td):
    num, den = _both(tn)[0], _both(td)[0]
    return RationalFunction.from_poly(num) / RationalFunction.from_poly(den or LaurentPoly.const(1))


@given(_terms, _terms, _terms, _terms)
@settings(max_examples=100, deadline=None)
def test_factor_map_holds_no_zero_exponent_and_products_commute(ta, tb, tc, td):
    a, b = _ratio(ta, tb), _ratio(tc, td)
    values = [a, b, a * b, b * a, -a, rf_sum([a, b, a * b]), rf_sum([a, -a])]
    if b:
        values += [a / b, a * b / b, b.inverse(), b * b.inverse()]
    for f in values:
        assert 0 not in f.fac.values()
    assert (a * b).canonical_str() == (b * a).canonical_str()


def test_package_exports_resolve():
    import hilbmac.exactalg as exactalg
    assert [name for name in exactalg.__all__ if not hasattr(exactalg, name)] == []
    namespace = {}
    exec("from hilbmac.exactalg import *", namespace)
    assert set(exactalg.__all__) <= set(namespace)


def test_random_expression_trees_against_fraction_oracle():
    """Random +,-,*,/ expression trees evaluated two ways: symbolically then
    at a point, versus directly on Fractions at the same point."""
    rng = random.Random(2024)
    sampler = RationalSampler(77)
    names = ("q", "t", "u")
    leaves = [RationalFunction.var(n) for n in names] + \
        [RationalFunction.from_int(k) for k in (-2, 1, 3)]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            i = rng.randrange(len(leaves))
            return leaves[i], lambda pt, i=i: (
                pt[names[i]] if i < len(names) else Fraction([-2, 1, 3][i - len(names)]))
        op = rng.choice("+-*/")
        ls, lf = build(depth - 1)
        rs, rf_ = build(depth - 1)
        if op == "+":
            return ls + rs, lambda pt: lf(pt) + rf_(pt)
        if op == "-":
            return ls - rs, lambda pt: lf(pt) - rf_(pt)
        if op == "*":
            return ls * rs, lambda pt: lf(pt) * rf_(pt)
        if rs.is_zero():
            return ls, lf
        return ls / rs, lambda pt: lf(pt) / rf_(pt)

    checked = 0
    while checked < 40:
        try:
            sym, direct = build(4)
        except (ZeroDivisionError, Exception) as exc:
            from hilbmac.exactalg import DivisionByZero
            if isinstance(exc, DivisionByZero):
                continue
            raise
        pt = sampler.point(names)
        try:
            lhs = sym.eval(pt)
            rhs = direct(pt)
        except (PoleError, ZeroDivisionError):
            continue
        assert lhs == rhs
        checked += 1


POWER_BASES = {
    "constant": lambda: RationalFunction.from_fraction(Fraction(-6, 35)),
    "monomial": lambda: -3 * q ** 2 * t ** -1 / 4,
    "factors": lambda: (2 * q * t ** -3 * (1 - q) ** 2 * (1 + q * t)
                        / (9 * (1 - t) * (u - q) ** 3)),
}


@pytest.mark.parametrize("base", sorted(POWER_BASES))
@pytest.mark.parametrize("n", range(-6, 7))
def test_power_is_the_repeated_product(base, n):
    """x**n raises nc, dc, the monomial and each factor's exponent at once;
    value, print and factor map are those of the repeated product."""
    x = POWER_BASES[base]()
    factor = x if n >= 0 else x.inverse()
    want = RationalFunction.from_int(1)
    for _ in range(abs(n)):
        want = want * factor
    got = x ** n
    assert got == want and got.canonical_str() == want.canonical_str()
    assert list(got.fac.items()) == list(want.fac.items())
    assert (got.nc, got.dc, got.mono) == (want.nc, want.dc, want.mono)


@pytest.mark.parametrize("make", [lambda n: q ** n, lambda n: (q * t ** -2) ** -n,
                                  lambda n: (1 - q * t) ** n, lambda n: 2 / (1 + u) ** n])
def test_a_huge_power_raises_before_it_is_formed(make):
    with pytest.raises(ExponentOverflowError):
        make(9999999999999999999)
    with pytest.raises(ExponentOverflowError):
        make(EXPONENT_LIMIT + 1)
