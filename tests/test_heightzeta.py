from fractions import Fraction

import oracles as orc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import surface_count, tamagawa_exact

from dp4sieve import euler as eu
from dp4sieve import heightzeta as hz
from dp4sieve.errors import LemmaViolation, TooLarge
from dp4sieve.exactnum import DEFAULT_BITS, Interval
from dp4sieve.field import count_closed_points


def test_interval_arithmetic():
    a = Interval.exact(Fraction(1, 3))
    b = Interval.exact(Fraction(2, 7))
    c = a * b - b
    assert c.lo <= Fraction(1, 3) * Fraction(2, 7) - Fraction(2, 7) <= c.hi
    assert c.width < Fraction(1, 2 ** 180)
    big = Interval.exact(Fraction(3, 2), bits=256).power(10 ** 6)
    assert big.lo > 0
    d = a / b
    assert d.lo <= Fraction(7, 6) <= d.hi


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def _series(draw, nvars, q, weights):
    """A sparse series whose coefficients the weights make integral."""
    orders = tuple(draw(st.integers(0, 4)) for _ in range(nvars))
    scale = draw(st.integers(0, 6))
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, o) for o in orders)),
                                 st.integers(-50, 50), max_size=6))
    coeffs = {e: Fraction(c, q ** (scale + sum(w * x for w, x in zip(weights, e))))
              for e, c in terms.items()}
    return hz.TruncatedMultiSeries(orders, coeffs, q, weights, scale), coeffs


@st.composite
def _series_pair(draw):
    nvars = draw(st.integers(1, 3))
    q = draw(st.sampled_from([1, 2, 3, 5]))
    weights = tuple(draw(st.integers(0, 4)) for _ in range(nvars))
    return draw(_series(nvars, q, weights)), draw(_series(nvars, q, weights))


@PROPERTY
@given(_series_pair(), st.integers(0, 5))
def test_series_kernel_matches_the_dict_oracle(pair, e):
    (a, a_coeffs), (b, b_coeffs) = pair
    assert a.coeffs == {expo: v for expo, v in a_coeffs.items() if v}
    orders = tuple(map(min, a.orders, b.orders))
    assert (a * b).orders == orders
    assert (a * b).coeffs == orc.series_product(orders, a_coeffs, b_coeffs)
    power = {(0,) * len(a.orders): Fraction(1)}
    for _ in range(e):
        power = orc.series_product(a.orders, power, a_coeffs)
    assert a.power(e).coeffs == power


def test_series_refuses_a_coefficient_its_scaling_leaves_fractional():
    hz.TruncatedMultiSeries((2,), {(1,): Fraction(1, 9)}, 3, (2,))
    with pytest.raises(LemmaViolation, match="not integral"):
        hz.TruncatedMultiSeries((2,), {(1,): Fraction(1, 9)}, 3, (1,))


def test_euler_factors_are_integral_after_scaling():
    # q^{4d} F_d(q t): (Q - 1)^3 (Q + 3) and Q^4 - 2 Q^3 + 2 Q - 1, Q = q^d
    for q in (3, 4, 5):
        for d in range(1, 5):
            Q = q ** d
            fac = eu.local_factor(q, d, (8, 8, 8, 8))    # refuses a fractional one
            assert fac.coefficient((0, 0, 0, 0)) * Q ** 4 == (Q - 1) ** 3 * (Q + 3)
            for m in range(1, 8 // d + 1):
                for i in range(4):
                    expo = (0,) * i + (d * m,) + (0,) * (3 - i)
                    assert fac.coefficient(expo) * Q ** (4 + m) \
                        == Q ** 4 - 2 * Q ** 3 + 2 * Q - 1


def test_constant_denominator_valuation():
    # the p-adic valuation _constant_too_long charges per degree-n point
    for q, p, r in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3),
                    (9, 3, 2), (25, 5, 2), (27, 3, 3)):
        for n in range(1, 6):
            den, v = eu.local_factor(q, n, (0, 0, 0, 0)).coefficient((0, 0, 0, 0)).denominator, 0
            while den % p == 0:
                den, v = den // p, v + 1
            assert den == 1 and v == 4 * r * n - (p == 3)


@PROPERTY
@given(st.sampled_from([8, 32, 192]), st.integers(0, 4), st.integers(0, 2 ** 10),
       st.integers(0, 5000), st.data())
def test_interval_power_matches_repeated_products(bits, whole, spread, e, data):
    nlo = (whole << bits) + data.draw(st.integers(0, (1 << bits) - 1))
    x = Interval(nlo, nlo + spread, bits)
    power = x.power(e)
    oracle = orc.interval_power(x, e)
    assert (power.nlo, power.nhi) == (oracle.nlo, oracle.nhi)


def test_interval_power_refuses_a_negative_lower_endpoint():
    with pytest.raises(ValueError, match="nonnegative"):
        Interval(-1, 1 << DEFAULT_BITS).power(3)
    with pytest.raises(ValueError):
        Interval(0, 1).power(-1)


def test_local_factor_coefficients():
    # the displayed factor, orders <= 3, |c| in {1, 2, 3}
    for q in (2, 3, 5):
        for deg in (1, 2, 3):
            fac = eu.local_factor(q, deg, (3, 3, 3, 3))
            u = Fraction(1, q ** deg)
            assert fac.coefficient((0, 0, 0, 0)) == 1 - 6 * u ** 2 + 8 * u ** 3 - 3 * u ** 4
            for i in range(4):
                e = [0] * 4
                e[i] = deg
                if deg <= 3:
                    expected = q ** deg * (u ** 2 - 2 * u ** 3 + 2 * u ** 5 - u ** 6)
                    assert fac.coefficient(tuple(e)) == expected
            # exponents not multiples of deg vanish
            if deg == 2:
                assert fac.coefficient((1, 0, 0, 0)) == 0
                assert fac.coefficient((3, 0, 0, 0)) == 0


def test_local_factor_coefficient_example_q_generic():
    # |c| = 1: coefficient of t_i is q^{-1} - 2 q^{-2} + 2 q^{-4} - q^{-5}
    for q in (2, 3, 5, 7):
        fac = eu.local_factor(q, 1, (1, 1, 1, 1))
        u = Fraction(1, q)
        assert fac.coefficient((1, 0, 0, 0)) == u - 2 * u ** 2 + 2 * u ** 4 - u ** 5


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_closed_forms_are_the_crosscut_factor(q):
    # good_factor and _diag_local_value sum euler.local_factor's contact
    # coefficients c_m as a geometric series: c_(m+1) = u c_m for m >= 1
    for n in (1, 2, 3):
        fac, u = eu.local_factor(q, n, (8 * n, 0, 0, 0)), Fraction(1, q ** n)
        c = [fac.coefficient((n * m, 0, 0, 0)) for m in range(9)]
        assert all(c[m + 1] == u * c[m] for m in range(1, 8))
        assert hz.good_factor(q, n) == (1 - u) ** 4 * (c[0] + 4 * c[1] / (1 - u))
        for tau in (Fraction(1, 2), Fraction(3, 4), Fraction(31, 32)):
            num, den = hz._diag_local_value(q, n, tau)
            assert Fraction(num, den) == c[0] + 4 * c[1] * tau ** n / (1 - u * tau ** n)


def test_euler_product_constant():
    # N = 1, orders 0: the constant is the degree-1 factor to the (q+1)-st
    for q in (2, 3):
        prod = eu.euler_product(q, 1, (0, 0, 0, 0))
        assert prod.coefficient((0, 0, 0, 0)) == orc.factor_constant(q, 1) ** (q + 1)


def test_euler_product_log_derivative():
    # coefficient of t_i two ways: direct expansion vs the product rule
    for q, N in ((2, 3), (3, 2)):
        orders = (1, 1, 1, 1)
        prod = eu.euler_product(q, N, orders)
        direct = prod.coefficient((1, 0, 0, 0))
        # only degree-1 factors carry t^1; the rest contribute constants
        c1 = count_closed_points(q, 1)
        fac1 = eu.local_factor(q, 1, orders)
        rest = Fraction(1)
        for n in range(2, N + 1):
            rest *= orc.factor_constant(q, n) ** count_closed_points(q, n)
        expected = c1 * fac1.coefficient((1, 0, 0, 0)) \
            * fac1.coefficient((0, 0, 0, 0)) ** (c1 - 1) * rest
        assert direct == expected


@pytest.mark.parametrize("digits, refused", [(186, "the constant"), (187, "a coefficient"),
                                             (191, "a coefficient"), (192, None)])
def test_euler_product_refuses_coefficients_that_cannot_print(monkeypatch, digits, refused):
    # q = 3, N = 4: the constant has 187 digits and the t^(2,2,2,2)
    # coefficient 192, the most of any
    monkeypatch.setattr(eu.sys, "get_int_max_str_digits", lambda: digits)
    if refused is None:
        assert eu.euler_product(3, 4, (2, 2, 2, 2)).coefficient((2, 2, 2, 2))
    else:
        with pytest.raises(TooLarge, match=refused):
            eu.euler_product(3, 4, (2, 2, 2, 2))


def test_series_monomial_cap():
    hz.TruncatedMultiSeries((9, 9, 9, 9))
    with pytest.raises(TooLarge):
        hz.series_one((9, 9, 9, 10))


def test_euler_product_truncation_monotone():
    # coefficients at cutoff N agree with cutoff N+1 up to degree-(N+1)
    # contributions; for orders below N+1 the t-coefficients agree exactly
    # after scaling by the new constant factors
    q = 3
    orders = (2, 2, 2, 2)
    p2 = eu.euler_product(q, 2, orders)
    p3 = eu.euler_product(q, 3, orders)
    scale = orc.factor_constant(q, 3) ** count_closed_points(q, 3)
    for expo, val in p2.coeffs.items():
        assert p3.coefficient(expo) == val * scale


def test_surface_count():
    assert surface_count(3, 1) == 28
    assert surface_count(5, 1) == 56
    # blow-up identity: #(P^1 x P^1) + 4 q^n
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            assert surface_count(q, n) == (q ** n + 1) ** 2 + 4 * q ** n
            assert surface_count(q, n) % q == 1
    # consistency with the good factor
    for q, n in ((3, 1), (5, 2)):
        u = Fraction(1, q ** n)
        assert hz.good_factor(q, n) == (1 - u) ** 6 * Fraction(surface_count(q, n), q ** (2 * n))


def test_tamagawa_structure():
    res = hz.tamagawa(5, 6)
    # degree-1 partial: ((1-1/q)^6 (q^2+6q+1)/q^2)^{q+1} q^2 (1-1/q)^{-6}
    q = 5
    expected1 = hz.good_factor(q, 1) ** (q + 1) * q ** 2 * (1 - Fraction(1, q)) ** -6
    assert abs(res.partials[0] - expected1) < Fraction(1, 2 ** 100)
    # increments shrink for N >= 3
    incs = [abs(b - a) for a, b in zip(res.partials, res.partials[1:])]
    assert incs[4] < incs[3] < incs[2]
    assert res.enclosure_width < Fraction(1, 2 ** 100)
    # exact small-N path agrees
    assert abs(tamagawa_exact(5, 4) - hz.tamagawa(5, 4).value) < Fraction(1, 2 ** 100)


def test_expected_counts_share_one_tamagawa():
    hz.tamagawa.cache_clear()
    for a, b, k in ((1, 1, (0, 0, 0, 0)), (2, 1, (1, 0, 0, 0)), (2, 2, (1, 1, 0, 0))):
        hz.expected_section_count(3, a, b, k, 6)
    assert hz.tamagawa.cache_info().misses == 1
    assert hz.tamagawa(3, 6) is hz.tamagawa(3, 6)


def test_tamagawa_large_q_trend():
    # each local factor tends to 1, so tau -> q^2 (1 + o(1)) at fixed N
    vals = []
    for q in (3, 5, 11):
        vals.append(hz.tamagawa(q, 3).value / q ** 2)
    assert abs(vals[2] - 1) < abs(vals[1] - 1) < abs(vals[0] - 1)


def test_limit_formula_rhs_value():
    # rhs at N = 1, q = 5: (1 - 1/5)^{-4} ((1-1/5)^6 (1 + 6/5 + 1/25))^6
    res = hz.limit_formula_check(5, 1, 2)
    q = 5
    expected = (1 - Fraction(1, q)) ** -4 * hz.good_factor(q, 1) ** (q + 1)
    assert abs(res.rhs - expected) < Fraction(1, 2 ** 100)


def test_limit_formula_gaps_decrease():
    res = hz.limit_formula_check(5, 8, 4)
    assert res.gaps_decreasing_certified
    assert all(g > 0 for g in res.gaps)
    assert all(l > 0 for l in res.lhs) and res.rhs > 0


@pytest.mark.parametrize("q", [3, 5])
def test_limit_check_integers_match_the_fraction_path(q):
    # the unreduced integer quotient gives the same endpoints as the reduced
    # Fraction, at every degree each tau of limit_formula_check(q, ., 5)
    # reaches, and the cross-multiplied cutoff is the Fraction one
    for m in range(1, 6):
        tau, tol = 1 - Fraction(1, 2 ** m), Fraction(1, 2 ** (m + 4))
        M = hz._lhs_depth_needed(q, tau, tol)
        assert M == orc.lhs_depth_needed(q, tau, tol)
        for n in range(1, M + 1):
            num, den = hz._diag_local_value(q, n, tau)
            assert Fraction(num, den) == orc.diag_local_value(q, n, tau)
            for bits in (DEFAULT_BITS, 300):
                exact = Interval.exact(orc.diag_local_value(q, n, tau), bits)
                assert Interval.exact(num, bits, den) == exact, (m, n, bits)


def test_expected_section_count_scalings():
    q = 3
    e1 = hz.expected_section_count(q, 1, 1, (0, 0, 0, 0), 6)
    e2 = hz.expected_section_count(q, 2, 1, (0, 0, 0, 0), 6)
    assert e2 == e1 * q ** 2
    # the section expectation is (q-1)^2 times the morphism expectation
    tau = hz.tamagawa(q, 6).value
    assert e1 == (q - 1) ** 2 * tau * q ** 4


def test_no_floats_in_results():
    res = hz.tamagawa(3, 8)
    assert isinstance(res.value, Fraction)
    lim = hz.limit_formula_check(3, 5, 3)
    assert all(isinstance(g, Fraction) for g in lim.gaps)
