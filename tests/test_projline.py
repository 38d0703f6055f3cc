"""Closed points and divisors of P^1: the oracles' points, divisors and form
gcds, field.monic_irreducibles against trial division, count_closed_points
and the zeta identity it satisfies."""

import itertools

import pytest
from oracles import (
    ZERO_DIVISOR,
    ZeroForm,
    closed_points_up_to,
    divisor_min,
    divisor_mult,
    divisor_of_form,
    divisor_sum,
    form_gcd,
    form_gcd_degree,
    frobenius,
    from_vector,
    hilb_points,
    irreducibles_by_trial_division,
    point_at_infinity,
    rational_point,
)

from dp4sieve import heightzeta as hz
from dp4sieve.field import count_closed_points, make_field, monic_irreducibles

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)


def all_forms(K, degree):
    return list(itertools.product(range(K.q), repeat=degree + 1))


def test_divisor_of_monomials():
    # X*Y over F_2: form c0=0 (Y^2 term), c1=1 (XY), c2=0 -> divides at 0 and infinity
    d = divisor_of_form(F2, (0, 1, 0))
    assert divisor_mult(d, rational_point(F2, 0)) == 1
    assert divisor_mult(d, point_at_infinity()) == 1
    assert d.degree == 2
    # X^2: double zero at x=0
    d = divisor_of_form(F3, (0, 0, 1))
    assert d.entries == ((rational_point(F3, 0), 2),)


def test_divisor_irreducible_quadratic():
    # X^2 + XY + Y^2 over F_2 has no rational roots: one degree-2 point
    d = divisor_of_form(F2, (1, 1, 1))
    assert len(d.entries) == 1
    pt, m = d.entries[0]
    assert (pt.degree, m) == (2, 1)
    assert d.degree == 2


def test_divisor_of_zero_form_raises():
    with pytest.raises(ZeroForm):
        divisor_of_form(F2, (0, 0, 0))


def test_form_gcd_basics():
    # gcd(XY, X^2) = one zero at x=0
    g = form_gcd(F3, (0, 1, 0), (0, 0, 1))
    assert g.entries == ((rational_point(F3, 0), 1),)
    # idempotence
    f = (1, 2, 1)
    assert form_gcd(F3, f, f) == divisor_of_form(F3, f)
    # one zero form: divisor of the other
    assert form_gcd(F3, (0, 0, 0), f) == divisor_of_form(F3, f)
    with pytest.raises(ZeroForm):
        form_gcd(F3, (0, 0), (0, 0))
    # gcd with a nonzero constant is the zero divisor
    assert form_gcd(F3, (2,), f) == ZERO_DIVISOR


def test_form_gcd_matches_pointwise_min_exhaustive():
    # oracle: factor both forms and take the pointwise min of multiplicities
    for f in all_forms(F3, 2):
        if not any(f):
            continue
        for g in all_forms(F3, 2):
            if not any(g):
                continue
            expected = divisor_min(divisor_of_form(F3, f), divisor_of_form(F3, g))
            got = form_gcd(F3, f, g)
            assert got == expected
            assert form_gcd_degree(F3, f, g) == expected.degree


def test_div_of_product_is_sum():
    from dp4sieve.field import poly_mul

    # div(f*g) = div(f) + div(g), checked exhaustively at small degree
    forms1 = [f for f in all_forms(F2, 1) if any(f)]
    for f in forms1:
        for g in forms1:
            # product of forms: polynomial product of coefficient sequences
            prod = poly_mul(F2, f, g)
            prod = prod + (0,) * (3 - len(prod))  # degree-2 form has 3 coeffs
            assert divisor_of_form(F2, prod) == divisor_sum(divisor_of_form(F2, f),
                                                            divisor_of_form(F2, g))


def test_closed_points_degree_one():
    pts = closed_points_up_to(F2, 1)
    assert len(pts) == 3  # 0, 1, infinity
    assert pts[-1].is_infinity
    assert len(closed_points_up_to(F3, 1)) == 4


def test_closed_points_degree_two_f2():
    pts = closed_points_up_to(F2, 2)
    deg2 = [p for p in pts if p.degree == 2]
    assert len(deg2) == 1
    assert deg2[0].poly == (1, 1, 1)  # x^2 + x + 1


def test_irreducibles_by_marking_equal_trial_division():
    # the same points in the same order, and as many as the necklace formula
    for K in (F2, F3, F4, F5):
        for n in range(1, 5):
            marked = monic_irreducibles(K, n)
            assert marked == tuple(pt.poly for pt in irreducibles_by_trial_division(K, n)), \
                (K.q, n)
            assert len(marked) == count_closed_points(K.q, n) - (n == 1)


def test_count_closed_points_formula():
    assert count_closed_points(2, 2) == 1  # (4-2)/2
    assert count_closed_points(2, 3) == 2  # (8-2)/3
    assert count_closed_points(3, 1) == 4  # q+1
    # formula agrees with enumeration
    for K, N in ((F2, 6), (F3, 5), (F4, 4), (F5, 4)):
        by_deg = {}
        for pt in closed_points_up_to(K, N):
            by_deg[pt.degree] = by_deg.get(pt.degree, 0) + 1
        for n in range(1, N + 1):
            assert by_deg.get(n, 0) == count_closed_points(K.q, n)


def test_hilb_points_counts():
    assert hilb_points(F2, 0) == [ZERO_DIVISOR]
    assert len(hilb_points(F2, 1)) == 3
    assert len(hilb_points(F2, 2)) == 7  # #P^2(F_2)
    assert len(hilb_points(F3, 2)) == 13
    assert len(hilb_points(F4, 2)) == 21
    # #P^8(F_3), over 1,319 closed points of degree <= 8: more than Python's
    # default recursion limit, so the enumeration must not recurse per point
    assert len(hilb_points(F3, 8)) == 9841
    # all degree-n, all distinct
    divs = hilb_points(F3, 3)
    assert len(divs) == 40
    assert all(d.degree == 3 for d in divs)
    assert len(set(d.entries for d in divs)) == 40


def test_weighted_point_sum_matches_zeta_coefficients():
    # sum over closed points of deg <= N, weighted by degree, equals the
    # count of degree-N... the matching statement: number of effective
    # divisors of degree n equals #P^n, already forced by the zeta identity;
    # here we check the inventory against the divisor enumeration directly.
    for K in (F2, F3):
        for n in (1, 2, 3):
            assert len(hilb_points(K, n)) == (K.q ** (n + 1) - 1) // (K.q - 1)


def test_zeta_identity():
    assert hz.zeta_p1_identity_check(F2, 6) is True
    assert hz.zeta_p1_identity_check(F3, 5) is True
    for K in (F2, F3, F4, F5):
        assert hz.zeta_p1_identity_check(K, 1) is True


def test_zeta_identity_names_the_first_wrong_order(monkeypatch):
    # one degree-3 point too many breaks the identity from t^3 on
    def miscount(q, n):
        return count_closed_points(q, n) + (n == 3)

    monkeypatch.setattr(hz, "count_closed_points", miscount)
    assert hz.zeta_p1_identity_check(F3, 6) == 3
    assert hz.zeta_p1_identity_check(F3, 2) is True


def test_divisors_are_galois_stable_by_construction():
    # representation by closed points means any divisor we build is a
    # union of full Galois orbits; spot-check via Frobenius on roots of a
    # split form over F_4: conjugate roots produce the same divisor
    x = from_vector(F4, (0, 1))
    x2 = frobenius(F4, x)
    f1 = (F4.mul(x, x2), F4.add(x, x2), 1)  # (X - x Y)(X - x^2 Y) with F_4 arithmetic... over F_4 splits
    d = divisor_of_form(F4, f1)
    assert d.degree == 2
