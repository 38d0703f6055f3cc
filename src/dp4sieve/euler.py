"""The height zeta function's Euler factors L_P and their product over P^1."""

import sys

from .errors import TooLarge
from .field import count_closed_points
from .heightzeta import TruncatedMultiSeries, series_one
from .sieve import local_poly


def local_factor(q: int, degree: int, orders) -> TruncatedMultiSeries:
    """L_P at a closed point of the given degree, truncated at the t-orders:
    the sieve's local excess polynomials (sieve.local_poly) at T = 1, the
    one at the depth-m plane base being the t_i^{degree m} coefficient,
    with t_i -> q t_i.  Kept as q^{4 degree} L_P(q t), integral with unit
    weights and scale 4 degree: with Q = q^degree the constant is
    (Q - 1)^3 (Q + 3), every contact coefficient (Q - 1)^3 (Q + 1).
    """
    def at_one(depth):
        return sum(local_poly(q, degree, depth).values())

    coeffs = {(0, 0, 0, 0): at_one(0)}
    for i, order in enumerate(orders):
        for m in range(1, order // degree + 1):
            coeffs[(0,) * i + (degree * m,) + (0,) * (3 - i)] = q ** (degree * m) * at_one(m)
    return TruncatedMultiSeries(orders, coeffs, q, (1, 1, 1, 1), 4 * degree)


def euler_product(q: int, N: int, orders) -> TruncatedMultiSeries:
    """Product of local factors over closed points of degree <= N, exact.

    Factors of equal degree coincide, so the product groups by degree and
    exponentiates; a degree above every t-order has a constant factor.
    Integer coefficients throughout (see local_factor), so N is expected
    small (the deep-cutoff evaluations live in heightzeta's interval-based
    routines).

    Every coefficient must print: before multiplying, an N whose constant
    coefficient has more digits than sys.get_int_max_str_digits() is
    refused with TooLarge (_constant_too_long), and so is a product with
    any longer coefficient.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    orders = tuple(orders)
    digits = sys.get_int_max_str_digits()
    if digits and _constant_too_long(q, N, digits):
        raise TooLarge(f"the constant coefficient at N = {N} has more than {digits} digits")
    out = series_one(orders, q, (1, 1, 1, 1))
    for n in range(1, N + 1):
        out = out * local_factor(q, n, orders).power(count_closed_points(q, n))
    if digits and any(max(abs(v.numerator), v.denominator) >= 10 ** digits
                      for v in out.coeffs.values()):
        raise TooLarge(f"a coefficient at N = {N} has more than {digits} digits")
    return out


def _constant_too_long(q: int, N: int, digits: int) -> bool:
    """Whether p^e >= 10^digits, p^e the reduced denominator of the
    product's constant coefficient, its scaled integer over q^s with the
    scale s = sum_n 4 n count_n.

    With q = p^r and Q = q^n, the degree-n scaled constant (Q - 1)^3 (Q + 3)
    is prime to p unless p = 3, where it has one factor 3: Q + 3 is
    3 (3^{rn - 1} + 1), and 3^{rn - 1} + 1 is 2 or prime to 3.  So
    e = r s - [p = 3] sum_n count_n.
    """
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = next(r for r in range(1, q) if p ** r == q)
    e = 0
    for n in range(1, N + 1):
        e += count_closed_points(q, n) * (4 * r * n - (p == 3))
        if e >= 4 * digits:         # p^e >= 2^e >= 10^digits, as log2(10) < 4
            return True
    return p ** e >= 10 ** digits
