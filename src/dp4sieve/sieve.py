"""Truncated sieve sums: the inclusion-exclusion over local conditions at
the closed points of P^1, as one Euler-type product of closed-form local
excess polynomials.

A sieve sum is one Euler-type product of local excess polynomials over
closed points, a truncated series in t_1..t_4 and the excess variable T on
heightzeta's series kernel (see sieve_sum); no tuple is enumerated.  Under
t_i -> q^2 t_i and T -> q^4 T every local factor has integer
coefficients, so the product runs on integers.  At T = 1 a local excess
polynomial is the Euler factor L_P (euler.local_factor), so _sieve_partials
(truncated by excess D) and euler.euler_product (truncated by point degree
N) truncate the same product prod_P L_P.

Local conditions.  The fiber of the two sides at a point is V_1 + V_2, and
its product subspaces A + B, each factor the full plane, one of four marked
lines or zero, form a lattice of sixteen elements under inclusion: V; six
coatoms of corank 2, the one-side elements 0 + V_2 and V_1 + 0 and the four
planes W_i = l_i + l'_i; the eight lines l_i + 0 and 0 + l'_i, of corank 3;
and 0, of corank 4.  A saturated local condition is a chain of levels
e_1 <= e_2 <= ... of non-top elements, ordered levelwise in reverse; its
expected codimension gamma is the sum of the levels' coranks.  The excess of
tau over a base counts, weighted by the point's degree d, the growth in
depth plus the base levels strictly refined: the unique grading for which
zero excess means tau = base while depth-1 conditions at fresh points cost
one unit.  The local excess polynomial of a base is the sum of
mu(base, tau) u^gamma(tau) T^excess(tau) over tau >= base, u = q^-d.

Closed forms.  By Rota's crosscut theorem mu(base, tau) is the sum of
(-1)^|S| over the sets S of covers of base whose join, the levelwise meet,
is tau, so mu(base, .) vanishes beyond one level above the base and each
polynomial has three terms at most:

    den_d(T)     = 1 + (-6 u^2 + 8 u^3 - 3 u^4) T^d                 (empty base)
    num_{d,m}(T) = u^{2m} (1 - 2 u T^d + (2 u^3 - u^4) T^{2d})      (depth m >= 1)

den_d: above the empty base every tau has depth 1 and excess d, and the
lattice's Moebius function is -1 on the six coatoms, +1 on the eight lines
and -3 at zero.  num_{d,m}: the plane base (W_1,) * m, where the first
contact component sits (the four are symmetric), has three covers: its
first level drops to either line of W_1, or a new level W_1 is added.  Over
the base's u^{2m}, the joins of the seven nonempty sets of covers carry
u, u^2, u^3, u^4 with net coefficients -2, 0, +2, -1: either line (-2 u) at
excess d; zero as first level (+u^2) and the added level (-u^2), both at
excess d; a line with the added level (+2 u^3) and zero with it (-u^4),
both at excess 2d.  Only the first level and the padding level have
covers, so the depth-m crosscut is the depth-1 one padded with m - 1 more
levels W_1, each adding u^2.

tests/oracles.py keeps the lattice, the chains and the generic Moebius
recursion over local intervals, and local_poly_by_definition there is the
definition that local_poly is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeMismatch
from .field import FieldSpec, count_closed_points
from .heightzeta import TruncatedMultiSeries, series_one

# the scaling t_i -> q^2 t_i, T -> q^4 T that makes every sieve factor
# coefficient an integer
SIEVE_WEIGHTS = (2, 2, 2, 2, 4)


def local_poly(q: int, degree: int, depth: int) -> dict:
    """The local excess polynomial at a closed point of this degree, as
    {excess: coefficient}: den_degree at depth 0, num_{degree, depth} at a
    plane base of depth >= 1 (module doc)."""
    u = Fraction(1, q ** degree)
    if depth == 0:
        return {0: Fraction(1), degree: -6 * u ** 2 + 8 * u ** 3 - 3 * u ** 4}
    lead = u ** (2 * depth)
    return {0: lead, degree: -2 * u * lead, 2 * degree: (2 * u ** 3 - u ** 4) * lead}


# ---------------------------------------------------------------------------
# sieve sums

@dataclass(frozen=True)
class SievePrediction:
    value: Fraction
    stable_range: int


def stable_range_I(a: int, b: int, k) -> int:
    """floor(m / 8 - 1/2) = floor((m - 4) / 8) with m = 2 min(a, b) + 1 - sum k,
    possibly negative."""
    return (2 * min(a, b) - 3 - sum(k)) // 8


def stable_range_start(k) -> int:
    """Least a with stable_range_I(a, a, k) >= 0, i.e. 2a + 1 - sum k >= 4."""
    return (4 + sum(k)) // 2


def sieve_sum(K: FieldSpec, k, D: int) -> list:
    """Exact truncated sieve sums at truncations 0..D: mu(x_w, x) q^{-gamma(x)}
    summed over w in U_k(F_q) and saturated x above x_w with excess <= D.

    Moebius multiplicativity over closed points makes this the coefficient
    of t^k in one Euler-type product (_sieve_partials).  Raises TooLarge
    before multiplying when the product's orders k and D admit more than
    heightzeta.MONOMIAL_CAP monomials.
    The D = 0 value is the bare sum_w q^{-gamma(x_w)}.
    """
    k = tuple(k)
    if len(k) != 4 or min(k) < 0:
        raise DegreeMismatch("a contact pattern is four non-negative degrees")
    if D < 0:
        raise ValueError("D must be >= 0")
    return list(_sieve_partials(K.q, tuple(sorted(k)), D))


@lru_cache(maxsize=256)
def _sieve_partials(q: int, k: tuple, D: int) -> tuple:
    """Coefficients of t^k T^{<=D}, accumulated, in the product over degrees
    d <= max(D, max k) of (den_d(T) + sum_{i, m>=1} t_i^{md} num_{d,m}(T))^{N_d}.

    den_d is the local excess polynomial at the empty base, num_{d,m} at the
    depth-m plane base (component 0 stands for all four by symmetry), and
    N_d counts degree-d closed points.  Each point picks one term, so the
    supports of w are disjoint for free and nothing is divided.  The series
    constructor drops the terms beyond T^D.  The product is symmetric in
    t_1..t_4, so sieve_sum asks only for sorted k.

    The factors carry SIEVE_WEIGHTS, which make them integral; the series
    constructor refuses a fractional coefficient with LemmaViolation.
    """
    orders = k + (D,)
    product = series_one(orders, q, SIEVE_WEIGHTS)
    for d in range(1, max(orders) + 1):
        coeffs = {(0, 0, 0, 0, e): c for e, c in local_poly(q, d, 0).items()}
        for m in range(1, max(k) // d + 1):
            for i, (e, c) in itertools.product(range(4), local_poly(q, d, m).items()):
                coeffs[(0,) * i + (m * d,) + (0,) * (3 - i) + (e,)] = c
        factor = TruncatedMultiSeries(orders, coeffs, q, SIEVE_WEIGHTS)
        product = product * factor.power(count_closed_points(q, d))
    return tuple(itertools.accumulate(
        product.coefficient(k + (e,)) for e in range(D + 1)))


def prediction(K: FieldSpec, a: int, b: int, k, D: int) -> SievePrediction:
    """q^{2a+2b+4} times the truncated sieve sum, as a prediction record."""
    value = sieve_sum(K, k, D)[D]
    return SievePrediction(value=K.q ** (2 * a + 2 * b + 4) * value,
                           stable_range=stable_range_I(a, b, k))
