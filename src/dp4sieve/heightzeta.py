"""The explicit analytic layer: the virtual height zeta function's Euler
factors, the Tamagawa constant, the Abel-limit consistency check, and
per-class expected counts.

Everything is exact.  Small truncations use Fractions end to end; deep
truncations (degree-n factors raised to counts ~ q^n/n) use certified
dyadic interval enclosures from exactnum, whose widths are reported and
sit many orders of magnitude below every tolerance used.  Every series
carries its per-variable orders.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import TooLarge
from .exactnum import DEFAULT_BITS, Interval
from .projline import count_closed_points_for

NVARS = 4
# Most monomials a truncated series may carry, the product of its orders
# plus one: (9, 9, 9, 9) at sieve truncation D = 0 takes 31 s on a 2-core
# machine, nearly all of it in the series products.  Any sieve k with at
# most 200,000 tuples at q in {3, 4, 5} has at most 108 t-monomials, so
# runs through D = 91.
MONOMIAL_CAP = 10_000


# ---------------------------------------------------------------------------
# truncated multivariate series

class TruncatedMultiSeries:
    """Power series with exact rational coefficients in one variable per
    entry of orders (t_1..t_4 here; the sieve adds its excess variable T),
    truncated per variable.  Raises TooLarge when the orders admit more
    than MONOMIAL_CAP monomials."""

    __slots__ = ("orders", "coeffs")

    def __init__(self, orders, coeffs=None):
        self.orders = tuple(orders)
        size = math.prod(o + 1 for o in self.orders)
        if size > MONOMIAL_CAP:
            raise TooLarge(f"a series with orders {self.orders} has {size} monomials, "
                           f"above the cap {MONOMIAL_CAP}")
        self.coeffs = {}
        if coeffs:
            for expo, val in coeffs.items():
                val = Fraction(val)
                if val and self._inside(expo):
                    self.coeffs[tuple(expo)] = val

    def _inside(self, expo) -> bool:
        return all(e <= o for e, o in zip(expo, self.orders))

    def coefficient(self, expo) -> Fraction:
        return self.coeffs.get(tuple(expo), Fraction(0))

    @property
    def constant(self) -> Fraction:
        return self.coefficient((0,) * len(self.orders))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedMultiSeries(self.orders,
                                        {e: v * other for e, v in self.coeffs.items()})
        orders = tuple(min(a, b) for a, b in zip(self.orders, other.orders))
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                if all(e <= o for e, o in zip(expo, orders)):
                    out[expo] = out.get(expo, Fraction(0)) + v1 * v2
        return TruncatedMultiSeries(orders, out)

    def power(self, e: int):
        result = series_one(self.orders)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        return f"TruncatedMultiSeries(orders={self.orders}, {items}...)"


def series_one(orders) -> TruncatedMultiSeries:
    return TruncatedMultiSeries(orders, {(0,) * len(orders): Fraction(1)})


# ---------------------------------------------------------------------------
# Euler factors

@dataclass(frozen=True)
class EulerFactorSpec:
    degree: int          # |c|, degree of the closed point
    q: int
    orders: tuple        # per-variable t-orders

    def __post_init__(self):
        assert self.degree >= 1


def factor_constant(q: int, degree: int) -> Fraction:
    """Constant part 1 - 6 q^{-2|c|} + 8 q^{-3|c|} - 3 q^{-4|c|}."""
    u = Fraction(1, q ** degree)
    return 1 - 6 * u ** 2 + 8 * u ** 3 - 3 * u ** 4


def factor_contact_coefficient(q: int, degree: int, depth: int) -> Fraction:
    """Scalar on t_i^{|c| depth}: (q^{|c|})^{depth} (q^{-2 depth |c|}
    - 2 q^{-(2 depth + 1)|c|} + 2 q^{-(2 depth + 3)|c|} - q^{-(2 depth + 4)|c|})."""
    u = Fraction(1, q ** degree)
    d = depth
    inner = u ** (2 * d) - 2 * u ** (2 * d + 1) + 2 * u ** (2 * d + 3) - u ** (2 * d + 4)
    return q ** (degree * d) * inner


def local_factor(spec: EulerFactorSpec) -> TruncatedMultiSeries:
    """One Euler factor of the virtual height zeta function, truncated.

    The t_i-exponents are multiples of the point degree, one contact depth
    per marked index; no cross terms occur because a single parameter point
    cannot sit over two distinct centers.
    """
    coeffs = {(0,) * NVARS: factor_constant(spec.q, spec.degree)}
    for i in range(NVARS):
        depth = 1
        while spec.degree * depth <= spec.orders[i]:
            expo = [0] * NVARS
            expo[i] = spec.degree * depth
            coeffs[tuple(expo)] = factor_contact_coefficient(spec.q, spec.degree, depth)
            depth += 1
    return TruncatedMultiSeries(spec.orders, coeffs)


def euler_product(q: int, N: int, orders) -> TruncatedMultiSeries:
    """Product of local factors over closed points of degree <= N, exact.

    Factors of equal degree coincide, so the product groups by degree and
    exponentiates; degrees above every t-order contribute scalar constants.
    Exact Fractions throughout, so N is expected small (the deep-cutoff
    evaluations live in the interval-based routines below).

    Every coefficient must print: before multiplying, an N whose constant
    coefficient has more digits than sys.get_int_max_str_digits() is
    refused with TooLarge, and so is a product with any longer coefficient.
    The constant's denominator is prod_n den(factor_constant(q, n))^count_n
    exactly, since the reduced numerators are prime to p.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    orders = tuple(orders)
    out = series_one(orders)
    digits = sys.get_int_max_str_digits()
    if digits and _constant_too_long(q, N, digits):
        raise TooLarge(f"the constant coefficient at N = {N} has more than {digits} digits")
    for n in range(1, N + 1):
        count = count_closed_points_for(q, n)
        base = local_factor(EulerFactorSpec(degree=n, q=q, orders=orders))
        if n > max(orders):
            out = out * (factor_constant(q, n) ** count)
        else:
            out = out * base.power(count)
    if digits and any(max(abs(v.numerator), v.denominator) >= 10 ** digits
                      for v in out.coeffs.values()):
        raise TooLarge(f"a coefficient at N = {N} has more than {digits} digits")
    return out


def _constant_too_long(q: int, N: int, digits: int) -> bool:
    """Whether p^e >= 10^digits, p^e the constant's denominator: e sums
    count_n times the p-adic valuation of den(factor_constant(q, n))."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    for n in range(1, N + 1):
        den, v = factor_constant(q, n).denominator, 0
        while den > 1:
            den, v = den // p, v + 1
        e += count_closed_points_for(q, n) * v
        if e >= 4 * digits:         # p^e >= 2^e >= 10^digits, as log2(10) < 4
            return True
    return p ** e >= 10 ** digits


# ---------------------------------------------------------------------------
# the Tamagawa constant

def good_factor(q: int, n: int) -> Fraction:
    """(1 - q^{-n})^6 (1 + 6 q^{-n} + q^{-2n}), one degree-n local factor
    of the Tamagawa product."""
    u = Fraction(1, q ** n)
    return (1 - u) ** 6 * (1 + 6 * u + u ** 2)


@dataclass(frozen=True)
class TamagawaResult:
    q: int
    N: int
    value: Fraction              # midpoint of the certified enclosure
    last_increment: Fraction     # |partial(N) - partial(N-1)|, midpoint
    enclosure_width: Fraction
    partials: tuple              # midpoints of partial products, 1..N


@lru_cache(maxsize=64)
def tamagawa(q: int, N: int) -> TamagawaResult:
    """Truncated Tamagawa constant q^2 (1-q^{-1})^{-6} prod good_factor^count.

    Partial products are certified interval enclosures; the reported value
    is the final midpoint and the width quantifies the (negligible)
    rounding.  The last increment serves as the convergence report.  Pure
    and immutable, so memoized: every per-class expectation shares one.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pref = Interval.exact(Fraction(q ** 2)) * Interval.exact((1 - Fraction(1, q)) ** -6)
    partials = []
    acc = pref
    for n in range(1, N + 1):
        fac = Interval.exact(good_factor(q, n))
        acc = acc * fac.power(count_closed_points_for(q, n))
        partials.append(acc)
    value = partials[-1]
    prev = partials[-2] if N >= 2 else pref
    increment = (value - prev).abs()
    return TamagawaResult(q=q, N=N, value=value.mid,
                          last_increment=increment.mid,
                          enclosure_width=value.width,
                          partials=tuple(p.mid for p in partials))


# ---------------------------------------------------------------------------
# the Abel limit of the height zeta function

def _diag_local_value(q: int, n: int, tau: Fraction) -> Fraction:
    """L_n(tau,...,tau): the degree-n factor with all four variables at tau.

    The contact sums are geometric: with u = q^{-n} and v = (tau/q)^n,
    L = const(n) + 4 (1 - 2u + 2u^3 - u^4) v / (1 - v), exact for tau < q.
    """
    u = Fraction(1, q ** n)
    v = (Fraction(tau) / q) ** n
    assert v < 1
    bracket = 1 - 2 * u + 2 * u ** 3 - u ** 4
    return factor_constant(q, n) + 4 * bracket * v / (1 - v)


def _lhs_depth_needed(q: int, tau: Fraction, tol: Fraction) -> int:
    """Smallest cutoff M with a certified bound tail(M) <= tol on the
    neglected log mass sum_{n>M} count_n |log L_n(tau)|.

    Uses count_n <= q^n / n, log L <= 8 v_n for v_n <= 1/2, and
    |log const_n| <= 12 u_n^2 for u_n <= 1/4; the geometric sums bound the
    two tails by 8 tau^{M+1} / ((M+1)(1-tau)) and 24 q^{-(M+1)}.
    """
    assert 0 < tau < 1
    M = 2
    while True:
        t1 = 8 * tau ** (M + 1) / ((M + 1) * (1 - tau))
        t2 = 24 * Fraction(1, q) ** (M + 1)
        if t1 + t2 <= tol:
            return M
        M += 1


@dataclass(frozen=True)
class LimitCheckResult:
    q: int
    N: int
    taus: tuple
    lhs: tuple                   # midpoints
    rhs: Fraction                # midpoint
    gaps: tuple                  # |lhs/rhs - 1| midpoints
    gaps_decreasing_certified: bool
    final_gap: Fraction
    lhs_cutoffs: tuple


def limit_formula_check(q: int, N: int, m_max: int) -> LimitCheckResult:
    """Compare prod (1-t_i) Z(t) along t_i = 1 - 2^{-m} with the limit's
    right side (1-q^{-1})^{-4} prod good_factor, truncated at N.

    The right side converges like q^{-2n} per degree and is essentially
    exact at N = 10 already.  The left side at tau near 1 needs factors up
    to degree ~ 2^m; each evaluation extends its own cutoff until the
    certified tail bound drops below 2^{-m-4}, and the neglected factor is
    absorbed into the enclosure.  All arithmetic is integer-backed interval
    arithmetic; m = 0 would make the left side degenerate, so m starts at 1.
    """
    if N < 1 or m_max < 1:
        raise ValueError("N and m_max must be >= 1")
    # precision must dominate the largest exponent used, else the outward
    # rounding slack (1 + 2^-bits)^count explodes during exponentiation
    deepest = _lhs_depth_needed(q, 1 - Fraction(1, 2 ** m_max),
                                Fraction(1, 2 ** (m_max + 4)))
    need = count_closed_points_for(q, deepest).bit_length() + 96
    bits = max(DEFAULT_BITS, need)
    rhs = Interval.exact((1 - Fraction(1, q)) ** -4, bits)
    for n in range(1, N + 1):
        rhs = rhs * Interval.exact(good_factor(q, n), bits).power(
            count_closed_points_for(q, n))

    taus, lhs_vals, cutoffs = [], [], []
    for m in range(1, m_max + 1):
        tau = 1 - Fraction(1, 2 ** m)
        tol = Fraction(1, 2 ** (m + 4))
        M = _lhs_depth_needed(q, tau, tol)
        acc = Interval.exact((1 - tau) ** 4, bits)
        for n in range(1, M + 1):
            fac = Interval.exact(_diag_local_value(q, n, tau), bits)
            acc = acc * fac.power(count_closed_points_for(q, n))
        # neglected factor exp(+-tail) enclosed by [1 - 2 tol, 1 + 2 tol]
        acc = acc * Interval.from_bounds(1 - 2 * tol, 1 + 2 * tol, bits)
        taus.append(tau)
        lhs_vals.append(acc)
        cutoffs.append(M)

    gaps = [((lv / rhs) - 1).abs() for lv in lhs_vals]
    decreasing = all(gaps[i + 1].certainly_less(gaps[i]) for i in range(len(gaps) - 1))
    return LimitCheckResult(
        q=q, N=N, taus=tuple(taus),
        lhs=tuple(v.mid for v in lhs_vals),
        rhs=rhs.mid,
        gaps=tuple(g.mid for g in gaps),
        gaps_decreasing_certified=decreasing,
        final_gap=gaps[-1].mid,
        lhs_cutoffs=tuple(cutoffs),
    )


# ---------------------------------------------------------------------------
# expected counts

def expected_section_count(q: int, a: int, b: int, k, N: int) -> Fraction:
    """(q-1)^2 tamagawa_N q^{2a+2b-sum k}: the asymptotic-regime expectation
    for the section count of a class with the given invariants."""
    tau = tamagawa(q, N).value
    return (q - 1) ** 2 * tau * q ** (2 * a + 2 * b - sum(k))
