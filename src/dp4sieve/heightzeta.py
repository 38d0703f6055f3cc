"""The explicit analytic layer: the package's one truncated-series kernel,
the zeta identity of P^1, the Tamagawa constant, the Abel-limit
consistency check, and per-class expected counts.

Everything is exact.  A truncated series keeps its coefficients as Python
ints in a dense numpy object array, the one at t^e standing over its own
power of q (the series' scale plus the weighted exponent), and gives
Fractions only when a coefficient is read; the Euler factors (euler.py)
and the sieve sums choose scalings that make every factor integral.  numpy
is imported when a series is first built, so the Tamagawa constant, the
limit check and the expected counts run without it.  Deep truncations (degree-n
factors raised to counts ~ q^n/n) use certified dyadic interval enclosures
from exactnum, whose widths are reported and sit many orders of magnitude
below every tolerance used.  Every series carries its per-variable orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import LemmaViolation, TooLarge
from .exactnum import DEFAULT_BITS, Interval
from .field import FieldSpec, count_closed_points

# Most monomials a truncated series may carry, the product of its orders
# plus one.  (9, 9, 9, 9) at sieve truncation D = 0, the largest pattern
# within it, takes 0.23 s at q = 3 and 0.43 s at q = 5 on a 2-core machine,
# where a dict of Fractions took 17.8 s at q = 3.  The cap stays where it
# was: raising it widens what the CLI accepts.  Any sieve k with at most 200,000
# tuples at q in {3, 4, 5} has at most 108 t-monomials, so runs through
# D = 91.
MONOMIAL_CAP = 10_000
# Deepest local factor the Abel-limit check may take.  Its cutoffs at
# m = 5, 6, 7 are 203, 448 and 977, and each step of m roughly doubles
# the cutoff and costs eight to thirteen times the time: on a 2-core machine
# limit_m_max = 6 takes 3.3 s at q = 3, 7.5 s at q = 5 and 23 s at q = 13,
# while m = 7 takes 42 s at q = 3.  So m <= 6 runs and m = 7 is refused.
CUTOFF_CAP = 500


# ---------------------------------------------------------------------------
# truncated multivariate series

class TruncatedMultiSeries:
    """Power series with exact rational coefficients in one variable per
    entry of orders (t_1..t_4 here; the sieve adds its excess variable T,
    and the zeta identity of P^1 uses one variable), truncated per
    variable.  Raises TooLarge when the orders admit more than MONOMIAL_CAP
    monomials.

    The coefficients are kept as integers: the one at t^e is ints[e] / q^x
    with x = scale + sum_i weights_i e_i, ints a dense numpy array of Python
    ints.  A product adds the scales, so series multiply only when they
    share q and weights.  The constructor takes the rational coefficients
    and refuses with LemmaViolation any that the weights do not make
    integral: each caller's weights come with a proof that they do.

    The methods that touch the array import numpy themselves, so that
    importing this module does not load it.
    """

    __slots__ = ("orders", "q", "weights", "scale", "ints")

    def __init__(self, orders, coeffs=None, q: int = 1, weights=None, scale: int = 0):
        import numpy as np      # here, not at the top: see the class docstring
        self.orders = tuple(orders)
        size = math.prod(o + 1 for o in self.orders)
        if size > MONOMIAL_CAP:
            raise TooLarge(f"a series with orders {self.orders} has {size} monomials, "
                           f"above the cap {MONOMIAL_CAP}")
        self.q, self.scale = q, scale
        self.weights = tuple(weights) if weights is not None else (0,) * len(self.orders)
        self.ints = np.zeros(tuple(o + 1 for o in self.orders), dtype=object)
        for expo, val in (coeffs or {}).items():
            if all(e <= o for e, o in zip(expo, self.orders)):
                scaled = Fraction(val) * Fraction(q) ** self._exponent(expo)
                if scaled.denominator != 1:
                    raise LemmaViolation(f"coefficient {val} at {tuple(expo)} is not integral "
                                         f"after scaling by powers of {q}")
                self.ints[tuple(expo)] = scaled.numerator

    def _exponent(self, expo) -> int:
        return self.scale + sum(w * e for w, e in zip(self.weights, expo))

    def coefficient(self, expo) -> Fraction:
        expo = tuple(expo)
        if not all(e <= o for e, o in zip(expo, self.orders)):
            return Fraction(0)
        return Fraction(self.ints[expo]) / Fraction(self.q) ** self._exponent(expo)

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as {exponent: Fraction}."""
        import numpy as np
        return {expo: self.coefficient(expo)
                for expo in map(tuple, np.argwhere(self.ints).tolist())}

    def __mul__(self, other):
        """One shifted slice-add per nonzero of the sparser operand."""
        import numpy as np
        assert (self.q, self.weights) == (other.q, other.weights), "one scaling per product"
        orders = tuple(min(a, b) for a, b in zip(self.orders, other.orders))
        box = tuple(slice(o + 1) for o in orders)
        a, b = self.ints[box], other.ints[box]
        nz_a, nz_b = np.argwhere(a), np.argwhere(b)
        if len(nz_a) > len(nz_b):
            a, b, nz_a = b, a, nz_b
        out = TruncatedMultiSeries(orders, None, self.q, self.weights, self.scale + other.scale)
        for expo in map(tuple, nz_a):
            out.ints[tuple(slice(e, None) for e in expo)] += \
                a[expo] * b[tuple(slice(o + 1 - e) for o, e in zip(orders, expo))]
        return out

    def power(self, e: int):
        result = series_one(self.orders, self.q, self.weights)
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


def series_one(orders, q: int = 1, weights=None) -> TruncatedMultiSeries:
    return TruncatedMultiSeries(orders, {(0,) * len(orders): 1}, q, weights)


def zeta_p1_identity_check(K: FieldSpec, N: int):
    """Check prod_{deg c <= N} (1 - t^{deg c})^{-1} = 1/((1-t)(1-qt)) mod t^{N+1}.

    The left side multiplies out the closed-point counts of the necklace
    formula, one series power per degree; the right side has coefficient
    #P^n(F_q) at t^n.  Returns True on full agreement, otherwise the first
    mismatching order.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    series = series_one((N,))
    for n in range(1, N + 1):
        geometric = TruncatedMultiSeries((N,), {(n * j,): 1 for j in range(N // n + 1)})
        series = series * geometric.power(count_closed_points(K.q, n))
    for n in range(N + 1):
        if series.coefficient((n,)) != (K.q ** (n + 1) - 1) // (K.q - 1):
            return n
    return True


# ---------------------------------------------------------------------------
# the Tamagawa constant

def good_factor(q: int, n: int) -> Fraction:
    """(1 - q^{-n})^6 (1 + 6 q^{-n} + q^{-2n}), one degree-n local factor
    of the Tamagawa product."""
    u = Fraction(1, q ** n)
    return (1 - u) ** 6 * (1 + 6 * u + u ** 2)


@dataclass(frozen=True)
class TamagawaResult:
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
        acc = acc * fac.power(count_closed_points(q, n))
        partials.append(acc)
    value = partials[-1]
    prev = partials[-2] if N >= 2 else pref
    increment = (value - prev).abs()
    return TamagawaResult(value=value.mid,
                          last_increment=increment.mid,
                          enclosure_width=value.width,
                          partials=tuple(p.mid for p in partials))


# ---------------------------------------------------------------------------
# the Abel limit of the height zeta function

def _diag_local_value(q: int, n: int, tau: Fraction) -> tuple:
    """L_n(tau,...,tau), the degree-n factor with all four variables at tau,
    as an unreduced integer numerator and denominator.

    The contact sums are geometric: with u = q^{-n}, v = (tau/q)^n and c_0
    the constant of euler.local_factor at degree n,
    L = c_0 + 4 (1 - 2u + 2u^3 - u^4) v / (1 - v), exact for tau < q.  With
    Q = q^n, v = A / B, Q^4 c_0 = (Q-1)^3 (Q+3) and Q^4 bracket =
    (Q-1)^3 (Q+1), this is (Q-1)^3 ((Q+3) B + (3Q+1) A) / (Q^4 (B - A)).
    """
    Q = q ** n
    A, B = tau.numerator ** n, (tau.denominator * q) ** n
    assert A < B
    return (Q - 1) ** 3 * ((Q + 3) * B + (3 * Q + 1) * A), Q ** 4 * (B - A)


def _lhs_depth_needed(q: int, tau: Fraction, tol: Fraction) -> int:
    """Smallest cutoff M with a certified bound tail(M) <= tol on the
    neglected log mass sum_{n>M} count_n |log L_n(tau)|.

    Uses count_n <= q^n / n, log L <= 8 v_n for v_n <= 1/2, and
    |log const_n| <= 12 u_n^2 for u_n <= 1/4; the geometric sums bound the
    two tails by 8 tau^{M+1} / ((M+1)(1-tau)) and 24 q^{-(M+1)}.  With
    tau = a / b the comparison is cross-multiplied into integers, and the
    powers a^{M+1}, b^{M+1}, q^{M+1} are carried from one M to the next.
    Raises TooLarge when the cutoff would exceed CUTOFF_CAP.
    """
    assert 0 < tau < 1
    a, b = tau.numerator, tau.denominator
    M, a_pow, b_pow, q_pow = 2, a ** 3, b ** 3, q ** 3
    # tail = (8 a^{M+1} b q^{M+1} + 24 b^{M+1} (M+1)(b-a)) / (b^{M+1} (M+1)(b-a) q^{M+1})
    while (tol.denominator * (8 * a_pow * b * q_pow + 24 * b_pow * (M + 1) * (b - a))
           > tol.numerator * b_pow * (M + 1) * (b - a) * q_pow):
        if M == CUTOFF_CAP:
            raise TooLarge(f"the limit check at tau = {tau} needs local factors past "
                           f"degree {CUTOFF_CAP}, the cap")
        M, a_pow, b_pow, q_pow = M + 1, a_pow * a, b_pow * b, q_pow * q
    return M


@dataclass(frozen=True)
class LimitCheckResult:
    taus: tuple
    lhs: tuple                   # midpoints
    rhs: Fraction                # midpoint
    gaps: tuple                  # |lhs/rhs - 1| midpoints
    gaps_decreasing_certified: bool
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
    need = count_closed_points(q, deepest).bit_length() + 96
    bits = max(DEFAULT_BITS, need)
    rhs = Interval.exact((1 - Fraction(1, q)) ** -4, bits)
    for n in range(1, N + 1):
        rhs = rhs * Interval.exact(good_factor(q, n), bits).power(
            count_closed_points(q, n))

    taus, lhs_vals, cutoffs = [], [], []
    for m in range(1, m_max + 1):
        tau = 1 - Fraction(1, 2 ** m)
        tol = Fraction(1, 2 ** (m + 4))
        M = _lhs_depth_needed(q, tau, tol)
        acc = Interval.exact((1 - tau) ** 4, bits)
        for n in range(1, M + 1):
            num, den = _diag_local_value(q, n, tau)
            fac = Interval.exact(num, bits, den)
            acc = acc * fac.power(count_closed_points(q, n))
        # neglected factor exp(+-tail) enclosed by [1 - 2 tol, 1 + 2 tol]
        acc = acc * Interval.from_bounds(1 - 2 * tol, 1 + 2 * tol, bits)
        taus.append(tau)
        lhs_vals.append(acc)
        cutoffs.append(M)

    gaps = [((lv / rhs) - 1).abs() for lv in lhs_vals]
    decreasing = all(gaps[i + 1].certainly_less(gaps[i]) for i in range(len(gaps) - 1))
    return LimitCheckResult(
        taus=tuple(taus),
        lhs=tuple(v.mid for v in lhs_vals),
        rhs=rhs.mid,
        gaps=tuple(g.mid for g in gaps),
        gaps_decreasing_certified=decreasing,
        lhs_cutoffs=tuple(cutoffs),
    )


# ---------------------------------------------------------------------------
# expected counts

def expected_section_count(q: int, a: int, b: int, k, N: int) -> Fraction:
    """(q-1)^2 tamagawa_N q^{2a+2b-sum k}: the asymptotic-regime expectation
    for the section count of a class with the given invariants."""
    tau = tamagawa(q, N).value
    return (q - 1) ** 2 * tau * q ** (2 * a + 2 * b - sum(k))
