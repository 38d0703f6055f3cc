"""Binary forms on P^1 over F_q, closed points, and effective divisors.

Conventions.  A binary form of degree d is the coefficient tuple
(c_0, ..., c_d) meaning sum c_j X^j Y^{d-j}; the zero form is any
all-zero tuple.  Points of P^1 carry the affine coordinate x = X/Y, so a
closed point is either the place at infinity (Y = 0, degree 1) or a monic
irreducible polynomial in x.  Working with forms rather than polynomials
keeps the place at infinity on the same footing as every other point: a
"common root" of two forms includes common vanishing at infinity.

Everything here is immutable and pure.  The affine closed points are the
monic irreducibles that field.monic_irreducibles sieves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .errors import TooLarge
from .field import FieldSpec, from_digits, monic_irreducibles

_HILB_CAP = 2_000_000
# entries of secenum's PGL_2(F_q) permutation table: while the group closes
# each is held as uint16 in its row's bytes key and once more in the joined
# table, and each frontier row as intp, 7.2 bytes in all at q = 27, degree 2
# (traced); so 80 M entries stay well within 2 GB
_GROUP_CAP = 80_000_000


# ---------------------------------------------------------------------------
# closed points

@dataclass(frozen=True, order=True)
class ClosedPoint:
    """A closed point of P^1: infinity, or a monic irreducible in x.

    The sort key is (degree, code).  Infinity carries code -1, so it sorts
    first among the degree-1 points; closed_points_up_to lists it last
    among them instead.
    """

    degree: int
    code: int            # poly code sum c_i q^i, or -1 for infinity
    poly: tuple          # () for infinity, else monic coefficient tuple

    @property
    def is_infinity(self) -> bool:
        return not self.poly


def point_at_infinity() -> ClosedPoint:
    # sort key puts infinity first within degree 1; enumeration order is
    # fixed separately by closed_points_up_to
    return ClosedPoint(degree=1, code=-1, poly=())


def _affine_point(K: FieldSpec, poly) -> ClosedPoint:
    poly = tuple(poly)
    deg = len(poly) - 1
    return ClosedPoint(degree=deg, code=from_digits(poly, K.q), poly=poly)


@lru_cache(maxsize=None)
def _irreducibles_of_degree(K: FieldSpec, n: int):
    """The closed points of degree n other than infinity, ascending code order."""
    return tuple(_affine_point(K, poly) for poly in monic_irreducibles(K, n))


def closed_points_up_to(K: FieldSpec, N: int):
    """All closed points of degree <= N in deterministic order.

    Degree 1 lists the q affine rational points by coordinate code and then
    infinity; higher degrees list monic irreducibles by coefficient code.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pts = list(_irreducibles_of_degree(K, 1)) + [point_at_infinity()]
    for n in range(2, N + 1):
        pts.extend(_irreducibles_of_degree(K, n))
    return pts


def _int_mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


@lru_cache(maxsize=None)
def count_closed_points(q: int, n: int) -> int:
    """Number of closed points of degree n over F_q, by the necklace formula.

    Degree 1 counts q + 1 (the affine line plus infinity); for n >= 2 the
    count is (1/n) * sum_{d | n} mu(d) q^{n/d}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return q + 1
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _int_mobius(d) * q ** (n // d)
    assert total % n == 0
    return total // n


# ---------------------------------------------------------------------------
# effective divisors

@dataclass(frozen=True)
class EffectiveDivisor:
    """A finite multiset of closed points: sorted ((point, mult), ...) pairs."""

    entries: tuple

    def __post_init__(self):
        assert all(m >= 1 for _, m in self.entries)

    @property
    def degree(self) -> int:
        return sum(pt.degree * m for pt, m in self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        bits = []
        for pt, m in self.entries:
            name = "inf" if pt.is_infinity else f"{pt.poly}"
            bits.append(f"{m}*{name}" if m > 1 else name)
        return " + ".join(bits)


def divisor(pairs) -> EffectiveDivisor:
    ent = tuple(sorted((pt, m) for pt, m in pairs if m))
    return EffectiveDivisor(entries=ent)


ZERO_DIVISOR = EffectiveDivisor(entries=())


# ---------------------------------------------------------------------------
# Hilbert scheme slices

def hilb_points(K: FieldSpec, n: int):
    """All effective divisors of degree n; their number is #P^n(F_q)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    expected = (K.q ** (n + 1) - 1) // (K.q - 1)
    if expected > _HILB_CAP:
        raise TooLarge(f"degree-{n} divisor inventory over F_{K.q} has {expected} members")
    if n == 0:
        return [ZERO_DIVISOR]
    # by_degree[r]: point multisets of degree r over the points seen so far;
    # taking r upwards lets each point repeat (an unbounded knapsack)
    by_degree = [[()]] + [[] for _ in range(n)]
    for pt in closed_points_up_to(K, n):
        for r in range(pt.degree, n + 1):
            by_degree[r].extend(ms + (pt,) for ms in by_degree[r - pt.degree])
    out = [divisor(Counter(ms).items()) for ms in by_degree[n]]
    assert len(out) == expected
    return sorted(out, key=lambda d: d.entries)

