"""Certified rational interval arithmetic with dyadic outward rounding.

Deep Euler-product truncations need values like L^c with c ~ q^n / n; exact
fractions would carry tens of millions of digits, so products are tracked
as intervals whose endpoints are dyadic rationals num / 2^bits, rounded
outward after every operation.  Everything is integer arithmetic: no binary
floats appear anywhere, and every reported comparison is certified by the
enclosure.  The precision must comfortably exceed the bit length of the
largest integer exponent used, or the rounding slack itself would blow up
under exponentiation; callers size it accordingly.  Powers, taken only of
nonnegative intervals (positive local factors), run on the endpoint
integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_BITS = 192


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


@dataclass(frozen=True)
class Interval:
    """A closed interval [nlo, nhi] / 2^bits with integer endpoints."""

    nlo: int
    nhi: int
    bits: int = DEFAULT_BITS

    def __post_init__(self):
        assert self.nlo <= self.nhi

    @staticmethod
    def exact(x, bits: int = DEFAULT_BITS, den: int = 1) -> "Interval":
        """The rational x / den, for a positive integer den.  The quotient
        is not reduced: floor(N 2^bits / D) and its ceiling do not change
        when N and D share a factor."""
        x = Fraction(x)
        scaled_num = x.numerator << bits
        den *= x.denominator
        return Interval(scaled_num // den, _ceil_div(scaled_num, den), bits)

    @staticmethod
    def from_bounds(lo, hi, bits: int = DEFAULT_BITS) -> "Interval":
        lo, hi = Fraction(lo), Fraction(hi)
        return Interval((lo.numerator << bits) // lo.denominator,
                        _ceil_div(hi.numerator << bits, hi.denominator), bits)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.nlo, 1 << self.bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.nhi, 1 << self.bits)

    @property
    def width(self) -> Fraction:
        return Fraction(self.nhi - self.nlo, 1 << self.bits)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.nlo + self.nhi, 1 << (self.bits + 1))

    def __sub__(self, other) -> "Interval":
        other = _coerce(other, self.bits)
        return Interval(self.nlo - other.nhi, self.nhi - other.nlo, self.bits)

    def __mul__(self, other) -> "Interval":
        other = _coerce(other, self.bits)
        cands = (self.nlo * other.nlo, self.nlo * other.nhi,
                 self.nhi * other.nlo, self.nhi * other.nhi)
        return Interval(min(cands) >> self.bits,             # floor shift
                        _ceil_div(max(cands), 1 << self.bits),
                        self.bits)

    def __truediv__(self, other) -> "Interval":
        other = _coerce(other, self.bits)
        if other.nlo <= 0 <= other.nhi:
            raise ZeroDivisionError("interval straddles zero")
        shifted_lo, shifted_hi = self.nlo << self.bits, self.nhi << self.bits
        cands_lo = (shifted_lo // other.nlo, shifted_lo // other.nhi,
                    shifted_hi // other.nlo, shifted_hi // other.nhi)
        cands_hi = (_ceil_div(shifted_lo, other.nlo), _ceil_div(shifted_lo, other.nhi),
                    _ceil_div(shifted_hi, other.nlo), _ceil_div(shifted_hi, other.nhi))
        return Interval(min(cands_lo), max(cands_hi), self.bits)

    def power(self, e: int) -> "Interval":
        """Integer power by squaring; exponent may be astronomically large.

        Only for nonnegative intervals, which every caller multiplies: then
        each product's smallest candidate is nlo * nlo' and its largest
        nhi * nhi', so the loop runs on the endpoint integers with the same
        floor and ceiling roundings as __mul__, and gives the same endpoints.
        """
        if e < 0 or self.nlo < 0:
            raise ValueError("power needs e >= 0 and a nonnegative interval")
        bits = self.bits
        mask = (1 << bits) - 1      # ceil(x / 2^bits) = (x + mask) >> bits for x >= 0
        rlo = rhi = 1 << bits
        blo, bhi = self.nlo, self.nhi
        while e:
            if e & 1:
                rlo, rhi = (rlo * blo) >> bits, (rhi * bhi + mask) >> bits
            e >>= 1
            if e:
                blo, bhi = (blo * blo) >> bits, (bhi * bhi + mask) >> bits
        return Interval(rlo, rhi, bits)

    def abs(self) -> "Interval":
        if self.nlo >= 0:
            return self
        if self.nhi <= 0:
            return Interval(-self.nhi, -self.nlo, self.bits)
        return Interval(0, max(-self.nlo, self.nhi), self.bits)

    def certainly_less(self, other) -> bool:
        other = _coerce(other, self.bits)
        return self.nhi < other.nlo

    def __repr__(self):
        return f"Interval({float(self.lo):.12g}, {float(self.hi):.12g})"


def _coerce(x, bits: int) -> Interval:
    if isinstance(x, Interval):
        assert x.bits == bits, "both operands carry the same precision"
        return x
    return Interval.exact(x, bits)

