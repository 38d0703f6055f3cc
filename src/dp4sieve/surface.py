"""The counted surface: four marked point pairs of P^1 x P^1 over F_q, the
centres whose blow-up is the split quartic del Pezzo surface, with their
general-position certificate and the shipped default configuration.

A configuration is validated and built without the counting engine, so a
run that only reads its config, or finds every count in its cache, never
loads numpy; secenum counts on the SurfaceConfig built here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CoincidentFirstCoords, CoincidentSecondCoords, FieldTooSmall, OnBidegreeCurve
from .field import FieldSpec, field_of_order
from .linalg import det

DEFAULT_BUDGET = 2 ** 34
INF = "inf"


def _normalize_point(K: FieldSpec, pt):
    """Normalize projective coordinates to (c, 1) or (1, 0)."""
    if pt == INF:
        return (1, 0)
    if isinstance(pt, int):
        if not 0 <= pt < K.q:
            raise ValueError(f"coordinate {pt} is not an element code of F_{K.q} (0..{K.q - 1})")
        return (pt, 1)
    c, d = pt
    if d == 0:
        if c == 0:
            raise ValueError("(0, 0) is not a projective point")
        return (1, 0)
    return (K.div(c, d), 1)


@dataclass(frozen=True)
class SurfaceConfig:
    """Four marked point pairs of P^1 x P^1 over F_q, the blow-up centers.

    first[i] and second[i] are normalized projective points; lambda
    functionals are derived.  on_bidegree_curve records a failed
    general-position certificate (a (1,1)-curve through all four centers);
    such configurations still define the counting problems but the blown-up
    surface is only a weak del Pezzo.  The strict transform of that curve,
    C = F + F' - sum E_i, is a (-2)-curve with h(C) = 0.  A section pair
    whose image does not lie in the curve vanishes on each of the four
    disjoint contact divisors along the degree-(a+b) pullback of the curve's
    equation, so a + b >= sum k_i: classes with alpha.C < 0 carry no
    sections, although the lattice nef test admits some of them.
    """

    field: FieldSpec
    first: tuple
    second: tuple
    on_bidegree_curve: bool = False

    def lam(self, i: int):
        """Coefficients (d, -c) of the functional vanishing at first[i]."""
        c, d = self.first[i]
        return (d, self.field.neg(c))

    def transposed(self) -> "SurfaceConfig":
        """The same centres with the factors of P^1 x P^1 swapped, so its lam
        are the functionals of second[i].  A (1,1)-curve through the
        centres swaps with them, so the certificate carries over."""
        return SurfaceConfig(self.field, self.second, self.first, self.on_bidegree_curve)


def _bidegree_monomials(K: FieldSpec, u, v) -> list:
    """The four bidegree-(1,1) monomials u_a v_b at the point pair (u, v)."""
    (u0, u1), (v0, v1) = u, v
    return [K.mul(u0, v0), K.mul(u0, v1), K.mul(u1, v0), K.mul(u1, v1)]


def validate_points(K: FieldSpec, points, allow_on_bidegree_curve: bool = False) -> SurfaceConfig:
    """Certify four marked point pairs as a surface configuration.

    points: four ((u), (v)) pairs in any projective coordinates ('inf'
    accepted).  Checks pairwise-distinct first coordinates, pairwise
    distinct second coordinates, and that no (1,1)-curve passes through all
    four pairs (nonsingular monomial matrix).  Over F_3 the last check can
    never pass: the four first coordinates exhaust P^1(F_3), every
    assignment is the graph of a permutation, and PGL_2(F_3) realizes every
    permutation of the four rational points, so some (1,1)-curve always
    interpolates.  Pass allow_on_bidegree_curve=True to build the flagged
    configuration anyway.
    """
    if K.q < 3:
        raise FieldTooSmall("four distinct points need #P^1(F_q) >= 4")
    pts = list(points)
    if len(pts) != 4:
        raise ValueError("exactly four point pairs required")
    first = tuple(_normalize_point(K, p) for p, _ in pts)
    second = tuple(_normalize_point(K, p) for _, p in pts)
    if len(set(first)) != 4:
        raise CoincidentFirstCoords(f"repeated first coordinates: {first}")
    if len(set(second)) != 4:
        raise CoincidentSecondCoords(f"repeated second coordinates: {second}")
    monomials = [_bidegree_monomials(K, u, v) for u, v in zip(first, second)]
    degenerate = det(K, monomials) == 0
    if degenerate and not allow_on_bidegree_curve:
        raise OnBidegreeCurve("a (1,1)-curve passes through all four centers")
    return SurfaceConfig(field=K, first=first, second=second, on_bidegree_curve=degenerate)


def default_config(q: int) -> SurfaceConfig:
    """The shipped example configuration over F_q.

    First coordinates are the first four points (0, 1, x, ..., inf order as
    available); the second coordinates are the lexicographically first
    assignment passing the certificate, except over F_3 where no assignment
    certifies and the matched-order configuration ships flagged.  F_2 has
    only three rational points, and validate_points refuses it.
    """
    K = field_of_order(q)
    # four distinct first coordinates: 0, 1, the element encoded 2, inf
    first = [(0, 1), (1, 1), (2, 1), (1, 0)]
    if K.q <= 3:
        cfg = validate_points(K, list(zip(first, first)), allow_on_bidegree_curve=True)
        return cfg
    for perm in itertools.permutations(range(K.q + 1), 4):
        second = [_index_to_point(K, i) for i in perm]
        try:
            return validate_points(K, list(zip(first, second)))
        except OnBidegreeCurve:
            continue
    raise OnBidegreeCurve("no certified assignment found")  # pragma: no cover


def _index_to_point(K: FieldSpec, i: int):
    return (i, 1) if i < K.q else (1, 0)
