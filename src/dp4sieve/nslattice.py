"""The Neron-Severi lattice of the split quartic del Pezzo surface
Bl_4(P^1 x P^1): intersection pairing, the sixteen (-1)-classes, the nef
cone of curves, ruled-surface contractions ("markings"), the piecewise
linear functional that controls the sieve's stable range, and the exact
nef cone volume, from one W(D5) Weyl-chamber simplex.

Basis convention: class vectors are integer 6-tuples in the ordered basis
(F, F', E1, E2, E3, E4), where F, F' are the two ruling fibers and the E_i
are the exceptional classes.  The pairing is F.F' = 1, F.F = F'.F' = 0,
E_i.E_j = -delta_ij, mixed terms zero.  For a curve class the intersection
invariants are a = F.alpha, b = F'.alpha, k_i = E_i.alpha, and the
anticanonical degree is h = 2a + 2b - sum k_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .errors import LemmaViolation, NotNef
from .linalg import QQ, det, solve

RANK = 6


@dataclass(frozen=True, order=True)
class CurveClass:
    """A lattice class in the basis (F, F', E1..E4); curves and divisors
    share the lattice, the pairing identifies them."""

    coords: tuple

    def __post_init__(self):
        assert len(self.coords) == RANK

    @staticmethod
    def from_invariants(a: int, b: int, k) -> "CurveClass":
        """Class with F.alpha = a, F'.alpha = b, E_i.alpha = k_i."""
        k = tuple(k)
        assert len(k) == 4
        return CurveClass((b, a) + tuple(-x for x in k))

    @property
    def a(self) -> int:
        return self.coords[1]

    @property
    def b(self) -> int:
        return self.coords[0]

    @property
    def k(self) -> tuple:
        return tuple(-x for x in self.coords[2:])

    @property
    def h(self) -> int:
        return intersect(ANTICANONICAL, self)

    def scale(self, m: int) -> "CurveClass":
        return CurveClass(tuple(m * c for c in self.coords))

    def add(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __str__(self):
        names = ("F", "F'", "E1", "E2", "E3", "E4")
        bits = [f"{c:+d}{n}" for c, n in zip(self.coords, names) if c]
        return "".join(bits) if bits else "0"


F = CurveClass((1, 0, 0, 0, 0, 0))
FPRIME = CurveClass((0, 1, 0, 0, 0, 0))
E = tuple(CurveClass(tuple(1 if i == 2 + j else 0 for i in range(RANK))) for j in range(4))
ZERO = CurveClass((0,) * RANK)
ANTICANONICAL = CurveClass((2, 2, -1, -1, -1, -1))

def intersect(x: CurveClass, y: CurveClass) -> int:
    """The bilinear symmetric pairing in the fixed Gram matrix."""
    a, b = x.coords, y.coords
    return a[0] * b[1] + a[1] * b[0] - sum(a[i] * b[i] for i in range(2, RANK))


def pairing_functional(L: CurveClass) -> tuple:
    """Row vector r with r . coords(alpha) = intersect(L, alpha)."""
    c = L.coords
    return (c[1], c[0], -c[2], -c[3], -c[4], -c[5])


# ---------------------------------------------------------------------------
# (-1)-classes and conic classes, with certified search boxes

def _search_box_bound(selfint: int, degree: int):
    """Certified coordinate bounds for {L : L.L = selfint, -K.L = degree}.

    Write L = x F + x' F' + sum y_i E_i, u = x + x', v = x - x'.  From
    L.L = (u^2 - v^2)/2 - sum y_i^2 and -K.L = 2u + sum y_i, Cauchy-Schwarz
    (sum y_i)^2 <= 4 sum y_i^2 forces 2u^2 - 4*degree*u + degree^2
    + 4*selfint <= 0, which bounds u; then sum y_i^2 = u^2/2 - selfint
    - v^2/2 bounds |v| and each |y_i|.  Returns (y_bound, x_bound).
    """
    from math import isqrt

    m, s = degree, selfint
    us = [u for u in range(-2 * abs(m) - 4, 2 * abs(m) + 5)
          if 2 * u * u - 4 * m * u + m * m + 4 * s <= 0]
    u_hi = max(abs(u) for u in us) if us else 0
    y_bound = isqrt(max(0, u_hi * u_hi - 2 * s) // 2)   # y_i^2 <= u^2/2 - s
    v_bound = isqrt(max(0, u_hi * u_hi - 2 * s))        # v^2 <= u^2 - 2s
    x_bound = (u_hi + v_bound + 1) // 2 + 1
    return y_bound, x_bound


def _classes_with(selfint: int, degree: int):
    """Exhaustive certified search for {L : L.L = selfint, -K.L = degree}."""
    y_bound, x_bound = _search_box_bound(selfint, degree)
    out = []
    for x in range(-x_bound, x_bound + 1):
        for xp in range(-x_bound, x_bound + 1):
            for ys in product(range(-y_bound, y_bound + 1), repeat=4):
                L = CurveClass((x, xp) + ys)
                if intersect(L, L) == selfint and intersect(ANTICANONICAL, L) == degree:
                    out.append(L)
    return sorted(out)


@lru_cache(maxsize=1)
def minus_one_classes() -> tuple:
    """The sixteen classes L with L.L = -1 and -K.L = 1."""
    return tuple(_classes_with(-1, 1))


@lru_cache(maxsize=1)
def conic_classes() -> tuple:
    """Classes C with C.C = 0 and -K.C = 2 (the ten conic fibrations)."""
    return tuple(_classes_with(0, 2))


def is_nef(alpha: CurveClass) -> bool:
    """Nef against the effective cone generated by the (-1)-classes."""
    return all(intersect(alpha, L) >= 0 for L in minus_one_classes())


# ---------------------------------------------------------------------------
# markings

@dataclass(frozen=True, order=True)
class Marking:
    """Lattice data of a contraction to P^1 x P^1: fiber classes f, f' and
    four contracted (-1)-classes, with 2f + 2f' - sum e_i anticanonical."""

    f: CurveClass
    fp: CurveClass
    e: tuple

    def slacks(self, alpha: CurveClass) -> tuple:
        se = sum(intersect(ei, alpha) for ei in self.e)
        return (2 * intersect(self.f, alpha) - se,
                2 * intersect(self.fp, alpha) - se)

    def invariants(self, alpha: CurveClass) -> tuple:
        """(a, b, k) of alpha in this marking's coordinates."""
        return (intersect(self.f, alpha), intersect(self.fp, alpha),
                tuple(intersect(ei, alpha) for ei in self.e))


IDENTITY_MARKING = Marking(f=F, fp=FPRIME, e=E)


@lru_cache(maxsize=1)
def enumerate_markings() -> tuple:
    """All ordered tuples (f, f', e1..e4) satisfying the marking relations.

    f, f' run over conic classes with f.f' = 1; the e_i over (-1)-classes,
    pairwise orthogonal, orthogonal to f and f', with 2f + 2f' - sum e_i
    equal to the anticanonical class.  Both component searches use the
    certified boxes, so the enumeration is exhaustive.
    """
    lines = minus_one_classes()
    out = []
    for f in conic_classes():
        for fp in conic_classes():
            if intersect(f, fp) != 1:
                continue
            cands = [L for L in lines
                     if intersect(f, L) == 0 and intersect(fp, L) == 0]
            # the residual class sum e_i is pinned, so prune by it
            target = f.scale(2).add(fp.scale(2)).add(ANTICANONICAL.scale(-1))
            for quad in _orthogonal_quadruples(cands):
                if _sum_classes(quad) == target:
                    out.append(Marking(f=f, fp=fp, e=quad))
    return tuple(sorted(out))


def _sum_classes(classes):
    acc = ZERO
    for c in classes:
        acc = acc.add(c)
    return acc


def _orthogonal_quadruples(cands):
    n = len(cands)
    for i in range(n):
        for j in range(n):
            if j == i or intersect(cands[i], cands[j]) != 0:
                continue
            for k in range(n):
                if k in (i, j) or intersect(cands[i], cands[k]) or intersect(cands[j], cands[k]):
                    continue
                for l in range(n):
                    if l in (i, j, k) or intersect(cands[i], cands[l]) \
                            or intersect(cands[j], cands[l]) or intersect(cands[k], cands[l]):
                        continue
                    yield (cands[i], cands[j], cands[k], cands[l])


@lru_cache(maxsize=1)
def marking_fiber_pairs() -> tuple:
    """Distinct unordered {f, f'} pairs occurring in markings.

    The marking slacks depend only on this pair: sum e_i = 2f + 2f' + K
    gives min-slack(alpha) = h(alpha) - 2 max(f.alpha, f'.alpha)."""
    seen = set()
    for mk in enumerate_markings():
        key = tuple(sorted((mk.f, mk.fp)))
        seen.add(key)
    return tuple(sorted(seen))


@lru_cache(maxsize=1)
def _first_marking_by_pair() -> dict:
    out = {}
    for mk in enumerate_markings():          # already sorted
        key = tuple(sorted((mk.f, mk.fp)))
        out.setdefault(key, mk)
    return out


def choose_marking(alpha: CurveClass) -> Marking:
    """A marking maximizing the smaller of the two slack values.

    The min slack depends only on the fiber pair, so the search runs over
    the 40 pairs; ties break by the deterministic marking order.  For a nef
    class the maximum is non-negative; if the exhaustive search ever fails
    to reach 0 the lattice data is wrong, and we refuse to continue.
    """
    if not is_nef(alpha):
        raise NotNef(f"{alpha} is not nef")
    h = alpha.h
    best_val = None
    winners = []
    for pair in marking_fiber_pairs():
        f, fp = pair
        val = h - 2 * max(intersect(f, alpha), intersect(fp, alpha))
        if best_val is None or val > best_val:
            best_val, winners = val, [pair]
        elif val == best_val:
            winners.append(pair)
    if best_val < 0:
        raise LemmaViolation(f"no admissible marking for nef class {alpha}")
    reps = _first_marking_by_pair()
    return min(reps[pair] for pair in winners)


def ell_functional(alpha: CurveClass) -> int:
    """Max over markings of the min slack; non-negative on the nef cone,
    positively homogeneous of degree one."""
    if not is_nef(alpha):
        raise NotNef(f"{alpha} is not nef")
    h = alpha.h
    return max(h - 2 * max(intersect(f, alpha), intersect(fp, alpha))
               for f, fp in marking_fiber_pairs())


@dataclass(frozen=True)
class ShrunkenCone:
    """Nef classes with ell(alpha) >= epsilon * h(alpha)."""

    epsilon: Fraction

    def __post_init__(self):
        assert self.epsilon > 0

    def contains(self, alpha: CurveClass) -> bool:
        if not is_nef(alpha):
            return False
        return ell_functional(alpha) >= self.epsilon * alpha.h


# ---------------------------------------------------------------------------
# lattice point enumeration

def enumerate_nef_points(d: int, cone: ShrunkenCone | None = None):
    """All nef lattice classes with 0 <= h <= d (optionally inside the
    shrunken cone), in deterministic order.

    In marking invariants the nef conditions read k_i >= 0, k_i <= min(a, b),
    and a + b >= any three of the k_i; they force max(a, b) <= h, which
    bounds the search region.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    out = []
    for a in range(d + 1):
        for b in range(d + 1):
            top = min(a, b)
            if 2 * a + 2 * b - 4 * top > d:
                continue
            for k in product(range(top + 1), repeat=4):
                if 2 * a + 2 * b - sum(k) > d:
                    continue
                ks = sorted(k, reverse=True)
                if ks[0] + ks[1] + ks[2] > a + b:
                    continue
                alpha = CurveClass.from_invariants(a, b, k)
                if cone is not None and not cone.contains(alpha):
                    continue
                out.append(alpha)
    assert all(is_nef(x) for x in out[: min(len(out), 50)])
    return sorted(out)


# ---------------------------------------------------------------------------
# the nef cone volume

WEYL_ORDER = 1920     # |W(D5)|, the number of markings
SIMPLE_ROOTS = (      # walls of the Weyl chamber a >= b >= k1 + k2, k1 >= ... >= k4
    CurveClass((1, -1, 0, 0, 0, 0)),     # F - F'
    CurveClass((0, 1, -1, -1, 0, 0)),    # F' - E1 - E2
    CurveClass((0, 0, 1, -1, 0, 0)),     # E1 - E2
    CurveClass((0, 0, 0, 1, -1, 0)),     # E2 - E3
    CurveClass((0, 0, 0, 0, 1, -1)),     # E3 - E4
)
CHAMBER_LINE = E[3]   # the one (-1)-class whose nef wall meets the chamber


def chamber_rays() -> tuple:
    """The six rays of the nef part of the chamber at h = 1: each lies on
    five of the six walls x.r = 0 (r a simple root) and x.E4 = 0."""
    walls = [pairing_functional(r) for r in SIMPLE_ROOTS + (CHAMBER_LINE,)]
    h = pairing_functional(ANTICANONICAL)
    return tuple(solve(QQ, walls[:i] + walls[i + 1:] + [h], [0] * 5 + [1])
                 for i in range(RANK))


@lru_cache(maxsize=1)
def nef_cone_volume_level1() -> Fraction:
    """Exact volume of {alpha real nef, h(alpha) <= 1} in basis-coordinate
    Lebesgue measure.

    W(D5), of order 1920, acts on Pic(S) by integral isometries that fix K
    and permute the sixteen (-1)-classes, generated by the reflections
    x -> x + (x.r) r in the roots r (r.r = -2, r.K = 0).  So it preserves
    the nef cone, h and volume.  The chamber {x.r >= 0} of the simple roots
    F - F', F' - E1 - E2, E1 - E2, E2 - E3, E3 - E4 is a fundamental domain,
    and inside it the only active nef inequality is x.E4 >= 0.  Hence the
    nef part of the chamber with h <= 1 is the simplex
    {a >= b >= k1 + k2, k1 >= k2 >= k3 >= k4 >= 0, 2a + 2b - sum k <= 1},
    of volume |det(rays)| / 6! = 1/2073600, and the nef volume is 1920
    times that, 1/1080.
    """
    return WEYL_ORDER * abs(det(QQ, chamber_rays())) / factorial(RANK)


def export_inventory() -> dict:
    """JSON-ready inventory of the cone and marking data."""
    return {
        "basis": ["F", "F'", "E1", "E2", "E3", "E4"],
        "anticanonical": list(ANTICANONICAL.coords),
        "minus_one_classes": [list(L.coords) for L in minus_one_classes()],
        "conic_classes": [list(C.coords) for C in conic_classes()],
        "markings": [
            {"f": list(m.f.coords), "fprime": list(m.fp.coords),
             "e": [list(e.coords) for e in m.e]}
            for m in enumerate_markings()
        ],
        "nef_volume_level1": str(nef_cone_volume_level1()),
    }
