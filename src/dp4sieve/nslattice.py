"""The Neron-Severi lattice of the split quartic del Pezzo surface
Bl_4(P^1 x P^1): intersection pairing, the sixteen (-1)-classes, the nef
cone of curves, ruled-surface contractions ("markings"), the piecewise
linear functional that controls the sieve's stable range, and the exact
nef cone volume, from one W(D5) Weyl-chamber simplex.

Every lattice constant comes from the closed list of the sixteen lines:
the ten conic classes are the sums of two lines meeting once, the 40 fiber
pairs are the conic pairs meeting once, and each pair contracts the four
lines orthogonal to both.  Nothing searches a box of vectors; the
brute-force searches that certify these lists are test oracles.

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
from itertools import permutations, product
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
# (-1)-classes, conic classes and markings, in closed form

@lru_cache(maxsize=1)
def minus_one_classes() -> tuple:
    """The sixteen classes L with L.L = -1 and -K.L = 1: the exceptional
    curves E_i, the ruling lines through the blown-up points F - E_i and
    F' - E_i, and the (1,1)-curves through three of them, F + F' - E_j - E_k
    - E_l (Manin, Cubic Forms, 1986)."""
    through_three = [ANTICANONICAL.add(F.add(FPRIME).scale(-1)).add(e) for e in E]
    return tuple(sorted(list(E) + through_three
                        + [g.add(e.scale(-1)) for g in (F, FPRIME) for e in E]))


@lru_cache(maxsize=1)
def conic_classes() -> tuple:
    """Classes C with C.C = 0 and -K.C = 2 (the ten conic fibrations).

    A conic fibration of a quartic del Pezzo surface has four reducible
    fibres, each two lines meeting once, so C = L1 + L2 with L1.L2 = 1;
    conversely every such sum has C.C = 0 and -K.C = 2.
    """
    lines = minus_one_classes()
    return tuple(sorted({x.add(y) for x in lines for y in lines if intersect(x, y) == 1}))


@lru_cache(maxsize=1)
def _line_functionals() -> tuple:
    """The pairing_functional rows of the sixteen (-1)-classes."""
    return tuple(pairing_functional(L) for L in minus_one_classes())


def is_nef(alpha: CurveClass) -> bool:
    """Nef against the effective cone generated by the (-1)-classes."""
    x0, x1, x2, x3, x4, x5 = alpha.coords
    return all(r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + r4 * x4 + r5 * x5 >= 0
               for r0, r1, r2, r3, r4, r5 in _line_functionals())


@dataclass(frozen=True, order=True)
class Marking:
    """Lattice data of a contraction to P^1 x P^1: fiber classes f, f' and
    four contracted (-1)-classes, with 2f + 2f' - sum e_i anticanonical."""

    f: CurveClass
    fp: CurveClass
    e: tuple


@lru_cache(maxsize=1)
def marking_fiber_pairs() -> tuple:
    """The 40 unordered conic pairs {f, f'} with f.f' = 1, as sorted tuples.

    Every such pair is the fiber pair of a marking: the two conic
    fibrations give a morphism S -> P^1 x P^1 of degree f.f' = 1, which
    contracts exactly the four disjoint lines orthogonal to f and f', and
    sum e_i = 2f + 2f' + K.  So the marking slacks depend only on the pair:
    min-slack(alpha) = h(alpha) - 2 max(f.alpha, f'.alpha).
    """
    conics = conic_classes()
    return tuple((f, fp) for i, f in enumerate(conics) for fp in conics[i + 1:]
                 if intersect(f, fp) == 1)


@lru_cache(maxsize=1)
def _first_marking_by_pair() -> dict:
    """Each fiber pair -> its least marking: f < f', the lines sorted."""
    lines = minus_one_classes()
    return {(f, fp): Marking(f, fp, tuple(L for L in lines
                                          if intersect(f, L) == intersect(fp, L) == 0))
            for f, fp in marking_fiber_pairs()}


@lru_cache(maxsize=1)
def enumerate_markings() -> tuple:
    """All ordered tuples (f, f', e1..e4) satisfying the marking relations,
    sorted.

    A marking is an ordered fiber pair (marking_fiber_pairs) with its four
    contracted lines in any order: 40 x 2 x 24 = 1920 = |W(D5)|, which acts
    simply transitively on them.  Only the markings CLI lists them; the
    pipeline reads the fiber pairs.
    """
    return tuple(sorted(Marking(f, fp, e)
                        for mk in _first_marking_by_pair().values()
                        for f, fp in ((mk.f, mk.fp), (mk.fp, mk.f))
                        for e in permutations(mk.e)))


def _slacks(alpha: CurveClass) -> dict:
    """Each fiber pair -> the smaller of its two slacks at the nef class
    alpha, h - 2 max(f.alpha, f'.alpha), in fiber-pair order."""
    if not is_nef(alpha):
        raise NotNef(f"{alpha} is not nef")
    h = alpha.h
    degree = {C: intersect(C, alpha) for C in conic_classes()}
    return {(f, fp): h - 2 * max(degree[f], degree[fp]) for f, fp in marking_fiber_pairs()}


def choose_marking(alpha: CurveClass) -> Marking:
    """A marking maximizing the smaller of the two slack values.

    The min slack depends only on the fiber pair, so the search runs over
    the 40 pairs; ties break by the deterministic marking order.  For a nef
    class the maximum is non-negative; if the exhaustive search ever fails
    to reach 0 the lattice data is wrong, and we refuse to continue.
    """
    slacks = _slacks(alpha)
    best = max(slacks.values())
    if best < 0:
        raise LemmaViolation(f"no admissible marking for nef class {alpha}")
    reps = _first_marking_by_pair()
    return min(reps[pair] for pair, val in slacks.items() if val == best)


def ell_functional(alpha: CurveClass) -> int:
    """Max over markings of the min slack; non-negative on the nef cone,
    positively homogeneous of degree one."""
    return max(_slacks(alpha).values())


@dataclass(frozen=True)
class ShrunkenCone:
    """Nef classes with ell(alpha) >= epsilon * h(alpha)."""

    epsilon: Fraction

    def __post_init__(self):
        assert self.epsilon > 0

    def contains(self, alpha: CurveClass) -> bool:
        try:                        # ell_functional makes the one nef check
            return ell_functional(alpha) >= self.epsilon * alpha.h
        except NotNef:
            return False


# ---------------------------------------------------------------------------
# lattice point enumeration

def enumerate_nef_points(d: int):
    """All nef lattice classes with 0 <= h <= d, in deterministic order.

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
                out.append(CurveClass.from_invariants(a, b, k))
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
    """JSON-ready inventory of the cone data."""
    return {
        "basis": ["F", "F'", "E1", "E2", "E3", "E4"],
        "anticanonical": list(ANTICANONICAL.coords),
        "minus_one_classes": [list(L.coords) for L in minus_one_classes()],
        "conic_classes": [list(C.coords) for C in conic_classes()],
        "nef_volume_level1": str(nef_cone_volume_level1()),
    }


def export_markings() -> list:
    """JSON-ready list of all markings."""
    return [{"f": list(m.f.coords), "fprime": list(m.fp.coords),
             "e": [list(e.coords) for e in m.e]}
            for m in enumerate_markings()]
