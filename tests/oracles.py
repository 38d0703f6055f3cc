"""Brute-force references for the engines in src/dp4sieve.

Nothing here runs in the pipeline; each block recomputes what one engine
computes, by a path that shares as little with it as possible:

* section counting: one pass over every coprime section pair of a bidegree,
  tallied by the four contact divisors that polynomial gcds give, against
  secenum's contact-degree join and its closed form for a constant side; the
  divisor of a form by trial division, against secenum's monic-form ids and
  multiplicity tables; the closed points of a degree by trial division,
  against field.monic_irreducibles' marking of products; the PGL_2(F_q)
  permutation table from every invertible matrix, against secenum's Bruhat
  cells; the orbit-reduced side as the full side summary moved to least keys
  over that table, against secenum's enumeration from first-divisor orbits;
  the full side summary by coefficient pairs, against secenum's sweep under
  the trivial group; the centre permutations by trying every Moebius map,
  and the join over every orbit representative, against secenum's
  fundamental-domain join; the fiber count through that join, one 0/1 table
  per contact component, so it shares no join code with secenum; u_k_points;
  the elementary transform remark_config;
* the configuration poset behind the sieve: the sixteen-element lattice of
  fiber subspaces, local conditions as chains of its elements, their
  codimension and excess, the local excess polynomials by the generic
  Moebius recursion over local intervals, against sieve.local_poly's
  closed forms; configurations, intervals, the Moebius function as a
  product of local values and by the recursion over the whole interval,
  enumeration above a base, and the exact rank of the linear system a
  configuration imposes;
* the Neron-Severi lattice: the lines, conics and markings by exhaustive
  search over certified boxes and orthogonal quadruples, and the marking
  slacks and invariants that the pipeline folds into fiber pairs;
* small closed forms: surface_count, tamagawa_exact, count_nef_points,
  and the displayed Euler factor (factor_constant,
  factor_contact_coefficient, display_local_factor) against
  euler.local_factor;
* exact arithmetic: the truncated series product as a double loop over
  two dicts of Fractions, interval powers by repeated interval products,
  and the limit check's local values and cutoffs in Fractions;
* closed points, effective divisors as multisets of them and the
  degree-n divisor inventories (hilb_points): the oracle's own divisor
  model, which the engine replaces by monic forms; element vectors, the
  Frobenius map and pointwise divisor arithmetic, which the pipeline never
  needs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dp4sieve import nslattice as ns
from dp4sieve import secenum as se
from dp4sieve import surface as sf
from dp4sieve.errors import DegreeMismatch, Dp4Error, TooLarge
from dp4sieve.exactnum import Interval
from dp4sieve.field import (
    FieldSpec,
    count_closed_points,
    from_digits,
    monic_irreducibles,
    poly_divmod,
    poly_mul,
    poly_trim,
    to_digits,
)
from dp4sieve.heightzeta import TruncatedMultiSeries, good_factor
from dp4sieve.linalg import row_reduce
from dp4sieve.surface import DEFAULT_BUDGET, SurfaceConfig


# ---------------------------------------------------------------------------
# the oracle's divisor model: closed points and effective divisors as
# multisets of them.  Points of P^1 carry the affine coordinate x = X/Y of
# secenum's forms, so a closed point is either the place at infinity
# (Y = 0, degree 1) or a monic irreducible polynomial in x.

_HILB_CAP = 2_000_000


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
    return ClosedPoint(degree=1, code=-1, poly=())


def _affine_point(K: FieldSpec, poly) -> ClosedPoint:
    poly = tuple(poly)
    return ClosedPoint(degree=len(poly) - 1, code=from_digits(poly, K.q), poly=poly)


def closed_points_up_to(K: FieldSpec, N: int):
    """All closed points of degree <= N in deterministic order.

    Degree 1 lists the q affine rational points by coordinate code and then
    infinity; higher degrees list monic irreducibles by coefficient code.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    pts = [_affine_point(K, P) for P in monic_irreducibles(K, 1)] + [point_at_infinity()]
    for n in range(2, N + 1):
        pts.extend(_affine_point(K, P) for P in monic_irreducibles(K, n))
    return pts


@dataclass(frozen=True)
class EffectiveDivisor:
    """A finite multiset of closed points: sorted ((point, mult), ...) pairs."""

    entries: tuple

    def __post_init__(self):
        assert all(m >= 1 for _, m in self.entries)

    @property
    def degree(self) -> int:
        return sum(pt.degree * m for pt, m in self.entries)


def divisor(pairs) -> EffectiveDivisor:
    ent = tuple(sorted((pt, m) for pt, m in pairs if m))
    return EffectiveDivisor(entries=ent)


ZERO_DIVISOR = EffectiveDivisor(entries=())


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


# ---------------------------------------------------------------------------
# field elements as vectors, and effective divisors pointwise

def to_vector(K: FieldSpec, e: int) -> tuple:
    """Coefficient vector of length n over Z/p, constant term first."""
    return to_digits(e, K.p, K.n)


def from_vector(K: FieldSpec, vec) -> int:
    return from_digits([c % K.p for c in vec], K.p)


def frobenius(K: FieldSpec, a: int) -> int:
    """The p-power map, as p - 1 table multiplications."""
    out = a
    for _ in range(K.p - 1):
        out = K.mul(out, a)
    return out


def divisor_mult(d: EffectiveDivisor, pt: ClosedPoint) -> int:
    return dict(d.entries).get(pt, 0)


def divisor_support(d: EffectiveDivisor) -> tuple:
    return tuple(pt for pt, _ in d.entries)


def divisor_min(x: EffectiveDivisor, y: EffectiveDivisor) -> EffectiveDivisor:
    """Pointwise minimum of the multiplicities."""
    return divisor((pt, min(m, divisor_mult(y, pt))) for pt, m in x.entries)


def divisor_sum(x: EffectiveDivisor, y: EffectiveDivisor) -> EffectiveDivisor:
    return divisor((Counter(dict(x.entries)) + Counter(dict(y.entries))).items())


# ---------------------------------------------------------------------------
# forms: divisors by trial division

class ZeroForm(Dp4Error):
    """The zero form has no divisor, and two zero forms no gcd."""


def form_is_zero(coeffs) -> bool:
    return not any(coeffs)


def _affine_part(coeffs):
    """Split a form into (affine polynomial, order of vanishing at infinity)."""
    aff = poly_trim(coeffs)
    return aff, len(coeffs) - len(aff)


def irreducibles_by_trial_division(K: FieldSpec, n: int) -> tuple:
    """Reference for field.monic_irreducibles: the monic polynomials
    of degree n, ascending by code, that no lower-degree monic irreducible
    divides."""
    lower = [pt.poly for d in range(1, n // 2 + 1)
             for pt in irreducibles_by_trial_division(K, d)]
    out = []
    for code in range(K.q ** n):
        poly = to_digits(code, K.q, n) + (1,)
        if all(poly_divmod(K, poly, div)[1] for div in lower):
            out.append(_affine_point(K, poly))
    return tuple(out)


def factor_poly(K: FieldSpec, poly) -> list:
    """Factor a nonzero polynomial into (ClosedPoint, multiplicity) pairs."""
    poly = poly_trim(poly)
    out = []
    deg = len(poly) - 1
    n = 1
    while len(poly) - 1 > 0:
        if n > (len(poly) - 1) // 2:
            # remaining cofactor is irreducible
            inv = K.inv(poly[-1])
            monic = tuple(K.mul(c, inv) for c in poly)
            out.append((_affine_point(K, monic), 1))
            break
        for factor in monic_irreducibles(K, n):
            mult = 0
            while True:
                quot, rem = poly_divmod(K, poly, factor)
                if rem:
                    break
                poly, mult = quot, mult + 1
            if mult:
                out.append((_affine_point(K, factor), mult))
        n += 1
    assert sum(pt.degree * m for pt, m in out) == deg
    return out


def divisor_of_form(K: FieldSpec, coeffs) -> EffectiveDivisor:
    """Full factorization of a nonzero form, including the place at infinity;
    reference for secenum._form_divisor_ids."""
    if form_is_zero(coeffs):
        raise ZeroForm("the zero form has no divisor")
    aff, inf_mult = _affine_part(coeffs)
    pairs = factor_poly(K, aff) if len(aff) > 1 else []
    if inf_mult:
        pairs.append((point_at_infinity(), inf_mult))
    div = divisor(pairs)
    assert div.degree == len(coeffs) - 1
    return div


def monic_forms(K: FieldSpec, degree: int) -> list:
    """The monic forms of a degree (top nonzero coefficient 1), as
    coefficient tuples ascending by code: secenum's divisor id of a form
    is the index here of its monic multiple."""
    return [to_digits(r, K.q, t) + (1,) + (0,) * (degree - t)
            for t in range(degree + 1) for r in range(K.q ** t)]


@lru_cache(maxsize=None)
def id_divisors(K: FieldSpec, degree: int) -> tuple:
    """The divisor of each of secenum's divisor ids of a degree, by
    factoring its monic form."""
    return tuple(divisor_of_form(K, f) for f in monic_forms(K, degree))


# ---------------------------------------------------------------------------
# polynomial gcds and exact linear algebra

def poly_gcd(K: FieldSpec, a, b):
    """Monic gcd; gcd(a, 0) = monic(a)."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, a = poly_divmod(K, a, b)
        a, b = b, a
    if a:
        inv = K.inv(a[-1])
        a = tuple(K.mul(c, inv) for c in a)
    return a


def rational_point(K: FieldSpec, x: int) -> ClosedPoint:
    """The degree-1 point at affine coordinate x."""
    return _affine_point(K, (K.neg(x), 1))


def form_gcd(K: FieldSpec, f, g) -> EffectiveDivisor:
    """Pointwise minimum of the two divisors, as a divisor.

    Equals the divisor of the polynomial gcd of the affine parts plus the
    minimum of the orders at infinity.  A zero form acts as the neutral
    upper bound: form_gcd(0, g) = div(g).
    """
    fz, gz = form_is_zero(f), form_is_zero(g)
    if fz and gz:
        raise ZeroForm("gcd of two zero forms")
    if fz:
        return divisor_of_form(K, g)
    if gz:
        return divisor_of_form(K, f)
    aff_f, inf_f = _affine_part(f)
    aff_g, inf_g = _affine_part(g)
    gcd_poly = poly_gcd(K, aff_f, aff_g)
    pairs = factor_poly(K, gcd_poly) if len(gcd_poly) > 1 else []
    inf_mult = min(inf_f, inf_g)
    if inf_mult:
        pairs.append((point_at_infinity(), inf_mult))
    return divisor(pairs)


def form_gcd_degree(K: FieldSpec, f, g) -> int:
    """Degree of form_gcd without factoring."""
    fz, gz = form_is_zero(f), form_is_zero(g)
    if fz and gz:
        raise ZeroForm("gcd of two zero forms")
    if fz:
        return len(g) - 1
    if gz:
        return len(f) - 1
    aff_f, inf_f = _affine_part(f)
    aff_g, inf_g = _affine_part(g)
    gcd_poly = poly_gcd(K, aff_f, aff_g)
    return max(0, len(gcd_poly) - 1) + min(inf_f, inf_g)


def rank(K, rows) -> int:
    return len(row_reduce(K, rows)[1])


def nullspace(K, rows) -> list:
    """Basis of {x : rows . x = 0}, one vector per free column, in column
    order: the free entry is 1, the other free entries 0, and the pivot
    entries are read off the reduced row echelon form."""
    ncols = len(rows[0])
    m, pivots, _, _ = row_reduce(K, rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = K.neg(m[r][free])
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# section counting: one brute-force pass per bidegree

def _composite(K: FieldSpec, lam, pair):
    d, negc = lam
    f1, f2 = pair
    return tuple(K.add(K.mul(d, x), K.mul(negc, y)) for x, y in zip(f1, f2))


@lru_cache(maxsize=None)
def _contact(K: FieldSpec, g, h) -> EffectiveDivisor:
    # two zero composites: a constant section at the marked point, contact 0
    return ZERO_DIVISOR if form_is_zero(g) and form_is_zero(h) else form_gcd(K, g, h)


def contact_divisors(cfg: SurfaceConfig, s, t) -> tuple:
    """The four contact divisors of the section pair (s, t), each a pair of
    coefficient tuples: the gcd of the composites lambda_i(s), lambda'_i(t),
    and contact 0 where both vanish, a constant pair at a centre (secenum's
    module docstring, Constant sides)."""
    K = cfg.field
    for name, side in (("s", s), ("t", t)):
        if all(form_is_zero(f) for f in side):
            raise ZeroForm(f"{name} is identically zero")
    lam2 = cfg.transposed().lam
    return tuple(_contact(K, _composite(K, cfg.lam(i), s), _composite(K, lam2(i), t))
                 for i in range(4))


def _coprime_side(K: FieldSpec, degree: int) -> list:
    forms = list(itertools.product(range(K.q), repeat=degree + 1))
    return [(f1, f2) for f1 in forms for f2 in forms
            if not (form_is_zero(f1) and form_is_zero(f2))
            and form_gcd_degree(K, f1, f2) == 0]


@lru_cache(maxsize=None)
def contact_tally(cfg: SurfaceConfig, a: int, b: int) -> Counter:
    """Every section pair of bidegree (a, b), both sides coprime, tallied by
    its four contact divisors.  Charges the naive q^(2a+2b+4)."""
    q = cfg.field.q
    se._charge(q ** (2 * a + 2 * b + 4), DEFAULT_BUDGET, f"naive cost {q}^{2 * a + 2 * b + 4}")
    T = _coprime_side(cfg.field, b)
    return Counter(contact_divisors(cfg, s, t) for s in _coprime_side(cfg.field, a) for t in T)


def count_sections_raw(cfg: SurfaceConfig, a: int, b: int, k) -> int:
    """Reference for secenum.count_sections."""
    k = tuple(k)
    return sum(n for key, n in contact_tally(cfg, a, b).items()
               if tuple(d.degree for d in key) == k)


def fiber_count_raw(cfg: SurfaceConfig, w, a: int, b: int) -> int:
    """Reference for fiber_count."""
    return contact_tally(cfg, a, b)[tuple(w)]


def _disjoint(divisors) -> bool:
    support = [pt for d in divisors for pt in divisor_support(d)]
    return len(support) == len(set(support))


def u_k_points(K: FieldSpec, k, limit: int = 200_000):
    """All tuples (T_1..T_4) of effective divisors, deg T_i = k_i, with
    pairwise disjoint supports; deterministic order."""
    if any(x < 0 for x in k):
        raise DegreeMismatch("contact orders must be non-negative")
    pools = [hilb_points(K, x) for x in k]
    est = math.prod(map(len, pools))
    if est > limit:
        raise TooLarge(f"{est} candidate tuples exceeds limit {limit}")
    return [combo for combo in itertools.product(*pools) if _disjoint(combo)]


def fiber_count(cfg: SurfaceConfig, w, a: int, b: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Sections whose four contact divisors equal the given tuple exactly,
    through join_histogram with one 0/1 table per component, over the
    unreduced side summaries.

    w is a tuple of four effective divisors with pairwise disjoint
    supports; summing over all of u_k_points recovers count_sections for
    k = (deg w_i).  Both degrees are >= 1, as side_summary's are.
    """
    if len(w) != 4:
        raise DegreeMismatch("w must have four components")
    if not _disjoint(w):
        raise ValueError("components of w share support")
    q = cfg.field.q
    spent = q ** (2 * a + 2) + q ** (2 * b + 2)
    se._charge(spent, budget, f"side enumerations {q}^{2 * a + 2} + {q}^{2 * b + 2}")
    S = side_summary(cfg, a)
    T = side_summary(cfg.transposed(), b)
    se._charge(spent + S[0].shape[1] * T[0].shape[1], budget,
               "side enumerations plus join pairs")
    tables = [_fiber_table(cfg.field, a, b, d) for d in w]
    return int(join_histogram(*S, *T, tables, 2)[1, 1, 1, 1])


def _fiber_table(K: FieldSpec, deg_s: int, deg_t: int, w: EffectiveDivisor):
    """0/1 table [min(D, D') = w] over the same rows and columns as
    _degree_table."""
    T = id_divisors(K, deg_t)
    return np.array([[divisor_min(x, y) == w for y in T] for x in id_divisors(K, deg_s)],
                    dtype=np.int64)


_CHUNK = 1 << 17


def _projective_codes(q: int, length: int):
    """Codes of the nonzero length-digit vectors whose top nonzero digit is
    1 (one per line through the origin), in chunks."""
    for j in range(length):
        for start in range(q ** j, 2 * q ** j, _CHUNK):
            yield np.arange(start, min(start + _CHUNK, 2 * q ** j), dtype=np.int64)


@lru_cache(maxsize=8)
def side_summary(cfg: SurfaceConfig, degree: int):
    """Reference for secenum's full side of a degree >= 1: the side in the
    functionals of cfg's first coordinates compressed to (divisor-id
    quadruples, multiplicities).

    Enumerates the coefficient pairs of one side up to a common scalar
    (every pair's four contact divisors are those of its q-1 multiples),
    keeps those with no common root, computes the four composite forms by
    vectorized table arithmetic, and aggregates equal divisor-id quadruples.
    A zero form, which has no id, shares every root of the other form, so
    it is masked out before the ids are read.
    """
    assert degree >= 1, "a constant side has no side summary"
    K = cfg.field
    q = K.q
    mul, sub = se._np_tables(K)
    nforms = q ** (degree + 1)
    digits = se._form_digits(q, degree)
    div_id = se._form_divisor_ids(K, degree)
    coprime = se._degree_table(K, degree, degree) == 0
    base = se._id_count(q, degree)
    scaled = []
    for i in range(4):
        d, negc = cfg.lam(i)
        scaled.append((mul[d][digits], mul[K.neg(negc)][digits]))
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    parts, counts = [], []
    for codes in _projective_codes(q, 2 * degree + 2):
        f1, f2 = np.divmod(codes, nforms)
        nonzero = (f1 > 0) & (f2 > 0)
        f1, f2 = f1[nonzero], f2[nonzero]
        ok = coprime[div_id[f1], div_id[f2]]
        f1, f2 = f1[ok], f2[ok]
        quad = np.empty((4, f1.size), dtype=np.int64)
        for i, (ds1, cs2) in enumerate(scaled):
            quad[i] = div_id[sub[ds1[f1], cs2[f2]] @ powers]   # d*s1 - c*s2
        keys, n = np.unique(se._encode(quad, base), return_counts=True)
        parts.append(keys)
        counts.append(n)
    keys, n = se._tally(np.concatenate(parts), np.concatenate(counts))
    return se._decode(keys, base), n * (q - 1)


def pgl2_rows(K: FieldSpec, degree: int):
    """Reference for secenum._pgl2_perms: the divisor-id permutation of each
    element of PGL_2(F_q) by its definition, one invertible matrix
    (a, b, c, d) with first nonzero entry 1 per element."""
    return np.array([se._pullback_perm(K, degree, g)
                     for g in itertools.product(range(K.q), repeat=4)
                     if K.sub(K.mul(g[0], g[3]), K.mul(g[1], g[2])) and next(filter(None, g)) == 1],
                    dtype=np.uint16)


def side_orbits(cfg: SurfaceConfig, degree: int):
    """Reference for secenum._fundamental_rows under the trivial group of
    centre permutations: the full side summary, each quadruple moved to the
    least key over the whole of PGL_2(F_q), equal keys tallied."""
    comp, weights = side_summary(cfg, degree)
    perms = pgl2_rows(cfg.field, degree)
    base = perms.shape[1]
    canon = se._encode(comp, base)
    for perm in perms:
        np.minimum(canon, se._encode(perm[comp], base), out=canon)
    keys, total = se._tally(canon, weights)
    return se._decode(keys, base), total


def centre_symmetries(cfg: SurfaceConfig) -> set:
    """Reference for secenum._centre_symmetries: the permutations sigma with
    g(p_i) = p_sigma(i) for some invertible 2x2 matrix g on the first
    coordinates and some on the second, found by trying every matrix."""
    K = cfg.field

    def realised(pts):
        found = set()
        for a, b, c, d in itertools.product(range(K.q), repeat=4):
            if K.sub(K.mul(a, d), K.mul(b, c)):
                image = [sf._normalize_point(K, (K.add(K.mul(a, u), K.mul(b, v)),
                                                 K.add(K.mul(c, u), K.mul(d, v))))
                         for u, v in pts]
                if set(image) == set(pts):
                    found.add(tuple(pts.index(x) for x in image))
        return found

    return realised(list(cfg.first)) & realised(list(cfg.second))


def join_histogram(rows, row_w, cols, col_w, tables, base: int):
    """Reference for secenum._join, with one table per component: every row
    x column pair adds its weight product at the key whose digit i is
    tables[i][row_i, col_i], a chunk of rows at a time, with no symmetry."""
    hist = np.zeros(base ** 4, dtype=np.int64)
    step = max(1, _CHUNK // max(1, cols.shape[1]))
    for first in range(0, rows.shape[1], step):
        rs = slice(first, first + step)
        keys = 0
        for i in range(4):
            keys = keys * base + tables[i][rows[i, rs]][:, cols[i]].astype(np.int64)
        np.add.at(hist, keys.ravel(), (row_w[rs, None] * col_w[None, :]).ravel())
    return hist.reshape((base,) * 4)


def remark_config(cfg: SurfaceConfig, i: int, j: int):
    """Re-coordinatize through the contraction keeping the first ruling and
    replacing the second by the pencil of (1,1)-curves through centers i, j.

    In lattice terms this is the marking (F, F+F'-E_i-E_j) with contracted
    classes (E_m1, E_m2, F-E_i, F-E_j), m1 < m2 the other two indices.  A
    class with identity invariants (a, b, k) has new invariants
    (a, a+b-k_i-k_j, (k_m1, k_m2, a-k_i, a-k_j)); the section counts of the
    two models agree because both enumerate the same abstract moduli
    points.  Returns (new_config, new_invariants_function).
    """
    K = cfg.field
    if i == j or not (0 <= i < 4 and 0 <= j < 4):
        raise ValueError("need two distinct center indices")
    others = [m for m in range(4) if m not in (i, j)]
    m1, m2 = others

    # solve for the pencil basis: G(u, v) = sum g_ab u_a v_b vanishing at
    # centers i and j; exact nullspace of a 2x4 system over the field
    basis = nullspace(K, [sf._bidegree_monomials(K, cfg.first[m], cfg.second[m])
                          for m in (i, j)])
    assert len(basis) == 2, "pencil through two centers must be 2-dimensional"
    G1, G2 = basis

    def ev(G, u, v):
        acc = 0
        for g, mono in zip(G, sf._bidegree_monomials(K, u, v)):
            acc = K.add(acc, K.mul(g, mono))
        return acc

    def psi(u, v):
        return (ev(G1, u, v), ev(G2, u, v))

    new_first, new_second = [], []
    for m in (m1, m2):
        img = psi(cfg.first[m], cfg.second[m])
        if img == (0, 0):
            raise ValueError(f"center {m} lies on the pencil base locus")
        new_first.append(cfg.first[m])
        new_second.append(img)
    for m in (i, j):
        # along the fiber u = p_m both pencil members are multiples of the
        # same linear form in v; their constant ratio is the image point
        probe = next(pt for pt in _projective_points(K) if pt != cfg.second[m])
        img = (ev(G1, cfg.first[m], probe), ev(G2, cfg.first[m], probe))
        if img == (0, 0):
            raise ValueError(f"fiber through center {m} collapses badly")
        new_first.append(cfg.first[m])
        new_second.append(img)
    new_cfg = sf.validate_points(K, list(zip(new_first, new_second)),
                                 allow_on_bidegree_curve=True)

    def new_invariants(a: int, b: int, k):
        k = tuple(k)
        return (a, a + b - k[i] - k[j],
                (k[m1], k[m2], a - k[i], a - k[j]))

    return new_cfg, new_invariants


def _projective_points(K: FieldSpec):
    return [(c, 1) for c in range(K.q)] + [(1, 0)]


def clear_caches():
    """Drop all of secenum's in-memory caches (histograms, sides, tables)
    and the side summary here, so that a second run recomputes or reads the
    on-disk cache."""
    side_summary.cache_clear()
    for cached in vars(se).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


# ---------------------------------------------------------------------------
# the configuration poset behind the sieve: the local condition lattice

@dataclass(frozen=True)
class ConditionLattice:
    """A finite meet-semilattice of fiber subspaces with coranks.

    Elements are encoded as pairs (A, B); each factor is 'full', 'zero', or
    a line index 0..3.  The top element (full, full) is the ambient space
    and never a level of a condition's chain.
    """

    elements: tuple
    coranks: tuple
    meet_idx: tuple
    top: int

    def index(self, elem) -> int:
        return self.elements.index(elem)

    def leq(self, i: int, j: int) -> bool:
        return self.meet_idx[i][j] == i

    @property
    def nontop(self):
        return tuple(i for i in range(len(self.elements)) if i != self.top)


def _factor_meet(x, y):
    if x == "full":
        return y
    if y == "full":
        return x
    if x == y:
        return x
    return "zero"


def _factor_corank(x):
    return 0 if x == "full" else (1 if x != "zero" else 2)


def _build_lattice(elems):
    elems = tuple(elems)
    idx = {e: i for i, e in enumerate(elems)}
    meets = tuple(tuple(idx[_factor_meet(a1, a2), _factor_meet(b1, b2)] for a2, b2 in elems)
                  for a1, b1 in elems)
    coranks = tuple(_factor_corank(a) + _factor_corank(b) for a, b in elems)
    return ConditionLattice(elements=elems, coranks=coranks, meet_idx=meets,
                            top=idx[("full", "full")])


# V, the two one-side elements, the four W_i, the eight marked lines, 0
LATTICE = _build_lattice(
    [("full", "full"), ("zero", "full"), ("full", "zero")]
    + [(i, i) for i in range(4)]
    + [(i, "zero") for i in range(4)]
    + [("zero", i) for i in range(4)]
    + [("zero", "zero")])
PLANE = LATTICE.index((0, 0))     # W_1, where the first contact component sits


# ---------------------------------------------------------------------------
# local conditions, as chains of level meets

def condition_gamma(chain) -> int:
    """Sum of the coranks of the level meets."""
    return sum(LATTICE.coranks[m] for m in chain)


def condition_excess(base, chain, degree: int) -> int:
    """Degree-weighted truncation excess of chain over base (sieve module doc)."""
    refined = sum(1 for b, c in zip(base, chain) if b != c)
    return degree * ((len(chain) - len(base)) + refined)


def condition_leq(lo, hi) -> bool:
    """The levelwise order on chains: hi is at least as deep as lo, and each
    of hi's levels lies below lo's level of the same index."""
    return len(lo) <= len(hi) and all(LATTICE.leq(h, l) for l, h in zip(lo, hi))


def chain_condition(chain) -> tuple:
    """The multiplicity tuple over LATTICE.nontop: m(e) = levels at or below e."""
    return tuple(sum(1 for c in chain if LATTICE.leq(c, e)) for e in LATTICE.nontop)


@lru_cache(maxsize=None)
def _local_shapes(max_order: int) -> tuple:
    """All saturated conditions with multiplicity depth <= max_order, as
    chains of level meets: chains e_1 <= e_2 <= ... of non-top elements,
    the empty chain being the trivial condition.  They are listed in the
    order of their multiplicity tuples, which seeded draws from the list
    depend on."""
    chains, level = [()], [()]
    for _ in range(max_order):
        level = [ch + (e,) for ch in level for e in LATTICE.nontop
                 if not ch or LATTICE.leq(ch[-1], e)]
        chains += level
    return tuple(sorted(chains, key=chain_condition))


@dataclass(frozen=True)
class Configuration:
    """Finitely supported assignment of saturated local conditions."""

    data: tuple          # sorted ((ClosedPoint, chain), ...), chains nonempty

    def condition_at(self, pt: ClosedPoint):
        for p, c in self.data:
            if p == pt:
                return c
        return ()

    @property
    def support(self):
        return tuple(pt for pt, _ in self.data)


def configuration(assignments) -> Configuration:
    data = []
    for pt, chain in assignments:
        assert all(LATTICE.leq(lo, hi) for lo, hi in zip(chain, chain[1:]))
        assert LATTICE.top not in chain
        if chain:
            data.append((pt, tuple(chain)))
    data.sort(key=lambda e: (e[0], e[1]))
    assert len({pt for pt, _ in data}) == len(data), "one condition per point"
    return Configuration(data=tuple(data))


def empty_configuration() -> Configuration:
    return Configuration(data=())


def config_leq(w: Configuration, x: Configuration) -> bool:
    """Pointwise divisor containment at every lattice element."""
    return all(condition_leq(cond, x.condition_at(pt)) for pt, cond in w.data)


def config_from_divisor_tuple(w) -> Configuration:
    """The configuration induced by a disjoint divisor tuple: component i
    places its multiplicity m at the plane W_i, the chain (W_i,) * m."""
    return configuration([(pt, (LATTICE.index((i, i)),) * mult)
                          for i, div in enumerate(w) for pt, mult in div.entries])


def gamma(x: Configuration) -> int:
    """Expected codimension: degree-weighted sum of local level coranks."""
    return sum(pt.degree * condition_gamma(cond) for pt, cond in x.data)


def config_excess(w: Configuration, x: Configuration) -> int:
    assert config_leq(w, x)
    return sum(condition_excess(w.condition_at(pt), cond, pt.degree)
               for pt, cond in x.data)


@lru_cache(maxsize=None)
def _conditions_between(lo, hi) -> tuple:
    return tuple(cand for cand in _local_shapes(len(hi))
                 if condition_leq(lo, cand) and condition_leq(cand, hi))


@lru_cache(maxsize=None)
def local_mobius(lo, hi) -> int:
    """mu(lo, hi) by the generic recursion over the local interval [lo, hi]."""
    if lo == hi:
        return 1
    return -sum(local_mobius(lo, mid) for mid in _conditions_between(lo, hi) if mid != hi)


def local_poly_by_definition(q: int, degree: int, base, budget: int) -> tuple:
    """The local excess polynomial of sieve.local_poly by its definition:
    every saturated tau above the chain base of excess <= budget, weighted
    by local_mobius(base, tau) q^(-degree gamma(tau))."""
    out = [Fraction(0)] * (budget + 1)
    for tau in _local_shapes(len(base) + budget // degree):
        if condition_leq(base, tau):
            excess = condition_excess(base, tau, degree)
            if excess <= budget:
                out[excess] += Fraction(local_mobius(base, tau),
                                        q ** (degree * condition_gamma(tau)))
    return tuple(out)


def _interval_data(w: Configuration, x: Configuration) -> list:
    """The data tuples of the configurations between w and x, each as
    configuration() would sort it: x's points come in order, and empty
    chains drop out."""
    locals_ = [[(pt, c) for c in _conditions_between(w.condition_at(pt), x.condition_at(pt))]
               for pt in x.support]
    return [tuple((pt, c) for pt, c in combo if c) for combo in itertools.product(*locals_)]


def interval(w: Configuration, x: Configuration):
    """All configurations between w and x (product of local intervals)."""
    if not config_leq(w, x):
        raise ValueError("w is not below x")
    return [configuration(data) for data in _interval_data(w, x)]


def mobius(w: Configuration, x: Configuration) -> int:
    """mu(w, x) of the configuration poset as the product over closed
    points of the local values."""
    if not config_leq(w, x):
        raise ValueError("w is not below x")
    out = 1
    for pt in x.support:
        out *= local_mobius(w.condition_at(pt), x.condition_at(pt))
    return out


def mobius_recursive(w: Configuration, x: Configuration) -> int:
    """mu(w, x) by the generic recursion over the interval [w, x]:
    mu(w, w) = 1 and mu(w, y) = -sum of mu(w, z) over w <= z < y.

    Members are taken in order of gamma, which rises strictly along the
    order, so the rest of each member's down-set [w, y], a product of local
    intervals, is done before the member; no pair is compared.  Down-sets
    are kept as data tuples, so only [w, x] itself builds configurations."""
    mu = {}
    for y in sorted(interval(w, x), key=gamma):
        below = [data for data in _interval_data(w, y) if data != y.data]
        mu[y.data] = -sum(mu[data] for data in below) if below else 1
    return mu[x.data]


def enumerate_configs_above(w, D: int, K: FieldSpec, limit: int = 500_000):
    """All saturated configurations dominating the w-induced configuration
    with excess at most D, in deterministic order.

    w is a tuple of four effective divisors with disjoint supports, or a
    Configuration.  Excess counts depth growth plus strict level
    refinements, degree-weighted (sieve module doc); D = 0 yields exactly
    the base configuration.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    base = w if isinstance(w, Configuration) else config_from_divisor_tuple(w)
    base_pts = list(base.support)
    new_pts = [pt for pt in closed_points_up_to(K, max(1, D))
               if pt.degree <= D and pt not in base_pts] if D >= 1 else []
    all_pts = base_pts + new_pts

    per_point = []
    for pt in all_pts:
        lo = base.condition_at(pt)
        cands = []
        for cand in _local_shapes(len(lo) + D // pt.degree):
            if condition_leq(lo, cand):
                excess = condition_excess(lo, cand, pt.degree)
                if excess <= D:
                    cands.append((cand, excess))
        per_point.append(cands)

    out = []

    def rec(idx, remaining, acc):
        if len(out) > limit:
            raise TooLarge("configuration inventory exceeds limit")
        if idx == len(all_pts):
            out.append(configuration(acc))
            return
        pt = all_pts[idx]
        for cand, excess in per_point[idx]:
            if excess <= remaining:
                rec(idx + 1, remaining - excess, acc + [(pt, cand)])

    rec(0, D, [])
    out.sort(key=lambda x: (config_excess(base, x), x.data))
    return out


def gamma_rank_oracle(x: Configuration, a: int, b: int, cfg: SurfaceConfig) -> int:
    """Rank of the exact linear system imposed by x on the section space.

    Assembles, over F_q, the conditions "the section lies in the prescribed
    subspace to the prescribed order" for every lattice element with
    positive multiplicity, as linear equations on the 2a+2b+4 coefficients,
    and returns the codimension of the solution space: the ground truth for
    gamma in the stable range.
    """
    K = cfg.field
    lam2 = cfg.transposed().lam
    rows = []
    for pt, cond in x.data:
        for mult, idx in zip(chain_condition(cond), LATTICE.nontop):
            if mult:
                A, B = LATTICE.elements[idx]
                rows += [r + [0] * (2 * b + 2) for r in _subspace_rows(K, cfg.lam, pt, mult, A, a)]
                rows += [[0] * (2 * a + 2) + r for r in _subspace_rows(K, lam2, pt, mult, B, b)]
    return rank(K, rows) if rows else 0


def _subspace_rows(K: FieldSpec, lam, pt: ClosedPoint, mult: int, factor, degree: int):
    """Rows on one side's 2 * degree + 2 coefficients for "the side's value
    at pt lies in factor, to order mult"."""
    if factor == "full":
        return []
    zero = [0] * (degree + 1)
    rows = [list(r) for r in _vanishing_rows(K, pt, mult, degree)]
    if factor == "zero":
        return [r + zero for r in rows] + [zero + r for r in rows]
    d, negc = lam(factor)
    return [[K.mul(d, v) for v in r] + [K.mul(negc, v) for v in r] for r in rows]


@lru_cache(maxsize=None)
def _vanishing_rows(K: FieldSpec, pt: ClosedPoint, mult: int, degree: int):
    """Rows expressing "a degree-`degree` form vanishes on mult * pt"."""
    ncols = degree + 1
    if pt.is_infinity:
        # order at infinity = number of vanishing top coefficients
        rows = []
        for j in range(min(mult, ncols)):
            row = [0] * ncols
            row[ncols - 1 - j] = 1
            rows.append(tuple(row))
        return tuple(rows)
    modulus = pt.poly
    for _ in range(mult - 1):
        modulus = poly_mul(K, modulus, pt.poly)
    red = len(modulus) - 1
    rows = [[0] * ncols for _ in range(red)]
    for j in range(ncols):
        xj = (0,) * j + (1,)
        _, rem = poly_divmod(K, xj, modulus)
        for r in range(red):
            rows[r][j] = rem[r] if r < len(rem) else 0
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# the Neron-Severi lattice by exhaustive search

def _search_box_bound(selfint: int, degree: int):
    """Certified coordinate bounds for {L : L.L = selfint, -K.L = degree}.

    Write L = x F + x' F' + sum y_i E_i, u = x + x', v = x - x'.  From
    L.L = (u^2 - v^2)/2 - sum y_i^2 and -K.L = 2u + sum y_i, Cauchy-Schwarz
    (sum y_i)^2 <= 4 sum y_i^2 forces 2u^2 - 4*degree*u + degree^2
    + 4*selfint <= 0, which bounds u; then sum y_i^2 = u^2/2 - selfint
    - v^2/2 bounds |v| and each |y_i|.  Returns (y_bound, x_bound).
    """
    m, s = degree, selfint
    us = [u for u in range(-2 * abs(m) - 4, 2 * abs(m) + 5)
          if 2 * u * u - 4 * m * u + m * m + 4 * s <= 0]
    u_hi = max(abs(u) for u in us) if us else 0
    y_bound = math.isqrt(max(0, u_hi * u_hi - 2 * s) // 2)   # y_i^2 <= u^2/2 - s
    v_bound = math.isqrt(max(0, u_hi * u_hi - 2 * s))        # v^2 <= u^2 - 2s
    x_bound = (u_hi + v_bound + 1) // 2 + 1
    return y_bound, x_bound


def classes_with(selfint: int, degree: int) -> tuple:
    """Exhaustive certified search for {L : L.L = selfint, -K.L = degree}."""
    y_bound, x_bound = _search_box_bound(selfint, degree)
    out = []
    for x in range(-x_bound, x_bound + 1):
        for xp in range(-x_bound, x_bound + 1):
            for ys in itertools.product(range(-y_bound, y_bound + 1), repeat=4):
                L = ns.CurveClass((x, xp) + ys)
                if ns.intersect(L, L) == selfint and ns.intersect(ns.ANTICANONICAL, L) == degree:
                    out.append(L)
    return tuple(sorted(out))


ZERO_CLASS = ns.CurveClass((0,) * ns.RANK)
IDENTITY_MARKING = ns.Marking(f=ns.F, fp=ns.FPRIME, e=ns.E)


def sum_classes(classes):
    acc = ZERO_CLASS
    for c in classes:
        acc = acc.add(c)
    return acc


def orthogonal_quadruples(cands):
    """Ordered quadruples of pairwise orthogonal distinct classes."""
    n = len(cands)
    for i in range(n):
        for j in range(n):
            if j == i or ns.intersect(cands[i], cands[j]) != 0:
                continue
            for k in range(n):
                if k in (i, j) or ns.intersect(cands[i], cands[k]) \
                        or ns.intersect(cands[j], cands[k]):
                    continue
                for l in range(n):
                    if l in (i, j, k) or ns.intersect(cands[i], cands[l]) \
                            or ns.intersect(cands[j], cands[l]) or ns.intersect(cands[k], cands[l]):
                        continue
                    yield (cands[i], cands[j], cands[k], cands[l])


@lru_cache(maxsize=1)
def searched_markings() -> tuple:
    """All ordered tuples (f, f', e1..e4) satisfying the marking relations.

    f, f' run over the searched conic classes with f.f' = 1; the e_i over the
    searched (-1)-classes, pairwise orthogonal, orthogonal to f and f', with
    2f + 2f' - sum e_i equal to the anticanonical class.  Both component
    searches use the certified boxes, so the enumeration is exhaustive.
    """
    lines, conics = classes_with(-1, 1), classes_with(0, 2)
    out = []
    for f in conics:
        for fp in conics:
            if ns.intersect(f, fp) != 1:
                continue
            cands = [L for L in lines
                     if ns.intersect(f, L) == 0 and ns.intersect(fp, L) == 0]
            # the residual class sum e_i is pinned, so prune by it
            target = f.scale(2).add(fp.scale(2)).add(ns.ANTICANONICAL.scale(-1))
            for quad in orthogonal_quadruples(cands):
                if sum_classes(quad) == target:
                    out.append(ns.Marking(f=f, fp=fp, e=quad))
    return tuple(sorted(out))


def searched_first_marking_by_pair() -> dict:
    """Unordered fiber pair {f, f'} -> the least searched marking on it."""
    out = {}
    for mk in searched_markings():          # already sorted
        out.setdefault(tuple(sorted((mk.f, mk.fp))), mk)
    return out


def marking_slacks(mk: ns.Marking, alpha: ns.CurveClass) -> tuple:
    """(2 f.alpha - sum e_i.alpha, 2 f'.alpha - sum e_i.alpha)."""
    sum_e = sum(ns.intersect(ei, alpha) for ei in mk.e)
    return (2 * ns.intersect(mk.f, alpha) - sum_e, 2 * ns.intersect(mk.fp, alpha) - sum_e)


def marking_invariants(mk: ns.Marking, alpha: ns.CurveClass) -> tuple:
    """(a, b, k) of alpha in the coordinates of the marking mk."""
    return (ns.intersect(mk.f, alpha), ns.intersect(mk.fp, alpha),
            tuple(ns.intersect(ei, alpha) for ei in mk.e))


# ---------------------------------------------------------------------------
# closed forms

def surface_count(q: int, n: int) -> int:
    """#S(F_{q^n}) = q^{2n} + 6 q^n + 1 for the split quartic del Pezzo.

    Forced by equating the Euler factor (1 + 6 q^{-|c|} + q^{-2|c|}) with
    #S(F_{q^{|c|}}) / q^{2|c|}, and independently by the blow-up count
    #(P^1 x P^1)(F_{q^n}) + 4 q^n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return q ** (2 * n) + 6 * q ** n + 1


def tamagawa_exact(q: int, N: int) -> Fraction:
    """Plain-Fraction Tamagawa partial product; small N only."""
    out = Fraction(q ** 2) * (1 - Fraction(1, q)) ** -6
    for n in range(1, N + 1):
        out *= good_factor(q, n) ** count_closed_points(q, n)
    return out


def factor_constant(q: int, degree: int) -> Fraction:
    """Constant of the displayed Euler factor at a degree-|c| point:
    1 - 6 q^{-2|c|} + 8 q^{-3|c|} - 3 q^{-4|c|}."""
    u = Fraction(1, q ** degree)
    return 1 - 6 * u ** 2 + 8 * u ** 3 - 3 * u ** 4


def factor_contact_coefficient(q: int, degree: int, depth: int) -> Fraction:
    """Scalar on t_i^{|c| depth} in the displayed Euler factor:
    (q^{|c|})^{depth} (q^{-2 depth |c|} - 2 q^{-(2 depth + 1)|c|}
    + 2 q^{-(2 depth + 3)|c|} - q^{-(2 depth + 4)|c|})."""
    u = Fraction(1, q ** degree)
    d = depth
    inner = u ** (2 * d) - 2 * u ** (2 * d + 1) + 2 * u ** (2 * d + 3) - u ** (2 * d + 4)
    return q ** (degree * d) * inner


def display_local_factor(q: int, degree: int, orders) -> TruncatedMultiSeries:
    """The displayed Euler factor as a series, scaled as euler.local_factor
    keeps it: weights (1, 1, 1, 1) and scale 4 degree."""
    coeffs = {(0, 0, 0, 0): factor_constant(q, degree)}
    for i, order in enumerate(orders):
        for m in range(1, order // degree + 1):
            coeffs[(0,) * i + (degree * m,) + (0,) * (3 - i)] = \
                factor_contact_coefficient(q, degree, m)
    return TruncatedMultiSeries(orders, coeffs, q, (1, 1, 1, 1), 4 * degree)


def count_nef_points(d: int) -> int:
    """Fast exact count of nef lattice classes with h <= d (numpy integers)."""
    total = 0
    for a in range(d + 1):
        for b in range(d + 1):
            top = min(a, b)
            if 2 * a + 2 * b - 4 * top > d:
                continue
            rng = np.arange(top + 1)
            k1, k2, k3, k4 = np.meshgrid(rng, rng, rng, rng, indexing="ij", sparse=True)
            s = k1 + k2 + k3 + k4
            m = np.minimum(np.minimum(k1, k2), np.minimum(k3, k4))
            ok = (2 * a + 2 * b - s <= d) & (s - m <= a + b)
            total += int(ok.sum())
    return total


# ---------------------------------------------------------------------------
# exact arithmetic

def series_product(orders, a: dict, b: dict) -> dict:
    """Truncated product of two series given as {exponent: Fraction}: every
    pair of terms, kept when the summed exponent is within the orders."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            if all(e <= o for e, o in zip(expo, orders)):
                out[expo] = out.get(expo, Fraction(0)) + v1 * v2
    return {expo: v for expo, v in out.items() if v}


def interval_power(x: Interval, e: int) -> Interval:
    """x^e by squaring, each step one outward-rounded Interval product."""
    result = Interval(1 << x.bits, 1 << x.bits, x.bits)
    base = x
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def diag_local_value(q: int, n: int, tau: Fraction) -> Fraction:
    """Reference for heightzeta._diag_local_value: L_n(tau,...,tau) as a
    reduced Fraction, const(n) + 4 (1 - 2u + 2u^3 - u^4) v / (1 - v) with
    u = q^{-n} and v = (tau/q)^n."""
    u = Fraction(1, q ** n)
    v = (tau / q) ** n
    return factor_constant(q, n) + 4 * (1 - 2 * u + 2 * u ** 3 - u ** 4) * v / (1 - v)


def lhs_depth_needed(q: int, tau: Fraction, tol: Fraction) -> int:
    """Reference for heightzeta._lhs_depth_needed: the least M >= 2 with
    8 tau^{M+1} / ((M+1)(1-tau)) + 24 q^{-(M+1)} <= tol, in Fractions."""
    M = 2
    while 8 * tau ** (M + 1) / ((M + 1) * (1 - tau)) + Fraction(24, q ** (M + 1)) > tol:
        M += 1
    return M
