"""Brute-force references for the engines in src/dp4sieve.

Nothing here runs in the pipeline; each block recomputes what one engine
computes, by a path that shares as little with it as possible:

* section counting: one pass over every coprime section pair of a bidegree,
  tallied by the four contact divisors that polynomial gcds give, against
  secenum's contact-degree join; the divisor of a form by trial division,
  against secenum's product table; the closed points of a degree by trial
  division, against projline's marking of products; the orbit-reduced side
  as the full side summary moved to least keys over all of PGL_2(F_q),
  against secenum's enumeration from first-divisor orbits; the full side summary by
  coefficient pairs, against secenum's sweep under the trivial group; the
  centre permutations by trying every Moebius map, and the join over every
  orbit representative, against secenum's fundamental-domain join; the
  join-based fiber count; u_k_points; the elementary transform
  remark_config;
* the configuration poset behind the sieve: configurations, intervals, the
  generic Moebius recursion, enumeration above a base, and the exact rank
  of the linear system a configuration imposes;
* the Neron-Severi lattice: the lines, conics and markings by exhaustive
  search over certified boxes and orthogonal quadruples, and the marking
  slacks and invariants that the pipeline folds into fiber pairs;
* small closed forms: surface_count, tamagawa_exact, count_nef_points;
* exact arithmetic: the truncated series product as a double loop over
  two dicts of Fractions, interval powers by repeated interval products,
  and the limit check's local values and cutoffs in Fractions;
* element vectors, the Frobenius map and pointwise divisor arithmetic,
  which the pipeline never needs.
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
from dp4sieve import sieve as sv
from dp4sieve import surface as sf
from dp4sieve.errors import DegreeMismatch, Dp4Error, TooLarge
from dp4sieve.exactnum import Interval
from dp4sieve.field import FieldSpec, from_digits, poly_divmod, poly_mul, poly_trim, to_digits
from dp4sieve.heightzeta import factor_constant, good_factor
from dp4sieve.linalg import row_reduce
from dp4sieve.projline import (
    ZERO_DIVISOR,
    ClosedPoint,
    EffectiveDivisor,
    _affine_point,
    _irreducibles_of_degree,
    closed_points_up_to,
    count_closed_points,
    divisor,
    hilb_points,
    point_at_infinity,
)
from dp4sieve.sieve import LATTICE
from dp4sieve.surface import DEFAULT_BUDGET, SurfaceConfig


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
    """Reference for projline._irreducibles_of_degree: the monic polynomials
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
        for pt in _irreducibles_of_degree(K, n):
            mult = 0
            while True:
                quot, rem = poly_divmod(K, poly, pt.poly)
                if rem:
                    break
                poly, mult = quot, mult + 1
            if mult:
                out.append((pt, mult))
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
    with the zero conventions of secenum's module docstring."""
    K = cfg.field
    for name, side in (("s", s), ("t", t)):
        if all(form_is_zero(f) for f in side):
            raise ZeroForm(f"{name} is identically zero")
    return tuple(_contact(K, _composite(K, cfg.lam(i), s), _composite(K, cfg.lam2(i), t))
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
    through secenum's join kernel with 0/1 tables and unreduced rows.

    w is a tuple of four effective divisors with pairwise disjoint
    supports; summing over all of u_k_points recovers count_sections for
    k = (deg w_i).
    """
    if len(w) != 4:
        raise DegreeMismatch("w must have four components")
    if not _disjoint(w):
        raise ValueError("components of w share support")
    q = cfg.field.q
    spent = q ** (2 * a + 2) + q ** (2 * b + 2)
    se._charge(spent, budget, f"side enumerations {q}^{2 * a + 2} + {q}^{2 * b + 2}")
    S = side_summary(cfg, "s", a)
    T = side_summary(cfg, "t", b)
    se._charge(spent + S[0].shape[1] * T[0].shape[1], budget,
               "side enumerations plus join pairs")
    tables = [_fiber_table(cfg.field, a, b, d) for d in w]
    cols = np.repeat(T[0], T[1] // (q - 1), axis=1)     # one column per q-1 pairs
    return int(se._join(*S, cols, tables, 2, np.arange(4)[None])[1, 1, 1, 1]) * (q - 1)


def _fiber_table(K: FieldSpec, deg_s: int, deg_t: int, w: EffectiveDivisor):
    """0/1 table [min(D, D') = w] over the same rows and columns as
    _degree_table, with the same zero rules (two zero forms meet in 0)."""
    S = list(se._inventory(K, deg_s)) + [None]
    T = list(se._inventory(K, deg_t)) + [None]

    def meet(x, y):
        if x is None:
            return ZERO_DIVISOR if y is None else y
        return x if y is None else divisor_min(x, y)

    return np.array([[meet(x, y) == w for y in T] for x in S], dtype=np.int64)


_CHUNK = 1 << 17


def _projective_codes(q: int, length: int):
    """Codes of the nonzero length-digit vectors whose top nonzero digit is
    1 (one per line through the origin), in chunks."""
    for j in range(length):
        for start in range(q ** j, 2 * q ** j, _CHUNK):
            yield np.arange(start, min(start + _CHUNK, 2 * q ** j), dtype=np.int64)


@lru_cache(maxsize=8)
def side_summary(cfg: SurfaceConfig, side: str, degree: int):
    """Reference for secenum's full side: one side compressed to
    (divisor-id quadruples, multiplicities).

    Enumerates the coefficient pairs of one side up to a common scalar
    (every pair's four contact divisors are those of its q-1 multiples),
    keeps those with no common root, computes the four composite forms by
    vectorized table arithmetic, and aggregates equal divisor-id quadruples.
    """
    K = cfg.field
    q = K.q
    mul, sub = se._np_tables(K)
    nforms = q ** (degree + 1)
    digits = se._form_digits(q, degree)
    div_id = se._form_divisor_ids(K, degree)
    coprime = se._degree_table(K, degree, degree) == 0
    base = se._key_base(K, degree)
    lam = cfg.lam if side == "s" else cfg.lam2
    scaled = []
    for i in range(4):
        d, negc = lam(i)
        scaled.append((mul[d][digits], mul[K.neg(negc)][digits]))
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    parts, counts = [], []
    for codes in _projective_codes(q, 2 * degree + 2):
        f1, f2 = np.divmod(codes, nforms)
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


def side_orbits(cfg: SurfaceConfig, side: str, degree: int):
    """Reference for secenum._fundamental_rows under the trivial group of
    centre permutations: the full side summary, each quadruple moved to the
    least key over the whole of PGL_2(F_q), equal keys tallied."""
    comp, weights = side_summary(cfg, side, degree)
    perms = se._pgl2_perms(cfg.field, degree)
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


def join_histogram(rows, row_w, cols, col_w, tab, base: int):
    """Reference for secenum._join on one degree table: every row x column
    pair adds its weight product at its contact key, a chunk of rows at a
    time, with no symmetry."""
    hist = np.zeros(base ** 4, dtype=np.int64)
    step = max(1, _CHUNK // max(1, cols.shape[1]))
    for first in range(0, rows.shape[1], step):
        rs = slice(first, first + step)
        keys = 0
        for i in range(4):
            keys = keys * base + tab[rows[i, rs]][:, cols[i]].astype(np.int64)
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
    return [(c, 1) for c in K.elements()] + [(1, 0)]


def clear_caches():
    """Drop all of secenum's in-memory caches (histograms, sides, tables)
    and the side summary here, so that a second run recomputes or reads the
    on-disk cache."""
    side_summary.cache_clear()
    for cached in vars(se).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


# ---------------------------------------------------------------------------
# the configuration poset behind the sieve

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
    return sum(pt.degree * sv.condition_gamma(cond) for pt, cond in x.data)


def config_excess(w: Configuration, x: Configuration) -> int:
    assert config_leq(w, x)
    return sum(sv.condition_excess(w.condition_at(pt), cond, pt.degree)
               for pt, cond in x.data)


@lru_cache(maxsize=None)
def _conditions_between(lo, hi) -> tuple:
    return tuple(cand for cand in _local_shapes(len(hi))
                 if condition_leq(lo, cand) and condition_leq(cand, hi))


def interval(w: Configuration, x: Configuration):
    """All configurations between w and x (product of local intervals)."""
    if not config_leq(w, x):
        raise ValueError("w is not below x")
    locals_ = [[(pt, c) for c in _conditions_between(w.condition_at(pt), x.condition_at(pt))]
               for pt in x.support]
    return [configuration(list(combo)) for combo in itertools.product(*locals_)]


def mobius(w: Configuration, x: Configuration) -> int:
    """mu(w, x) of the configuration poset as the product over closed
    points of the local crosscut values that the sieve uses."""
    if not config_leq(w, x):
        raise ValueError("w is not below x")
    out = 1
    for pt in x.support:
        out *= dict(sv._crosscut(w.condition_at(pt))).get(x.condition_at(pt), 0)
    return out


def mobius_recursive(w: Configuration, x: Configuration) -> int:
    """mu(w, x) by the generic recursion over the interval [w, x]:
    mu(w, w) = 1 and mu(w, y) = -sum of mu(w, z) over w <= z < y.

    Members are taken in order of gamma, which rises strictly along the
    order, so the rest of each member's down-set [w, y], a product of local
    intervals, is done before the member; no pair is compared."""
    mu = {}
    for y in sorted(interval(w, x), key=gamma):
        below = [z for z in interval(w, y) if z.data != y.data]
        mu[y.data] = -sum(mu[z.data] for z in below) if below else 1
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
                excess = sv.condition_excess(lo, cand, pt.degree)
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
    rows = []
    for pt, cond in x.data:
        for mult, idx in zip(chain_condition(cond), LATTICE.nontop):
            if mult:
                A, B = LATTICE.elements[idx]
                rows += [r + [0] * (2 * b + 2) for r in _subspace_rows(K, cfg.lam, pt, mult, A, a)]
                rows += [[0] * (2 * a + 2) + r for r in _subspace_rows(K, cfg.lam2, pt, mult, B, b)]
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
