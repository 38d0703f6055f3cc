"""Brute-force counting of section spaces over F_q: pairs of binary-form
pairs (s, t) of bidegree (a, b) with no common roots and prescribed contact
order k_i at four marked point pairs of P^1 x P^1.

The contact order at the i-th marked pair (p_i, p'_i) is the degree of the
common vanishing divisor of the two composite forms lambda_i(s) and
lambda'_i(t), where lambda_i is the linear functional cutting p_i.  A zero
composite (the section rides the fiber line through the marked point, only
possible on a degree-0 side) acts as the neutral bound: its "divisor"
contains everything, so the contact is carried by the other side alone.
When both composites vanish identically the pair is a constant section
sitting at the marked point; the artifact counts it with contact 0, which
makes the degree-0 count equal the number of constant maps to P^1 x P^1.

Two independent strategies are implemented: raw enumeration of all
q^{2a+2b+4} coefficient tuples with direct gcd computations, and a
bucket/join strategy that enumerates the two sides separately (q^{2a+2} and
q^{2b+2} tuples), compresses each side to its vanishing-divisor signature,
and convolves the signatures.  The raw path guards the join on small
instances; the join makes the acceptance grid feasible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateInput,
    CoincidentFirstCoords,
    CoincidentSecondCoords,
    DegreeMismatch,
    FieldTooSmall,
    OnBidegreeCurve,
    OverlappingSupports,
    TooLarge,
    ZeroSection,
)
from .field import FieldSpec, field_of_order, to_digits
from .linalg import det, nullspace
from .projline import (
    ZERO_DIVISOR,
    EffectiveDivisor,
    divisor_of_form,
    form_gcd,
    form_gcd_degree,
    form_is_zero,
    hilb_points,
)

DEFAULT_BUDGET = 2 ** 34
INF = "inf"


# ---------------------------------------------------------------------------
# configurations

def _normalize_point(K: FieldSpec, pt):
    """Normalize projective coordinates to (c, 1) or (1, 0)."""
    if pt == INF:
        return (1, 0)
    if isinstance(pt, int):
        return (pt % K.q if K.n == 1 else pt, 1)
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

    def lam2(self, i: int):
        c, d = self.second[i]
        return (d, self.field.neg(c))


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
    certifies and the matched-order configuration ships flagged.
    """
    K = field_of_order(q)
    # four distinct first coordinates: 0, 1, the element encoded 2, inf
    first = [(0, 1), (1, 1), (2, 1), (1, 0)]
    if K.q == 3:
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


# ---------------------------------------------------------------------------
# single-pair profile (scalar reference path)

@dataclass(frozen=True)
class SectionPair:
    """s and t are pairs of coefficient tuples (length a+1 and b+1)."""

    s: tuple
    t: tuple


@dataclass(frozen=True)
class ContactProfile:
    k: tuple
    s_ok: bool
    t_ok: bool
    degenerate: tuple  # True where both composites vanish identically


def _composite(K: FieldSpec, lam, pair):
    d, negc = lam
    f1, f2 = pair
    return tuple(K.add(K.mul(d, x), K.mul(negc, y)) for x, y in zip(f1, f2))


def multiplicity_profile(sp: SectionPair, cfg: SurfaceConfig) -> ContactProfile:
    """Contact orders k_i plus the no-common-root flags for both sides.

    k_i is the degree of the common vanishing divisor of the composite
    forms; a single zero composite contributes the divisor of the other
    composite, and two zero composites (constant section at the marked
    point) count as contact 0 by the artifact's convention.
    """
    K = cfg.field
    s1, s2 = sp.s
    t1, t2 = sp.t
    if form_is_zero(s1) and form_is_zero(s2):
        raise ZeroSection("s is identically zero")
    if form_is_zero(t1) and form_is_zero(t2):
        raise ZeroSection("t is identically zero")
    s_ok = form_gcd_degree(K, s1, s2) == 0
    t_ok = form_gcd_degree(K, t1, t2) == 0
    k, degen = [], []
    for i in range(4):
        g = _composite(K, cfg.lam(i), sp.s)
        h = _composite(K, cfg.lam2(i), sp.t)
        if form_is_zero(g) and form_is_zero(h):
            k.append(0)
            degen.append(True)
        else:
            k.append(form_gcd_degree(K, g, h))
            degen.append(False)
    return ContactProfile(k=tuple(k), s_ok=s_ok, t_ok=t_ok, degenerate=tuple(degen))


# ---------------------------------------------------------------------------
# divisor inventories and numpy tables

@lru_cache(maxsize=None)
def _np_tables(K: FieldSpec):
    q = K.q
    mul = np.zeros((q, q), dtype=np.int64)
    sub = np.zeros((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(q):
            mul[x, y] = K.mul(x, y)
            sub[x, y] = K.sub(x, y)
    return mul, sub


@lru_cache(maxsize=None)
def _inventory(K: FieldSpec, degree: int):
    """Divisors of exact degree, with id map; id order is deterministic."""
    divs = hilb_points(K, degree)
    ids = {d.entries: i for i, d in enumerate(divs)}
    return tuple(divs), ids


@lru_cache(maxsize=None)
def _inventory_upto(K: FieldSpec, cap: int):
    divs = []
    for n in range(cap + 1):
        divs.extend(hilb_points(K, n))
    ids = {d.entries: i for i, d in enumerate(divs)}
    return tuple(divs), ids


@lru_cache(maxsize=None)
def _form_divisor_ids(K: FieldSpec, degree: int):
    """Map form code -> divisor id in the exact-degree inventory.

    The zero form gets the sentinel id m (one past the inventory), acting
    as the neutral element for divisor minima.
    """
    divs, ids = _inventory(K, degree)
    q = K.q
    out = np.empty(q ** (degree + 1), dtype=np.int64)
    for code in range(q ** (degree + 1)):
        coeffs = to_digits(code, q, degree + 1)
        if form_is_zero(coeffs):
            out[code] = len(divs)
        else:
            out[code] = ids[divisor_of_form(K, coeffs).entries]
    return out


@lru_cache(maxsize=None)
def _same_side_mindeg(K: FieldSpec, degree: int):
    """(m+1)x(m+1) table of min-divisor degrees; -1 where both are zero forms."""
    divs, _ = _inventory(K, degree)
    m = len(divs)
    tab = np.empty((m + 1, m + 1), dtype=np.int64)
    for i, d1 in enumerate(divs):
        for j, d2 in enumerate(divs):
            tab[i, j] = d1.min(d2).degree
        tab[i, m] = degree      # min with the zero form: the divisor itself
        tab[m, i] = degree
    tab[m, m] = -1
    return tab


@lru_cache(maxsize=None)
def _cross_min_table(K: FieldSpec, deg_s: int, deg_t: int, cap: int):
    """Min-divisor ids (in the <=cap inventory) across the two sides.

    Entry OVERFLOW when the min has degree above cap; a zero form on one
    side passes the other side through; two zero forms resolve to the empty
    divisor (contact 0 by convention).
    """
    dS, _ = _inventory(K, deg_s)
    dT, _ = _inventory(K, deg_t)
    up, upid = _inventory_upto(K, cap)
    overflow = len(up)

    def locate(d: EffectiveDivisor):
        return upid.get(d.entries, overflow)

    mS, mT = len(dS), len(dT)
    tab = np.empty((mS + 1, mT + 1), dtype=np.int64)
    for i, d1 in enumerate(dS):
        for j, d2 in enumerate(dT):
            tab[i, j] = locate(d1.min(d2))
        tab[i, mT] = locate(d1)
    for j, d2 in enumerate(dT):
        tab[mS, j] = locate(d2)
    tab[mS, mT] = upid[ZERO_DIVISOR.entries]
    return tab, overflow


# ---------------------------------------------------------------------------
# side summaries and the join

@lru_cache(maxsize=32)
def _side_summary(cfg: SurfaceConfig, side: str, degree: int):
    """Compress one side to (divisor-id quadruples, multiplicities).

    Enumerates all q^{2 degree + 2} coefficient pairs, keeps those with no
    common root, computes the four composite forms by vectorized table
    arithmetic, and aggregates equal divisor-id quadruples.
    """
    K = cfg.field
    q = K.q
    mul, sub = _np_tables(K)
    nforms = q ** (degree + 1)
    f1, f2 = np.divmod(np.arange(nforms * nforms, dtype=np.int64), nforms)

    div_id = _form_divisor_ids(K, degree)
    mindeg = _same_side_mindeg(K, degree)
    ok = mindeg[div_id[f1], div_id[f2]] == 0
    f1, f2 = f1[ok], f2[ok]

    # coefficient digits of both forms
    digits1 = np.empty((degree + 1, f1.size), dtype=np.int64)
    digits2 = np.empty((degree + 1, f1.size), dtype=np.int64)
    tmp1, tmp2 = f1.copy(), f2.copy()
    for j in range(degree + 1):
        digits1[j] = tmp1 % q
        digits2[j] = tmp2 % q
        tmp1 //= q
        tmp2 //= q

    lam = (cfg.lam if side == "s" else cfg.lam2)
    quad = np.empty((4, f1.size), dtype=np.int64)
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    for i in range(4):
        d, negc = lam(i)
        c = K.neg(negc)
        code = np.zeros(f1.size, dtype=np.int64)
        for j in range(degree + 1):
            digit = sub[mul[d, digits1[j]], mul[c, digits2[j]]]  # d*s1_j - c*s2_j
            code += digit * powers[j]
        quad[i] = div_id[code]

    base = np.int64(np.max(div_id) + 2)
    key = ((quad[0] * base + quad[1]) * base + quad[2]) * base + quad[3]
    uniq, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    # recover component ids for each unique key
    comp = np.empty((4, uniq.size), dtype=np.int64)
    first_idx = np.full(uniq.size, -1, dtype=np.int64)
    first_idx[inverse[::-1]] = np.arange(f1.size - 1, -1, -1)
    for i in range(4):
        comp[i] = quad[i][first_idx]
    return comp, counts.astype(np.int64)


def _join_histogram(cfg: SurfaceConfig, a: int, b: int, cap: int):
    """Histogram over capped min-divisor id quadruples of section pairs.

    bins[key] counts pairs (s, t), both sides with no common root, whose
    four contact divisors resolve to the given <=cap inventory ids
    (one extra overflow id per component for contacts of larger degree).
    """
    K = cfg.field
    compS, wS = _side_summary(cfg, "s", a)
    compT, wT = _side_summary(cfg, "t", b)
    cross, overflow = _cross_min_table(K, a, b, cap)
    B = np.int64(overflow + 1)
    key_tabs = []
    mult = np.int64(1)
    for i in range(3, -1, -1):
        key_tabs.append((cross * mult).astype(np.int64))
        mult *= B
    key_tabs = key_tabs[::-1]  # key_tabs[i] scaled for component i

    nbins = int(B ** 4)
    if nbins > 40_000_000:
        raise TooLarge(f"join histogram would need {nbins} bins")
    bins = np.zeros(nbins, dtype=np.float64)
    wTf = wT.astype(np.float64)
    block = max(1, 2_000_000 // max(1, compT.shape[1]))
    for start in range(0, compS.shape[1], block):
        stop = min(start + block, compS.shape[1])
        keys = key_tabs[0][compS[0, start:stop][:, None], compT[0][None, :]].copy()
        for i in range(1, 4):
            keys += key_tabs[i][compS[i, start:stop][:, None], compT[i][None, :]]
        weights = wS[start:stop].astype(np.float64)[:, None] * wTf[None, :]
        bins += np.bincount(keys.ravel(), weights=weights.ravel(), minlength=nbins)
    assert float(bins.sum()) == float(int(wS.sum()) * int(wT.sum()))
    return bins


_JOIN_STORE: dict = {}


def clear_caches():
    """Drop all in-memory engine caches (side summaries, joins, tables).

    Used by timing comparisons that must attribute speedups to the on-disk
    count cache rather than to warm in-process state.
    """
    _JOIN_STORE.clear()
    _side_summary.cache_clear()
    _form_divisor_ids.cache_clear()
    _same_side_mindeg.cache_clear()
    _cross_min_table.cache_clear()
    _inventory.cache_clear()
    _inventory_upto.cache_clear()
    _np_tables.cache_clear()


def _join_for(cfg: SurfaceConfig, a: int, b: int, min_cap: int):
    """Join histogram with cap >= min_cap, reusing any stored larger join.

    Returns (bins, cap); consumers must interpret bin keys in the <=cap
    inventory actually used.
    """
    key = (cfg, a, b)
    stored = _JOIN_STORE.get(key)
    if stored is not None and stored[1] >= min_cap:
        return stored
    cap = max(min_cap, 2, stored[1] if stored else 0)
    bins = _join_histogram(cfg, a, b, cap)
    _JOIN_STORE[key] = (bins, cap)
    if len(_JOIN_STORE) > 64:
        _JOIN_STORE.pop(next(iter(_JOIN_STORE)))
    return bins, cap


def _bin_key(K: FieldSpec, cap: int, divs) -> int:
    _, upid = _inventory_upto(K, cap)
    overflow = len(upid)
    B = overflow + 1
    key = 0
    for d in divs:
        key = key * B + upid[d.entries]
    return key


# ---------------------------------------------------------------------------
# public counting operations

def _check_budget(q: int, a: int, b: int, budget: int):
    if q ** (2 * a + 2 * b + 4) > budget:
        raise BudgetExceeded(
            f"naive cost q^(2a+2b+4) = {q}^{2 * a + 2 * b + 4} exceeds budget {budget}")


def count_sections_raw(cfg: SurfaceConfig, a: int, b: int, k, budget: int = DEFAULT_BUDGET) -> int:
    """Reference path: enumerate every coefficient tuple pair directly."""
    K = cfg.field
    k = tuple(k)
    _check_budget(K.q, a, b, budget)
    q = K.q
    forms_a = list(itertools.product(range(q), repeat=a + 1))
    forms_b = list(itertools.product(range(q), repeat=b + 1))
    s_side = []
    for s1 in forms_a:
        for s2 in forms_a:
            if form_is_zero(s1) and form_is_zero(s2):
                continue
            if form_gcd_degree(K, s1, s2) == 0:
                s_side.append((s1, s2))
    t_side = []
    for t1 in forms_b:
        for t2 in forms_b:
            if form_is_zero(t1) and form_is_zero(t2):
                continue
            if form_gcd_degree(K, t1, t2) == 0:
                t_side.append((t1, t2))
    t_comps = [[_composite(K, cfg.lam2(i), t) for i in range(4)] for t in t_side]
    total = 0
    for s in s_side:
        gs = [_composite(K, cfg.lam(i), s) for i in range(4)]
        for hs in t_comps:
            ok = True
            for i in range(4):
                g, h = gs[i], hs[i]
                if form_is_zero(g) and form_is_zero(h):
                    ki = 0
                else:
                    ki = form_gcd_degree(K, g, h)
                if ki != k[i]:
                    ok = False
                    break
            if ok:
                total += 1
    return total


def count_sections(cfg: SurfaceConfig, a: int, b: int, k,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of section pairs with contact profile exactly k.

    Counts pairs (s, t) of coefficient tuples of bidegree (a, b), each side
    without common roots, whose contact order at the i-th marked pair is
    exactly k_i.  The result is divisible by (q-1)^2 (independent scaling
    of the two sides).
    """
    k = tuple(k)
    if a < 0 or b < 0 or any(x < 0 for x in k):
        raise DegreeMismatch("degrees and contact orders must be non-negative")
    _check_budget(cfg.field.q, a, b, budget)
    bins, cap = _join_for(cfg, a, b, max(k) if k else 0)
    up, _ = _inventory_upto(cfg.field, cap)
    degs = np.array([d.degree for d in up] + [cap + 1], dtype=np.int64)  # overflow deg
    B = len(up) + 1
    idx = np.arange(bins.size, dtype=np.int64)
    mask = np.ones(bins.size, dtype=bool)
    for i in range(3, -1, -1):
        comp = idx % B
        idx = idx // B
        mask &= degs[comp] == k[i]
    val = float(bins[mask].sum())
    assert val.is_integer()
    return int(val)


def count_morphisms(cfg: SurfaceConfig, a: int, b: int, k,
                    budget: int = DEFAULT_BUDGET) -> int:
    """count_sections divided by the (q-1)^2 scaling torsor."""
    n = count_sections(cfg, a, b, k, budget=budget)
    d = (cfg.field.q - 1) ** 2
    assert n % d == 0, "torsor divisibility violated"
    return n // d


def u_k_points(K: FieldSpec, k, limit: int = 200_000):
    """All tuples (T_1..T_4) of effective divisors, deg T_i = k_i, with
    pairwise disjoint supports; deterministic order."""
    k = tuple(k)
    if any(x < 0 for x in k):
        raise DegreeMismatch("contact orders must be non-negative")
    pools = [hilb_points(K, x) for x in k]
    est = 1
    for p in pools:
        est *= len(p)
    if est > limit:
        raise TooLarge(f"{est} candidate tuples exceeds limit {limit}")
    out = []
    for combo in itertools.product(*pools):
        supports: set = set()
        ok = True
        for d in combo:
            s = set(d.support)
            if supports & s:
                ok = False
                break
            supports |= s
        if ok:
            out.append(tuple(combo))
    return out


def fiber_count(cfg: SurfaceConfig, w, a: int, b: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Sections whose four contact divisors equal the given tuple exactly.

    w is a tuple of four effective divisors with pairwise disjoint
    supports; summing over all of u_k_points recovers count_sections for
    k = (deg w_i).
    """
    w = tuple(w)
    if len(w) != 4:
        raise DegreeMismatch("w must have four components")
    supports: set = set()
    for d in w:
        s = set(d.support)
        if supports & s:
            raise OverlappingSupports("components of w share support")
        supports |= s
    k = tuple(d.degree for d in w)
    _check_budget(cfg.field.q, a, b, budget)
    bins, cap = _join_for(cfg, a, b, max(k) if k else 0)
    key = _bin_key(cfg.field, cap, w)
    val = float(bins[key])
    assert val.is_integer()
    return int(val)


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
    basis = nullspace(K, [_bidegree_monomials(K, cfg.first[m], cfg.second[m])
                          for m in (i, j)])
    assert len(basis) == 2, "pencil through two centers must be 2-dimensional"
    G1, G2 = basis

    def ev(G, u, v):
        acc = 0
        for g, mono in zip(G, _bidegree_monomials(K, u, v)):
            acc = K.add(acc, K.mul(g, mono))
        return acc

    def psi(u, v):
        return (ev(G1, u, v), ev(G2, u, v))

    new_first, new_second = [], []
    for m in (m1, m2):
        img = psi(cfg.first[m], cfg.second[m])
        if img == (0, 0):
            raise DegenerateInput(f"center {m} lies on the pencil base locus")
        new_first.append(cfg.first[m])
        new_second.append(img)
    for m in (i, j):
        # along the fiber u = p_m both pencil members are multiples of the
        # same linear form in v; their constant ratio is the image point
        probe = next(pt for pt in _projective_points(K) if pt != cfg.second[m])
        img = (ev(G1, cfg.first[m], probe), ev(G2, cfg.first[m], probe))
        if img == (0, 0):
            raise DegenerateInput(f"fiber through center {m} collapses badly")
        new_first.append(cfg.first[m])
        new_second.append(img)
    new_cfg = validate_points(K, list(zip(new_first, new_second)),
                              allow_on_bidegree_curve=True)

    def new_invariants(a: int, b: int, k):
        k = tuple(k)
        return (a, a + b - k[i] - k[j],
                (k[m1], k[m2], a - k[i], a - k[j]))

    return new_cfg, new_invariants


def _projective_points(K: FieldSpec):
    return [(c, 1) for c in K.elements()] + [(1, 0)]


def fiber_count_raw(cfg: SurfaceConfig, w, a: int, b: int) -> int:
    """Reference path for fiber_count: direct enumeration."""
    K = cfg.field
    q = K.q
    w = tuple(w)
    forms_a = list(itertools.product(range(q), repeat=a + 1))
    forms_b = list(itertools.product(range(q), repeat=b + 1))
    want = [d.entries for d in w]
    total = 0
    for s1 in forms_a:
        for s2 in forms_a:
            if (form_is_zero(s1) and form_is_zero(s2)) or form_gcd_degree(K, s1, s2):
                continue
            gs = [_composite(K, cfg.lam(i), (s1, s2)) for i in range(4)]
            for t1 in forms_b:
                for t2 in forms_b:
                    if (form_is_zero(t1) and form_is_zero(t2)) or form_gcd_degree(K, t1, t2):
                        continue
                    ok = True
                    for i in range(4):
                        h = _composite(K, cfg.lam2(i), (t1, t2))
                        g = gs[i]
                        if form_is_zero(g) and form_is_zero(h):
                            got = ZERO_DIVISOR.entries
                        elif form_is_zero(g):
                            got = divisor_of_form(K, h).entries
                        elif form_is_zero(h):
                            got = divisor_of_form(K, g).entries
                        else:
                            got = form_gcd(K, g, h).entries
                        if got != want[i]:
                            ok = False
                            break
                    if ok:
                        total += 1
    return total
