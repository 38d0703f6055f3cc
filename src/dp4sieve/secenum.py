"""Counting section spaces over F_q: pairs of binary-form pairs (s, t) of
bidegree (a, b) with no common roots and prescribed contact order k_i at
four marked point pairs of P^1 x P^1.

The contact order at the i-th marked pair (p_i, p'_i) is the degree of the
common vanishing divisor of the two composite forms lambda_i(s) and
lambda'_i(t), where lambda_i is the linear functional cutting p_i.  A zero
composite (the section rides the fiber line through the marked point, only
possible on a degree-0 side) acts as the neutral bound: its "divisor"
contains everything, so the contact is carried by the other side alone.
When both composites vanish identically the pair is a constant section
sitting at the marked point; the artifact counts it with contact 0, which
makes the degree-0 count equal the number of constant maps to P^1 x P^1.
The marked pairs come as a SurfaceConfig, which surface.py validates and
builds without numpy; this module is the only one that needs numpy at
import, and harness imports it on the first count.

The engine compresses each side to the multiset of its four composite
divisors and joins the two multisets through a table of contact degrees
deg min(D, D').  Every contact is at most max(a, b), so one int64
histogram of (max(a, b) + 1)^4 bins per (a, b) answers every k.  Its
brute-force oracle, which enumerates all q^{2a+2b+4} coefficient tuples
with direct gcd computations, lives in tests/oracles.py.

Orbit reduction.  Reparametrising the source P^1 by g in PGL_2(F_q) maps
coprime pairs to coprime pairs and pulls every composite divisor back
along g, on both sides at once; degrees, and so every contact degree, are
unchanged, and each side's multiset is carried onto itself with equal
weights.  Hence the sum over x in S, y in T of w(x) w(y) [key(gx, y)]
equals that of [key(x, g^-1 y)], and one side may be replaced by one
representative per orbit, weighted by the orbit's total weight.

Both sides are built by one sweep over the composites themselves.
Since p_0 != p_1, g_1 = lambda_0(s) and g_2 = lambda_1(s) are coordinates
of s, and lambda_2(s), lambda_3(s) are fixed combinations of them.  For
each first divisor D_1, one form g_1 with divisor D_1 is paired with every
form g_2 coprime to it; each such pair stands for the q-1 pairs of its
line, the common scalar making g_1 that form.  At degree 0 the zero form
is a first divisor too, and the common scalar normalises g_2 instead.  So
a side costs one q^(d+1) sweep per first divisor.  The full side sweeps
every id and keeps each pair's quadruple as it comes, with no tally.  The
reduced side, the side of larger degree (s on a tie), sweeps the least id
of each PGL_2(F_q) orbit of first divisors, each pair standing for
|G.D_1| (q-1) pairs, and tallies representatives.

For d >= 1 the divisors of g_1 and g_2 fix s up to the ratio of two
scalars, and that of lambda_2(s) fixes the ratio, because coprime forms
are not proportional; so the full side of degree d has q^(2d-1) (q^2 - 1)
columns, all distinct.  At degree 0 it has q + 1 columns, one per point of
P^1(F_q); the points off the four centres share one quadruple.  Either way every column stands for q - 1
pairs, so the join weighs only rows and the histogram is multiplied by
q - 1 once.  Reducing the side with more quadruples, which the join
compares, is reducing the side of larger degree.

Surface symmetries.  Let H be the permutations sigma of the four centres
that a Moebius map g on each factor of P^1 x P^1 realises, g(p_i) =
p_sigma(i).  Three distinct points go to any three by one Moebius map, so
sigma is in H exactly when it keeps the cross ratio of p_0..p_3 and of
p'_0..p'_3; H always contains the Klein four-group V_4 (on the default
surfaces it is S_4 at q = 3, A_4 at q = 4).  Composing a section with g
gives D_i(g s) = D_{sigma^-1(i)}(s), a bijection of the coprime pairs, so
each side's weighted multiset is H-invariant, key(sigma x, sigma y) =
sigma key(x, y), and the histogram is H-invariant.  H acts on the PGL_2
orbits, as the two act on source and target.  The orbit-type tuple
phi(x), the least id in the PGL_2 orbit of each component, is PGL_2-
invariant with phi(sigma x) = sigma phi(x); a row is kept when phi is least
among its H-images, weighted by |H| / #{sigma : sigma phi = phi}.  The
histogram summed over the axis permutations sigma in H then counts each
orbit o through the kept orbits sigma^-1 o: #{sigma : sigma phi = phi}
of the sigma take phi(o) to its least image, each with that weight, so o
counts |H| times, and one exact integer division by |H| ends the join.

Memory.  _key_base refuses any base of 2^16 or more, which also keeps
every degree below 16, so side quadruples are held as uint16 divisor ids
and contact degrees as uint8 tables.  NumPy 2 keeps uint16 times a Python
int in uint16, where it wraps, so ids are widened to int64 before every
key product; the join's line tables are cast first to the key dtype,
which holds every digit times its place value.  The reduced side filters
each first divisor's block to the fundamental domain before it
canonicalises and tallies, so it never holds the rows the filter drops.
The join takes its columns in passes of at most JOIN_PASS row x column
keys (one column when the rows alone exceed it), so the keys, their
gathers and the intp copy that np.bincount makes of its input stay
cache-sized: the q = 4 (3, 3) join, 35 rows x 15,360 columns, peaks at
0.7 MB of traced memory in passes of 2^16 against 5.4 MB in one pass.  Of
the powers of two from 2^12 to 2^20, 2^16 was the fastest on the q = 4
(4, 4) join, and on the q = 3 (6, 6) join within 2% of 2^17 (2-core
x86-64 Xeon).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DegreeMismatch, TooLarge
from .field import FieldSpec, poly_mul
from .linalg import solve
from .projline import closed_points_up_to, hilb_points
from .surface import DEFAULT_BUDGET, SurfaceConfig

JOIN_PASS = 2 ** 16         # row x column keys per join pass (module docstring, Memory)


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


def _form_digits(q: int, degree: int):
    """(q^(degree+1), degree+1) coefficient table of every form, row = code."""
    codes = np.arange(q ** (degree + 1), dtype=np.int64)
    return (codes[:, None] // q ** np.arange(degree + 1, dtype=np.int64)) % q


@lru_cache(maxsize=None)
def _inventory(K: FieldSpec, degree: int):
    """Divisors of exact degree; a divisor's id is its index."""
    return tuple(hilb_points(K, degree))


@lru_cache(maxsize=None)
def _form_divisor_ids(K: FieldSpec, degree: int):
    """Map form code -> divisor id in the exact-degree inventory.

    Each divisor's form with leading affine coefficient 1 is the product of
    its affine closed points; the multiplicity at infinity is the missing
    top degree.  The form's q-1 scalar multiples share its divisor.  The
    zero form gets the sentinel id m (one past the inventory), acting as
    the neutral element for divisor minima.
    """
    divs = _inventory(K, degree)
    q = K.q
    mul, _ = _np_tables(K)
    forms = np.zeros((len(divs), degree + 1), dtype=np.int64)
    for i, d in enumerate(divs):
        f = (1,)
        for pt, e in d.entries:
            for _ in range(e if pt.poly else 0):
                f = poly_mul(K, f, pt.poly)
        forms[i, :len(f)] = f
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    out = np.full(q ** (degree + 1), len(divs), dtype=np.int64)
    for scalar in range(1, q):
        out[mul[scalar][forms] @ powers] = np.arange(len(divs))
    return out


@lru_cache(maxsize=None)
def _multiplicities(K: FieldSpec, degree: int, top: int):
    """Multiplicities of the degree-`degree` divisors (rows, by id) at the
    closed points of degree <= top (columns), and those points' degrees."""
    pts = closed_points_up_to(K, top) if top else []
    col = {pt: j for j, pt in enumerate(pts)}
    divs = _inventory(K, degree)
    m = np.zeros((len(divs), len(pts)), dtype=np.uint8)
    for i, d in enumerate(divs):
        for pt, e in d.entries:
            if pt in col:
                m[i, col[pt]] = e
    return m, np.array([pt.degree for pt in pts], dtype=np.uint8)


def _meet_degrees(K: FieldSpec, deg_s: int, rows, deg_t: int):
    """Contact degrees deg min(D, D') of the degree-deg_s divisor ids `rows`
    against every degree-deg_t id.

    Ids one past an inventory are the zero sentinel, which comes last among
    the columns.  A zero form passes the other side's degree through, and
    two zero forms give 0.  Two nonzero forms can only share closed points
    of degree <= min(deg_s, deg_t), so those points suffice, and only the
    points some row passes through are visited.
    """
    top = min(deg_s, deg_t)
    mS, pdeg = _multiplicities(K, deg_s, top)
    mT, _ = _multiplicities(K, deg_t, top)
    zero = rows == mS.shape[0]
    tab = np.zeros((rows.size, mT.shape[0] + 1), dtype=np.uint8)
    tab[zero, :-1] = deg_t
    tab[~zero, -1] = deg_s
    mR = mS[rows[~zero]]
    meet = np.zeros((mR.shape[0], mT.shape[0]), dtype=np.uint8)
    for j in np.flatnonzero(mR.any(axis=0)):
        meet += pdeg[j] * np.minimum(mR[:, j, None], mT[None, :, j])
    tab[~zero, :-1] = meet
    return tab


@lru_cache(maxsize=None)
def _degree_table(K: FieldSpec, deg_s: int, deg_t: int):
    """_meet_degrees for every degree-deg_s id, the zero sentinel last."""
    ids = np.arange(len(_inventory(K, deg_s)) + 1, dtype=np.int64)
    return _meet_degrees(K, deg_s, ids, deg_t)


# ---------------------------------------------------------------------------
# reparametrising the source P^1

def _pullback_perm(K: FieldSpec, degree: int, g):
    """Divisor-id permutation of f(X, Y) -> f(aX + bY, cX + dY), g = (a, b, c, d).

    The substitution pulls every divisor back along the Moebius map; the
    zero sentinel is fixed.  g must be invertible.
    """
    a, b, c, d = g
    mul, sub = _np_tables(K)
    # images of the monomials X^j Y^(degree-j), as coefficient tuples
    basis = []
    for j in range(degree + 1):
        f = (1,)
        for lin in [(b, a)] * j + [(d, c)] * (degree - j):
            f = poly_mul(K, f, lin)
        basis.append(f + (0,) * (degree + 1 - len(f)))
    digits = _form_digits(K.q, degree)
    image = np.zeros(len(digits), dtype=np.int64)
    for k in range(degree + 1):
        acc = np.zeros(len(digits), dtype=np.int64)
        for j in range(degree + 1):
            acc = sub[acc, mul[digits[:, j], K.neg(basis[j][k])]]
        image += acc * K.q ** k
    div_id = _form_divisor_ids(K, degree)
    perm = np.empty(len(_inventory(K, degree)) + 1, dtype=np.int64)
    perm[div_id] = div_id[image]
    return perm


@lru_cache(maxsize=None)
def _pgl2_perms(K: FieldSpec, degree: int):
    """Every divisor-id permutation that PGL_2(F_q) induces in this degree.

    Closes the generators x -> x + c, x -> c x and x -> 1/x under
    composition; one row per group element (q^3 - q rows for degree >= 1,
    where the action is faithful), the identity first.
    """
    gens = [(1, c, 0, 1) for c in range(1, K.q)] + [(c, 0, 0, 1) for c in range(2, K.q)]
    gens = [_pullback_perm(K, degree, g) for g in gens + [(0, 1, 1, 0)]]
    ident = np.arange(gens[0].size, dtype=np.int64)
    group = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        found = []
        for perm in frontier:
            for gen in gens:
                new = gen[perm]
                if new.tobytes() not in group:
                    group[new.tobytes()] = new
                    found.append(new)
        frontier = found
    return np.stack(list(group.values()))


# ---------------------------------------------------------------------------
# permuting the centres

def _cross_ratio(K: FieldSpec, pts):
    """(p_0, p_1; p_2, p_3) = [p_0, p_2][p_1, p_3] / ([p_0, p_3][p_1, p_2]),
    with the bracket [u, v] = u_0 v_1 - u_1 v_0 of projective points."""
    def bracket(u, v):
        return K.sub(K.mul(u[0], v[1]), K.mul(u[1], v[0]))

    p0, p1, p2, p3 = pts
    return K.div(K.mul(bracket(p0, p2), bracket(p1, p3)),
                 K.mul(bracket(p0, p3), bracket(p1, p2)))


@lru_cache(maxsize=16)
def _centre_symmetries(cfg: SurfaceConfig):
    """The permutations sigma of the four centres that a Moebius map on each
    factor of P^1 x P^1 realises, as a (|H|, 4) array, the identity first.

    Three distinct points go to any three by a unique Moebius map, which
    takes the fourth to the right place exactly when it keeps the cross
    ratio; so sigma is kept when it keeps the cross ratio of the first
    coordinates and of the second.
    """
    K = cfg.field
    return np.array([sigma for sigma in itertools.permutations(range(4))
                     if all(_cross_ratio(K, [pts[i] for i in sigma]) == _cross_ratio(K, pts)
                            for pts in (cfg.first, cfg.second))])


# ---------------------------------------------------------------------------
# side summaries and the join

def _encode(comp, base: int):
    comp = comp.astype(np.int64, copy=False)    # uint16 ids times base^3 would wrap
    return ((comp[0] * base + comp[1]) * base + comp[2]) * base + comp[3]


def _decode(keys, base: int):
    comp = np.empty((4, keys.size), dtype=np.uint16)
    for i in range(3, -1, -1):
        keys, comp[i] = np.divmod(keys, base)
    return comp


def _key_base(K: FieldSpec, degree: int) -> int:
    """The divisor ids of a degree plus the zero sentinel, refused if a
    quadruple of them overflows an int64 key; so every id fits a uint16."""
    base = len(_inventory(K, degree)) + 1
    if base ** 4 >= 2 ** 63:
        raise TooLarge(f"degree-{degree} divisor quadruples overflow int64 keys")
    return base


def _tally(keys, weights):
    """Distinct keys with their summed int64 weights."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    total = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(total, inverse, weights)
    return uniq, total


@lru_cache(maxsize=None)
def _first_divisors(K: FieldSpec, degree: int):
    """The least id of each orbit of degree-`degree` divisor ids under
    PGL_2(F_q), ascending, with the orbits' sizes.

    The zero sentinel, an orbit of its own, is kept at degree 0 only: at
    degree >= 1 a zero first composite has no coprime second composite.
    """
    perms = _pgl2_perms(K, degree)
    firsts = np.flatnonzero(perms.min(axis=0) == np.arange(perms.shape[1]))
    if degree:
        firsts = firsts[:-1]
    return firsts, len(perms) // (perms[:, firsts] == firsts).sum(axis=0)


def _sweep(cfg: SurfaceConfig, side: str, degree: int, firsts, coprime):
    """Yield, for each first divisor id, the (4, n) uint16 quadruples of
    its pairs (g1, g2) in the coordinates g1 = lambda_0, g2 = lambda_1 of
    the module docstring: one form g1 with that divisor against every form
    g2 whose divisor is coprime to it by the matching row of `coprime`.
    """
    K = cfg.field
    q = K.q
    mul, sub = _np_tables(K)
    div_id = _form_divisor_ids(K, degree)
    digits = _form_digits(q, degree)
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    codes = np.arange(div_id.size, dtype=np.int64)
    zero = len(_inventory(K, degree))
    form = np.empty(zero + 1, dtype=np.int64)     # a form of each divisor id
    form[div_id] = codes
    lam = cfg.lam if side == "s" else cfg.lam2
    l0, l1 = lam(0), lam(1)
    # lambda_i = alpha lambda_0 + beta lambda_1 = alpha g1 - (-beta) g2
    combos = []
    for i in (2, 3):
        alpha, beta = solve(K, [[l0[0], l1[0]], [l0[1], l1[1]]], lam(i))
        combos.append((mul[alpha], mul[K.neg(beta)]))
    for first, ok in zip(firsts, coprime):
        if first == zero:           # degree 0, g1 = 0: the pairs (0, c) are one line
            g2 = np.ones(1, dtype=np.int64)
        else:
            g2 = codes[ok[div_id]]
        g1 = digits[form[first]]
        quad = np.empty((4, g2.size), dtype=np.uint16)
        quad[0], quad[1] = first, div_id[g2]
        for i, (ag1, bg2) in enumerate(combos, 2):
            quad[i] = div_id[sub[ag1[g1], bg2[digits[g2]]] @ powers]
        yield quad


@lru_cache(maxsize=16)
def _full_side(cfg: SurfaceConfig, side: str, degree: int):
    """Every coprime pair of one side up to its q - 1 scalar multiples, as a
    (4, n) uint16 array of divisor-id quadruples, one column per line of
    pairs: distinct at degree >= 1, one per point of P^1(F_q) at degree 0.
    """
    coprime = _degree_table(cfg.field, degree, degree) == 0
    firsts = np.arange(coprime.shape[0] - (degree > 0))   # every id, no zero g1 past degree 0
    return np.concatenate(list(_sweep(cfg, side, degree, firsts, coprime)), axis=1)


@lru_cache(maxsize=16)
def _fundamental_rows(cfg: SurfaceConfig, side: str, degree: int):
    """One side reduced to one representative quadruple per PGL_2(F_q)
    orbit, kept on a fundamental domain of the centre permutations H and
    weighted by the orbit's total weight times |H| / #{sigma in H : sigma
    phi = phi}.

    Each first divisor's block is filtered before it is canonicalised: a
    pair is kept when its orbit-type tuple phi, the least id in the PGL_2
    orbit of each component, is least among its H-images.  phi is PGL_2-
    invariant, so the filter and the weight are the same on a whole orbit.
    The representative is the orbit's least key: its first component is
    the least id in its orbit, already D_1, and the group elements other
    than the identity that fix D_1 are searched for the rest.
    """
    K = cfg.field
    base = _key_base(K, degree)
    perms = _pgl2_perms(K, degree)
    orbit_min = perms.min(axis=0)
    group = _centre_symmetries(cfg)
    firsts, sizes = _first_divisors(K, degree)
    coprime = _meet_degrees(K, degree, firsts, degree) == 0
    keys, weights = [], []
    for first, size, quad in zip(firsts, sizes, _sweep(cfg, side, degree, firsts, coprime)):
        images = _encode(orbit_min[quad][group.T], base)    # phi under each sigma, identity first
        keep = images[0] == images.min(axis=0)
        quad, images = quad[:, keep], images[:, keep]
        best = _encode(quad, base)
        for perm in perms[1:][perms[1:, first] == first]:
            np.minimum(best, _encode(perm[quad], base), out=best)
        keys.append(best)
        weights.append(size * (K.q - 1) * (len(group) // (images == images[0]).sum(axis=0)))
    keys, total = _tally(np.concatenate(keys), np.concatenate(weights))
    return _decode(keys, base), total


def _join(rows, row_w, cols, tables, base: int, group):
    """Histogram of shape (base,) * 4 over the contact keys of all row x
    column pairs, averaged over the axis permutations in `group`.

    The key of a pair has digit tables[i][row_i, col_i] at component i;
    each pair adds its row's weight, every column standing for the same
    number of pairs.  The row weights take few values, so each pass of
    columns is tallied by one unweighted bincount of the key prefixed with
    the row's weight class, and the classes are weighted once at the end.
    Rows weighted to a fundamental domain of `group` (_fundamental_rows)
    average to the full join exactly.
    """
    total = int(row_w.sum()) * cols.shape[1]
    span = base ** 4
    rw, rclass = np.unique(row_w, return_inverse=True)
    bins = rw.size * span
    dtype = np.min_scalar_type(bins - 1)
    # component i's table on the rows, one contiguous line per column id,
    # as key digits in the narrowest dtype that holds a key (and so every
    # digit times its place value); component 0 carries the row's weight
    # class as an offset
    lines = [np.ascontiguousarray(tab[rows[i]].T, dtype=dtype) * dtype.type(base ** (3 - i))
             for i, tab in enumerate(tables)]
    lines[0] += (rclass * span).astype(dtype)
    counts = np.zeros(bins, dtype=np.int64)
    step = max(1, JOIN_PASS // max(1, rows.shape[1]))     # columns per pass
    for first in range(0, cols.shape[1], step):
        keys = lines[0][cols[0][first:first + step]]
        for line, col in zip(lines[1:], cols[1:]):
            keys += line[col[first:first + step]]
        counts += np.bincount(keys.ravel(), minlength=bins)
    hist = (counts.reshape(-1, span) * rw[:, None]).sum(axis=0).reshape((base,) * 4)
    assert int(hist.sum()) == total
    hist = sum(hist.transpose(sigma) for sigma in group)
    assert not (hist % len(group)).any()
    return hist // len(group)


def _join_sides(cfg: SurfaceConfig, a: int, b: int):
    """(rows, row weights, columns, degree table) of the degree join: the
    side of larger degree (s on a tie), reduced to PGL_2 orbit
    representatives on a fundamental domain of the centre permutations,
    against the other side in full, a column per q - 1 pairs."""
    if a >= b:
        return (*_fundamental_rows(cfg, "s", a), _full_side(cfg, "t", b),
                _degree_table(cfg.field, a, b))
    return (*_fundamental_rows(cfg, "t", b), _full_side(cfg, "s", a),
            _degree_table(cfg.field, b, a))


@lru_cache(maxsize=256)
def _contact_histogram(cfg: SurfaceConfig, a: int, b: int):
    """Section pairs of bidegree (a, b) by contact-degree quadruple, as an
    int64 array of shape (max(a, b) + 1,) * 4."""
    rows, row_w, cols, tab = _join_sides(cfg, a, b)
    group = _centre_symmetries(cfg)
    pairs = int(row_w.sum()) * cols.shape[1] * (cfg.field.q - 1)
    if pairs * len(group) >= 2 ** 63:
        raise TooLarge(f"{pairs} section pairs times {len(group)} symmetries "
                       "overflow the int64 histogram")
    return _join(rows, row_w, cols, [tab] * 4, max(a, b) + 1, group) * (cfg.field.q - 1)


# ---------------------------------------------------------------------------
# public counting operations

def _charge(cost: int, budget: int, what: str):
    if cost > budget:
        raise BudgetExceeded(f"{what} = {cost} exceeds budget {budget}")


def _charge_sides(cfg: SurfaceConfig, a: int, b: int, budget: int) -> int:
    """Charge the side enumerations of the degree join: q^(2d+2), the
    coefficient pairs, on the full side of degree d = min(a, b), whose sweep
    of q^(d+1) second composites per divisor costs less; and q^(D+1) second
    composites for each first-divisor orbit on the reduced side of degree
    D = max(a, b).  At least #divisors / |PGL_2(F_q)| orbits are charged
    before the orbits are found, so that a refused count builds no table."""
    K = cfg.field
    q = K.q
    low, high = min(a, b), max(a, b)
    full = q ** (2 * low + 2)
    divisors = (q ** (high + 1) - 1) // (q - 1)
    least = -(-divisors // (q ** 3 - q))    # no orbit outgrows PGL_2(F_q)
    _charge(full + least * q ** (high + 1), budget,
            f"side enumerations {q}^{2 * low + 2} + (at least {least}) orbits * {q}^{high + 1}")
    orbits = len(_first_divisors(K, high)[0])
    cost = full + orbits * q ** (high + 1)
    _charge(cost, budget, f"side enumerations {q}^{2 * low + 2} + {orbits} orbits * {q}^{high + 1}")
    return cost


def count_sections(cfg: SurfaceConfig, a: int, b: int, k,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of section pairs with contact profile exactly k.

    Counts pairs (s, t) of coefficient tuples of bidegree (a, b), each side
    without common roots, whose contact order at the i-th marked pair is
    exactly k_i.  The result is divisible by (q-1)^2 (independent scaling
    of the two sides).  The budget is charged the side enumerations (see
    _charge_sides) plus the pairs of the degree join.
    """
    k = tuple(k)
    if a < 0 or b < 0 or len(k) != 4 or any(x < 0 for x in k):
        raise DegreeMismatch("degrees and four contact orders must be non-negative")
    if max(k) > max(a, b):
        return 0        # no contact exceeds the larger side's degree
    spent = _charge_sides(cfg, a, b, budget)
    rows, _, cols, _ = _join_sides(cfg, a, b)
    _charge(spent + rows.shape[1] * cols.shape[1], budget,
            "side enumerations plus fundamental-domain join pairs")
    return int(_contact_histogram(cfg, a, b)[k])


def count_morphisms(cfg: SurfaceConfig, a: int, b: int, k,
                    budget: int = DEFAULT_BUDGET) -> int:
    """count_sections divided by the (q-1)^2 scaling torsor."""
    n = count_sections(cfg, a, b, k, budget=budget)
    d = (cfg.field.q - 1) ** 2
    assert n % d == 0, "torsor divisibility violated"
    return n // d
