"""Counting section spaces over F_q: pairs of binary-form pairs (s, t) of
bidegree (a, b) with no common roots and prescribed contact order k_i at
four marked point pairs of P^1 x P^1.

The contact order at the i-th marked pair (p_i, p'_i) is the degree of the
common vanishing divisor of the two composite forms lambda_i(s) and
lambda'_i(t), where lambda_i is the linear functional cutting p_i.
The marked pairs come as a SurfaceConfig, which surface.py validates and
builds without numpy; this module is the only one that needs numpy at
import, and harness imports it on the first count.

The engine compresses each side to the multiset of its four composite
divisors and joins the two multisets through a table of contact degrees
deg min(D, D').  Every contact is at most max(a, b), so one int64
histogram of (max(a, b) + 1)^4 bins per (a, b) answers every k.  Its
brute-force oracle, which enumerates all q^{2a+2b+4} coefficient tuples
with direct gcd computations, lives in tests/oracles.py.

Forms and divisor ids.  A binary form of degree d is the coefficient
tuple (c_0, ..., c_d) meaning sum c_j X^j Y^(d-j), with code sum c_j q^j.
Points of P^1 carry the affine coordinate x = X/Y: a closed point is the
place at infinity (Y = 0, degree 1) or a monic irreducible in x, and a
form vanishes at infinity to the number of its vanishing top
coefficients, so a common root of two forms includes common vanishing
there.  A degree-d divisor is a point of Hilb^d P^1 = P^d, a nonzero form
up to scalar; its id is the rank of its monic form (top nonzero
coefficient 1) among all monic codes, 0 .. #P^d(F_q) - 1.  The zero form
has no divisor and so no id.  Every id table is built from forms;
no divisor is held as a multiset of points.  The closed points of degree
e are the rows of _multiplicities' degree-e table that no lower point marks.

Orientation.  Swapping the factors of P^1 x P^1 maps the pairs (s, t) of
bidegree (a, b) one-to-one onto the pairs (t, s) of bidegree (b, a) on the
transposed surface (SurfaceConfig.transposed: each centre's coordinates
swapped), with the same contact divisors.  So count_sections, and
nothing else, turns (cfg, a, b) with a < b into (cfg.transposed(), b, a)
before anything is charged or joined, and the engine sees a >= b only:
s is swept in the functionals of cfg's first coordinates, t as the first
side of cfg.transposed().  On a surface that is its own transpose, as the
default q = 3 one, (a, b) reads the histogram of (b, a).

Constant sides.  A side t of degree 0 is one of the q + 1 points of
P^1(F_q) with q - 1 scalars, so count_sections answers b = 0 in closed
form, before anything is charged or built.  lambda'_i(t) is zero exactly
when t is the i-th centre's second coordinate, and the four are distinct
on every validated surface.  Then the pair rides the fibre through that
centre: for a >= 1 the contact there is all of lambda_i(s), of degree a,
and it is 0 at the other three centres.  With P = (q - 1)^2 times the
degree-a side's columns, the count is P (q - 3) at k = 0, P at each
k = a e_i, and 0 elsewhere.  At a = 0 every contact is 0, a constant pair
at a centre included, and all ((q + 1)(q - 1))^2 pairs have k = 0.  So
the engine sweeps sides of degree >= 1 only, where no composite of a
coprime pair vanishes.

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
line, the common scalar making g_1 that form.  So a side costs one
q^(d+1) sweep per first divisor.  The full side sweeps every id and
passes each pair's quadruple on as it comes, with no tally.  The
reduced side, s of degree a >= b, sweeps the least id of each PGL_2(F_q)
orbit of first divisors, each pair standing for |G.D_1| (q-1) pairs, and
tallies representatives.

The divisors of g_1 and g_2 fix s up to the ratio of two scalars, and
that of lambda_2(s) fixes the ratio, because coprime forms are not
proportional; so the full side of degree d has q^(2d-1) (q^2 - 1)
columns, all distinct.  Every column stands for q - 1 pairs, so the join
weighs only rows and the histogram is multiplied by q - 1 once.  The
quadruple count grows with the degree, so s, of the larger degree a, is
the side with more quadruples to compare, and the one reduced.

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

Memory.  A degree's #P^d(F_q) divisor ids are counted in closed form,
and _refuse_oversized, the one refusal, refuses a degree whose
PGL_2(F_q) table would exceed _GROUP_CAP entries, or whose id quadruples
would overflow an int64 key (more than 55,108 ids, which also keeps
every degree below 16), before any form map, multiplicity table or group
table is built; the id count itself is then the key base.
So every stored id fits a uint16: side quadruples, the PGL_2 table and its
orbit minima are uint16, and contact degrees uint8 tables.  NumPy 2 keeps
uint16 times a Python int in uint16, where it wraps, so _encode widens a
key to int64 one component at a time as it adds them; a block's orbit-type
images are a (4, |H|, n) uint16 array and one (|H|, n) int64 key.  The
join's line tables are cast first to the key dtype, which holds every
digit times its place value.  The reduced side filters each first
divisor's block to the fundamental domain before it canonicalises and
tallies, so it never holds the rows the filter drops.  The full side is
never stored: each histogram sweeps it afresh and joins _sweep's blocks
as they come, one first divisor at a time, and the closed-form column
count above prices the join and guards the histogram against overflow.
A block is joined in passes of at most JOIN_PASS row x column keys (one
column when the rows alone exceed it), so the keys, their gathers and the
intp copy that np.bincount makes of its input stay cache-sized: the q = 4
(3, 3) join, 35 rows x 15,360 columns, peaks at 0.17 MB of traced memory
in passes of 2^16 and at 0.10 MB in passes of 2^10, below the 0.12 MB
that the stored degree-3 side took.  On the q = 4 (4, 4) join, passes of
2^16 and 2^17 were the fastest of the powers of two from 2^12 to 2^20
(2-core x86-64 Xeon).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, DegreeMismatch, TooLarge
from .field import FieldSpec, count_closed_points
from .linalg import solve
from .surface import DEFAULT_BUDGET, SurfaceConfig

JOIN_PASS = 2 ** 16         # row x column keys per join pass (module docstring, Memory)
# entries of the PGL_2(F_q) permutation table: each is one uint16 of the
# table, and the flipped affine block and one gathered cell beside it add
# 2/(q+1) more (q = 27, degree 2 peaked at 30.5 MiB traced for the 28.4
# MiB table); so 80 M entries, 160 MB, stay well within 2 GB
_GROUP_CAP = 80_000_000


# ---------------------------------------------------------------------------
# divisor ids and numpy tables

@lru_cache(maxsize=None)
def _np_tables(K: FieldSpec):
    """K.mul and K.sub as (q, q) int64 tables, from K's exp and log tables
    and from base-p digits.  One int16 work array, every value below
    2 q <= 2 * 13^3, holds the exponent sums and then each digit's
    differences: 87 MB in all at q = 13^3."""
    q, p = K.q, K.p
    log = np.array(K._log, dtype=np.int16)
    work = np.add.outer(log, log)
    work %= q - 1
    work[0] = work[:, 0] = q - 1    # a zero factor: the 0 appended to exp
    mul = np.append(np.array(K._exp, dtype=np.int64), 0)[work]
    sub = np.zeros((q, q), dtype=np.int64)
    for place in (p ** i for i in range(K.n)):
        digit = np.arange(q, dtype=np.int16) // place % p
        np.subtract.outer(digit, digit, out=work)
        work %= p
        work *= place
        sub += work
    return mul, sub


def _form_digits(q: int, degree: int, codes=None):
    """(len(codes), degree+1) coefficient table of the forms `codes`, by
    default every form, so that the row is the code."""
    if codes is None:
        codes = np.arange(q ** (degree + 1), dtype=np.int64)
    return (codes[:, None] // q ** np.arange(degree + 1, dtype=np.int64)) % q


@lru_cache(maxsize=None)
def _monic_codes(q: int, degree: int):
    """The codes of the monic forms of a degree, ascending, so that a
    divisor id indexes its monic form: those with top nonzero coefficient
    c_t = 1 are the codes q^t .. 2 q^t - 1."""
    return np.concatenate([np.arange(q ** t, 2 * q ** t, dtype=np.int64)
                           for t in range(degree + 1)])


@lru_cache(maxsize=None)
def _form_divisor_ids(K: FieldSpec, degree: int):
    """Map form code -> divisor id: the rank of the form's monic multiple
    among _monic_codes, found by scaling each monic form by the q-1
    nonzero scalars, which share its divisor.  The zero form, which has no
    divisor, maps to the id count, past every table, so that a stray read
    of it raises an IndexError."""
    q = K.q
    mul, _ = _np_tables(K)
    monic = _form_digits(q, degree, _monic_codes(q, degree))
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    out = np.full(q ** (degree + 1), len(monic), dtype=np.int64)
    for scalar in range(1, q):
        out[mul[scalar][monic] @ powers] = np.arange(len(monic))
    return out


def _products(K: FieldSpec, f, g):
    """The products of the forms f and g, little-endian coefficient arrays
    along the last axis, broadcast over the leading axes."""
    mul, sub = _np_tables(K)
    neg = sub[0]
    width = g.shape[-1]
    out = np.zeros(np.broadcast_shapes(f.shape[:-1], g.shape[:-1])
                   + (f.shape[-1] + width - 1,), dtype=np.int64)
    for i in range(f.shape[-1]):    # out += f_i X^i g
        span = out[..., i:i + width]
        span[...] = sub[span, mul[neg[f[..., i, None]], g]]
    return out


@lru_cache(maxsize=None)
def _multiplicities(K: FieldSpec, degree: int):
    """Multiplicities of the degree-`degree` divisors (rows, by id) at every
    closed point of degree <= degree (columns), and those points' degrees.

    The points of degree e, by ascending code (Y, infinity, first), are the
    monic forms of degree e that no lower point divides: the rows of the
    degree-e table unmarked at its lower columns, this table's own at e =
    degree, so each lower degree's columns are a prefix of these.  P^j
    divides a form of degree d exactly when the form is P^j times a form of
    degree d - j e, so the ids of the monic products P^j g, g monic, are
    marked j, for j = 1, 2, ... in turn, at all P of one degree at once.
    """
    q = K.q
    monic = _monic_codes(q, degree)
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    sizes = [count_closed_points(q, e) for e in range(1, degree + 1)]
    pdeg = np.repeat(np.arange(1, degree + 1, dtype=np.uint8), sizes)
    m = np.zeros((monic.size, pdeg.size), dtype=np.uint8)
    first = 0
    for e, size in enumerate(sizes, 1):
        m_e, pdeg_e = _multiplicities(K, e) if e < degree else (m, pdeg)
        P = _form_digits(q, e, _monic_codes(q, e)[~m_e[:, pdeg_e < e].any(axis=1)])
        assert len(P) == size, "closed points miscounted"
        cols = np.arange(first, first + size)[:, None]
        power = P
        for j in range(1, degree // e + 1):
            cofactor = _form_digits(q, degree - j * e, _monic_codes(q, degree - j * e))
            m[np.searchsorted(monic, _products(K, power[:, None], cofactor[None]) @ powers),
              cols] = j
            power = _products(K, power, P)
        first += size
    return m, pdeg


def _meet_degrees(K: FieldSpec, deg_s: int, rows, deg_t: int):
    """Contact degrees deg min(D, D') of the degree-deg_s divisor ids `rows`
    against every degree-deg_t id.

    Two forms can only share closed points of degree <= min(deg_s, deg_t),
    the shorter table's columns, so those suffice, and only the points
    some row passes through are visited.
    """
    mS, pdeg = _multiplicities(K, deg_s)
    mT, _ = _multiplicities(K, deg_t)
    mR = mS[rows, :min(mS.shape[1], mT.shape[1])]
    tab = np.zeros((rows.size, mT.shape[0]), dtype=np.uint8)
    for j in np.flatnonzero(mR.any(axis=0)):
        tab += pdeg[j] * np.minimum(mR[:, j, None], mT[None, :, j])
    return tab


@lru_cache(maxsize=None)
def _degree_table(K: FieldSpec, deg_s: int, deg_t: int):
    """_meet_degrees for every degree-deg_s id."""
    ids = np.arange(_id_count(K.q, deg_s), dtype=np.int64)
    return _meet_degrees(K, deg_s, ids, deg_t)


# ---------------------------------------------------------------------------
# reparametrising the source P^1

def _pullback_perm(K: FieldSpec, degree: int, g):
    """Divisor-id permutation of f(X, Y) -> f(aX + bY, cX + dY), g = (a, b, c, d).

    The substitution pulls every divisor back along the Moebius map.  g
    must be invertible.
    """
    a, b, c, d = g
    mul, sub = _np_tables(K)
    neg = sub[0]
    # images of the monomials X^j Y^(degree-j): row j takes j factors
    # X -> aX + bY and degree - j factors Y -> cX + dY
    basis = np.ones((degree + 1, 1), dtype=np.int64)
    for i in range(degree):
        basis = _products(K, basis, np.where(np.arange(degree + 1)[:, None] > i, (b, a), (d, c)))
    digits = _form_digits(K.q, degree, _monic_codes(K.q, degree))    # by id
    image = np.zeros(len(digits), dtype=np.int64)
    for k in range(degree + 1):
        acc = np.zeros(len(digits), dtype=np.int64)
        for j in range(degree + 1):
            acc = sub[acc, mul[digits[:, j], neg[basis[j, k]]]]
        image += acc * K.q ** k
    return _form_divisor_ids(K, degree)[image]


def _id_count(q: int, degree: int) -> int:
    """The divisor ids of exact degree, #P^degree(F_q)."""
    return (q ** (degree + 1) - 1) // (q - 1)


def _refuse_oversized(K: FieldSpec, degree: int):
    """Refuse, from the closed-form id count alone, a degree whose PGL_2(F_q)
    table exceeds _GROUP_CAP entries or whose id quadruples overflow an
    int64 key (more than 55,108 ids, so every id fits a uint16); so a
    refused degree builds no form map, multiplicity table or group table."""
    ids = _id_count(K.q, degree)
    if (K.q ** 3 - K.q) * ids > _GROUP_CAP:
        raise TooLarge(f"PGL_2(F_{K.q}) acting on {ids} degree-{degree} divisor ids "
                       f"exceeds {_GROUP_CAP} table entries")
    if ids ** 4 >= 2 ** 63:
        raise TooLarge(f"{ids} degree-{degree} divisor ids: quadruples overflow int64 keys")


@lru_cache(maxsize=None)
def _pgl2_perms(K: FieldSpec, degree: int):
    """Every divisor-id permutation that PGL_2(F_q) induces in a degree >= 1,
    as a read-only uint16 table, one row per group element (q^3 - q rows:
    the action is faithful), the identity first.

    The Bruhat decomposition PGL_2(F_q) = B + B w U writes each element
    exactly once: B is the q (q - 1) affine maps x -> c x + t, one gather
    of the translation rows by the scaling rows, and each of them composed
    once with w: x -> 1/x and then with one of the q translations gives
    the rest.  So the q + 1 blocks go straight into the table, and nothing
    is deduplicated.  _refuse_oversized runs first, so a refused degree
    builds no table.
    """
    _refuse_oversized(K, degree)
    q = K.q
    shift = np.array([_pullback_perm(K, degree, (1, t, 0, 1)) for t in range(q)], dtype=np.uint16)
    scale = np.array([_pullback_perm(K, degree, (c, 0, 0, 1)) for c in K._exp], dtype=np.uint16)
    table = np.empty((q ** 3 - q, shift.shape[1]), dtype=np.uint16)
    affine = table[:q * q - q]
    affine[...] = shift[:, scale].reshape(affine.shape)
    flip = affine[:, _pullback_perm(K, degree, (0, 1, 1, 0))]
    for t, cell in enumerate(table[q * q - q:].reshape(q, q * q - q, -1)):
        cell[...] = flip[:, shift[t]]
    table.flags.writeable = False
    return table


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
    """The int64 key of each quadruple comp[:, ...], component 0 leading;
    each component is widened as it is added, as uint16 ids times base^3
    would wrap."""
    key = comp[0].astype(np.int64)
    for digit in comp[1:]:
        key *= base
        key += digit
    return key


def _decode(keys, base: int):
    comp = np.empty((4, keys.size), dtype=np.uint16)
    for i in range(3, -1, -1):
        keys, comp[i] = np.divmod(keys, base)
    return comp


def _tally(keys, weights):
    """Distinct keys with their summed int64 weights."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    total = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(total, inverse, weights)
    return uniq, total


@lru_cache(maxsize=None)
def _orbits(K: FieldSpec, degree: int):
    """The PGL_2(F_q) orbits of the degree-`degree` divisor ids: each id's
    orbit minimum, the ids that are their own minimum, ascending, and their
    orbits' sizes, each the number of ids with that minimum."""
    orbit_min = _pgl2_perms(K, degree).min(axis=0)
    firsts = np.flatnonzero(orbit_min == np.arange(orbit_min.size))
    return orbit_min, firsts, np.bincount(orbit_min)[firsts]


def _sweep(cfg: SurfaceConfig, degree: int, firsts, coprime):
    """Yield, for each first divisor id, the (4, n) uint16 quadruples of
    its pairs (g1, g2) in the coordinates g1 = lambda_0, g2 = lambda_1 of
    the module docstring, lambda_i the functionals of cfg's first
    coordinates: one form g1 with that divisor against every form
    g2 whose divisor is coprime to it by the matching row of `coprime`.
    """
    K = cfg.field
    q = K.q
    mul, sub = _np_tables(K)
    div_id = _form_divisor_ids(K, degree)
    digits = _form_digits(q, degree)
    powers = q ** np.arange(degree + 1, dtype=np.int64)
    form = _monic_codes(q, degree)      # each divisor id's monic form
    l0, l1 = cfg.lam(0), cfg.lam(1)
    # lambda_i = alpha lambda_0 + beta lambda_1 = alpha g1 - (-beta) g2
    combos = []
    for i in (2, 3):
        alpha, beta = solve(K, [[l0[0], l1[0]], [l0[1], l1[1]]], cfg.lam(i))
        combos.append((mul[alpha], mul[K.neg(beta)]))
    for first, ok in zip(firsts, coprime):
        g2 = 1 + np.flatnonzero(ok[div_id[1:]])     # the zero form has no id
        g1, g2_digits = digits[form[first]], digits[g2]
        quad = np.empty((4, g2.size), dtype=np.uint16)
        quad[0], quad[1] = first, div_id[g2]
        for i, (ag1, bg2) in enumerate(combos, 2):
            quad[i] = div_id[sub[ag1[g1], bg2[g2_digits]] @ powers]
        yield quad


def _side_columns(q: int, degree: int) -> int:
    """Column count of the full side of a degree (module docstring)."""
    return q ** (2 * degree - 1) * (q * q - 1)


def _full_side(cfg: SurfaceConfig, degree: int):
    """Every coprime pair of one side up to its q - 1 scalar multiples,
    one column per line of pairs, streamed as _sweep's (4, n) uint16
    blocks of divisor-id quadruples, one block per first divisor; the
    _side_columns(q, degree) columns are distinct.
    """
    coprime = _degree_table(cfg.field, degree, degree) == 0
    return _sweep(cfg, degree, np.arange(coprime.shape[0]), coprime)


@lru_cache(maxsize=16)
def _fundamental_rows(cfg: SurfaceConfig, degree: int):
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
    perms = _pgl2_perms(K, degree)      # refuses an oversized degree first
    base = _id_count(K.q, degree)
    group = _centre_symmetries(cfg)
    orbit_min, firsts, sizes = _orbits(K, degree)
    coprime = _meet_degrees(K, degree, firsts, degree) == 0
    keys, weights = [], []
    for first, size, quad in zip(firsts, sizes, _sweep(cfg, degree, firsts, coprime)):
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


def _join(rows, row_w, blocks, columns: int, table, base: int, group):
    """Histogram of shape (base,) * 4 over the contact keys of all row x
    column pairs, averaged over the axis permutations in `group`.

    The columns come as (4, n) blocks, `columns` of them in all.  The key
    of a pair has digit table[row_i, col_i] at component i; each pair
    adds its row's weight, every column standing for the same number of
    pairs.  The row weights take few values, so each pass of columns is
    tallied by one unweighted bincount of the key prefixed with the row's
    weight class, and the classes are weighted once at the end.  Rows
    weighted to a fundamental domain of `group` (_fundamental_rows)
    average to the full join exactly.
    """
    span = base ** 4
    rw, rclass = np.unique(row_w, return_inverse=True)
    bins = rw.size * span
    dtype = np.min_scalar_type(bins - 1)
    # the table on component i's rows, one contiguous line per column id,
    # as key digits in the narrowest dtype that holds a key (and so every
    # digit times its place value); component 0 carries the row's weight
    # class as an offset
    lines = [np.ascontiguousarray(table[row].T, dtype=dtype) * dtype.type(base ** (3 - i))
             for i, row in enumerate(rows)]
    lines[0] += (rclass * span).astype(dtype)
    counts = np.zeros(bins, dtype=np.int64)
    step = max(1, JOIN_PASS // max(1, rows.shape[1]))     # columns per pass
    for cols in blocks:
        for first in range(0, cols.shape[1], step):
            keys = lines[0][cols[0][first:first + step]]
            for line, col in zip(lines[1:], cols[1:]):
                keys += line[col[first:first + step]]
            counts += np.bincount(keys.ravel(), minlength=bins)
    hist = (counts.reshape(-1, span) * rw[:, None]).sum(axis=0).reshape((base,) * 4)
    assert int(hist.sum()) == int(row_w.sum()) * columns      # every column streamed
    hist = sum(hist.transpose(sigma) for sigma in group)
    assert not (hist % len(group)).any()
    return hist // len(group)


@lru_cache(maxsize=256)
def _contact_histogram(cfg: SurfaceConfig, a: int, b: int):
    """Section pairs of bidegree (a, b), a >= b, by contact-degree
    quadruple, as an int64 array of shape (a + 1,) * 4: the degree-a side
    reduced to PGL_2 orbit representatives on a fundamental domain of the
    centre permutations, against the full degree-b side, whose functionals
    are those of cfg's second coordinates, streamed."""
    assert a >= b, "count_sections transposes a < b"
    q = cfg.field.q
    rows, row_w = _fundamental_rows(cfg, a)
    columns = _side_columns(q, b)
    group = _centre_symmetries(cfg)
    pairs = int(row_w.sum()) * columns * (q - 1)
    if pairs * len(group) >= 2 ** 63:
        raise TooLarge(f"{pairs} section pairs times {len(group)} symmetries "
                       "overflow the int64 histogram")
    table = _degree_table(cfg.field, a, b)
    cols = _full_side(cfg.transposed(), b)
    return _join(rows, row_w, cols, columns, table, a + 1, group) * (q - 1)


# ---------------------------------------------------------------------------
# public counting operations

def _charge(cost: int, budget: int, what: str):
    if cost > budget:
        raise BudgetExceeded(f"{what} = {cost} exceeds budget {budget}")


def _charge_sides(cfg: SurfaceConfig, a: int, b: int, budget: int) -> int:
    """Charge the side enumerations of the degree join, a >= b: q^(2b+2),
    the coefficient pairs, on the full side of degree b, whose sweep of
    q^(b+1) second composites per divisor costs less; and q^(a+1) second
    composites for each first-divisor orbit on the reduced side of degree
    a >= b >= 1.  At least #P^a(F_q) / |PGL_2(F_q)| orbits of the degree-a
    divisors are charged, and an oversized degree refused, before the
    orbits are found, so that a refused count builds no table."""
    K = cfg.field
    q = K.q
    full = q ** (2 * b + 2)
    divisors = _id_count(q, a)
    least = -(-divisors // (q ** 3 - q))    # no orbit outgrows PGL_2(F_q)
    _charge(full + least * q ** (a + 1), budget,
            f"side enumerations {q}^{2 * b + 2} + (at least {least}) orbits * {q}^{a + 1}")
    _refuse_oversized(K, a)     # b <= a: no table of degree b is larger
    orbits = len(_orbits(K, a)[1])
    cost = full + orbits * q ** (a + 1)
    _charge(cost, budget, f"side enumerations {q}^{2 * b + 2} + {orbits} orbits * {q}^{a + 1}")
    return cost


def _constant_side_count(q: int, a: int, k) -> int:
    """count_sections for b = 0, a >= max(k), in closed form (module
    docstring, Constant sides)."""
    if not a:
        return ((q + 1) * (q - 1)) ** 2
    pairs = _side_columns(q, a) * (q - 1) ** 2
    if not any(k):
        return pairs * (q - 3)
    return pairs if sorted(k) == [0, 0, 0, a] else 0


def count_sections(cfg: SurfaceConfig, a: int, b: int, k,
                   budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of section pairs with contact profile exactly k.

    Counts pairs (s, t) of coefficient tuples of bidegree (a, b), each side
    without common roots, whose contact order at the i-th marked pair is
    exactly k_i.  The result is divisible by (q-1)^2 (independent scaling
    of the two sides).  The budget is charged the side enumerations (see
    _charge_sides) plus the pairs of the degree join.  A constant side,
    b = 0 after the orientation swap, is counted in closed form and
    charged nothing.
    """
    if a < b:
        return count_sections(cfg.transposed(), b, a, k, budget)
    k = tuple(k)
    if b < 0 or len(k) != 4 or any(x < 0 for x in k):
        raise DegreeMismatch("degrees and four contact orders must be non-negative")
    if max(k) > a:
        return 0        # no contact exceeds the larger side's degree
    if not b:
        return _constant_side_count(cfg.field.q, a, k)
    spent = _charge_sides(cfg, a, b, budget)
    pairs = _fundamental_rows(cfg, a)[0].shape[1] * _side_columns(cfg.field.q, b)
    _charge(spent + pairs, budget, "side enumerations plus fundamental-domain join pairs")
    return int(_contact_histogram(cfg, a, b)[k])


def count_morphisms(cfg: SurfaceConfig, a: int, b: int, k,
                    budget: int = DEFAULT_BUDGET) -> int:
    """count_sections divided by the (q-1)^2 scaling torsor."""
    n = count_sections(cfg, a, b, k, budget=budget)
    d = (cfg.field.q - 1) ** 2
    assert n % d == 0, "torsor divisibility violated"
    return n // d
