import itertools
import tracemalloc

import numpy as np
import oracles as orc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4sieve import secenum as se
from dp4sieve import surface as sf
from dp4sieve.errors import (
    BudgetExceeded,
    CoincidentFirstCoords,
    DegreeMismatch,
    FieldTooSmall,
    OnBidegreeCurve,
)
from dp4sieve.field import field_of_order, make_field
from dp4sieve.projline import ZERO_DIVISOR, divisor

F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

CFG3 = sf.default_config(3)
CFG4 = sf.default_config(4)
CFG5 = sf.default_config(5)


# ---------------------------------------------------------------------------
# configurations

def test_validate_points_errors():
    with pytest.raises(FieldTooSmall):
        sf.validate_points(make_field(2), [((0, 1), (0, 1))] * 4)
    pts = [((0, 1), (0, 1)), ((0, 1), (1, 1)), ((2, 1), (2, 1)), ((1, 0), (1, 0))]
    with pytest.raises(CoincidentFirstCoords):
        sf.validate_points(F3, pts)


def test_no_q3_config_certifies():
    # every choice of four distinct first and second coordinates over F_3 is
    # the graph of a permutation of P^1(F_3), and PGL_2(F_3) realizes every
    # permutation, so the (1,1)-curve test always fails
    first = [(0, 1), (1, 1), (2, 1), (1, 0)]
    for perm in itertools.permutations(first):
        with pytest.raises(OnBidegreeCurve):
            sf.validate_points(F3, list(zip(first, perm)))
    cfg = sf.validate_points(F3, list(zip(first, first)), allow_on_bidegree_curve=True)
    assert cfg.on_bidegree_curve


def test_default_configs():
    assert CFG3.on_bidegree_curve
    assert not CFG4.on_bidegree_curve
    assert not CFG5.on_bidegree_curve
    # matching order example over q=5 with p' = (0,1,2,inf) would be the
    # diagonal; the shipped assignment moves one point and certifies
    assert len(set(CFG5.second)) == 4


# ---------------------------------------------------------------------------
# multiplicity profiles: the contact divisors of one section pair, from
# the brute-force oracle

def _degrees(divs):
    return tuple(d.degree for d in divs)


def test_multiplicity_profile_coprime_constants():
    # nonvanishing first coordinates at the centers give coprime pullbacks
    assert orc.form_gcd_degree(F3, (1,), (1,)) == orc.form_gcd_degree(F3, (1,), (2,)) == 0
    assert _degrees(orc.contact_divisors(CFG3, ((1,), (1,)), ((1,), (2,)))) == (0, 0, 0, 0)


def test_multiplicity_profile_forced_contact():
    # s, t of degree 1 both passing through center 1 = (0, 0) at parameter 0:
    # s = (x, 1)-ish: s1 vanishing at 0 means the image's first coordinate is
    # p_1 = 0 there; likewise t
    s = t = ((0, 1), (1, 0))
    assert orc.form_gcd_degree(F3, *s) == 0
    assert _degrees(orc.contact_divisors(CFG3, s, t))[0] == 1


def test_multiplicity_profile_common_root_flag():
    # a pair with a common root, such as s = (x, x), is left out of the
    # tally: its total is the product of the two sides' coprime pair counts
    assert orc.form_gcd_degree(F3, (0, 1), (0, 1)) == 1
    for a, b in ((1, 1), (2, 1)):
        total = sum(orc.contact_tally(CFG3, a, b).values())
        assert total == _coprime_pairs(3, a) * _coprime_pairs(3, b)


def test_multiplicity_profile_zero_section_raises():
    with pytest.raises(orc.ZeroForm):
        orc.contact_divisors(CFG3, ((0,), (0,)), ((1,), (1,)))


def test_multiplicity_profile_degenerate_constant():
    # constant section sitting at center 1 = ((0,1),(0,1)): the section pair
    # proportional to the marked lines, so both composites vanish
    # identically; contact recorded as 0 by convention
    s = t = ((0,), (1,))
    assert orc._composite(F3, CFG3.lam(0), s) == orc._composite(F3, CFG3.lam2(0), t) == (0,)
    divs = orc.contact_divisors(CFG3, s, t)
    assert divs[0] == ZERO_DIVISOR
    assert _degrees(divs) == (0, 0, 0, 0)


# ---------------------------------------------------------------------------
# counting: frozen oracle values

def test_count_constants_any_config():
    # all nonzero constant pairs on both sides: (q^2-1)^2
    for cfg in (CFG3, CFG4, CFG5):
        q = cfg.field.q
        assert se.count_sections(cfg, 0, 0, (0, 0, 0, 0)) == (q * q - 1) ** 2
        assert se.count_morphisms(cfg, 0, 0, (0, 0, 0, 0)) == (q + 1) ** 2


def test_count_bidegree_11_avoiding_q3():
    # profile-exact count: coprime-pair product 48^2 = 2304 minus the maps
    # hitting some marked center; inclusion-exclusion over PGL_2(F_3) gives
    # 2304 - 4*576 + 6*192 - 4*96 + 96 = 864 for the matched-order config
    assert se.count_sections(CFG3, 1, 1, (0, 0, 0, 0)) == 864
    assert orc.count_sections_raw(CFG3, 1, 1, (0, 0, 0, 0)) == 864


def test_count_bidegree_11_avoiding_q4():
    # same inclusion-exclusion over PGL_2(F_4) with no common quadruple:
    # 180^2 - 4*6480 + 6*1620 - 4*540 + 0 = 14040
    assert se.count_sections(CFG4, 1, 1, (0, 0, 0, 0)) == 14040


def test_raw_vs_join_small_grid():
    # the join strategy is guarded by full-product enumeration on the
    # smallest instances
    for k in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0)):
        assert se.count_sections(CFG3, 1, 1, k) == orc.count_sections_raw(CFG3, 1, 1, k)
    assert se.count_sections(CFG3, 0, 1, (0, 0, 0, 0)) == orc.count_sections_raw(CFG3, 0, 1, (0, 0, 0, 0))
    assert se.count_sections(CFG3, 2, 1, (1, 0, 0, 0)) == orc.count_sections_raw(CFG3, 2, 1, (1, 0, 0, 0))
    assert se.count_sections(CFG4, 1, 1, (0, 0, 0, 0)) == orc.count_sections_raw(CFG4, 1, 1, (0, 0, 0, 0))


def test_raw_vs_join_every_01_profile_q3():
    # all sixteen k in {0,1}^4, plus a contact above max(a, b), which the
    # join answers as 0 without building anything
    for k in list(itertools.product((0, 1), repeat=4)) + [(2, 0, 0, 0)]:
        assert se.count_sections(CFG3, 1, 1, k) == orc.count_sections_raw(CFG3, 1, 1, k), k


def _coprime_pairs(q, d):
    # pairs of degree-d binary forms without a common root
    return q * q - 1 if d == 0 else (q - 1) * (q ** (2 * d + 1) - q ** (2 * d - 1))


def test_histogram_total_is_the_product_of_side_totals():
    from dp4sieve import nslattice as ns

    bidegrees = sorted({(x.a, x.b) for x in ns.enumerate_nef_points(4)})
    for cfg in (CFG3, CFG4):
        q = cfg.field.q
        for a, b in bidegrees:
            hist = se._contact_histogram(cfg, a, b)
            assert hist.dtype == np.int64 and hist.shape == (max(a, b) + 1,) * 4
            assert int(hist.sum()) == _coprime_pairs(q, a) * _coprime_pairs(q, b)


def test_torsor_divisibility_spot():
    for cfg, a, b, k in ((CFG3, 2, 2, (1, 1, 0, 0)), (CFG4, 2, 1, (0, 2, 0, 0)),
                         (CFG5, 1, 1, (1, 0, 0, 0))):
        q = cfg.field.q
        assert se.count_sections(cfg, a, b, k) % (q - 1) ** 2 == 0


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        se.count_sections(CFG5, 6, 6, (0, 0, 0, 0), budget=2 ** 20)


def test_default_budget_counts_the_q5_42_class():
    # the reduced degree-4 side (17 first-divisor orbits times 5^5 second
    # composites), the full degree-2 side (5^6 pairs) and the orbit-reduced
    # join fit the default budget; the naive charge 5^16 of the brute-force
    # oracle does not
    from dp4sieve import nslattice as ns

    (alpha,) = [x for x in ns.enumerate_nef_points(4) if (x.a, x.b) == (4, 2)]
    n = se.count_sections(CFG5, 4, 2, alpha.k)
    assert n == se.count_sections(CFG5, 4, 2, alpha.k, budget=2 ** 60) > 0
    with pytest.raises(BudgetExceeded):
        orc.count_sections_raw(CFG5, 4, 2, alpha.k)


def test_budget_charges_the_orbit_enumeration():
    # (2, 1) at q = 4: the reduced degree-2 side sweeps 4^3 second
    # composites for each of the 3 PGL_2(F_4) orbits of degree-2 divisors
    # (2P, P + P', a degree-2 point), the full degree-1 side 4^4 pairs, and
    # the join 60 columns by the 4 of the 31 orbit rows that lie on a
    # fundamental domain of the centre permutations (A_4 on this surface)
    charge = 3 * 4 ** 3 + 4 ** 4 + 4 * 60
    k = (1, 0, 0, 0)
    n = se.count_sections(CFG4, 2, 1, k, budget=charge)
    assert n == se.count_sections(CFG4, 2, 1, k, budget=2 ** 60) > 0
    with pytest.raises(BudgetExceeded):
        se.count_sections(CFG4, 2, 1, k, budget=charge - 1)


def test_refused_count_builds_no_table():
    # (9, 0) at q = 5: 2,441,406 divisors of degree 9 make at least 20,346
    # orbits of PGL_2(F_5), each charged 5^10, which exceeds the default
    # budget before the orbits or the degree-9 inventory are built
    built = se._pgl2_perms.cache_info().misses, se._inventory.cache_info().misses
    with pytest.raises(BudgetExceeded):
        se.count_sections(CFG5, 9, 0, (0, 0, 0, 0))
    assert (se._pgl2_perms.cache_info().misses, se._inventory.cache_info().misses) == built


def test_negative_k_rejected():
    with pytest.raises(DegreeMismatch):
        se.count_sections(CFG3, 1, 1, (-1, 0, 0, 0))


# ---------------------------------------------------------------------------
# u_k tuples and fibers

def test_u_k_points_counts():
    assert len(orc.u_k_points(F3, (0, 0, 0, 0))) == 1
    assert len(orc.u_k_points(F3, (1, 0, 0, 0))) == 4   # #P^1(F_3) rational points
    assert len(orc.u_k_points(F3, (1, 1, 0, 0))) == 12  # ordered distinct pairs
    # degree-2 slots admit degree-2 points and doubled rational points
    assert len(orc.u_k_points(F3, (2, 0, 0, 0))) == 13  # #P^2(F_3)
    # disjointness: no tuple shares support
    for w in orc.u_k_points(F3, (1, 1, 1, 0)):
        sup = [pt for d in w for pt in orc.divisor_support(d)]
        assert len(sup) == len(set(sup))


def test_u_k_count_tracks_q_power():
    # reported, not asserted, in the contract: #U_k / q^{sum k} -> 1 as q
    # grows; here the distance to 1 must shrink along q = 3, 4, 5
    dists = []
    for K in (F3, F4, F5):
        n = len(orc.u_k_points(K, (1, 1, 0, 0)))
        dists.append(abs(n / K.q ** 2 - 1))
    assert dists == sorted(dists, reverse=True)


def test_fiber_partition_exact():
    # sum of fibers over U_k equals the profile count
    total = se.count_sections(CFG3, 2, 2, (1, 0, 0, 0))
    parts = [orc.fiber_count(CFG3, w, 2, 2) for w in orc.u_k_points(F3, (1, 0, 0, 0))]
    assert total == sum(parts) == 16704
    assert parts == [4176] * 4


def test_large_contact_equals_its_fiber_partition_q4():
    # contact 3 at q = 4: the divisor-id join would have needed 86^4 bins
    for a, b, k, total in ((3, 1, (3, 0, 0, 0), 0), (0, 3, (3, 0, 0, 0), 138240)):
        parts = [orc.fiber_count(CFG4, w, a, b) for w in orc.u_k_points(F4, k)]
        assert se.count_sections(CFG4, a, b, k) == sum(parts) == total


def test_fiber_single_fiber_at_k0():
    w = (ZERO_DIVISOR,) * 4
    assert orc.fiber_count(CFG3, w, 1, 1) == se.count_sections(CFG3, 1, 1, (0, 0, 0, 0))


def test_fiber_raw_agreement():
    w = (divisor([(orc.rational_point(F3, 0), 1)]), ZERO_DIVISOR, ZERO_DIVISOR, ZERO_DIVISOR)
    assert orc.fiber_count(CFG3, w, 1, 1) == orc.fiber_count_raw(CFG3, w, 1, 1)


def test_fiber_overlapping_supports_rejected():
    pt = divisor([(orc.rational_point(F3, 0), 1)])
    with pytest.raises(ValueError, match="share support"):
        orc.fiber_count(CFG3, (pt, pt, ZERO_DIVISOR, ZERO_DIVISOR), 2, 2)


def test_fiber_bound_structure_theorem():
    # fibers are open in a P^{2a+1-sum k} x P^{2b+1-sum k} bundle over U_k
    # (the +1 exponents; see the decisions ledger), valid in the regime
    # 2a - sum k >= 0 <= 2b - sum k
    def npro(q, n):
        return 0 if n < 0 else (q ** (n + 1) - 1) // (q - 1)

    for cfg, a, b, k in ((CFG3, 1, 1, (0, 0, 0, 0)), (CFG3, 2, 2, (1, 0, 0, 0)),
                         (CFG4, 1, 2, (1, 1, 0, 0)), (CFG3, 0, 0, (0, 0, 0, 0))):
        q = cfg.field.q
        sk = sum(k)
        bound = (q - 1) ** 2 * npro(q, 2 * a + 1 - sk) * npro(q, 2 * b + 1 - sk)
        for w in orc.u_k_points(cfg.field, k):
            assert orc.fiber_count(cfg, w, a, b) <= bound


# ---------------------------------------------------------------------------
# the PGL_2 reparametrisation behind the orbit-reduced join

def _invertible(q):
    K = field_of_order(q)
    return st.sampled_from([g for g in itertools.product(range(q), repeat=4)
                            if K.sub(K.mul(g[0], g[3]), K.mul(g[1], g[2]))])


def _shape(d):
    return sorted((pt.degree, m) for pt, m in d.entries)


def test_degree_table_is_the_degree_of_the_meet():
    for K in (F3, F4):
        for ds, dt in itertools.product(range(3), repeat=2):
            S, T = se._inventory(K, ds), se._inventory(K, dt)
            tab = se._degree_table(K, ds, dt)
            assert tab[:-1, :-1].tolist() == [[orc.divisor_min(x, y).degree for y in T]
                                               for x in S]
            # a zero form passes the other side through; two meet in 0
            assert (tab[:-1, -1] == ds).all() and (tab[-1, :-1] == dt).all()
            assert tab[-1, -1] == 0


def test_form_divisor_table_is_the_factoring_oracle():
    for q, degree in [(q, d) for q in (3, 4, 5) for d in range(4)] + [(4, 4)]:
        K = field_of_order(q)
        ids = {d: i for i, d in enumerate(se._inventory(K, degree))}
        forms = itertools.product(range(q), repeat=degree + 1)
        # codes are little-endian digits: the first coefficient varies fastest
        expected = [ids[orc.divisor_of_form(K, f[::-1])] if any(f) else len(ids)
                    for f in forms]
        assert se._form_divisor_ids(K, degree).tolist() == expected, (q, degree)


def test_side_has_one_quadruple_per_projective_pair():
    # for degree d >= 1, the divisors of lambda_0(s), lambda_1(s) and
    # lambda_2(s) fix s up to a scalar: the full side's q^(2d-1) (q^2 - 1)
    # columns, each standing for q-1 pairs, are distinct.  At degree 0 it
    # has one column per point of P^1(F_q).  So the quadruple count grows
    # with the degree, and the join's reduced side is the one of larger
    # degree
    for cfg in (CFG3, CFG4, CFG5):
        q = cfg.field.q
        for degree, side in itertools.product(range(4), "st"):
            cols = se._full_side(cfg, side, degree)
            assert cols.dtype == np.uint16
            if degree:
                assert cols.shape[1] == q ** (2 * degree - 1) * (q * q - 1)
                assert np.unique(cols, axis=1).shape[1] == cols.shape[1]
            else:
                assert cols.shape[1] == q + 1


def _tallied_full_side(cfg, side, degree):
    # the full side's columns tallied as a side summary, q-1 pairs each
    base = se._key_base(cfg.field, degree)
    keys, n = np.unique(se._encode(se._full_side(cfg, side, degree), base), return_counts=True)
    return se._decode(keys, base), n * (cfg.field.q - 1)


def _unfiltered_rows(cfg, side, degree):
    # _fundamental_rows, uncached, under the trivial group of centre
    # permutations: every PGL_2 orbit representative with its orbit weight
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(se, "_centre_symmetries", lambda cfg: np.arange(4)[None])
        return se._fundamental_rows.__wrapped__(cfg, side, degree)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_side_orbits_equal_the_canonicalised_full_summary(q):
    # the reduced side, unfiltered, against the summary canonicalised over
    # PGL_2, and the full side's columns, tallied, against the summary
    cfg = sf.default_config(q)
    cases = list(itertools.product(range(4), "st")) + ([(4, "s"), (4, "t")] if q == 4 else [])
    for degree, side in cases:
        reps, totals = _unfiltered_rows(cfg, side, degree)
        keys, weights = orc.side_orbits(cfg, side, degree)
        assert reps.tolist() == keys.tolist(), (degree, side)
        assert totals.tolist() == weights.tolist(), (degree, side)
        comp, weights = _tallied_full_side(cfg, side, degree)
        ref, ref_weights = orc.side_summary(cfg, side, degree)
        assert comp.tolist() == ref.tolist(), (degree, side)
        assert weights.tolist() == ref_weights.tolist(), (degree, side)


def test_orbit_reduction_q4():
    # the 245,760 divisor quadruples of degree-4 pairs over F_4 fall into
    # 4,336 orbits of PGL_2(F_4), a group of order 60
    cols = se._full_side(CFG4, "s", 4)
    reps, totals = _unfiltered_rows(CFG4, "s", 4)
    assert (cols.shape[1], reps.shape[1]) == (245760, 4336)
    assert int(totals.sum()) == cols.shape[1] * 3 == _coprime_pairs(4, 4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([3, 4, 5]), degree=st.integers(0, 3),
       other=st.integers(0, 3), data=st.data())
def test_pullback_permutation_fixes_the_side_summaries(q, degree, other, data):
    cfg = sf.default_config(q)
    K = cfg.field
    g = data.draw(_invertible(q))
    perm = se._pullback_perm(K, degree, g)
    divs = se._inventory(K, degree)
    m = len(divs)
    # a bijection of the divisor ids that fixes the zero sentinel and keeps
    # each divisor's shape, hence its degree
    assert sorted(perm) == list(range(m + 1)) and perm[m] == m
    assert all(_shape(divs[perm[i]]) == _shape(divs[i]) for i in range(m))
    # it lies in the closure of the generators, which is all of PGL_2(F_q)
    group = se._pgl2_perms(K, degree)
    assert any((row == perm).all() for row in group)
    assert len(group) == (q ** 3 - q if degree else 1)
    # the same g keeps every contact degree against any other degree
    other_perm = se._pullback_perm(K, other, g)
    tab = se._degree_table(K, degree, other)
    assert (tab[perm][:, other_perm] == tab).all()
    # and carries each side summary onto itself with equal weights
    for side in "st":
        comp, weights = orc.side_summary(cfg, side, degree)
        keys = se._encode(comp, m + 1)       # ascending: the summary is sorted
        moved = se._encode(perm[comp], m + 1)
        order = np.argsort(moved)
        assert (moved[order] == keys).all()
        assert (weights[order] == weights).all()


# ---------------------------------------------------------------------------
# the centre permutations behind the fundamental-domain join

V4 = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}


def _custom_config():
    # the first certified q = 7 surface, by search, whose centre permutations
    # are neither V_4 nor those of the default q = 7 surface
    K = field_of_order(7)
    points = [(c, 1) for c in range(7)] + [(1, 0)]
    usual = {4, len(se._centre_symmetries(sf.default_config(7)))}
    for first in itertools.combinations(points, 4):
        for second in itertools.permutations(points, 4):
            try:
                cfg = sf.validate_points(K, list(zip(first, second)))
            except OnBidegreeCurve:
                continue
            if len(se._centre_symmetries(cfg)) not in usual:
                return cfg
    raise AssertionError("no such surface")  # pragma: no cover


CUSTOM = _custom_config()


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13])
def test_centre_symmetries_form_a_group_containing_v4(q):
    group = {tuple(sigma) for sigma in se._centre_symmetries(sf.default_config(q)).tolist()}
    assert V4 <= group
    assert all(tuple(x[i] for i in y) in group for x in group for y in group)
    assert len(group) == {3: 24, 4: 12, 5: 4}.get(q, len(group))


@pytest.mark.parametrize("cfg", [CFG3, CFG4, CFG5, sf.default_config(7), CUSTOM])
def test_centre_symmetries_are_the_moebius_realisable_permutations(cfg):
    group = se._centre_symmetries(cfg)
    assert group[0].tolist() == [0, 1, 2, 3]
    assert {tuple(sigma) for sigma in group.tolist()} == orc.centre_symmetries(cfg)


@pytest.mark.parametrize("cfg", [CFG3, CFG4, CFG5, CUSTOM])
def test_centre_symmetries_fix_the_side_summaries(cfg):
    # composing a section with the Moebius map that realises sigma permutes
    # its four composite divisors, so each side summary is carried onto
    # itself with equal weights
    for degree, side in itertools.product(range(3 if cfg is CUSTOM else 4), "st"):
        comp, weights = orc.side_summary(cfg, side, degree)
        base = se._key_base(cfg.field, degree)
        keys = se._encode(comp, base)       # ascending: the summary is sorted
        for sigma in se._centre_symmetries(cfg):
            moved = se._encode(comp[sigma], base)
            order = np.argsort(moved)
            assert (moved[order] == keys).all(), (degree, side, sigma)
            assert (weights[order] == weights).all()


def _unfiltered_sides(cfg, a, b):
    # every PGL_2 orbit representative of the larger side, with no centre
    # symmetry, and the other side's columns, q-1 pairs each
    big, small = ("s", "t") if a >= b else ("t", "s")
    high, low = max(a, b), min(a, b)
    return (*_unfiltered_rows(cfg, big, high), se._full_side(cfg, small, low),
            se._degree_table(cfg.field, high, low), high + 1)


def _unfiltered_join(cfg, a, b):
    rows, row_w, cols, tab, base = _unfiltered_sides(cfg, a, b)
    col_w = np.full(cols.shape[1], cfg.field.q - 1)
    return orc.join_histogram(rows, row_w, cols, col_w, tab, base)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_fundamental_domain_join_equals_the_unfiltered_join(q):
    cfg = sf.default_config(q)
    for a, b in itertools.product(range(4), repeat=2):
        assert (se._contact_histogram(cfg, a, b) == _unfiltered_join(cfg, a, b)).all(), (a, b)


def test_fundamental_domain_join_on_a_custom_surface():
    # A_4, where the default q = 7 surface has V_4
    assert len(se._centre_symmetries(CUSTOM)) == 12
    for a, b in itertools.product(range(4), repeat=2):
        if a + b <= 4:
            assert (se._contact_histogram(CUSTOM, a, b) == _unfiltered_join(CUSTOM, a, b)).all(), (a, b)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("columns_per_pass", ["one", "all"])
def test_join_is_the_reference_at_any_pass_size(q, columns_per_pass, monkeypatch):
    # the pass cap bounds memory only: one column per pass, or every column
    # in one pass, gives the reference histogram
    cfg = sf.default_config(q)
    for a, b in itertools.product(range(4), repeat=2):
        rows, row_w, cols, tab, base = _unfiltered_sides(cfg, a, b)
        cap = 1 if columns_per_pass == "one" else rows.shape[1] * cols.shape[1] + 1
        monkeypatch.setattr(se, "JOIN_PASS", cap)
        hist = se._join(rows, row_w, cols, [tab] * 4, base, np.arange(4)[None])
        assert (hist * (q - 1) == _unfiltered_join(cfg, a, b)).all(), (a, b)


def test_encode_widens_uint16_ids():
    # at q = 4, degree 4 the base is 342 and base^2 > 2^16: under NumPy 2 a
    # uint16 array times a Python int stays uint16 and would wrap
    base = se._key_base(CFG4.field, 4)
    rows, _ = _unfiltered_rows(CFG4, "s", 4)
    assert base == 342 and rows.dtype == np.uint16
    assert (se._encode(rows, base) == se._encode(rows.astype(np.int64), base)).all()


def test_join_holds_one_small_pass_at_a_time():
    # with the sides prebuilt, the (3, 3) join at q = 4 (35 rows x 15,360
    # columns) holds its keys a capped pass at a time, not all at once
    se._join_sides(CFG4, 3, 3)
    se._centre_symmetries(CFG4)
    tracemalloc.start()
    try:
        se._contact_histogram.__wrapped__(CFG4, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_fundamental_rows_never_hold_the_unfiltered_side():
    # with the PGL_2 tables prebuilt, the degree-7 side at q = 3 is filtered
    # to the fundamental domain a first divisor's block at a time (9.7 MB
    # traced); tallying the whole unfiltered side before filtering it
    # peaked at 57 MB
    cfg = sf.default_config(3)
    se._first_divisors(cfg.field, 7)
    se._centre_symmetries(cfg)
    tracemalloc.start()
    try:
        se._fundamental_rows.__wrapped__(cfg, "s", 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_fundamental_domain_keeps_the_orbit_weight():
    # the kept rows' weights still sum to the side's coprime pairs, and the
    # degree-4 side at q = 4 keeps 407 of its 4,336 orbit rows under A_4
    for cfg in (CFG3, CFG4, CFG5, CUSTOM):
        q = cfg.field.q
        for degree, side in itertools.product(range(1, 4), "st"):
            rows, weights = se._fundamental_rows(cfg, side, degree)
            assert int(weights.sum()) == _coprime_pairs(q, degree)
    sizes = [se._fundamental_rows(CFG4, "s", d)[0].shape[1] for d in (2, 3, 4)]
    assert sizes == [4, 35, 407]


# ---------------------------------------------------------------------------
# marking independence via the explicit elementary transform

@pytest.mark.parametrize("q", [4, 5])
def test_marking_independence(q):
    cfg = sf.default_config(q)
    cfg2, newinv = orc.remark_config(cfg, 2, 3)
    for (a, b, k) in ((1, 1, (0, 0, 0, 0)), (1, 3, (1, 1, 1, 1))):
        a2, b2, k2 = newinv(a, b, k)
        assert se.count_sections(cfg2, a2, b2, k2) == se.count_sections(cfg, a, b, k)


def test_remark_q3_degenerate_collapses():
    # the flagged q=3 surface is a weak del Pezzo; its -2-curve lands in a
    # ruling fiber of the new model, so two centers share a second coordinate
    from dp4sieve.errors import CoincidentSecondCoords

    with pytest.raises(CoincidentSecondCoords):
        orc.remark_config(CFG3, 2, 3)


# ---------------------------------------------------------------------------
# nonemptiness for small nef classes (irreducibility shadow)
#
# The moduli spaces are geometrically irreducible of the expected dimension,
# but that does not force rational points at desk-scale q.  Three verified
# mechanisms empty them:
#
# * over F_3 the four first coordinates and the four second coordinates each
#   exhaust P^1(F_3), so both ruling classes (a, 0, 0) and (0, b, 0) are
#   empty: the constant coordinate always sits at some center, whose contact
#   then picks up the full degree of the other side;
# * the anticanonical class, which sits on the ell = 0 locus where the sieve
#   has no stable range, is empty at q = 3, 4 and 5 alike;
# * the flagged F_3 configuration has its centers (p_i, p_i) on the diagonal,
#   whose strict transform C = F + F' - sum E_i is a (-2)-curve with
#   h(C) = 0.  A section pair (s, t) off the diagonal gives the nonzero form
#   s0*t1 - s1*t0 of degree a + b, which vanishes on each of the four
#   disjoint contact divisors, so a + b >= sum k_i, i.e. alpha.C >= 0.
#   Classes with alpha.C < 0 therefore carry no morphisms, although the nef
#   test, which only sees the 16 lines, admits them.
#
# The tests pin the true emptiness pattern instead of the blanket claim.

@pytest.mark.parametrize("q", [4, 5])
def test_nonempty_small_nef_classes_except_anticanonical(q):
    from dp4sieve import nslattice as ns

    cfg = sf.default_config(q)
    budget = 2 ** 60
    empty = []
    for alpha in ns.enumerate_nef_points(4):
        if se.count_morphisms(cfg, alpha.a, alpha.b, alpha.k, budget=budget) == 0:
            empty.append((alpha.a, alpha.b, alpha.k))
    assert empty == [(2, 2, (1, 1, 1, 1))]  # exactly -K


def test_nonempty_pattern_q3():
    from dp4sieve import nslattice as ns

    cfg = sf.default_config(3)
    C = ns.F.add(ns.FPRIME)
    for e in ns.E:
        C = C.add(e.scale(-1))
    assert ns.intersect(C, C) == -2 and C.h == 0
    classes = ns.enumerate_nef_points(4)
    inside = 0
    empty = set()
    for alpha in classes:
        c = se.count_morphisms(cfg, alpha.a, alpha.b, alpha.k)
        if (alpha.h <= 4 and ns.ell_functional(alpha) * 2 >= alpha.h
                and ns.intersect(alpha, C) >= 0):
            # comfortably inside the cone and off the (-2)-curve's shadow:
            # never empty, even over F_3
            assert c > 0, (alpha.a, alpha.b, alpha.k)
            inside += 1
        if c == 0:
            empty.add((alpha.a, alpha.b, alpha.k))
    assert inside == 28
    # at least two thirds of the classes carry curves even over F_3
    assert (len(classes) - len(empty)) * 3 >= 2 * len(classes)

    # the emptiness pattern in both directions: exactly the C-negative
    # classes, the two rulings and -K
    c_negative = {(x.a, x.b, x.k) for x in classes if ns.intersect(x, C) < 0}
    rulings = {(x.a, x.b, x.k) for x in classes if (x.a == 0) != (x.b == 0)}
    anticanonical = {(2, 2, (1, 1, 1, 1))}
    assert (len(c_negative), len(rulings)) == (21, 4)
    assert empty == c_negative | rulings | anticanonical


def test_c_negative_zero_is_not_a_join_artifact_q3():
    # the brute-force oracle agrees that C-negative classes are empty on the
    # flagged F_3 surface (alpha.C = 2 + 1 - 4 = -1 for both)
    for a, b in ((2, 1), (1, 2)):
        assert orc.count_sections_raw(CFG3, a, b, (1, 1, 1, 1)) == 0
        assert se.count_sections(CFG3, a, b, (1, 1, 1, 1)) == 0
