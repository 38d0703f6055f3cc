import math
from fractions import Fraction

import pytest
from oracles import (
    IDENTITY_MARKING,
    ZERO_CLASS,
    classes_with,
    count_nef_points,
    marking_invariants,
    marking_slacks,
    searched_first_marking_by_pair,
    searched_markings,
    sum_classes,
)

from dp4sieve import nslattice as ns
from dp4sieve.errors import NotNef
from dp4sieve.linalg import QQ, det, solve


def test_gram_entries():
    assert ns.intersect(ns.F, ns.FPRIME) == 1
    assert ns.intersect(ns.F, ns.F) == 0
    assert ns.intersect(ns.FPRIME, ns.FPRIME) == 0
    for i in range(4):
        assert ns.intersect(ns.F, ns.E[i]) == 0
        assert ns.intersect(ns.FPRIME, ns.E[i]) == 0
        for j in range(4):
            assert ns.intersect(ns.E[i], ns.E[j]) == (-1 if i == j else 0)


def test_anticanonical_degree_four():
    K = ns.ANTICANONICAL
    assert ns.intersect(K, K) == 4
    assert ns.F.h == 2  # a=0, b=1, k=0 gives 2a+2b-sum(k) = 2


def test_signature():
    # Sylvester's law of inertia: F + F', F - F', E1..E4 are a basis over QQ,
    # pairwise orthogonal, with self-intersections 2, -2, -1, -1, -1, -1
    basis = [ns.F.add(ns.FPRIME), ns.F.add(ns.FPRIME.scale(-1))] + list(ns.E)
    assert det(QQ, [x.coords for x in basis]) != 0
    gram = [[ns.intersect(x, y) for y in basis] for x in basis]
    assert all(gram[i][j] == 0 for i in range(6) for j in range(6) if i != j)
    diag = [gram[i][i] for i in range(6)]
    assert diag == [2, -2, -1, -1, -1, -1]
    assert (sum(d > 0 for d in diag), sum(d < 0 for d in diag)) == (1, 5)


def test_minus_one_classes():
    classes = ns.minus_one_classes()
    assert len(classes) == 16
    assert ns.E[0] in classes
    f_minus_e1 = ns.F.add(ns.E[0].scale(-1))
    assert ns.intersect(f_minus_e1, f_minus_e1) == -1
    assert f_minus_e1 in classes
    # closed under permuting E1..E4 and swapping F <-> F'
    def permute(L, perm):
        c = L.coords
        return ns.CurveClass((c[0], c[1]) + tuple(c[2 + p] for p in perm))
    def swap(L):
        c = L.coords
        return ns.CurveClass((c[1], c[0]) + c[2:])
    as_set = set(classes)
    for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (1, 2, 3, 0)):
        assert {permute(L, perm) for L in classes} == as_set
    assert {swap(L) for L in classes} == as_set


def test_box_certificate_wider_box_finds_nothing_new():
    # widen the search box by one in every coordinate; the solution set of
    # the quadratic constraints must not change
    from itertools import product
    extra = []
    for x in range(-3, 4):
        for xp in range(-3, 4):
            for ys in product(range(-2, 3), repeat=4):
                L = ns.CurveClass((x, xp) + ys)
                if ns.intersect(L, L) == -1 and ns.intersect(ns.ANTICANONICAL, L) == 1:
                    extra.append(L)
    assert sorted(extra) == sorted(ns.minus_one_classes())


def test_closed_forms_equal_the_certified_searches():
    # the sixteen lines, the ten conics, the 40 fiber pairs, the least
    # marking on each pair and all 1920 markings, against the box searches
    assert ns.minus_one_classes() == classes_with(-1, 1)
    assert ns.conic_classes() == classes_with(0, 2)
    searched = searched_first_marking_by_pair()
    assert ns.marking_fiber_pairs() == tuple(sorted(searched))
    assert ns._first_marking_by_pair() == searched
    assert ns.enumerate_markings() == searched_markings()


def test_pipeline_never_enumerates_markings():
    for fn in (ns.enumerate_markings, ns.marking_fiber_pairs, ns._first_marking_by_pair,
               ns.conic_classes, ns.minus_one_classes):
        fn.cache_clear()
    cone = ns.ShrunkenCone(epsilon=Fraction(1, 10))
    for alpha in ns.enumerate_nef_points(6):
        ns.choose_marking(alpha)
        cone.contains(alpha)
    assert ns.enumerate_markings.cache_info().misses == 0


def test_is_nef():
    assert ns.is_nef(ns.F)
    assert not ns.is_nef(ns.E[0])  # E1.E1 = -1
    assert ns.is_nef(ns.ANTICANONICAL)


def test_enumerate_nef_points():
    assert ns.enumerate_nef_points(0) == [ZERO_CLASS]
    pts2 = ns.enumerate_nef_points(2)
    assert ns.F in pts2 and ns.FPRIME in pts2
    counts = [len(ns.enumerate_nef_points(d)) for d in range(6)]
    assert counts == sorted(counts)
    assert counts == [count_nef_points(d) for d in range(6)]


def test_markings():
    mks = ns.enumerate_markings()
    assert IDENTITY_MARKING in mks
    assert len(mks) == 1920
    for mk in mks:
        assert ns.intersect(mk.f, mk.fp) == 1
        assert ns.intersect(mk.f, mk.f) == 0
        for i, ei in enumerate(mk.e):
            assert ns.intersect(mk.f, ei) == 0 and ns.intersect(mk.fp, ei) == 0
            for j, ej in enumerate(mk.e):
                assert ns.intersect(ei, ej) == (-1 if i == j else 0)
        total = mk.f.scale(2).add(mk.fp.scale(2)).add(sum_classes(mk.e).scale(-1))
        assert total == ns.ANTICANONICAL
    # stable under permuting e1..e4
    sample = mks[7]
    permuted = ns.Marking(f=sample.f, fp=sample.fp, e=sample.e[::-1])
    assert permuted in mks


def test_choose_marking_examples():
    # alpha = F + F': identity marking slack 2 on both sides
    alpha = ns.F.add(ns.FPRIME)
    mk = ns.choose_marking(alpha)
    assert min(marking_slacks(mk, alpha)) == 2
    # alpha = -K: all markings give slack 0
    mk = ns.choose_marking(ns.ANTICANONICAL)
    assert marking_slacks(mk, ns.ANTICANONICAL) == (0, 0)
    # alpha = 0
    assert marking_slacks(ns.choose_marking(ZERO_CLASS), ZERO_CLASS) == (0, 0)
    with pytest.raises(NotNef):
        ns.choose_marking(ns.E[0])


def test_lemma_marking_nonnegative_up_to_h10():
    for alpha in ns.enumerate_nef_points(10):
        mk = ns.choose_marking(alpha)
        s1, s2 = marking_slacks(mk, alpha)
        assert s1 >= 0 and s2 >= 0
        # h computed two ways
        a, b, k = marking_invariants(mk, alpha)
        assert alpha.h == 2 * a + 2 * b - sum(k)


def test_ell_functional():
    assert ns.ell_functional(ZERO_CLASS) == 0
    alpha = ns.F.add(ns.FPRIME)
    assert ns.ell_functional(alpha) == 2
    for beta in ns.enumerate_nef_points(6)[::7]:
        assert ns.ell_functional(beta.scale(2)) == 2 * ns.ell_functional(beta)
        # ell is at least the identity-marking min slack
        assert ns.ell_functional(beta) >= min(marking_slacks(IDENTITY_MARKING, beta))


def test_shrunken_cone_checks_nefness_once(monkeypatch):
    calls = []
    is_nef = ns.is_nef
    monkeypatch.setattr(ns, "is_nef", lambda alpha: calls.append(alpha) or is_nef(alpha))
    cone, alpha = ns.ShrunkenCone(epsilon=Fraction(1, 8)), ns.F.add(ns.FPRIME)
    assert cone.contains(alpha)
    assert not cone.contains(ns.E[0])
    assert calls == [alpha, ns.E[0]]
    with pytest.raises(NotNef):
        ns.ell_functional(ns.E[0])


def test_shrunken_cone_membership_monotone_in_epsilon():
    big = ns.ShrunkenCone(epsilon=Fraction(1, 10))
    small = ns.ShrunkenCone(epsilon=Fraction(1, 2))
    pts = ns.enumerate_nef_points(6)
    n_big = sum(1 for p in pts if big.contains(p))
    n_small = sum(1 for p in pts if small.contains(p))
    assert n_small <= n_big <= len(pts)


def test_every_epsilon_from_1_on_shrinks_the_cone_to_zero():
    # f.alpha and f'.alpha vanish together only on the negative-definite
    # span of the contracted lines, so a nonzero nef class has ell <= h - 2:
    # for epsilon >= 1 the shrunken cone is {0}, whatever epsilon
    pts = ns.enumerate_nef_points(10)
    assert len(pts) == 3621
    assert all(ns.ell_functional(x) <= x.h - 2 for x in pts if x.h)
    cone = ns.ShrunkenCone(epsilon=Fraction(1))
    assert [x.h for x in pts if cone.contains(x)] == [0]


def _reflect(x, r):
    """The reflection x -> x + (x.r) r in a root r (r.r = -2)."""
    return x.add(r.scale(ns.intersect(x, r)))


def test_simple_roots_form_a_simple_system():
    roots = classes_with(-2, 0)
    assert len(roots) == 40
    simple = ns.SIMPLE_ROOTS
    assert all(r in roots for r in simple)
    cartan = [[ns.intersect(s, t) for t in simple] for s in simple]
    for r in roots:
        coeffs = solve(QQ, cartan, [ns.intersect(s, r) for s in simple])
        assert all(c.denominator == 1 for c in coeffs)
        combo = ZERO_CLASS
        for c, s in zip(coeffs, simple):
            combo = combo.add(s.scale(int(c)))
        assert combo == r
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)


def test_simple_reflections_generate_w_d5_on_the_lines():
    lines = ns.minus_one_classes()
    index = {L: i for i, L in enumerate(lines)}
    gens = []
    for r in ns.SIMPLE_ROOTS:
        assert _reflect(ns.ANTICANONICAL, r) == ns.ANTICANONICAL
        gens.append(tuple(index[_reflect(L, r)] for L in lines))
    group = {tuple(range(len(lines)))}
    frontier = list(group)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                gs = tuple(s[i] for i in g)
                if gs not in group:
                    group.add(gs)
                    new.append(gs)
        frontier = new
    assert len(group) == ns.WEYL_ORDER == len(ns.enumerate_markings()) == 1920


def test_chamber_rays_are_nef_in_the_chamber_at_level_one():
    rays = [ns.CurveClass(ray) for ray in ns.chamber_rays()]
    assert len(set(rays)) == ns.RANK
    for ray in rays:
        assert ns.is_nef(ray)
        assert all(ns.intersect(ray, r) >= 0 for r in ns.SIMPLE_ROOTS)
        assert ray.h == 1


def test_nef_cone_volume_value():
    # 1920 times the chamber simplex volume 1/2073600; a vertex enumeration
    # of the full 17-inequality polytope gives the same value, and a
    # 2e7-point Monte Carlo estimate 0.0009248 agrees (rel err ~1e-3)
    assert ns.nef_cone_volume_level1() == Fraction(1, 1080)


def test_ehrhart_gap_decreases():
    vol = float(ns.nef_cone_volume_level1())
    gaps = []
    for d in (10, 20, 30):
        c = count_nef_points(d)
        gaps.append(abs(c / d ** 6 - vol) / vol)
    assert gaps[2] < gaps[1] < gaps[0]


def test_ehrhart_sixth_difference_is_the_volume():
    # c(d) = #{nef classes with h <= d} is a quasi-polynomial of period 6
    # with constant leading coefficient vol d^6, so j -> c(6j) is a
    # polynomial of degree 6 in j with leading coefficient 6^6 vol, and its
    # sixth difference is 6! 6^6 vol = 31104.  (The lower coefficients are
    # large, so c(d) / d^6 is still ~62% from vol at d = 30.)
    diff = sum((-1) ** (6 - j) * math.comb(6, j) * count_nef_points(6 * j) for j in range(7))
    assert diff == math.factorial(6) * 6 ** 6 * ns.nef_cone_volume_level1() == 31104
