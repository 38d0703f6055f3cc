import itertools
import random
from fractions import Fraction

import numpy as np
import oracles as orc
import pytest

from dp4sieve import euler as eu
from dp4sieve import sieve as sv
from dp4sieve.field import count_closed_points, make_field
from dp4sieve.surface import default_config
from oracles import ZERO_DIVISOR, divisor, rational_point

K3 = make_field(3)
K5 = make_field(5)
L16 = orc.LATTICE
W = [(i, i) for i in range(4)]
ZERO = L16.index(("zero", "zero"))


def test_lattice_shapes():
    assert len(L16.elements) == 16
    assert sorted(L16.coranks) == [0] + [2] * 6 + [3] * 8 + [4]


def test_meet_examples():
    # containment, transverse planes, the top element
    def meet(p, q):
        return L16.elements[L16.meet_idx[L16.index(p)][L16.index(q)]]

    assert meet(W[0], (0, "zero")) == (0, "zero")
    assert meet(W[0], W[1]) == ("zero", "zero")
    assert meet(W[0], ("full", "full")) == W[0]


def test_meet_table_properties():
    n, meet = len(L16.elements), L16.meet_idx
    for i in range(n):
        assert meet[i][i] == i
        for j in range(n):
            assert meet[i][j] == meet[j][i]
            assert L16.coranks[meet[i][j]] >= max(L16.coranks[i], L16.coranks[j])
            for k in range(n):
                assert meet[meet[i][j]][k] == meet[i][meet[j][k]]


def test_saturated_conditions_of_depth_one_are_the_short_chains():
    # every 0/1 multiplicity assignment on the non-top elements (the top
    # carries infinity, here 1): the monotone, meet-closed ones are exactly
    # the images of the 16 chains of depth <= 1
    n, top = len(L16.elements), L16.top
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    m = np.insert(bits, top, 1, axis=1).astype(np.int8)
    meet = np.array(L16.meet_idx)
    leq = meet == np.arange(n)[:, None]
    monotone = ~((m[:, :, None] > m[:, None, :]) & leq).any(axis=(1, 2))
    meet_closed = (m[:, meet] == np.minimum(m[:, :, None], m[:, None, :])).all(axis=(1, 2))
    kept = {tuple(row) for row in np.delete(m[monotone & meet_closed], top, axis=1).tolist()}
    chains = [()] + [(e,) for e in L16.nontop]
    assert kept == {orc.chain_condition(ch) for ch in chains} and len(kept) == 16

    def ones(*elems):
        return tuple(int(L16.elements[e] in elems) for e in L16.nontop)

    # two transverse planes without their meet, and a line without its plane
    assert ones(W[0], W[1]) not in kept and ones((0, "zero")) not in kept
    assert ones(W[0]) in kept
    assert orc.condition_gamma((orc.PLANE, orc.PLANE)) == 4  # two levels of corank 2


def test_levelwise_order_is_the_pointwise_multiplicity_order():
    shapes = orc._local_shapes(3)
    assert len(shapes) == 152
    mults = {s: orc.chain_condition(s) for s in shapes}
    assert len(set(mults.values())) == len(shapes)
    for lo, hi in itertools.product(shapes, shapes):
        assert orc.condition_leq(lo, hi) == all(a <= b for a, b in zip(mults[lo], mults[hi]))


def test_gamma_examples():
    assert orc.gamma(orc.empty_configuration()) == 0
    # x_w has gamma = 2 sum k_i
    w = (divisor([(rational_point(K3, 0), 1)]),
         divisor([(rational_point(K3, 1), 2)]), ZERO_DIVISOR, ZERO_DIVISOR)
    xw = orc.config_from_divisor_tuple(w)
    assert orc.gamma(xw) == 2 * 3
    # a rational point at the zero element imposes four conditions
    x = orc.configuration([(rational_point(K3, 0), (ZERO,))])
    assert orc.gamma(x) == 4


def test_mobius_base_cases():
    w = orc.empty_configuration()
    assert orc.mobius(w, w) == 1
    # two-element interval: a covering pair has mu = -1
    x = orc.configuration([(rational_point(K3, 0), (orc.PLANE,))])
    assert orc.mobius(w, x) == -1
    with pytest.raises(ValueError, match="not below"):
        y = orc.configuration([(rational_point(K3, 1), (L16.index(W[1]),))])
        orc.mobius(x, y)


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_crosscut_local_poly_matches_definition(deg):
    # the closed forms against the Moebius recursion over every local
    # interval, budgets <= 6: at degree 1 every tau up to six levels above
    # the empty base and the plane bases of depth 1-3; at degrees 2 and 3
    # the plane bases up to depth 6, where num_{d,m} is the depth-1 form
    # padded
    for depth in range(4 if deg == 1 else 7):
        terms = sv.local_poly(3, deg, depth)
        assert max(terms) <= 6
        assert tuple(terms.get(e, 0) for e in range(7)) == \
            orc.local_poly_by_definition(3, deg, (orc.PLANE,) * depth, 6)


def test_mobius_multiplicative_matches_recursive_seeded():
    # Fifty pseudo-random multi-point configurations, fixed seed: the
    # product of local interval values equals the generic recursion.
    rnd = random.Random(20240817)
    pts = [rational_point(K3, i) for i in range(3)] + [rational_point(K5, 0)]
    shapes = orc._local_shapes(2)
    checked = 0
    while checked < 50:
        n_pts = rnd.randint(1, 3)
        chosen = rnd.sample(pts[:3], n_pts)
        his, los = [], []
        for pt in chosen:
            hi = rnd.choice([s for s in shapes if s])
            lo = rnd.choice(orc._conditions_between((), hi))
            his.append((pt, hi))
            los.append((pt, lo))
        x = orc.configuration(his)
        w = orc.configuration(los)
        if not orc.config_leq(w, x):
            continue
        assert orc.mobius(w, x) == orc.mobius_recursive(w, x)
        checked += 1


def test_mobius_recursion_sums_vanish():
    # sum over [w, x] of mu(w, y) = 0 for every x > w, over every interval
    # of excess <= 2 above the empty base
    w = orc.empty_configuration()
    for x in orc.enumerate_configs_above((ZERO_DIVISOR,) * 4, 2, K3)[:60]:
        if not x.data:
            continue
        total = sum(orc.mobius(w, y) for y in orc.interval(w, x))
        assert total == 0


def test_gamma_additive_over_disjoint_supports():
    c1 = (orc.PLANE,)
    c2 = (L16.index(W[2]),) * 2
    x1 = orc.configuration([(rational_point(K3, 0), c1)])
    x2 = orc.configuration([(rational_point(K3, 1), c2)])
    both = orc.configuration(list(x1.data + x2.data))
    assert orc.gamma(both) == orc.gamma(x1) + orc.gamma(x2)


def test_enumerate_configs_above():
    w0 = (ZERO_DIVISOR,) * 4
    assert len(orc.enumerate_configs_above(w0, 0, K3)) == 1
    w1 = (divisor([(rational_point(K3, 0), 1)]), ZERO_DIVISOR, ZERO_DIVISOR, ZERO_DIVISOR)
    only = orc.enumerate_configs_above(w1, 0, K3)
    assert len(only) == 1
    assert only[0].data == orc.config_from_divisor_tuple(w1).data
    # one unit of excess: one configuration per (rational point, depth-1 shape)
    got16 = orc.enumerate_configs_above(w0, 1, K3)
    assert len(got16) == 1 + 4 * 15


def test_stable_range_formula():
    assert sv.stable_range_I(10, 10, (0, 0, 0, 0)) == 2
    assert sv.stable_range_I(0, 0, (0, 0, 0, 0)) == -1
    # raising the binding side by 4 raises I by one
    base = sv.stable_range_I(10, 30, (0, 0, 0, 0))
    assert sv.stable_range_I(14, 30, (0, 0, 0, 0)) == base + 1
    # the definition, floor(m / 8 - 1/2) in exact rationals
    for a, b, sk in itertools.product(range(13), range(13), range(49)):
        val = Fraction(min(2 * a + 1 - sk, 2 * b + 1 - sk), 8) - Fraction(1, 2)
        assert sv.stable_range_I(a, b, (sk, 0, 0, 0)) == val.numerator // val.denominator


def test_sieve_sum_base_cases():
    assert sv.sieve_sum(K3, (0, 0, 0, 0), 0) == [1]
    assert sv.sieve_sum(K3, (1, 0, 0, 0), 0) == [Fraction(4, 9)]
    # partials are reported so stabilization is observable
    partials = sv.sieve_sum(K5, (0, 0, 0, 0), 3)
    assert len(partials) == 4
    deltas = [abs(b - a) for a, b in zip(partials, partials[1:])]
    assert deltas[-1] < deltas[0]


def _sieve_partials_by_definition(K, k, D):
    """Partial sums over excess 0..D of mu(x_w, x) q^{-gamma(x)}, by direct
    enumeration of every w in U_k and every configuration x above x_w."""
    totals = [Fraction(0)] * (D + 1)
    for w in orc.u_k_points(K, k):
        base = orc.config_from_divisor_tuple(w)
        for x in orc.enumerate_configs_above(base, D, K):
            totals[orc.config_excess(base, x)] += Fraction(orc.mobius(base, x), K.q ** orc.gamma(x))
    return list(itertools.accumulate(totals))


@pytest.mark.parametrize("k, D", [
    ((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((1, 1, 0, 0), 1), ((2, 0, 0, 0), 1),
    ((0, 0, 1, 1), 1), ((0, 0, 0, 0), 2),
], ids=["k0-D1", "k1000-D1", "k1100-D1", "k2000-D1", "k0011-D1", "k0-D2"])
def test_sieve_sum_matches_definition(k, D):
    # (2,0,0,0) reaches depth 2 and a degree-2 contact point; (0,0,1,1)
    # puts contact on the last two components
    assert sv.sieve_sum(K3, k, D) == _sieve_partials_by_definition(K3, k, D)


def test_deep_truncation_skips_the_shape_scan():
    # k = 0 at D = 8, recorded from the
    # per-interval recursion; the product path scans no local shapes
    orc._local_shapes.cache_clear()
    sv._sieve_partials.cache_clear()
    partials = sv.sieve_sum(K3, (0, 0, 0, 0), 8)
    assert partials == [Fraction(v) for v in (
        "1", "-17/27", "128/729", "27136/177147", "424960/4782969",
        "35554688/387420489", "8575322368/94143178827",
        "236486874752/2541865828329", "6381765399296/68630377364883")]
    assert orc._local_shapes.cache_info().misses == 0


@pytest.mark.parametrize("k, D", [((2, 1, 1, 0), 2), ((0, 1, 2, 3), 1)])
def test_sieve_product_symmetric_in_contact_pattern(k, D):
    # the premise of the memo keyed on sorted k
    memo = sv._sieve_partials(3, tuple(sorted(k)), D)
    for perm in set(itertools.permutations(k)):
        assert sv._sieve_partials.__wrapped__(3, perm, D) == memo
        assert sv.sieve_sum(K3, perm, D) == list(memo)


def test_sieve_sum_rejects_negative_truncation():
    with pytest.raises(ValueError):
        sv.sieve_sum(K3, (0, 0, 0, 0), -1)


def test_sieve_sum_beyond_tuple_enumeration():
    # 40^4 candidate tuples, yet a product of 4^4 * 2 monomials
    partials = sv.sieve_sum(K3, (3, 3, 3, 3), 1)
    assert len(partials) == 2 and partials[0] > 0


def test_sieve_sum_leading_term_identity():
    # q^{2a+2b+4} sieve_sum(k, 0) = sum over w of #E_w, with #E_w from the
    # exact rank oracle
    cfg5 = default_config(5)
    a = b = 6
    for k in ((1, 0, 0, 0), (1, 1, 0, 0)):
        lhs = K5.q ** (2 * a + 2 * b + 4) * sv.sieve_sum(K5, k, 0)[0]
        rhs = 0
        for w in orc.u_k_points(K5, k):
            x = orc.config_from_divisor_tuple(w)
            rank = orc.gamma_rank_oracle(x, a, b, cfg5)
            rhs += K5.q ** (2 * a + 2 * b + 4 - rank)
        assert lhs == rhs


def test_sieve_sum_vs_euler_truncation():
    # k = 0, D = 4 at q = 5: within 10% of the finite product of the
    # explicit factor over points of degree <= 4
    s = sv.sieve_sum(K5, (0, 0, 0, 0), 4)[4]
    prod = Fraction(1)
    for d in (1, 2, 3, 4):
        u = Fraction(1, 5 ** d)
        prod *= (1 - 6 * u ** 2 + 8 * u ** 3 - 3 * u ** 4) ** count_closed_points(5, d)
    assert abs(s - prod) / prod < Fraction(1, 10)


def test_gamma_rank_oracle_small():
    cfg5 = default_config(5)
    x = orc.empty_configuration()
    assert orc.gamma_rank_oracle(x, 4, 4, cfg5) == 0
    # one rational point at the zero element at (a, b) = (4, 4): rank 4
    x = orc.configuration([(rational_point(K5, 2), (ZERO,))])
    assert orc.gamma(x) == 4
    assert orc.gamma_rank_oracle(x, 4, 4, cfg5) == 4


def test_gamma_equals_rank_oracle_exhaustive():
    # all saturated configurations of excess <= 2 over F_5 at (6, 6): the
    # jet formula agrees with the exact linear-algebra rank (the acceptance
    # suite extends this to excess 3)
    cfg5 = default_config(5)
    for x in orc.enumerate_configs_above((ZERO_DIVISOR,) * 4, 2, K5):
        assert orc.gamma(x) == orc.gamma_rank_oracle(x, 6, 6, cfg5)


def _local_factor_entry(q, deg, m):
    """The t_1^(deg m) entry of the local factor at a degree-deg point,
    times q^(deg m): its excess polynomial at the depth-m plane base at
    T = 1."""
    return q ** (deg * m) * sum(sv.local_poly(q, deg, m).values())


def test_local_factor_matches_display_16():
    # the 16-element lattice reproduces the explicit Euler factor exactly:
    # entry by entry through the excess polynomials, and as the whole
    # integral series that local_factor keeps
    for q, deg in ((3, 1), (5, 1), (4, 1), (5, 2), (3, 2)):
        assert _local_factor_entry(q, deg, 0) == orc.factor_constant(q, deg)
        assert _local_factor_entry(q, deg, 1) == orc.factor_contact_coefficient(q, deg, 1)
        assert _local_factor_entry(q, deg, 2) == orc.factor_contact_coefficient(q, deg, 2)
    for q, deg in itertools.product((2, 3, 4, 5, 7, 9, 13), range(1, 6)):
        orders = (3 * deg, 2 * deg + 1, deg - 1, 0)
        got, want = eu.local_factor(q, deg, orders), orc.display_local_factor(q, deg, orders)
        assert (got.orders, got.weights, got.scale) == (want.orders, want.weights, want.scale)
        assert got.ints.tolist() == want.ints.tolist(), (q, deg)


def test_sieve_factors_are_integral_after_scaling():
    # t_i -> q^2 t_i and T -> q^4 T clear every denominator: for depth
    # m <= 4 at points of degree d <= 4, each T^e coefficient of the excess
    # polynomial times q^(2 m d + 4 e) is an integer
    for q in (3, 4, 5):
        for d in range(1, 5):
            for m in range(5):
                for e, c in sv.local_poly(q, d, m).items():
                    assert (c * q ** (2 * m * d + 4 * e)).denominator == 1, (q, d, m, e)

