"""Inclusion-exclusion over configuration posets: the local condition
lattice at closed points of P^1, saturation, expected codimension, local
Moebius values, and truncated sieve sums.

A sieve sum is one Euler-type product of local excess polynomials over
closed points, a truncated series in t_1..t_4 and the excess variable T on
heightzeta's series kernel (see sieve_sum); no tuple is enumerated.  Under
t_i -> q^2 t_i and T -> q^4 T every local factor has integer
coefficients, so the product runs on integers.  At T = 1 a local excess
polynomial is the Euler factor L_P (euler.local_factor), so _sieve_partials
(truncated by excess D) and euler.euler_product (truncated by point degree
N) truncate the same product prod_P L_P.

The local condition lattice (LATTICE) has as elements the product
subspaces A + B of the four-dimensional fiber V_1 + V_2, each factor being
the full plane, one of four marked lines, or zero; the order is inclusion
and the meet is intersection.  These are sixteen: V, 0 + V_2 and V_1 + 0
(one whole side vanishes), the four planes W_i = l_i + l'_i, the eight
lines l_i + 0 and 0 + l'_i, and 0.  The two one-side elements are needed:
without them only four corank-2 elements remain, but the explicit Euler
factor's -6 q^{-2|c|} term counts six, and only with them does
euler.local_factor match the displayed factor coefficient by coefficient.

A local condition at a closed point is a multiplicity assignment m on the
lattice with m(V) treated as infinity; it is saturated when every level set
{m >= j} is meet-closed, equivalently m(p ^ q) = min(m(p), m(q)).  In this
lattice every meet-closed up-set is principal, so a saturated condition is
the same thing as its chain of level meets, chain[j-1] = meet {m >= j} for
j = 1..max m, and m(e) counts the levels at or below e.  Level sets shrink
as j grows, so their meets rise: chain[j-1] <= chain[j].  The sieve stores
every condition as this chain of non-top elements (the trivial condition is
the empty chain), so each one is saturated by construction.  Its expected
codimension is the sum of the coranks of its levels.

Moebius values come from Rota's crosscut theorem.  Pad each chain with the
top for its empty levels; then x <= y exactly when every level of y lies
below the same level of x, so the conditions are monotone chains in a
finite lattice ordered levelwise in reverse, and the join is the levelwise
meet.  Every interval [w, x] is therefore a finite lattice, and
mu(w, x) = sum of (-1)^|S| over the sets S of covers of w whose join is x.
A cover lowers one level one lattice step, so mu(w, .) vanishes beyond one
level above w: 16 conditions above the empty base, 8 above a plane base.

Truncation bookkeeping: the excess of x over a base w counts, per closed
point and weighted by its degree, the growth in multiplicity depth plus the
number of base levels strictly refined.  This is the unique grading for
which zero excess means exactly x = w (the leading-term identity of the
acceptance suite) while depth-1 conditions at fresh points cost one unit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeMismatch
from .field import FieldSpec, count_closed_points
from .heightzeta import TruncatedMultiSeries, series_one

# the scaling t_i -> q^2 t_i, T -> q^4 T that makes every sieve factor
# coefficient an integer
SIEVE_WEIGHTS = (2, 2, 2, 2, 4)


# ---------------------------------------------------------------------------
# the condition lattice

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

    def meet_many(self, idxs) -> int:
        acc = self.top
        for i in idxs:
            acc = self.meet_idx[acc][i]
        return acc

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
    """Degree-weighted truncation excess of chain over base (see module doc)."""
    refined = sum(1 for b, c in zip(base, chain) if b != c)
    return degree * ((len(chain) - len(base)) + refined)


# ---------------------------------------------------------------------------
# local Moebius values

def _cover_chains(chain) -> list:
    """Chains of the covers of the condition with this chain, which ends in
    one empty level (the top): one level drops one lattice cover step and
    the chain stays monotone."""
    def below(f, e):
        return f != e and LATTICE.leq(f, e)
    return [chain[:j] + (f,) + chain[j + 1:]
            for j, cur in enumerate(chain) for f in LATTICE.nontop
            if below(f, cur) and (j == 0 or LATTICE.leq(chain[j - 1], f))
            and not any(below(f, g) and below(g, cur) for g in LATTICE.nontop)]


@lru_cache(maxsize=None)
def _crosscut(base) -> tuple:
    """((tau, mu(base, tau)), ...) over every chain tau with mu(base, tau) != 0.

    Rota's crosscut theorem on the finite lattice [base, tau]:
    mu(base, tau) = sum of (-1)^|S| over the sets S of covers of base whose
    join, the levelwise meet, is tau.  Every such join lies within one level
    of base, so only the padding level can stay at the top; it is dropped.
    """
    padded = base + (LATTICE.top,)
    covers = _cover_chains(padded)
    mu: dict = {}
    for size in range(len(covers) + 1):
        for subset in itertools.combinations(covers, size):
            tau = tuple(map(LATTICE.meet_many, zip(padded, *subset)))
            tau = tau[:-1] if tau[-1] == LATTICE.top else tau
            mu[tau] = mu.get(tau, 0) + (-1) ** size
    return tuple((tau, m) for tau, m in mu.items() if m)


# ---------------------------------------------------------------------------
# sieve sums

@dataclass(frozen=True)
class SievePrediction:
    value: Fraction
    stable_range: int


def stable_range_I(a: int, b: int, k) -> int:
    """floor( min(2a+1-sum k, 2b+1-sum k) / 8 - 1/2 ), possibly negative."""
    sk = sum(k)
    m = min(2 * a + 1 - sk, 2 * b + 1 - sk)
    val = Fraction(m, 8) - Fraction(1, 2)
    return val.numerator // val.denominator


def stable_range_start(k) -> int:
    """Least a with stable_range_I(a, a, k) >= 0, i.e. 2a + 1 - sum k >= 4."""
    return (4 + sum(k)) // 2


@lru_cache(maxsize=None)
def _local_poly(q: int, deg: int, base, budget: int):
    """Excess generating polynomial at one closed point, base a chain.

    Coefficient of T^e sums mu(base, tau) q^{-deg * gamma(tau)} over
    saturated tau >= base of excess e <= budget.  By the crosscut
    (_crosscut) that is the sum over the sets S of covers of base of
    (-1)^|S| q^{-deg * gamma(join S)} T^{excess(join S)}, so the cost does
    not grow with the budget.
    """
    out = [Fraction(0)] * (budget + 1)
    for tau, mu in _crosscut(base):
        excess = condition_excess(base, tau, deg)
        if excess <= budget:
            out[excess] += mu * Fraction(1, q ** (deg * condition_gamma(tau)))
    return tuple(out)


def sieve_sum(K: FieldSpec, k, D: int) -> list:
    """Exact truncated sieve sums at truncations 0..D: mu(x_w, x) q^{-gamma(x)}
    summed over w in U_k(F_q) and saturated x above x_w with excess <= D.

    Moebius multiplicativity over closed points makes this the coefficient
    of t^k in one Euler-type product (_sieve_partials).  Raises TooLarge
    before multiplying when the product's orders k and D admit more than
    heightzeta.MONOMIAL_CAP monomials.
    The D = 0 value is the bare sum_w q^{-gamma(x_w)}.
    """
    k = tuple(k)
    if len(k) != 4 or min(k) < 0:
        raise DegreeMismatch("a contact pattern is four non-negative degrees")
    if D < 0:
        raise ValueError("D must be >= 0")
    return list(_sieve_partials(K.q, tuple(sorted(k)), D))


@lru_cache(maxsize=256)
def _sieve_partials(q: int, k: tuple, D: int) -> tuple:
    """Coefficients of t^k T^{<=D}, accumulated, in the product over degrees
    d <= max(D, max k) of (den_d(T) + sum_{i, m>=1} t_i^{md} num_{d,m}(T))^{N_d}.

    den_d is the local excess polynomial at the empty base, num_{d,m} at the
    depth-m plane base (component 0 stands for all four by symmetry), and
    N_d counts degree-d closed points.  Each point picks one term, so the
    supports of w are disjoint for free and nothing is divided.  The product
    is symmetric in t_1..t_4, so sieve_sum asks only for sorted k.

    The factors carry SIEVE_WEIGHTS, which make them integral; the series
    constructor refuses a fractional coefficient with LemmaViolation.
    """
    orders = k + (D,)
    product = series_one(orders, q, SIEVE_WEIGHTS)
    for d in range(1, max(orders) + 1):
        den = _local_poly(q, d, (), D)
        coeffs = {(0, 0, 0, 0, e): c for e, c in enumerate(den)}
        for m in range(1, max(k) // d + 1):
            num = _local_poly(q, d, (PLANE,) * m, D)
            for i, e in itertools.product(range(4), range(D + 1)):
                coeffs[(0,) * i + (m * d,) + (0,) * (3 - i) + (e,)] = num[e]
        factor = TruncatedMultiSeries(orders, coeffs, q, SIEVE_WEIGHTS)
        product = product * factor.power(count_closed_points(q, d))
    return tuple(itertools.accumulate(
        product.coefficient(k + (e,)) for e in range(D + 1)))


def prediction(K: FieldSpec, a: int, b: int, k, D: int) -> SievePrediction:
    """q^{2a+2b+4} times the truncated sieve sum, as a prediction record."""
    value = sieve_sum(K, k, D)[D]
    return SievePrediction(value=K.q ** (2 * a + 2 * b + 4) * value,
                           stable_range=stable_range_I(a, b, k))
