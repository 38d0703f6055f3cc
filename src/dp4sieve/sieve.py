"""Inclusion-exclusion over configuration posets: local condition lattices
at closed points of P^1, saturation, expected codimension, local Moebius
values, and truncated sieve sums.

A sieve sum is one Euler-type product of local excess polynomials over
closed points, a truncated series in t_1..t_4 and the excess variable T on
heightzeta's series kernel (see sieve_sum); no tuple is enumerated.

The local condition lattice is pluggable.  Its elements are product
subspaces A + B of the four-dimensional fiber V_1 + V_2, each factor being
the full plane, one of four marked lines, or zero; the order is inclusion
and the meet is intersection.  Two instances ship:

* the 14-element lattice {V; the four planes W_i = l_i + l'_i; the eight
  lines l_i + 0 and 0 + l'_i; 0}, the literal reading of the survey data;
* the 16-element subspace closure that also contains 0 + V_2 and V_1 + 0
  (one whole side vanishes).  Only this one has the six corank-2 elements
  that the explicit Euler factor's -6 q^{-2|c|} term counts, and only its
  local factors match heightzeta's display coefficient by coefficient.

A local condition at a closed point is a multiplicity assignment m on the
lattice with m(V) treated as infinity; it is saturated when every level set
{m >= j} is meet-closed, equivalently m(p ^ q) = min(m(p), m(q)).  In these
lattices every meet-closed up-set is principal, so a saturated condition is
the same thing as a weakly shrinking chain of subspaces (the level meets),
and its expected codimension is the sum of their coranks.  Non-saturated
input is rejected, never repaired.

Moebius values come from Rota's crosscut theorem.  Pad each chain with the
top for its empty levels; then x <= y exactly when every level of y lies
below the same level of x, so the conditions are monotone chains in a
finite lattice ordered levelwise in reverse, and the join is the levelwise
meet.  Every interval [w, x] is therefore a finite lattice, and
mu(w, x) = sum of (-1)^|S| over the sets S of covers of w whose join is x.
A cover lowers one level one lattice step, so mu(w, .) vanishes beyond one
level above w: 16 conditions above the empty base of the 16-element
lattice, 8 above a plane base.

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

from .errors import DegreeMismatch, NotSaturated
from .field import FieldSpec
from .heightzeta import TruncatedMultiSeries, series_one
from .projline import count_closed_points_for


# ---------------------------------------------------------------------------
# condition lattices

@dataclass(frozen=True, eq=False)
class ConditionLattice:
    """A finite meet-semilattice of fiber subspaces with coranks.

    Elements are encoded as pairs (A, B); each factor is 'full', 'zero', or
    a line index 0..3.  The top element (full, full) is the ambient space
    and never carries a finite multiplicity.
    """

    name: str
    elements: tuple
    coranks: tuple
    meet_idx: tuple
    top: int

    def index(self, elem) -> int:
        return self.elements.index(elem)

    def leq(self, i: int, j: int) -> bool:
        return self.meet_idx[i][j] == i

    def meet(self, i: int, j: int) -> int:
        return self.meet_idx[i][j]

    def meet_many(self, idxs, start=None) -> int:
        acc = self.top if start is None else start
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


def _build_lattice(name, elems):
    elems = tuple(elems)
    idx = {e: i for i, e in enumerate(elems)}
    meets = []
    for (a1, b1) in elems:
        row = []
        for (a2, b2) in elems:
            m = (_factor_meet(a1, a2), _factor_meet(b1, b2))
            if m not in idx:
                raise ValueError(f"lattice {name} not meet-closed at {m}")
            row.append(idx[m])
        meets.append(tuple(row))
    coranks = tuple(_factor_corank(a) + _factor_corank(b) for a, b in elems)
    return ConditionLattice(name=name, elements=elems, coranks=coranks,
                            meet_idx=tuple(meets), top=idx[("full", "full")])


@lru_cache(maxsize=1)
def survey_q_lattice() -> ConditionLattice:
    """The 14-element lattice: V, the four W_i, the eight marked lines, 0."""
    elems = [("full", "full")]
    elems += [(i, i) for i in range(4)]                       # W_i
    elems += [(i, "zero") for i in range(4)]                  # l_{i,1} + 0
    elems += [("zero", i) for i in range(4)]                  # 0 + l_{i,2}
    elems += [("zero", "zero")]
    return _build_lattice("survey14", elems)


@lru_cache(maxsize=1)
def subspace_q_lattice() -> ConditionLattice:
    """The 16-element subspace closure, adding 0 + V_2 and V_1 + 0."""
    elems = [("full", "full"), ("zero", "full"), ("full", "zero")]
    elems += [(i, i) for i in range(4)]
    elems += [(i, "zero") for i in range(4)]
    elems += [("zero", i) for i in range(4)]
    elems += [("zero", "zero")]
    return _build_lattice("subspace16", elems)


# ---------------------------------------------------------------------------
# local conditions

def local_condition(lattice: ConditionLattice, mults: dict) -> tuple:
    """Validated multiplicity tuple over the non-top elements.

    mults maps element index (or (A, B) pair) to multiplicity; omitted
    elements get the largest value monotonicity forces, namely zero unless
    some smaller element pushes them up, in which case validation fails:
    this constructor never repairs input.
    """
    m = [0] * len(lattice.elements)
    for key, val in mults.items():
        i = key if isinstance(key, int) else lattice.index(key)
        if i == lattice.top:
            raise NotSaturated("the top element carries infinite multiplicity")
        if val < 0:
            raise ValueError("multiplicities must be >= 0")
        m[i] = val
    cond = tuple(m[i] for i in lattice.nontop)
    validate_condition(lattice, cond)
    return cond


def validate_condition(lattice: ConditionLattice, cond):
    """Reject non-monotone or non-saturated multiplicity data."""
    full = [0.0] * len(lattice.elements)
    for pos, i in enumerate(lattice.nontop):
        full[i] = cond[pos]
    full[lattice.top] = float("inf")
    n = len(lattice.elements)
    for i in range(n):
        for j in range(n):
            if lattice.leq(i, j) and full[i] > full[j]:
                raise NotSaturated("multiplicities not monotone along the order")
            if full[lattice.meet_idx[i][j]] != min(full[i], full[j]):
                raise NotSaturated("level sets are not meet-closed")


def condition_chain(lattice: ConditionLattice, cond) -> tuple:
    """Level meets: chain[j-1] = meet of {e : m(e) >= j}, j = 1..maxorder.

    Every meet-closed up-set of these lattices is principal, so the chain
    determines the condition and vice versa.
    """
    out = []
    j = 1
    while True:
        level = [i for pos, i in enumerate(lattice.nontop) if cond[pos] >= j]
        if not level:
            break
        out.append(lattice.meet_many(level))
        j += 1
    return tuple(out)


def condition_gamma(lattice: ConditionLattice, cond) -> int:
    """Sum of the coranks of the level meets."""
    return sum(lattice.coranks[m] for m in condition_chain(lattice, cond))


def condition_excess(lattice: ConditionLattice, base, cond, degree: int) -> int:
    """Degree-weighted truncation excess of cond over base (see module doc)."""
    cb = condition_chain(lattice, base)
    cc = condition_chain(lattice, cond)
    refined = sum(1 for j in range(len(cb)) if cc[j] != cb[j])
    return degree * ((len(cc) - len(cb)) + refined)


# ---------------------------------------------------------------------------
# local Moebius values

def _chain_condition(lattice: ConditionLattice, chain) -> tuple:
    """Inverse of condition_chain: m(e) counts the levels whose meet is <= e
    (a top level counts nowhere)."""
    return tuple(sum(1 for c in chain if lattice.leq(c, i)) for i in lattice.nontop)


def _cover_chains(lattice: ConditionLattice, chain) -> list:
    """Chains of the covers of the condition with this chain, which ends in
    one empty level (the top): one level drops one lattice cover step and
    the chain stays monotone."""
    def below(f, e):
        return f != e and lattice.leq(f, e)
    return [chain[:j] + (f,) + chain[j + 1:]
            for j, cur in enumerate(chain) for f in lattice.nontop
            if below(f, cur) and (j == 0 or lattice.leq(chain[j - 1], f))
            and not any(below(f, g) and below(g, cur) for g in lattice.nontop)]


@lru_cache(maxsize=None)
def _crosscut(lattice: ConditionLattice, base) -> tuple:
    """((tau, mu(base, tau)), ...) over every tau with mu(base, tau) != 0.

    Rota's crosscut theorem on the finite lattice [base, tau]:
    mu(base, tau) = sum of (-1)^|S| over the sets S of covers of base whose
    join, the levelwise meet, is tau.  Every such join lies within one level
    of base.
    """
    chain = condition_chain(lattice, base) + (lattice.top,)
    covers = _cover_chains(lattice, chain)
    mu: dict = {}
    for size in range(len(covers) + 1):
        for subset in itertools.combinations(covers, size):
            tau = tuple(map(lattice.meet_many, zip(chain, *subset)))
            mu[tau] = mu.get(tau, 0) + (-1) ** size
    return tuple((_chain_condition(lattice, tau), m) for tau, m in mu.items() if m)


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
def _local_poly(lattice: ConditionLattice, q: int, deg: int, base, budget: int):
    """Excess generating polynomial at one closed point.

    Coefficient of T^e sums mu(base, tau) q^{-deg * gamma(tau)} over
    saturated tau >= base of excess e <= budget.  By the crosscut
    (_crosscut) that is the sum over the sets S of covers of base of
    (-1)^|S| q^{-deg * gamma(join S)} T^{excess(join S)}, so the cost does
    not grow with the budget.
    """
    out = [Fraction(0)] * (budget + 1)
    for tau, mu in _crosscut(lattice, base):
        excess = condition_excess(lattice, base, tau, deg)
        if excess <= budget:
            out[excess] += mu * Fraction(1, q ** (deg * condition_gamma(lattice, tau)))
    return tuple(out)


def sieve_sum(K: FieldSpec, k, D: int,
              lattice: ConditionLattice | None = None,
              with_deltas: bool = False):
    """Exact truncated sieve sum: mu(x_w, x) q^{-gamma(x)} summed over w in
    U_k(F_q) and saturated x above x_w with excess <= D.

    Moebius multiplicativity over closed points makes this the coefficient
    of t^k in one Euler-type product (_sieve_partials).  Raises TooLarge
    before multiplying when the product's orders k and D admit more than
    heightzeta.MONOMIAL_CAP monomials.
    The D = 0 value is the bare sum_w q^{-gamma(x_w)}; with_deltas returns
    the partial values at truncations 0..D.
    """
    lattice = lattice or subspace_q_lattice()
    k = tuple(k)
    if len(k) != 4 or min(k) < 0:
        raise DegreeMismatch("a contact pattern is four non-negative degrees")
    if D < 0:
        raise ValueError("D must be >= 0")
    partials = _sieve_partials(lattice, K.q, tuple(sorted(k)), D)
    return list(partials) if with_deltas else partials[D]


@lru_cache(maxsize=256)
def _sieve_partials(lattice: ConditionLattice, q: int, k: tuple, D: int) -> tuple:
    """Coefficients of t^k T^{<=D}, accumulated, in the product over degrees
    d <= max(D, max k) of (den_d(T) + sum_{i, m>=1} t_i^{md} num_{d,m}(T))^{N_d}.

    den_d is the local excess polynomial at the empty base, num_{d,m} at the
    depth-m plane base (component 0 stands for all four by symmetry), and
    N_d counts degree-d closed points.  Each point picks one term, so the
    supports of w are disjoint for free and nothing is divided.  The product
    is symmetric in t_1..t_4, so sieve_sum asks only for sorted k.
    """
    orders = k + (D,)
    empty = tuple(0 for _ in lattice.nontop)
    product = series_one(orders)
    for d in range(1, max(orders) + 1):
        den = _local_poly(lattice, q, d, empty, D)
        coeffs = {(0, 0, 0, 0, e): c for e, c in enumerate(den)}
        for m in range(1, max(k) // d + 1):
            num = _local_poly(lattice, q, d, local_condition(lattice, {(0, 0): m}), D)
            for i, e in itertools.product(range(4), range(D + 1)):
                coeffs[(0,) * i + (m * d,) + (0,) * (3 - i) + (e,)] = num[e]
        factor = TruncatedMultiSeries(orders, coeffs)
        product = product * factor.power(count_closed_points_for(q, d))
    return tuple(itertools.accumulate(
        product.coefficient(k + (e,)) for e in range(D + 1)))


def prediction(K: FieldSpec, a: int, b: int, k, D: int,
               lattice: ConditionLattice | None = None) -> SievePrediction:
    """q^{2a+2b+4} times the truncated sieve sum, as a prediction record."""
    value = sieve_sum(K, k, D, lattice=lattice)
    return SievePrediction(value=K.q ** (2 * a + 2 * b + 4) * value,
                           stable_range=stable_range_I(a, b, k))

