import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import nullspace, rank

from dp4sieve.field import make_field
from dp4sieve.linalg import QQ, det, solve

FIELDS = (make_field(2), make_field(3), make_field(2, 2), make_field(5), make_field(3, 2), QQ)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _entries(K):
    if K is QQ:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.integers(0, K.q - 1)


@st.composite
def matrices(draw, square=False):
    """(K, rows); about half the time the last row is a multiple of the
    first, so singular and rank-deficient cases occur over every field."""
    K = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 5))
    row = st.lists(_entries(K), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    if nrows > 1 and draw(st.booleans()):
        c = draw(_entries(K))
        rows[-1] = [K.mul(c, x) for x in rows[0]]
    return K, rows


def _dot(K, row, x):
    acc = 0
    for a, b in zip(row, x):
        acc = K.add(acc, K.mul(a, b))
    return acc


def _leibniz(K, rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = K.mul(term, rows[i][perm[i]])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = K.add(total, K.neg(term) if inversions % 2 else term)
    return total


@PROPERTY
@given(matrices())
def test_rank_plus_nullity_is_width(case):
    K, rows = case
    assert rank(K, rows) + len(nullspace(K, rows)) == len(rows[0])


@PROPERTY
@given(matrices())
def test_nullspace_annihilates_rows(case):
    K, rows = case
    for vec in nullspace(K, rows):
        assert any(vec)
        assert all(_dot(K, row, vec) == 0 for row in rows)


@PROPERTY
@given(matrices(square=True))
def test_det_is_leibniz_sum(case):
    K, rows = case
    assert det(K, rows) == _leibniz(K, rows)


@PROPERTY
@given(matrices(square=True), st.data())
def test_solve(case, data):
    K, rows = case
    rhs = data.draw(st.lists(_entries(K), min_size=len(rows), max_size=len(rows)))
    x = solve(K, rows, rhs)
    if det(K, rows) == 0:
        assert x is None
    else:
        assert [_dot(K, row, x) for row in rows] == list(rhs)


def test_nullspace_is_the_reduced_free_column_basis():
    # remark_config builds its pencil from this basis, so its shape is pinned
    assert nullspace(QQ, [[1, 2, 3]]) == [(-2, 1, 0), (-3, 0, 1)]
    assert nullspace(QQ, [[0, 2, 4], [0, 0, 0]]) == [(1, 0, 0), (0, -2, 1)]
    assert nullspace(QQ, [[1, 1], [1, -1]]) == []
    F5 = make_field(5)
    assert nullspace(F5, [[1, 2, 3], [0, 1, 1]]) == [(4, 4, 1)]
    assert det(QQ, [[Fraction(1, 2), 1], [1, 4]]) == 1
