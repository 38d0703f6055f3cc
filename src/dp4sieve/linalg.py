"""Exact linear algebra over a field: one row reduction and the
determinant and solve built on it.

The field K is anything with FieldSpec's add, sub, mul, neg and inv on its
elements: a FieldSpec for F_q, or QQ for the rationals.  Matrices are
sequences of equal-length rows; they are copied, never modified.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class _Rationals:
    """The rationals in FieldSpec's interface; ints are accepted as input."""

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)


QQ = _Rationals()


def row_reduce(K, rows, ncols: int | None = None, square: bool = False):
    """Gauss-Jordan elimination of `rows` over K.

    Pivots are taken left to right in the first `ncols` columns (all by
    default), each from the first row at or below the current rank with a
    nonzero entry; columns past `ncols` are carried along, as the right
    side of an augmented system.  Returns (m, pivots, values, swaps): m in
    reduced row echelon form, the pivot columns, the pivot entries before
    normalization, and the number of row swaps.  With `square` set, the
    first column without a pivot returns None instead: the square system
    is singular.
    """
    mul, sub, inv = K.mul, K.sub, K.inv
    m = [list(r) for r in rows]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots, values = [], []
    swaps = 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            if square:
                return None
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            swaps += 1
        row = m[rank]
        lead = row[col]
        values.append(lead)
        # entries left of col are zero in the pivot row, so work from col on
        lead_inv = inv(lead)
        tail = [mul(v, lead_inv) for v in row[col:]]
        m[rank] = row[:col] + tail
        for r in range(nrows):
            f = m[r][col]
            if f and r != rank:
                other = m[r]
                other[col:] = [sub(a, mul(f, b)) for a, b in zip(other[col:], tail)]
        pivots.append(col)
    return m, pivots, values, swaps


def det(K, rows):
    """Determinant of a square matrix: the signed product of its pivots."""
    reduced = row_reduce(K, rows, square=True)
    if reduced is None:
        return 0
    _, _, values, swaps = reduced
    out = K.neg(1) if swaps % 2 else 1
    for v in values:
        out = K.mul(out, v)
    return out


def solve(K, rows, rhs):
    """The solution x of rows . x = rhs for a square system; None if singular."""
    d = len(rows)
    reduced = row_reduce(K, [list(r) + [v] for r, v in zip(rows, rhs)], d, square=True)
    if reduced is None:
        return None
    return tuple(r[d] for r in reduced[0])
