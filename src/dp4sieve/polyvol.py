"""Exact rational volume of bounded polyhedra {x : A x <= b}.

Vertex enumeration tries every d-subset of constraints; the volume comes
from a recursive simplicial decomposition: cone each facet triangulation
over a base vertex.  All arithmetic is exact rational arithmetic, no
floats: every solve, rank, determinant and kernel vector is computed by
linalg over QQ.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

from .errors import DegenerateInput, Unbounded
from .linalg import QQ, det, nullspace, rank, solve


def enumerate_vertices(A, b):
    """All vertices of {x : A x <= b}, by solving every d-subset of rows."""
    d = len(A[0])
    verts = set()
    for idx in combinations(range(len(A)), d):
        sol = solve(QQ, [A[i] for i in idx], [b[i] for i in idx])
        if sol is None:
            continue
        if all(sum(r * x for r, x in zip(A[i], sol)) <= b[i] for i in range(len(A))):
            verts.add(sol)
    return sorted(verts)


def has_recession_ray(A, strict_rows=None):
    """True if {x != 0 : A x <= 0} is nonempty (the region is unbounded).

    If the rows do not span, any kernel vector is a ray.  Otherwise the
    recession cone is pointed and nontrivial only if it has an extreme ray
    on d-1 independent tight constraints; each candidate is checked against
    the full system.
    """
    d = len(A[0])
    if rank(QQ, A) < d:
        return True
    for idx in combinations(range(len(A)), d - 1):
        rows = [A[i] for i in idx]
        if rank(QQ, rows) != d - 1:
            continue
        ray = nullspace(QQ, rows)[0]
        for cand in (ray, tuple(-c for c in ray)):
            if all(sum(r * x for r, x in zip(A[i], cand)) <= 0 for i in range(len(A))):
                return True
    return False


def _facet_vertex_sets(A, b, verts):
    """Vertex index sets tight on each inequality, deduplicated."""
    seen = set()
    out = []
    for i in range(len(A)):
        tight = tuple(
            j for j, v in enumerate(verts)
            if sum(r * x for r, x in zip(A[i], v)) == b[i]
        )
        if tight and tight not in seen:
            seen.add(tight)
            out.append(tight)
    return out


def _triangulate(A, b, verts, dim):
    """Triangulation of conv(verts) = {Ax <= b} into dim-simplices.

    Returns tuples of dim+1 vertices each.  Assumes the polytope is
    full-dimensional in its coordinates; lower-dimensional inputs yield [].
    """
    if len(verts) < dim + 1:
        return []
    if dim == 1:
        lo, hi = min(verts), max(verts)
        return [(lo, hi)] if lo != hi else []
    if len(verts) == dim + 1:
        edges = [tuple(x - y for x, y in zip(v, verts[0])) for v in verts[1:]]
        return [tuple(verts)] if det(QQ, edges) != 0 else []
    v0 = verts[0]
    simplices = []
    for tight in _facet_vertex_sets(A, b, verts):
        fverts = [verts[j] for j in tight]
        if v0 in fverts:
            continue
        dirs = [tuple(x - y for x, y in zip(v, fverts[0])) for v in fverts[1:]]
        if rank(QQ, dirs) != dim - 1:
            continue
        # parametrize the facet: x = w0 + B c with B a basis of its direction
        basis = _independent_subset(dirs, dim - 1)
        w0 = fverts[0]
        fcoords = [_coords_in_basis(basis, tuple(x - y for x, y in zip(v, w0))) for v in fverts]
        # transform inequalities into facet coordinates
        subA, subb = [], []
        for i in range(len(A)):
            row = tuple(sum(A[i][t] * bv[t] for t in range(dim)) for bv in basis)
            rhs = b[i] - sum(A[i][t] * w0[t] for t in range(dim))
            subA.append(row)
            subb.append(rhs)
        vert_map = dict(zip(fcoords, fverts))
        for sub in _triangulate(subA, subb, sorted(vert_map), dim - 1):
            simplices.append((v0,) + tuple(vert_map[c] for c in sub))
    return simplices


def _independent_subset(vectors, k):
    out = []
    for v in vectors:
        if rank(QQ, out + [v]) > len(out):
            out.append(v)
            if len(out) == k:
                return out
    raise DegenerateInput("vectors do not span the requested dimension")


def _coords_in_basis(basis, vec):
    """Solve sum c_i basis_i = vec for c (consistent overdetermined system)."""
    d = len(vec)
    k = len(basis)
    # pick k independent coordinate rows of the basis matrix
    rows_idx = []
    chosen = []
    for r in range(d):
        cand = chosen + [tuple(bv[r] for bv in basis)]
        if rank(QQ, cand) > len(chosen):
            chosen = cand
            rows_idx.append(r)
            if len(rows_idx) == k:
                break
    sol = solve(QQ, [tuple(bv[r] for bv in basis) for r in rows_idx],
                        [vec[r] for r in rows_idx])
    return sol


def polytope_volume(A, b) -> Fraction:
    """Exact Lebesgue volume of the bounded polyhedron {x : A x <= b}."""
    dim = len(A[0])
    if has_recession_ray(A):
        raise Unbounded("the region has a recession ray")
    verts = enumerate_vertices(A, b)
    if not verts:
        return Fraction(0)
    if rank(QQ, [tuple(x - y for x, y in zip(v, verts[0])) for v in verts[1:]]) < dim:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(A, b, verts, dim):
        edges = [tuple(x - y for x, y in zip(v, simplex[0])) for v in simplex[1:]]
        total += abs(det(QQ, edges))
    return total / factorial(dim)
