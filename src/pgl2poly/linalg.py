"""Tiny exact linear algebra over a field spec: solve and nullspace.

Rows are lists of field elements; systems here are at most a few hundred
rows (coefficient matching in decompose, eigenspaces of the action in
common_invariants).
"""

from __future__ import annotations


def _eliminate(rows, width, spec):
    """Row-reduce in place; returns the list of pivot column indices."""
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve(spec, matrix, rhs):
    """One solution of matrix * x = rhs, or None if inconsistent.

    Free variables are set to zero; when the kernel is trivial the solution
    is unique.
    """
    width = len(matrix[0]) if matrix else 0
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _eliminate(rows, width, spec)
    for i in range(len(pivots), len(rows)):
        if rows[i][width]:
            return None
    out = [spec.zero] * width
    for r, col in enumerate(pivots):
        out[col] = rows[r][width]
    return out


def nullspace(spec, matrix):
    """A basis of the kernel of matrix (list of vectors), one per free
    column in ascending order: the vector of free column j is 1 at j and
    zero above j."""
    width = len(matrix[0]) if matrix else 0
    rows = [list(row) for row in matrix]
    pivots = _eliminate(rows, width, spec)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [spec.zero] * width
        vec[fc] = spec.one
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc]
        basis.append(vec)
    return basis
