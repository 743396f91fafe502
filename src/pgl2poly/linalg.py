"""Tiny exact linear algebra over a field spec: the nullspace of a matrix.

Rows and kernel vectors are lists of discrete logs (-1 for zero), the log
lists of the polynomial kernels; row updates are polynomials._add_logs, so
elimination looks up the Zech table and builds no field elements.  Systems
here are the eigenspaces of the action in common_invariants, at most a few
hundred rows.
"""

from __future__ import annotations

from .polynomials import _add_logs


def _eliminate(rows, width, spec):
    """Row-reduce in place to reduced echelon form with unit pivots; returns
    the list of pivot column indices.  Updated rows come back trimmed of
    trailing zeros, so an entry past the end of a row is zero."""
    pivots, r = [], 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows))
                      if col < len(rows[i]) and rows[i][col] >= 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = top = _add_logs(spec, [], rows[r], -rows[r][col])  # pivot 1
        for i in range(len(rows)):
            if i != r and col < len(rows[i]) and rows[i][col] >= 0:
                rows[i] = _add_logs(spec, rows[i], top, rows[i][col] + spec.neg)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def nullspace(spec, matrix):
    """A basis of the kernel of matrix (list of vectors), one per free
    column in ascending order: the vector of free column j is 1 at j and
    zero above j."""
    width = len(matrix[0]) if matrix else 0
    rows = [list(row) for row in matrix]
    pivots = _eliminate(rows, width, spec)
    basis = []
    for fc in (c for c in range(width) if c not in pivots):
        vec = [-1] * width
        vec[fc] = 0
        for row, col in zip(rows, pivots):
            if fc < len(row) and row[fc] >= 0:
                vec[col] = (row[fc] + spec.neg) % (spec.order - 1)
        basis.append(vec)
    return basis
