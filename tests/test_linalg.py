"""linalg on log rows against the Felt-level eliminator it replaced.

felt_nullspace below is the reference: Gauss-Jordan on lists of field
elements, with the field's own operators.  The log-row version must return
the same vectors, entry for entry.
"""

import random

import pytest

from pgl2poly import linalg
from test_polynomials import KERNEL_FIELDS


def _felt_eliminate(rows, width):
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


def felt_nullspace(spec, matrix):
    """A kernel basis, one vector per free column in ascending order."""
    width = len(matrix[0]) if matrix else 0
    rows = [list(row) for row in matrix]
    pivots = _felt_eliminate(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [spec.zero] * width
        vec[fc] = spec.one
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][fc]
        basis.append(vec)
    return basis


def _to_logs(spec, felts):
    return [spec.log[x.n] for x in felts]

def _to_felts(spec, logs):
    return [spec.from_encoding(spec.exp[x] if x >= 0 else 0) for x in logs]

def _random_matrix(spec, rng):
    """A height x width matrix of rank at most rank, a zero row now and then."""
    height, width = rng.randrange(1, 8), rng.randrange(1, 8)
    rank = rng.randrange(0, min(height, width) + 1)

    def element():
        return spec.from_encoding(rng.randrange(spec.order))
    base = [[element() for _ in range(width)] for _ in range(rank)]
    matrix = []
    for _ in range(height):
        row = [spec.zero] * width
        if rng.randrange(5):
            for b in base:
                c = element()
                row = [x + c * y for x, y in zip(row, b)]
        matrix.append(row)
    return matrix

@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=repr)
def test_linalg_matches_felt_reference(spec):
    rng = random.Random(spec.order * 7 + spec.modulus[0])
    m = spec.order - 1
    seen = {"deficient": 0, "zero row": 0}
    for _ in range(150):
        matrix = _random_matrix(spec, rng)
        rows = [_to_logs(spec, row) for row in matrix]
        kept = [list(row) for row in rows]
        basis = linalg.nullspace(spec, rows)
        assert [_to_felts(spec, v) for v in basis] == felt_nullspace(spec, matrix)
        assert rows == kept                          # the input is not touched
        for vec in basis:
            assert all(-1 <= x < m for x in vec)     # reduced logs
        seen["deficient"] += len(basis) > 0 and len(matrix) >= len(matrix[0])
        seen["zero row"] += any(not any(row) for row in matrix)
    assert all(seen.values()), seen

def test_linalg_on_empty_systems(F5):
    assert linalg.nullspace(F5, []) == []
    # one zero row: every vector is in the kernel
    assert linalg.nullspace(F5, [[-1, -1]]) == [[0, -1], [-1, 0]]
