"""Gauss-Jordan elimination over ``Fraction``: the independent reference that
the tests check the integer linear algebra of ``sympolar.linalg`` against."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from sympolar.linalg import ZERO, SingularMatrixError, Vec, as_vec

Matrix = tuple[Vec, ...]

ONE = Fraction(1)


def transpose(rows: Matrix) -> Matrix:
    return tuple(zip(*rows))


def rank(rows: Iterable[Sequence]) -> int:
    """Rank of a collection of rational row vectors, by row echelon form."""
    reduced: list[tuple[int, Vec]] = []  # (pivot column, row with pivot 1)
    for row in rows:
        work = as_vec(row)
        for p, base in reduced:
            if work[p]:
                factor = work[p]
                work = tuple(x - factor * y for x, y in zip(work, base))
        pivot = next((k for k, c in enumerate(work) if c), None)
        if pivot is not None:
            reduced.append((pivot, tuple(c / work[pivot] for c in work)))
    return len(reduced)


def _gauss_jordan(matrix: Sequence[Sequence[Fraction]], extra: Sequence[Sequence[Fraction]]):
    """Reduce [matrix | extra] to [I | matrix^-1 extra]; None when singular."""
    n = len(matrix)
    aug = [list(row) + list(tail) for row, tail in zip(matrix, extra)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [c - factor * p for c, p in zip(aug[r], aug[col])]
    return [tuple(row[n:]) for row in aug]


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """Solve a square linear system exactly; returns None when singular."""
    reduced = _gauss_jordan(matrix, [(b,) for b in rhs])
    return None if reduced is None else tuple(row[0] for row in reduced)


def invert(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    n = len(matrix)
    reduced = _gauss_jordan(
        matrix, [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    )
    if reduced is None:
        raise SingularMatrixError("matrix is singular")
    return tuple(reduced)
