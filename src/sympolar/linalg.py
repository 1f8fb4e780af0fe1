"""Exact linear algebra for the polyhedral kernel.

At the API, a point or a normal is a tuple of ``Fraction``s (``as_vec``,
``dot``), and a float is refused (``as_fraction``).  Inside the kernel,
points and hyperplanes are exact integer homogeneous rows.  A rational
point ``v`` becomes the primitive row ``(V, d)`` with ``v = V/d`` and
``d > 0`` (``homogeneous``), a halfspace ``<a, x> <= b`` the primitive row
``(a, -b)``; incidence is then the sign of ``int_dot``.

All elimination is on integers, fraction-free in the manner of Bareiss
(1968), in three routines, each serving its own callers:

- ``independent_rows``, a row echelon that makes each reduced row
  primitive, for ranks: the double description's starting basis, which is
  the hull's rank test, and the hull check's rank test of a facet with
  more than dim points on it;
- ``int_det``, a closed form for 4 x 4, the size on the dim-4 workloads,
  and Bareiss elimination otherwise, for the volume's simplices, the hull
  check's rank test of a facet with exactly dim points on it and the
  general-position test of ``generate``;
- ``int_adjugate``, a Bareiss Gauss-Jordan, for the double description's
  starting rays, the stationary points of the capacity search and the
  inverse transpose of ``apply_linear``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)


class SingularMatrixError(ValueError):
    """A linear map that must be invertible is singular."""


def as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``; a float, whose binary value is seldom
    the number meant, raises TypeError."""
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; give an int, a Fraction or a 'p/q' string")
    return Fraction(value)


def as_vec(coords: Iterable) -> Vec:
    return tuple(c if type(c) is Fraction else as_fraction(c) for c in coords)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        total += a * b
    return total


def vneg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def is_zero_vec(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


# ---------------------------------------------------------------------------
# Integer rows.


def bits(mask: int):
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd; the orientation of the vector is preserved."""
    g = gcd(*ints)
    if g in (0, 1):
        return tuple(ints)
    return tuple(c // g for c in ints)


def fraction_vec_to_int(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector by a positive factor to a primitive integer one."""
    scale = lcm(*(c.denominator for c in vec))
    return primitive([c.numerator * (scale // c.denominator) for c in vec])


def homogeneous(point: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer row ``(V, d)`` with ``point = V/d`` and ``d > 0``;
    ``d`` is the least common denominator, so the row is primitive."""
    d = lcm(*(c.denominator for c in point))
    return tuple(c.numerator * (d // c.denominator) for c in point) + (d,)


def dehomogenize(row: Sequence[int]) -> Vec:
    """The rational point ``V/d`` of a homogeneous row ``(V, d)``."""
    return tuple(Fraction(c, row[-1]) for c in row[:-1])


def independent_rows(rows: Sequence[Sequence[int]], stop: int | None = None) -> list[int]:
    """Indices of the rows that raise the rank when taken in order, by
    fraction-free elimination; the count is the rank.  Scanning ends once
    ``stop`` rows are found, which callers use when the rank is known not to
    exceed ``stop``."""
    reduced: list[tuple[int, tuple[int, ...]]] = []  # (pivot column, row)
    chosen: list[int] = []
    for i, row in enumerate(rows):
        work = row
        for p, base in reduced:
            c = work[p]
            if c:
                b = base[p]
                work = [b * x - c * y for x, y in zip(work, base)]
        pivot = next((k for k, c in enumerate(work) if c), None)
        if pivot is None:
            continue
        chosen.append(i)
        if len(chosen) == stop:
            break
        reduced.append((pivot, primitive(work)))
    return chosen


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix: a closed form for 4 x 4, the size
    on the dim-4 workloads, and Bareiss fraction-free elimination otherwise.
    The 4 x 4 form is the Laplace expansion along rows 0 and 1: each 2 x 2
    minor of those rows times the complementary minor of rows 2 and 3."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = matrix
        return (
            (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
        )
    work = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        for r in range(col + 1, n):
            row = work[r]
            lead = row[col]
            base = work[col]
            for k in range(col + 1, n):
                row[k] = (pivot * row[k] - lead * base[k]) // prev
            row[col] = 0
        prev = pivot
    return sign * work[n - 1][n - 1]


def int_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of an integer matrix; the adjugate is None
    when the determinant is 0.

    Fraction-free (Bareiss) Gauss-Jordan elimination of ``[A | I]``, kept in
    place: after t steps the columns of the left block left of t are
    d e_j and those of the right block from t on are d e_j, with d the last
    pivot, so one k x k array holds the rest.  Every division is exact.
    Row swaps make it eliminate P A, and d (P A)^-1 P = d A^-1 puts the
    column of the right block held at position i back at column ``perm[i]``.
    """
    n = len(matrix)
    work = [list(row) for row in matrix]
    perm = list(range(n))
    sign = 1
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
            sign = -sign
        base = work[col]
        pivot = base[col]
        for r in range(n):
            if r != col:
                row = work[r]
                lead = row[col]
                row = [(pivot * a - lead * b) // prev for a, b in zip(row, base)]
                row[col] = -lead
                work[r] = row
        base[col] = prev
        prev = pivot
    held_at = [0] * n
    for i, j in enumerate(perm):
        held_at[j] = i
    if sign < 0:
        work = [[-a for a in row] for row in work]
    return sign * prev, [[row[i] for i in held_at] for row in work]
