"""Standard symplectic form, symplectic polarity, and the expansion step.

Coordinates are interleaved position/momentum pairs (q1, p1, ..., qn, pn),
so on R^2 the form is omega((a, b), (c, d)) = a*d - b*c and the form of a
direct sum splits blockwise.

Vertex pairs are tested on the polytopes' homogeneous integer rows: for
v = V/d and w = W/e, omega(v, w) <= 1 exactly when omega(V, W) <= d*e, so
no ``Fraction`` is made unless a witness is reported.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from sympolar.geometry import (
    GeometryError,
    Polytope,
    Row,
    _grow_hull,
    _mirrored,
    _move,
    _polar,
    _row_key,
    convex_hull,  # noqa: F401 - perfbench's tracer test wraps symplectic.convex_hull
)
from sympolar.linalg import Vec, as_vec, dehomogenize, homogeneous

Witness = tuple[Vec, Vec, Fraction]


class ExpansionError(GeometryError):
    """An expansion step was attempted with an invalid vertex subset."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


def omega(x: Sequence, y: Sequence) -> Fraction:
    """The standard symplectic form of two vectors in R^{2n}: a view of
    ``omega_rows`` on their homogeneous rows, omega(V/d, W/e) = omega(V, W)/(de)."""
    xv, yv = as_vec(x), as_vec(y)
    if len(xv) != len(yv):
        raise ValueError(f"dimension mismatch: {len(xv)} vs {len(yv)}")
    if len(xv) % 2 != 0:
        raise ValueError(f"symplectic form needs even dimension, got {len(xv)}")
    X, Y = homogeneous(xv), homogeneous(yv)
    return Fraction(omega_rows(X, Y), X[-1] * Y[-1])


def omega_rows(x: Sequence[int], y: Sequence[int]) -> int:
    """omega(V, W) of two homogeneous rows (V, d), (W, e); the trailing
    homogenizing entries are ignored.  The only place the interleaved
    coordinate convention is written out."""
    total = 0
    for i in range(0, len(x) - 1, 2):
        total += x[i] * y[i + 1] - x[i + 1] * y[i]
    return total


def _rotation(dim: int) -> list[tuple[int, int]]:
    """Blockwise (y1, y2) -> (-y2, y1) as ``_polar``'s (sign, index) list."""
    return [(-1, k + 1) if k % 2 == 0 else (1, k - 1) for k in range(dim)]


def polar_to_sympolar_matrix(dim: int) -> tuple[Vec, ...]:
    """The linear map carrying the classical polar body onto the symplectic
    polar: blockwise (y1, y2) -> (-y2, y1).  It satisfies
    omega(x, M y) = <x, y>, and is locked in by the involution tests."""
    if dim % 2 != 0:
        raise ValueError(f"need even dimension, got {dim}")
    return tuple(
        tuple(Fraction(sign if j == index else 0) for j in range(dim))
        for sign, index in _rotation(dim)
    )


def _sympolar_coords(P: Polytope) -> list[tuple[int, int]]:
    """The signed coordinate permutation of ``polar_to_sympolar_matrix``,
    after checking that P has a symplectic polar here: even dimension and
    symmetric, hence the origin interior."""
    if P.dim % 2 != 0:
        raise GeometryError("symplectic polarity needs even dimension")
    if not P.symmetric:
        raise GeometryError(
            "symplectic polarity is only provided for centrally symmetric bodies"
        )
    return _rotation(P.dim)


def _sympolar_rows(P: Polytope) -> list[Row]:
    """The vertex rows of the symplectic polar, read off P's facet rows
    without building the polar: each facet row moved by (y1, y2) -> (-y2, y1)
    blockwise, with the last entry negated.  Raises what
    ``symplectic_polar`` raises."""
    coords = _sympolar_coords(P)
    return [_move(f, coords) for f in P.facet_rows]


def symplectic_polar(P: Polytope) -> Polytope:
    """The body {y : omega(x, y) <= 1 for all x in P}, for symmetric P with
    the origin interior; the image of the polar dual under the matrix of
    ``polar_to_sympolar_matrix``, a signed coordinate permutation, applied
    to the integer rows."""
    return _polar(P, _sympolar_coords(P))


def check_subset_sympolar(P: Polytope) -> tuple[bool, Witness | None]:
    """Whether P is contained in its symplectic polar.

    Containment is equivalent to omega(v, w) <= 1 for every ordered pair of
    vertices; on failure the lexicographically first violating pair and its
    form value are returned as a witness.

    Negation reverses the lexicographic order, so vertex N-1-i of a
    symmetric P is the antipode of vertex i.  As omega(x, -y) = -omega(x, y)
    and omega(x, -x) = 0, every violating pair (a, b) has one among the
    pairs of the first half at or before it in scan order, with the same
    |omega|; so the scan of that half alone finds the same first pair.
    Raises GeometryError in odd dimension, where there is no form.
    """
    if P.dim % 2 != 0:
        raise GeometryError("symplectic polarity needs even dimension")
    rows = P.rows
    n = len(rows) // 2 if P.symmetric else len(rows)
    for i, x in enumerate(rows[:n]):
        for y in rows[i + 1 : n]:
            value, bound = omega_rows(x, y), x[-1] * y[-1]
            if value > bound:
                return False, (dehomogenize(x), dehomogenize(y), Fraction(value, bound))
            if -value > bound:
                return False, (dehomogenize(y), dehomogenize(x), Fraction(-value, bound))
    return True, None


def is_self_polar(P: Polytope) -> bool:
    """Whether P equals its symplectic polar: both vertex sets as sets of
    primitive homogeneous rows, so no polar is built."""
    return set(_sympolar_rows(P)) == set(P.rows)


def c_j(P: Polytope) -> Fraction:
    """Reciprocal of the largest |omega| over pairs of points of the
    symplectic polar; the bilinear maximum is attained at vertex pairs."""
    rows = _sympolar_rows(P)
    pairs = ((x, y) for i, x in enumerate(rows) for y in rows[i + 1 :])
    best = max((Fraction(abs(omega_rows(x, y)), x[-1] * y[-1]) for x, y in pairs), default=0)
    if best == 0:
        raise GeometryError("degenerate body: the form vanishes on the polar")
    return 1 / best


def expand_step(K: Polytope, S: Sequence[Sequence]) -> Polytope:
    """Grow K by a centrally symmetric set S of vertices of K^omega, to the
    hull of K and S, which must lie inside its own symplectic polar.

    S becomes rows once, sorted as its points sort, which tells whether it
    is symmetric (``geometry._mirrored``); the polar's vertex rows are read
    from K's facet rows.  The hull is warm-started from K's double
    description, one slab per new antipodal pair (``geometry._grow_hull``).
    The one check on the result also covers K subseteq K^omega and
    omega(v, w) <= 1 on pairs of S: the result contains K and S, and the
    bilinear form takes its maximum over it at a pair of its vertices.  A
    failure raises ExpansionError with a violating vertex pair of the grown
    body as witness.
    """
    rows = sorted(dict.fromkeys(homogeneous(as_vec(p)) for p in S), key=_row_key)
    if not _mirrored(rows):
        raise ExpansionError("expansion set is not centrally symmetric")
    polar_rows = set(_sympolar_rows(K))
    for r in rows:
        if r not in polar_rows:
            p = dehomogenize(r)
            raise ExpansionError(
                f"expansion point {p} is not a vertex of the symplectic polar",
                (p,),
            )
    grown = _grow_hull(K, rows)
    ok, witness = check_subset_sympolar(grown)
    if not ok:
        raise ExpansionError(
            f"expansion produced a body outside its symplectic polar: {witness}",
            witness,
        )
    return grown
