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


def _first_violation(rows: Sequence[Row]) -> Witness | None:
    """The first pair of ``rows``, in scan order, with |omega| > 1, as a
    witness (v, w, omega(v, w)) with omega(v, w) > 1; None when there is none."""
    for i, x in enumerate(rows):
        for y in rows[i + 1 :]:
            value, bound = omega_rows(x, y), x[-1] * y[-1]
            if value > bound:
                return dehomogenize(x), dehomogenize(y), Fraction(value, bound)
            if -value > bound:
                return dehomogenize(y), dehomogenize(x), Fraction(-value, bound)
    return None


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

    A scan that finds no violation marks P, and a marked P is answered with
    no scan: the answer depends on P's rows alone, which never change.
    ``expand_step`` marks the bodies it grows.  Raises GeometryError in odd
    dimension, where there is no form.
    """
    if P.dim % 2 != 0:
        raise GeometryError("symplectic polarity needs even dimension")
    if P._inside_sympolar:
        return True, None
    rows = P.rows
    witness = _first_violation(rows[: len(rows) // 2] if P.symmetric else rows)
    P._inside_sympolar = witness is None
    return witness is None, witness


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

    The hull lies inside its polar when omega(v, w) <= 1 on every pair of
    its vertices, each of which is a vertex of K or a point of S.  Three
    facts cover the pairs:
    - K inside K^omega covers the pairs of K's vertices.  It is checked
      through ``check_subset_sympolar``, which scans K only when no earlier
      check or step marked it, so a run of steps scans only its first K;
      a K outside its polar raises with K's own first violating pair.
    - S inside V(K^omega), which is tested, gives omega(v, s) <= 1 for
      every v in K, and as -v is in K, |omega(v, s)| <= 1: the pairs of a
      vertex of K and a point of S.
    - The pairs of two new points are scanned on the first half of the
      hull's vertices, as ``check_subset_sympolar`` does; the antipode of a
      new point is new, so this finds the first violating pair, and the
      witness, of the full scan.  A violation raises ExpansionError with
      that pair as witness.
    The hull is then marked as inside its polar, for the next step's check.
    """
    rows = sorted(dict.fromkeys(homogeneous(as_vec(p)) for p in S), key=_row_key)
    if not _mirrored(rows):
        raise ExpansionError("expansion set is not centrally symmetric")
    polar_rows = set(_sympolar_rows(K))
    ok, witness = check_subset_sympolar(K)
    if not ok:
        raise ExpansionError(f"the body is not inside its symplectic polar: {witness}", witness)
    for r in rows:
        if r not in polar_rows:
            p = dehomogenize(r)
            raise ExpansionError(
                f"expansion point {p} is not a vertex of the symplectic polar",
                (p,),
            )
    grown = _grow_hull(K, rows)
    known = set(K.rows)
    half = grown.rows[: len(grown.rows) // 2]
    witness = _first_violation([r for r in half if r not in known])
    if witness is not None:
        raise ExpansionError(
            f"expansion produced a body outside its symplectic polar: {witness}",
            witness,
        )
    grown._inside_sympolar = True
    return grown
