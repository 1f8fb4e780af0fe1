"""The hexagon, its symplectic suspension, and the iterated family.

The suspension of a symmetric body X in R^{2n} is the body in R^{2+2n}
consisting of the pairs (v, x) with v in the hexagon and
|omega(u, v)| + ||x||_X <= 1, where u = (1, 1) is the distinguished hexagon
vertex.  The vertex route builds the family; it accepts only symplectically
self-polar X, which keeps the family self-polar.  The halfspace route gives
the same body for every symmetric X as the polar of the hull of its facet
normals, all at offset 1: built from the facet description, it is the
independent construction the tests compare the vertex route against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Sequence

from sympolar.geometry import (
    GeometryError,
    Polytope,
    convex_hull,
    gauge_norm,
    polar_dual,
)
from sympolar.linalg import Vec, as_vec, homogeneous
from sympolar.symplectic import is_self_polar, omega

ZERO = Fraction(0)
ONE = Fraction(1)

#: The distinguished hexagon vertex the suspension pivots around.
PIVOT: Vec = (Fraction(1), Fraction(1))

_HEXAGON_POINTS = ((1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1))


@cache
def hexagon() -> Polytope:
    """conv{±(1,1), ±(1,0), ±(0,1)}: the minimal-volume symplectically
    self-polar body of the plane, and the base of every suspension here."""
    return convex_hull(_HEXAGON_POINTS)


def suspension_points(vertices: Sequence[Vec]) -> list[Vec]:
    """The vertex lift: the suspension's vertices from the vertices of a
    self-polar X, the four short hexagon vertices at level zero and then
    u + v and -u + v for each v.  The order fixes the hull's facet order."""
    zeros = (ZERO,) * len(vertices[0])
    short = [(ONE, ZERO), (-ONE, ZERO), (ZERO, ONE), (ZERO, -ONE)]
    return [h + zeros for h in short] + [u + v for v in vertices for u in (PIVOT, (-ONE, -ONE))]


def suspend_vertices(X: Polytope) -> Polytope:
    """Suspension via its vertex description: the hull of
    ``suspension_points(X.vertices)``.  This is the body of
    ``suspend_halfspaces`` for every symmetric X; X must be symplectically
    self-polar here so that the suspension family stays self-polar."""
    if not is_self_polar(X):
        raise GeometryError(
            "vertex-route suspension needs a symplectically self-polar body; "
            "use suspend_halfspaces for general symmetric input"
        )
    points = suspension_points(X.vertices)
    result = convex_hull(points)
    if set(result.rows) != {homogeneous(p) for p in points}:
        raise GeometryError("suspension points failed to be in convex position")
    return result


def suspend_halfspaces(X: Polytope) -> Polytope:
    """Suspension via its facet description, for any symmetric X.

    Each facet <a, x> <= 1 of X, a a vertex of X's polar, contributes the
    two halfspaces ±omega(u, v) + <a, x> <= 1 on R^2 x R^{2n}; together
    with the lifted hexagon facets, the vertices of the hexagon's polar,
    these cut out exactly the suspension.  Every offset is 1, so the
    suspension is the polar of the hull of these normals (the two hexagon
    normals parallel to the omega(u, .) level sets lie inside it and drop).
    """
    if not X.symmetric:
        raise GeometryError("suspension needs a centrally symmetric body")
    zeros = (Fraction(0),) * X.dim
    # omega(u, v) = v2 - v1 for u = (1, 1)
    normals = [a + zeros for a in polar_dual(hexagon()).vertices] + [
        (-eps, eps) + a for a in polar_dual(X).vertices for eps in (ONE, -ONE)
    ]
    return polar_dual(convex_hull(normals))


def suspension_membership(v: Sequence, x: Sequence, X: Polytope) -> bool:
    """Definition-level membership test: v in the hexagon and
    |omega(u, v)| + ||x||_X <= 1."""
    vv, xv = as_vec(v), as_vec(x)
    if len(vv) != 2 or len(xv) != X.dim:
        raise GeometryError("membership point has wrong block dimensions")
    if not hexagon().contains(vv):
        return False
    return abs(omega(PIVOT, vv)) + gauge_norm(X, xv) <= 1


def vertex_count_formula(n: int) -> int:
    """Closed-form vertex count 10 (2^{n-1} - 1) + 6 of the n-fold suspension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 10 * (2 ** (n - 1) - 1) + 6


def volume_closed_form(n: int) -> Fraction:
    """Exact volume of the n-fold suspension, as the telescoped rational
    product 2^n/n! * prod_{k=0}^{n-1} (4k+3)/(4k+2).

    The product telescopes the Gamma-function quotient
    Gamma(n+3/4) Gamma(1/2) / (Gamma(n+1/2) Gamma(3/4)) through the
    recurrence Gamma(z+1) = z Gamma(z), so no irrational value is needed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    value = Fraction(2**n, factorial(n))
    for k in range(n):
        value *= Fraction(4 * k + 3, 4 * k + 2)
    return value


@cache
def power_suspend(n: int) -> Polytope:
    """The n-fold iterated suspension P_n of the hexagon: P_1 is the hexagon
    and P_n is the vertex-route suspension of P_{n-1}.

    Each level is built once per process and kept in memory; nothing is
    written to disk.  To keep a level, write it with
    ``sympolar.io.write_polytope`` (or ``sympolar power-suspend n --out``).
    """
    if n < 1:
        raise ValueError("suspension power must be >= 1")
    if n == 1:
        return hexagon()
    return suspend_vertices(power_suspend(n - 1))


@dataclass(frozen=True)
class InductionCertificate:
    """2n+1 pairwise distinct, non-antipodal vertices of the n-fold
    suspension with omega(v_i, v_j) = 1 for every i < j."""

    n: int
    vertices: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.vertices) != 2 * self.n + 1:
            raise ValueError("certificate needs exactly 2n+1 vectors")
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("certificate vectors are not pairwise distinct")
        for v in self.vertices:
            if tuple(-c for c in v) in seen:
                raise ValueError("certificate contains an antipodal pair")
        for i, v in enumerate(self.vertices):
            for w in self.vertices[i + 1 :]:
                if omega(v, w) != 1:
                    raise ValueError(
                        f"certificate pair {(v, w)} has form value {omega(v, w)} != 1"
                    )


def witness_step(vectors: Sequence[Vec]) -> list[Vec]:
    """The witness step: a witness family of the suspension from one of X,
    u + v for each vector v, then (0,1) + 0 and (-1,0) + 0."""
    zeros = (ZERO,) * len(vectors[0])
    return [PIVOT + v for v in vectors] + [(ZERO, ONE) + zeros, (-ONE, ZERO) + zeros]


def induction_certificate(n: int) -> InductionCertificate:
    """Recursive witness family: the base triple (1,0), (1,1), (0,1) on the
    hexagon, lifted n - 1 times by ``witness_step``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vectors: list[Vec] = [
        (ONE, Fraction(0)),
        (ONE, ONE),
        (Fraction(0), ONE),
    ]
    for _ in range(n - 1):
        vectors = witness_step(vectors)
    return InductionCertificate(n, tuple(vectors))
