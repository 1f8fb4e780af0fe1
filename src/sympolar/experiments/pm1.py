"""Enumeration of symplectically self-polar polytopes with -1/0/1 vertices.

Antipodal pairs of nonzero sign vectors form a compatibility graph with an
edge where |omega| <= 1; every inclusion-maximal clique spans a candidate
polytope whose vertices are pairwise within the form bound, so it already
sits inside its symplectic polar.  Given that, it is self-polar exactly
when the polar lies inside it, which ``is_self_polar`` decides; the other
cliques are counted as rejected.  The self-polar polytopes are classified
by vertex count and exact volume.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from sympolar.geometry import Polytope, convex_hull, volume
from sympolar.linalg import bits, vneg
from sympolar.symplectic import is_self_polar, omega_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CliqueClass:
    vertex_count: int
    volume: Fraction
    count: int
    representative: Polytope


@dataclass(frozen=True)
class Pm1Result:
    dim: int
    classes: tuple[CliqueClass, ...]
    cliques_seen: int
    rejected: int  # maximal cliques whose polytope failed self-polarity
    complete: bool


def sign_vector_pairs(dim: int) -> list[tuple[int, ...]]:
    """One representative (first nonzero coordinate positive) per antipodal
    pair of {-1,0,1}^dim minus the origin, sorted lexicographically, as
    ``int`` tuples."""
    return sorted(v for v in product((-1, 0, 1), repeat=dim) if v > vneg(v))


def compatibility_adjacency(reps: list[tuple[int, ...]]) -> list[int]:
    """Bitmask adjacency; the edge relation |omega(v, w)| <= 1 is well
    defined on antipodal pairs.  Sign vectors are integer, so their
    homogeneous rows are (v, 1) and omega is read off them directly."""
    rows = [r + (1,) for r in reps]
    n = len(rows)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if abs(omega_rows(rows[i], rows[j])) <= 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def maximal_cliques(adj: list[int]):
    """Pivoting Bron-Kerbosch over bitmask sets, in deterministic order.
    The generator is lazy, so a caller with a budget stops drawing."""
    n = len(adj)

    def expand(r: int, p: int, x: int):
        if p == 0 and x == 0:
            yield r
            return
        pivot = -1
        best = -1
        for u in bits(p | x):
            size = (p & adj[u]).bit_count()
            if size > best:
                best = size
                pivot = u
        for v in bits(p & ~adj[pivot]):
            yield from expand(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    yield from expand(0, (1 << n) - 1, 0)


def _clique_polytope(reps: list[tuple[int, ...]], clique: int) -> Polytope:
    return convex_hull([p for i in bits(clique) for p in (reps[i], vneg(reps[i]))])


def enumerate_pm1(dim: int, budget: int | None = None) -> Pm1Result:
    """Classify the symplectically self-polar -1/0/1 polytopes of the given
    dimension by (vertex count, exact volume).

    Dimension 6 needs an explicit clique budget; a budget is at least 0.
    With a budget, at most that many cliques are processed, and the result
    is marked partial exactly when more maximal cliques remain.
    """
    if dim not in (2, 4, 6):
        raise ValueError(f"enumeration supports dimensions 2, 4, 6; got {dim}")
    if dim == 6 and budget is None:
        raise ValueError("dimension 6 enumeration requires an explicit budget")
    if budget is not None and budget < 0:
        raise ValueError(f"clique budget must be at least 0; got {budget}")
    reps = sign_vector_pairs(dim)
    adj = compatibility_adjacency(reps)

    classes: dict[tuple[int, Fraction], list] = {}
    cliques_seen = 0
    rejected = 0
    complete = True
    # one clique past the budget, drawn and not processed, tells whether
    # the enumeration ran out
    for clique in maximal_cliques(adj):
        if cliques_seen == budget:
            complete = False
            break
        cliques_seen += 1
        poly = _clique_polytope(reps, clique)
        if not is_self_polar(poly):
            rejected += 1
            continue
        key = (len(poly.rows), volume(poly))
        entry = classes.get(key)
        if entry is None:
            classes[key] = [1, poly]
        else:
            entry[0] += 1

    ordered = tuple(
        CliqueClass(vcount, vol, count, rep)
        for (vcount, vol), (count, rep) in sorted(classes.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    )
    if not complete:
        log.info("clique enumeration stopped at the budget of %d; output is partial", budget)
    return Pm1Result(
        dim=dim,
        classes=ordered,
        cliques_seen=cliques_seen,
        rejected=rejected,
        complete=complete,
    )
