import random
from fractions import Fraction

import pytest

from sympolar.geometry import DimensionDeficiencyError, Polytope, convex_hull
from sympolar.suspension import hexagon, power_suspend


@pytest.fixture(scope="session")
def hexa() -> Polytope:
    return hexagon()


@pytest.fixture(scope="session")
def square() -> Polytope:
    return convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])


@pytest.fixture(scope="session")
def cross2() -> Polytope:
    return convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])


@pytest.fixture(scope="session")
def octagon() -> Polytope:
    return convex_hull(
        [(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)]
    )


@pytest.fixture(scope="session")
def p2() -> Polytope:
    return power_suspend(2)


@pytest.fixture(scope="session")
def p3() -> Polytope:
    return power_suspend(3)


def random_rational(rng: random.Random, span: int = 3, denominator: int = 4) -> Fraction:
    return Fraction(rng.randint(-span * denominator, span * denominator), denominator)


def random_point(rng: random.Random, dim: int, span: int = 3) -> tuple:
    return tuple(random_rational(rng, span) for _ in range(dim))


def random_symmetric_polytope(rng: random.Random, dim: int, points: int = 5) -> Polytope:
    """Random full-dimensional centrally symmetric polytope on a small grid.

    ``points`` antipodal pairs span at most R^points, so ``points < dim``
    can never succeed and raises ValueError; a draw that is not
    full-dimensional is drawn again."""
    if points < dim:
        raise ValueError(f"{points} antipodal pairs cannot span R^{dim}")
    while True:
        pts = [random_point(rng, dim, span=2) for _ in range(points)]
        pts += [tuple(-c for c in p) for p in pts]
        try:
            return convex_hull(pts)
        except DimensionDeficiencyError:
            continue
