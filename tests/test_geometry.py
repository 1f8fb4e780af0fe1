import random
from fractions import Fraction

import pytest

from sympolar.geometry import (
    DimensionDeficiencyError,
    GeometryError,
    PolarityDomainError,
    apply_linear,
    convex_hull,
    f_vector,
    from_halfspaces,
    gauge_norm,
    polar_dual,
    shadow_area,
    vertex_enumeration,
    volume,
)
from sympolar.linalg import SingularMatrixError, as_vec, fraction_vec_to_int, vneg
from sympolar.suspension import PIVOT
from sympolar.symplectic import omega

from conftest import random_point, random_symmetric_polytope

F = Fraction


def vecs(*points):
    return tuple(tuple(F(c) for c in p) for p in points)


# --- convex hull ----------------------------------------------------------


def test_hull_drops_interior_point():
    poly = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)])
    assert poly.vertices == vecs((-1, 0), (0, -1), (0, 1), (1, 0))


def test_hull_hexagon_keeps_all_six(hexa):
    assert len(hexa.vertices) == 6
    assert set(hexa.vertices) == set(vecs((1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)))


def test_hull_of_suspension_point_family():
    # the 4 + 2*6 suspension points of the hexagon are in convex position
    points = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0)]
    hexagon_points = [(1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)]
    for v in hexagon_points:
        points.append((1, 1) + v)
        points.append((-1, -1) + v)
    poly = convex_hull(points)
    assert len(poly.vertices) == 16
    assert len(poly.facets) == 16


def test_hull_idempotence(hexa, square, octagon):
    for poly in (hexa, square, octagon):
        again = convex_hull(poly.vertices)
        assert again == poly
        assert again.facets == poly.facets


def test_hull_rejects_degenerate_input():
    with pytest.raises(DimensionDeficiencyError) as err:
        convex_hull([(0, 0), (1, 1), (2, 2), (-1, -1)])
    assert err.value.affine_dim == 1
    assert err.value.ambient_dim == 2
    # the rank comes from the double description's starting basis
    for points, affine_dim in [
        ([(0, 0)], 0),
        ([(0, 0, 0), (1, 2, 3), (-1, -2, -3)], 1),
        ([(1, 2, 0), (-1, -2, 0), (0, 1, 1), (0, -1, -1)], 2),
    ]:
        with pytest.raises(DimensionDeficiencyError) as err:
            convex_hull(points)
        assert (err.value.ambient_dim, err.value.affine_dim) == (len(points[0]), affine_dim)


def test_hull_rejects_empty_input():
    with pytest.raises(GeometryError, match="no points given"):
        convex_hull([])


def _moved(points, s):
    return [tuple(a + b for a, b in zip(p, s)) for p in points]


def test_hull_commutes_with_translation():
    """convex_hull(S + s) is the hull of S moved by s, for s that puts the
    origin outside the body, on a facet's hyperplane or at a vertex: the
    vertices move by s and each facet <a, x> <= b becomes <a, x> <= b + <a, s>."""
    rng = random.Random(45)
    seen = set()
    for trial in range(36):
        dim = rng.choice((2, 3, 4))
        symmetric = trial % 2 == 0
        while True:
            points = [random_point(rng, dim, span=2) for _ in range(rng.randint(dim + 1, dim + 4))]
            if symmetric:
                points += [vneg(p) for p in points]
            try:
                P = convex_hull(points)
                break
            except DimensionDeficiencyError:
                continue
        j = rng.randrange(len(P.facet_rows))
        a = P.facet_rows[j][:-1]
        on = [P.vertices[i] for i in range(len(P.rows)) if P.incidence[j] >> i & 1]
        kind = ("outside", "hyperplane", "vertex")[trial // 2 % 3]
        if kind == "vertex":
            q = rng.choice(P.vertices)
        elif kind == "hyperplane":
            # an affine combination of the facet's vertices, often past its edges
            w = [F(rng.randint(-2, 3)) for _ in on]
            w[0] += 1 - sum(w)
            q = tuple(sum(c * v[k] for c, v in zip(w, on)) for k in range(dim))
        else:
            q = tuple(x + F(rng.randint(1, 3), 2) * c for x, c in zip(on[0], a))
        s = vneg(q)
        Q = convex_hull(_moved(points, s))
        assert Q.vertices == tuple(_moved(P.vertices, s))
        moved = [
            fraction_vec_to_int(as_vec(f[:-1]) + (F(f[-1]) - sum(c * x for c, x in zip(f, s)),))
            for f in P.facet_rows
        ]
        assert set(zip(Q.facet_rows, Q.incidence)) == set(zip(moved, P.incidence))
        assert volume(Q) == volume(P)
        assert f_vector(Q) == f_vector(P)
        if kind == "outside":
            assert not Q.contains((0,) * dim)
            assert any(f[-1] > 0 for f in Q.facet_rows)  # a facet with offset b < 0
        elif kind == "hyperplane":
            assert moved[j][-1] == 0
        else:
            assert (0,) * dim + (1,) in Q.rows
        seen.add((dim, symmetric, kind))
    assert len(seen) >= 12


def test_hull_rejects_mixed_dimensions():
    with pytest.raises(GeometryError):
        convex_hull([(0, 0), (1, 0, 0)])


# --- polar dual -----------------------------------------------------------


def test_polar_square_is_cross(square, cross2):
    assert polar_dual(square) == cross2


def test_polar_hexagon_frozen(hexa):
    # facet normals of the hexagon, computed by hand from its six edges
    expected = vecs((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0))
    assert polar_dual(hexa).vertices == expected


def test_polar_involution(hexa, square, octagon):
    for poly in (hexa, square, octagon):
        assert polar_dual(polar_dual(poly)) == poly


def test_polar_requires_interior_origin():
    shifted = convex_hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    with pytest.raises(PolarityDomainError):
        polar_dual(shifted)


def test_polar_reverses_inclusion(square, cross2):
    inner, outer = cross2, square
    assert all(outer.contains(v) for v in inner.vertices)
    dual_outer, dual_inner = polar_dual(outer), polar_dual(inner)
    assert all(dual_inner.contains(v) for v in dual_outer.vertices)


# --- volume ---------------------------------------------------------------


def test_volume_hexagon(hexa):
    assert volume(hexa) == 3


def test_volume_cross_polytope_dim4():
    cross = convex_hull(
        [tuple(F(int(i == j)) * s for i in range(4)) for j in range(4) for s in (1, -1)]
    )
    assert volume(cross) == F(2, 3)  # 2^4 / 4!


def test_volume_square(square):
    assert volume(square) == 4


def test_volume_octagon_matches_shoelace(octagon):
    assert volume(octagon) == 14  # shoelace sum 28 halved, computed by hand


def test_volume_unimodular_invariance(hexa):
    stretched = apply_linear([[F(2), 0], [0, F(1, 2)]], hexa)
    assert volume(stretched) == volume(hexa)


# --- gauge ----------------------------------------------------------------


def test_gauge_examples(hexa):
    assert gauge_norm(hexa, (1, 1)) == 1
    assert gauge_norm(hexa, (2, 0)) == 2
    assert gauge_norm(hexa, (1, -1)) == 2
    assert gauge_norm(hexa, (0, 0)) == 0


def _ray_boundary_scale(poly, x):
    """2D oracle: smallest t with x/t inside, by intersecting the ray with
    every edge segment."""
    verts = poly.vertices
    edge_pairs = []
    for i, v in enumerate(verts):
        for w in verts[i + 1 :]:
            shared = [
                f for f in poly.facets if f.is_tight(v) and f.is_tight(w)
            ]
            if shared:
                edge_pairs.append((v, w))
    best = None
    for v, w in edge_pairs:
        # solve t*x = v + s*(w - v)
        a, b = x
        det = a * (v[1] - w[1]) - b * (v[0] - w[0])
        if det == 0:
            continue
        s = (a * v[1] - b * v[0]) / det
        if not 0 <= s <= 1:
            continue
        point = (v[0] + s * (w[0] - v[0]), v[1] + s * (w[1] - v[1]))
        if a != 0:
            t = point[0] / a
        else:
            t = point[1] / b
        if t > 0 and (best is None or t < best):
            best = t
    return 1 / best


def test_gauge_against_ray_oracle(hexa, octagon):
    rng = random.Random(5)
    for poly in (hexa, octagon):
        for _ in range(50):
            x = random_point(rng, 2)
            if x == (0, 0):
                continue
            assert gauge_norm(poly, x) == _ray_boundary_scale(poly, x)


def test_gauge_support_duality(hexa, square, octagon):
    rng = random.Random(6)
    for poly in (hexa, square, octagon):
        dual = polar_dual(poly)
        for _ in range(100):
            x = random_point(rng, 2)
            assert gauge_norm(poly, x) == max(
                sum(a * b for a, b in zip(w, x)) for w in dual.vertices
            )


def test_contains_rejects_point_of_wrong_dimension(hexa):
    # the integer dot product would zip and truncate (0, 0, 9) to the origin
    for point in [(0, 0, 9), (0,)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            hexa.contains(point)
        with pytest.raises(ValueError, match="dimension mismatch"):
            hexa.facets[0].contains(point)


def test_gauge_rejects_point_of_wrong_dimension(hexa):
    # the gauge reads the facet rows, whose integer dot product would zip
    # and truncate (0, 0, 9) to the origin, of gauge 0
    for point in [(0, 0, 9), (0,)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            gauge_norm(hexa, point)


def test_gauge_needs_symmetry():
    triangle = convex_hull([(1, 0), (-1, 1), (-1, -2)])
    with pytest.raises(GeometryError):
        gauge_norm(triangle, (1, 0))


# --- linear images --------------------------------------------------------


def test_apply_identity(hexa):
    assert apply_linear([[1, 0], [0, 1]], hexa) == hexa


def test_apply_rotation_preserves_square(square):
    assert apply_linear([[0, -1], [1, 0]], square) == square


def test_apply_singular_rejected(square):
    with pytest.raises(SingularMatrixError):
        apply_linear([[1, 1], [1, 1]], square)


def test_apply_linear_transforms_facets(hexa):
    image = apply_linear([[1, 1], [0, 1]], hexa)
    recomputed = convex_hull(image.vertices)
    assert image.facets == recomputed.facets


# --- shadows --------------------------------------------------------------


def test_shadow_of_plane_polytope_is_area(hexa):
    assert shadow_area(hexa) == 3


def test_shadow_of_suspension(p2, p3):
    assert shadow_area(p2) == 3
    assert shadow_area(p3) == 3


# --- f-vector -------------------------------------------------------------


def test_f_vector_square(square):
    assert f_vector(square) == (4, 4)


def test_f_vector_cross_dim4():
    cross = convex_hull(
        [tuple(F(int(i == j)) * s for i in range(4)) for j in range(4) for s in (1, -1)]
    )
    assert f_vector(cross) == (8, 24, 32, 16)


def _unit_vectors(dim):
    return [tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)]


# closed forms: a segment's length; the f-vectors of the 5-cube, the
# 5-cross-polytope (its dual) and Δ4 × [0, 2] (faces of Δ4 times faces of
# the segment), with volumes 1, 2^5/5! and 2/4!
CLOSED_FORM_BODIES = {
    "segment": ([(F(1, 3),), (F(5, 7),), (F(1, 2),)], (2,), F(8, 21)),
    "cube": (
        [tuple(F((m >> i) & 1) for i in range(5)) for m in range(32)],
        (32, 80, 80, 40, 10),
        F(1),
    ),
    "cross": (
        _unit_vectors(5) + [vneg(e) for e in _unit_vectors(5)],
        (10, 40, 80, 80, 32),
        F(4, 15),
    ),
    "simplex_prism": (
        [v + (F(h),) for v in [(F(0),) * 4] + _unit_vectors(4) for h in (0, 2)],
        (10, 25, 30, 20, 7),
        F(1, 12),
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_BODIES))
def test_f_vector_and_volume_closed_forms(name):
    points, f, vol = CLOSED_FORM_BODIES[name]
    poly = convex_hull(points)
    assert f_vector(poly) == f
    assert volume(poly) == vol


# --- halfspace input ------------------------------------------------------


def test_from_halfspaces_prunes_halfspace_tight_on_one_vertex(square):
    # x + y <= 2 touches the square only at (1, 1)
    halfspaces = [(f.normal, f.offset) for f in square.facets] + [((F(1), F(1)), F(2))]
    poly = from_halfspaces(halfspaces, 2)
    assert poly == square
    assert poly.facets == square.facets


def test_from_halfspaces_rejects_lower_dimensional_region():
    # x <= 0 and -x <= 0 leave the segment x = 0, |y| <= 1
    halfspaces = [
        ((F(1), F(0)), F(0)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(1)),
    ]
    with pytest.raises(DimensionDeficiencyError) as err:
        from_halfspaces(halfspaces, 2)
    assert err.value.affine_dim == 1


def test_floats_are_refused_at_the_api(hexa):
    # 0.1 would be read at its binary value, 3602879701896397/2^55, where
    # the file reader refuses a float
    calls = [
        lambda: apply_linear([[0.1, 0], [0, 1]], hexa),
        lambda: convex_hull([(0.1, 0), (0, 1), (-1, -1)]),
        lambda: hexa.contains((0.1, 0)),
        lambda: omega((0.1, 0), (0, 1)),
        lambda: vertex_enumeration([((1, 0), 0.1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)], 2),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="0.1"):
            call()


def test_halfspace_normals_must_match_dim():
    # one 3-coordinate normal among 2-coordinate ones in R^2 would cut the
    # box [-1, 0] x [-1, 1] out of the square; in R^3, 2-coordinate normals
    # would index past their end
    box = [((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))]
    for halfspaces, dim in [
        ([((F(1), F(0), F(0)), F(1)), ((F(-1), F(0)), F(1))] + box, 2),
        ([((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1))] + box, 3),
    ]:
        for build in (vertex_enumeration, from_halfspaces):
            with pytest.raises(GeometryError, match=f"must have {dim} coordinates"):
                build(halfspaces, dim)


# --- randomized properties ------------------------------------------------


def test_random_involution_and_idempotence():
    rng = random.Random(42)
    for _ in range(25):
        dim = rng.choice((2, 2, 4))
        poly = random_symmetric_polytope(rng, dim)
        assert convex_hull(poly.vertices) == poly
        assert polar_dual(polar_dual(poly)) == poly


def test_random_volume_positive_and_symmetry():
    rng = random.Random(43)
    for _ in range(10):
        poly = random_symmetric_polytope(rng, 2)
        assert volume(poly) > 0
        assert poly.symmetric
        assert set(poly.vertices) == {vneg(v) for v in poly.vertices}


def _brute_force_vertices(halfspaces, dim):
    """Oracle: intersect every dim-subset of boundary hyperplanes and keep
    the feasible solutions; exhaustive and independent of the incremental
    engine."""
    from itertools import combinations

    from fraction_linalg import solve

    points = set()
    for subset in combinations(halfspaces, dim):
        matrix = [hs[0] for hs in subset]
        rhs = [hs[1] for hs in subset]
        point = solve(matrix, rhs)
        if point is None:
            continue
        if all(
            sum(a * b for a, b in zip(normal, point)) <= offset
            for normal, offset in halfspaces
        ):
            points.add(point)
    return points


def test_vertex_enumeration_rejects_unbounded():
    from sympolar.geometry import UnboundedRegionError, vertex_enumeration

    halfspaces = [((F(-1), F(0)), F(1)), ((F(0), F(-1)), F(1))]
    with pytest.raises(UnboundedRegionError):
        vertex_enumeration(halfspaces, 2)


def test_vertex_enumeration_rejects_normals_that_do_not_span():
    from sympolar.geometry import vertex_enumeration

    # |x1| <= 1 in R^2 contains the line x1 = 0
    halfspaces = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1))]
    with pytest.raises(GeometryError, match="contains a line, so it is unbounded or empty"):
        vertex_enumeration(halfspaces, 2)


def test_vertex_enumeration_rejects_empty():
    from sympolar.geometry import vertex_enumeration

    halfspaces = [
        ((F(1), F(0)), F(-1)),
        ((F(-1), F(0)), F(-1)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(1)),
    ]
    with pytest.raises(GeometryError):
        vertex_enumeration(halfspaces, 2)


def test_vertex_enumeration_against_brute_force():
    from sympolar.geometry import vertex_enumeration

    rng = random.Random(44)
    produced = 0
    while produced < 12:
        dim = rng.choice((2, 3))
        halfspaces = []
        for _ in range(rng.randint(dim + 2, dim + 6)):
            normal = random_point(rng, dim, span=2)
            if all(c == 0 for c in normal):
                continue
            halfspaces.append((normal, F(rng.randint(1, 8), 4)))
        # symmetrize so the region is bounded with the origin interior
        halfspaces += [(vneg(a), b) for a, b in halfspaces]
        try:
            found = set(vertex_enumeration(halfspaces, dim))
        except GeometryError:
            continue
        produced += 1
        # a feasible point with dim independent tight constraints is exactly
        # a vertex, so the exhaustive oracle yields the full vertex set
        assert found == _brute_force_vertices(halfspaces, dim)
