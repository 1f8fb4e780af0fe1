import random
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from sympolar.experiments import generate
from sympolar.experiments.pm1 import (
    _clique_polytope,
    compatibility_adjacency,
    enumerate_pm1,
    maximal_cliques,
    sign_vector_pairs,
)
from sympolar.geometry import (
    GeometryError,
    _grow_hull,
    apply_linear,
    convex_hull,
    gauge_norm,
    polar_dual,
)
from sympolar.linalg import as_vec, homogeneous, vneg
from sympolar.suspension import power_suspend
from sympolar.symplectic import (
    ExpansionError,
    c_j,
    check_subset_sympolar,
    expand_step,
    is_self_polar,
    omega,
    polar_to_sympolar_matrix,
    symplectic_polar,
)

from conftest import random_point, random_symmetric_polytope
from test_kernel import ref_check_subset_sympolar

F = Fraction


def vecs(*points):
    return tuple(tuple(F(c) for c in p) for p in points)


# --- the form --------------------------------------------------------------


def test_omega_basic_values():
    assert omega((1, 1), (1, 0)) == -1
    assert omega((1, 0), (0, 1)) == 1
    assert omega((1, 1, 1, 0), (1, 1, 1, 1)) == 1


def test_omega_block_additivity():
    rng = random.Random(1)
    for _ in range(200):
        v, w = random_point(rng, 2), random_point(rng, 2)
        x, y = random_point(rng, 4), random_point(rng, 4)
        assert omega(v + x, w + y) == omega(v, w) + omega(x, y)


def test_omega_antisymmetric_bilinear():
    rng = random.Random(2)
    for _ in range(200):
        x, y = random_point(rng, 4), random_point(rng, 4)
        assert omega(x, y) == -omega(y, x)
        assert omega(x, x) == 0
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        scaled = tuple(c * t for t in x)
        assert omega(scaled, y) == c * omega(x, y)


def test_omega_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        omega((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        omega((1, 0), (0, 1, 0, 0))


# --- symplectic polarity ----------------------------------------------------


def test_sympolar_square_is_cross(square, cross2):
    assert symplectic_polar(square) == cross2


def test_sympolar_hexagon_fixed(hexa):
    assert symplectic_polar(hexa) == hexa
    assert is_self_polar(hexa)


def test_sympolar_suspension_fixed(p2):
    assert symplectic_polar(p2) == p2
    assert is_self_polar(p2)


def test_square_not_self_polar(square):
    assert not is_self_polar(square)


def test_sympolar_matches_definition(hexa, square):
    # every vertex pair (x of P, y of P^omega) satisfies the defining bound,
    # and each polar vertex is tight against some vertex of P
    for poly in (hexa, square):
        polar = symplectic_polar(poly)
        for y in polar.vertices:
            values = [omega(x, y) for x in poly.vertices]
            assert all(v <= 1 for v in values)
            assert max(values) == 1


def test_sympolar_involution_random():
    rng = random.Random(3)
    for _ in range(20):
        poly = random_symmetric_polytope(rng, rng.choice((2, 4)))
        assert symplectic_polar(symplectic_polar(poly)) == poly


def test_sympolar_rejects_asymmetric():
    triangle = convex_hull([(1, 0), (-1, 1), (-1, -2)])
    with pytest.raises(GeometryError):
        symplectic_polar(triangle)


def test_subset_check_needs_even_dimension():
    # with no form in odd dimension, the 3-cube has no witness to report
    cube3 = convex_hull(list(product((-1, 1), repeat=3)))
    with pytest.raises(GeometryError, match="even dimension"):
        check_subset_sympolar(cube3)


def test_polar_map_shape():
    rows = polar_to_sympolar_matrix(4)
    assert rows == (
        (0, -1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 0, 1, 0),
    )


# --- containment check ------------------------------------------------------


def test_check_hexagon_inside_its_polar(hexa):
    assert check_subset_sympolar(hexa) == (True, None)


def test_check_square_witness(square):
    ok, witness = check_subset_sympolar(square)
    assert not ok
    v, w, value = witness
    assert value == omega(v, w) == 2
    assert v in square.vertices and w in square.vertices


def test_check_cross_inside(cross2):
    assert check_subset_sympolar(cross2) == (True, None)


def test_self_polar_implies_consistency(hexa, p2):
    for poly in (hexa, p2):
        assert is_self_polar(poly)
        assert check_subset_sympolar(poly) == (True, None)
        assert c_j(poly) == 1


# --- c_J ---------------------------------------------------------------------


def test_cj_values(hexa, square, p2):
    assert c_j(hexa) == 1
    assert c_j(square) == 1
    assert c_j(p2) == 1


# --- bilinear gauge bound ----------------------------------------------------


def test_gauge_bound_and_vertex_maximizer(hexa, square, p2):
    rng = random.Random(4)
    for poly in (hexa, square, p2):
        polar = symplectic_polar(poly)
        for _ in range(60):
            x = random_point(rng, poly.dim, span=2)
            y = random_point(rng, poly.dim, span=2)
            bound = gauge_norm(poly, x) * gauge_norm(polar, y)
            assert abs(omega(x, y)) <= bound
            if any(c != 0 for c in x):
                peak = max(abs(omega(x, w)) for w in polar.vertices)
                assert peak == gauge_norm(poly, x)


def test_hexagon_pair_bound(hexa):
    # for v, w in the hexagon with t = |omega(u,v)|, s = |omega(u,w)|:
    # |omega(v,w)| <= t + s - t*s
    rng = random.Random(7)
    u = (F(1), F(1))
    verts = hexa.vertices
    for _ in range(300):
        weights_v = [rng.randint(0, 4) for _ in verts]
        weights_w = [rng.randint(0, 4) for _ in verts]
        if sum(weights_v) == 0 or sum(weights_w) == 0:
            continue
        v = tuple(
            sum(F(a) * coord[k] for a, coord in zip(weights_v, verts)) / sum(weights_v)
            for k in range(2)
        )
        w = tuple(
            sum(F(a) * coord[k] for a, coord in zip(weights_w, verts)) / sum(weights_w)
            for k in range(2)
        )
        t, s = abs(omega(u, v)), abs(omega(u, w))
        assert abs(omega(v, w)) <= t + s - t * s


# --- expansion ---------------------------------------------------------------


def test_expand_cross_to_hexagon(hexa, cross2):
    grown = expand_step(cross2, [(1, 1), (-1, -1)])
    assert grown == hexa


def test_expand_empty_set_is_identity(hexa):
    assert expand_step(hexa, []) == hexa


def test_expand_full_polar_vertex_set_halts(hexa):
    grown = expand_step(hexa, list(symplectic_polar(hexa).vertices))
    assert grown == hexa


def test_expand_rejects_asymmetric_set(cross2):
    with pytest.raises(ExpansionError):
        expand_step(cross2, [(1, 1)])


def test_expand_rejects_non_polar_vertex(cross2):
    with pytest.raises(ExpansionError):
        expand_step(cross2, [(2, 2), (-2, -2)])


def test_expand_rejects_body_outside_its_polar(square):
    # the square is not inside its polar, whatever S is; the check of K
    # rejects it before any hull is built, for S empty and for (1, 0), a
    # vertex of the square's polar inside the square
    with pytest.raises(ExpansionError):
        expand_step(square, [])
    with pytest.raises(ExpansionError):
        expand_step(square, [(1, 0), (-1, 0)])


def test_expand_rejects_interior_polar_point(cross2):
    # (1/2, 1/2) lies inside the polar of the cross but is not a vertex;
    # the grown body would stay inside its polar, so only the vertex
    # membership check rejects it
    with pytest.raises(ExpansionError):
        expand_step(cross2, [(F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2))])


def test_expand_rejects_incompatible_pairs(square, cross2):
    # (1,1) and (1,-1) are polar vertices of the cross but omega = -2
    polar = symplectic_polar(cross2)
    assert set(vecs((1, 1), (1, -1), (-1, -1), (-1, 1))) <= set(polar.vertices)
    with pytest.raises(ExpansionError):
        expand_step(cross2, vecs((1, 1), (-1, -1), (1, -1), (-1, 1)))


def _panel_start_with_incompatible_pairs():
    """The first body of the panel run random_selfpolar(4, 10, 45) and the
    first two antipodal pairs of its polar's vertices with |omega| > 1."""
    points = generate.sample_start_points(random.Random(45), 4, 10)
    K = convex_hull(points + [vneg(p) for p in points])
    reps = [v for v in symplectic_polar(K).vertices if v > vneg(v)]
    p, q = next((p, q) for p, q in combinations(reps, 2) if abs(omega(p, q)) > 1)
    return K, [p, vneg(p), q, vneg(q)]


def test_expansion_witness_is_the_full_scan_first_pair(cross2):
    # only the pairs of two new points are scanned, yet the witness is the
    # first violating pair of a scan over every vertex pair of the hull
    cases = [
        (cross2, vecs((1, 1), (-1, -1), (1, -1), (-1, 1))),
        _panel_start_with_incompatible_pairs(),
    ]
    for K, S in cases:
        with pytest.raises(ExpansionError) as excinfo:
            expand_step(K, S)
        ok, witness = ref_check_subset_sympolar(convex_hull(list(K.vertices) + list(S)))
        assert not ok
        assert excinfo.value.witness == witness


def test_failing_body_is_never_marked(square):
    ok, witness = check_subset_sympolar(square)
    assert not ok
    assert check_subset_sympolar(square) == (False, witness)
    assert not square._inside_sympolar
    for S in ([], [(1, 0), (-1, 0)]):
        with pytest.raises(ExpansionError) as excinfo:
            expand_step(square, S)
        assert excinfo.value.witness == witness
    assert not square._inside_sympolar


def test_only_checked_bodies_are_marked(hexa, cross2):
    assert check_subset_sympolar(hexa) == (True, None)
    assert hexa._inside_sympolar
    assert expand_step(cross2, [(1, 1), (-1, -1)])._inside_sympolar
    flip = [[0, 1], [1, 0]]
    copies = [convex_hull(hexa.vertices), apply_linear(flip, hexa), symplectic_polar(hexa)]
    assert copies == [hexa] * 3
    for P in copies + [polar_dual(hexa)]:
        assert not P._inside_sympolar


def _shrunk_inside_polar(poly):
    """poly scaled by the first power of 1/2 that puts it inside its polar,
    and the representatives v > -v of its polar's vertices."""
    shrink = F(1, 2)
    while True:
        scaled = convex_hull([tuple(shrink * c for c in v) for v in poly.vertices])
        if check_subset_sympolar(scaled)[0]:
            break
        shrink /= 2
    polar = symplectic_polar(scaled)
    return scaled, sorted({v if v > vneg(v) else vneg(v) for v in polar.vertices})


def test_expand_output_stays_inside_polar_fuzz():
    rng = random.Random(8)
    for _ in range(15):
        scaled, reps = _shrunk_inside_polar(random_symmetric_polytope(rng, 2))
        rng.shuffle(reps)
        chosen = []
        for rep in reps:
            if all(abs(omega(rep, other)) <= 1 for other in chosen):
                chosen.append(rep)
        grown = expand_step(scaled, chosen + [vneg(c) for c in chosen])
        assert ref_check_subset_sympolar(grown) == (True, None)


def test_expand_agrees_with_the_full_scan_fuzz():
    # polar pairs chosen with no compatibility filter: the step raises
    # exactly when the reference scan over every vertex pair of the hull
    # finds a violation, with that scan's first pair as witness
    rng = random.Random(9)
    outcomes = []
    for dim in (2, 4) * 6:
        K, reps = _shrunk_inside_polar(random_symmetric_polytope(rng, dim))
        chosen = rng.sample(reps, min(len(reps), rng.randint(1, 3)))
        S = chosen + [vneg(c) for c in chosen]
        ok, witness = ref_check_subset_sympolar(convex_hull(list(K.vertices) + S))
        if ok:
            assert ref_check_subset_sympolar(expand_step(K, S)) == (True, None)
        else:
            with pytest.raises(ExpansionError) as excinfo:
                expand_step(K, S)
            assert excinfo.value.witness == witness
        outcomes.append(ok)
    assert set(outcomes) == {True, False}


# --- warm-started hull and the polar's rows ----------------------------------


def _same_hull(P, Q):
    return (
        P.vertices == Q.vertices
        and P.facets == Q.facets
        and P.facet_vertex_sets() == Q.facet_vertex_sets()
    )


@pytest.mark.parametrize("seed", [45, 8, 6])
def test_expand_step_matches_cold_hull_at_every_generation_step(monkeypatch, seed):
    # panel seeds of the benchmark's generate workload; every step's warm
    # start must rebuild exactly the hull of K and S made from scratch
    steps = []

    def checked(K, S):
        grown = expand_step(K, S)
        assert _same_hull(grown, convex_hull(list(K.vertices) + list(S)))
        steps.append(len(grown.vertices))
        return grown

    monkeypatch.setattr(generate, "expand_step", checked)
    record = generate.random_selfpolar(4, 10, seed)
    assert record.self_polar
    assert len(steps) == record.iterations - 1 >= 2


def _rows(points):
    """The distinct rows of ``points``, sorted as the points sort: the form
    ``expand_step`` hands to ``_grow_hull``."""
    return [homogeneous(p) for p in sorted({as_vec(p) for p in points})]


def test_grow_hull_with_interior_boundary_and_repeated_points(p2):
    rng = random.Random(11)
    for K in (p2, random_symmetric_polytope(rng, 4), random_symmetric_polytope(rng, 2)):
        v, w = K.vertices[0], K.vertices[-1]
        inside = [
            tuple(0 * c for c in v),
            tuple(c / 2 for c in v),
            tuple((a + b) / 2 for a, b in zip(v, w)),
        ] + [tuple((a + b) / 2 for a, b in zip(v, u)) for u in K.vertices]
        repeated = list(K.vertices[::2])
        outside = [tuple(2 * c for c in v)]
        for S in (inside, repeated, inside + repeated, outside + repeated + inside):
            S = S + [vneg(p) for p in S]
            warm = _grow_hull(K, _rows(S))
            assert _same_hull(warm, convex_hull(list(K.vertices) + S))
        same = inside + repeated
        assert _grow_hull(K, _rows(same + [vneg(p) for p in same])) == K
        assert _grow_hull(K, []) == K


def _symmetric_points(rng, K):
    """Points inside, on and outside K, each with its antipode."""
    vertices = K.vertices
    facet = [vertices[i] for i in K.facet_vertex_sets()[rng.randrange(len(K.incidence))]]
    v, w = rng.sample(facet, 2)
    u = rng.choice(vertices)
    points = [
        tuple(c / 2 for c in u),  # inside
        tuple((a + b) / 2 for a, b in zip(v, w)),  # on a facet
        tuple(sum(c) / len(facet) for c in zip(*facet)),  # on a facet
        tuple(3 * c / 2 for c in u),  # outside
        random_point(rng, K.dim),
        random_point(rng, K.dim),
    ]
    return points + [vneg(p) for p in points]


def test_grow_hull_slabs_match_cold_hull(p2):
    # each new antipodal pair is one slab cut; growing twice checks that the
    # grown cone keeps its rays and tight sets in mirror pairs
    rng = random.Random(12)
    # dim + 1 antipodal pairs: the default five cannot span R^6
    bodies = [random_symmetric_polytope(rng, dim, points=dim + 1) for dim in (2, 2, 4, 6)]
    bodies.append(p2)
    for K in bodies:
        for _ in range(2):
            S = _symmetric_points(rng, K)
            grown = _grow_hull(K, _rows(S))
            assert _same_hull(grown, convex_hull(list(K.vertices) + S))
            assert grown.symmetric
            K = grown


def test_grow_hull_needs_a_symmetric_body():
    triangle = convex_hull([(1, 0), (-1, 1), (-1, -2)])
    assert triangle.origin_interior() and not triangle.symmetric
    with pytest.raises(GeometryError):
        _grow_hull(triangle, [(-2, 0, 1), (2, 0, 1)])


def _rejected_dim6_clique():
    reps = sign_vector_pairs(6)
    *_, clique = islice(maximal_cliques(compatibility_adjacency(reps)), 27)
    return _clique_polytope(reps, clique)


def test_is_self_polar_agrees_with_building_the_polar(square, p2, p3):
    table1 = [cls.representative for cls in enumerate_pm1(4).classes]
    generated = generate.random_selfpolar(4, 10, 45).final
    bodies = table1 + [power_suspend(1), p2, p3, square, generated, _rejected_dim6_clique()]
    verdicts = [is_self_polar(P) for P in bodies]
    assert verdicts == [symplectic_polar(P) == P for P in bodies]
    assert verdicts[-2:] == [True, False] and not verdicts[-3]


def test_is_self_polar_raises_the_polar_errors():
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    triangle = convex_hull([(1, 0), (-1, 1), (-1, -2)])
    off_origin = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    for P in (cube, triangle, off_origin):
        for fn in (is_self_polar, symplectic_polar, c_j):
            with pytest.raises(GeometryError) as excinfo:
                fn(P)
            assert type(excinfo.value) is GeometryError
