"""Differential tests of the integer kernel against a Fraction-only reference.

The reference below recomputes tightness, containment, affine rank, the face
lattice, the pulling-triangulation volume and the symplectic containment
witness with nothing but ``Fraction`` arithmetic on the public vertex and
facet lists, independently of the homogeneous integer rows the kernel uses.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial, lcm

import pytest

from sympolar import geometry
from sympolar.capacity import _pair_rep, generator_base
from sympolar.experiments import enumerate_pm1, random_selfpolar
from sympolar.experiments.pm1 import compatibility_adjacency, maximal_cliques, sign_vector_pairs
from sympolar.geometry import (
    GeometryError,
    _antipode,
    _check_consistency,
    _crossings,
    _grow_hull,
    _maximal,
    _mirrored,
    _packed,
    _polytope,
    _row_key,
    apply_linear,
    convex_hull,
    f_vector,
    from_halfspaces,
    polar_dual,
    volume,
)
from sympolar.io import read_polytope, write_polytope
from sympolar.linalg import (
    SingularMatrixError,
    bits,
    dehomogenize,
    fraction_vec_to_int,
    homogeneous,
    independent_rows,
    int_adjugate,
    int_det,
    int_dot,
    primitive,
    vneg,
)
from sympolar.suspension import power_suspend, suspend_halfspaces, volume_closed_form
from sympolar.symplectic import check_subset_sympolar, expand_step, symplectic_polar

from conftest import random_point, random_symmetric_polytope
from fraction_linalg import invert, rank, transpose

F = Fraction


# --- the Fraction-only reference -------------------------------------------


def ref_value(facet, point):
    return sum((a * x for a, x in zip(facet.normal, point)), F(0)) - facet.offset


def ref_rank(rows):
    reduced = []
    for row in rows:
        work = [F(c) for c in row]
        for base, p in reduced:
            if work[p] != 0:
                factor = work[p] / base[p]
                work = [x - factor * y for x, y in zip(work, base)]
        pivot = next((k for k, c in enumerate(work) if c != 0), None)
        if pivot is not None:
            reduced.append((work, pivot))
    return len(reduced)


def ref_affine_rank(points):
    if len(points) <= 1:
        return 0
    base = points[0]
    return ref_rank([[a - b for a, b in zip(p, base)] for p in points[1:]])


def ref_det(matrix):
    work = [[F(c) for c in row] for row in matrix]
    n, result = len(work), F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        result *= work[col][col]
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return result


def _incidence(rows, facet_rows):
    """Per facet row, the bitmask of the point rows on it; raises
    GeometryError when a point lies outside a facet."""
    masks = []
    for f in facet_rows:
        mask = 0
        for i, r in enumerate(rows):
            value = int_dot(f, r)
            if value > 0:
                raise GeometryError(f"vertex {dehomogenize(r)} violates facet row {f}")
            mask |= (value == 0) << i
        masks.append(mask)
    return tuple(masks)


def ref_facet_vertex_sets(P):
    return tuple(
        frozenset(i for i, v in enumerate(P.vertices) if ref_value(f, v) == 0)
        for f in P.facets
    )


def ref_face_lattice(P):
    levels = {P.dim - 1: sorted(set(ref_facet_vertex_sets(P)), key=sorted)}
    for k in range(P.dim - 1, 1, -1):
        found = set()
        for a, b in combinations(levels[k], 2):
            g = a & b
            if len(g) >= k and ref_affine_rank([P.vertices[t] for t in g]) == k - 1:
                found.add(g)
        levels[k - 1] = sorted(found, key=sorted)
    return levels


def ref_volume(P):
    """Pulling triangulation over the reference lattice, Fraction determinants."""
    levels = ref_face_lattice(P)
    verts = P.vertices

    def simplices(face, k):
        if k == 1:
            return [tuple(sorted(face))]
        apex = min(face)
        out = []
        for child in levels[k - 1]:
            if child <= face and apex not in child:
                out += [(apex,) + s for s in simplices(child, k - 1)]
        return out

    total = F(0)
    for s in simplices(frozenset(range(len(verts))), P.dim):
        base = verts[s[0]]
        total += abs(ref_det([[a - b for a, b in zip(verts[i], base)] for i in s[1:]]))
    return total / factorial(P.dim)


def ref_check_subset_sympolar(P):
    def omega(x, y):
        return sum((x[i] * y[i + 1] - x[i + 1] * y[i] for i in range(0, len(x), 2)), F(0))

    for i, v in enumerate(P.vertices):
        for w in P.vertices[i + 1 :]:
            value = omega(v, w)
            if value > 1:
                return False, (v, w, value)
            if -value > 1:
                return False, (w, v, -value)
    return True, None


# --- bodies -----------------------------------------------------------------


def small_bodies():
    rng = random.Random(2310)
    bodies = [random_symmetric_polytope(rng, dim) for dim in (2, 2, 2, 4, 4, 4)]
    while len(bodies) < 9:  # not symmetric, with interior and repeated points
        pts = [random_point(rng, 3, span=2) for _ in range(9)]
        try:
            bodies.append(convex_hull(pts + pts[:2] + [(0, 0, 0)]))
        except GeometryError:
            continue
    shrunk = [
        convex_hull([tuple(c / 4 for c in v) for v in P.vertices])
        for P in bodies[:6]
    ]
    # hexagon x octahedron: the facets H x f, H x g over two octahedron
    # facets that share one vertex v meet in the hexagon H x {v}, which has
    # enough vertices to pass for a ridge and is told apart only by its rank
    octahedron = [tuple(s * (i == j) for j in range(3)) for i in range(3) for s in (1, -1)]
    hexagon = [(1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)]
    product = convex_hull([h + o for h in hexagon for o in octahedron])
    return bodies + shrunk + [product]


BODIES = small_bodies()


@pytest.fixture(scope="module")
def generated():
    """A generated self-polar body: per-vertex denominators that differ and
    run past 100 digits."""
    return random_selfpolar(4, 10, 8).final


def assert_kernel_matches_reference(P):
    assert tuple(dehomogenize(r) for r in P.rows) == P.vertices
    assert P.symmetric == (set(map(_antipode, P.rows)) == set(P.rows))
    assert all(r[-1] > 0 for r in P.rows)
    for v in P.vertices:
        assert all(ref_value(f, v) <= 0 for f in P.facets)
        assert P.contains(v)
    sets = P.facet_vertex_sets()
    assert sets == ref_facet_vertex_sets(P)
    for s in sets:
        assert ref_affine_rank([P.vertices[i] for i in s]) == P.dim - 1
    assert f_vector(P)[1:] == tuple(len(ref_face_lattice(P)[k]) for k in range(1, P.dim))
    assert volume(P) == ref_volume(P)
    if P.dim % 2 == 0:
        assert check_subset_sympolar(P) == ref_check_subset_sympolar(P)


@pytest.mark.parametrize("index", range(len(BODIES)))
def test_kernel_matches_reference_on_small_bodies(index):
    assert_kernel_matches_reference(BODIES[index])


def test_small_bodies_include_failing_witnesses():
    witnesses = [check_subset_sympolar(P)[1] for P in BODIES if P.dim % 2 == 0]
    assert any(w is not None for w in witnesses)
    assert any(w is None for w in witnesses)


def test_kernel_matches_reference_on_generated_body(generated):
    denominators = {r[-1] for r in generated.rows}
    assert len(denominators) > 1
    assert max(len(str(d)) for d in denominators) > 100
    assert_kernel_matches_reference(generated)


def test_polar_incidence_is_transposed(generated):
    for Q in (polar_dual(generated), symplectic_polar(generated)):
        assert Q.facet_vertex_sets() == ref_facet_vertex_sets(Q)


# --- the volume's two branches and the vertex order ---------------------------


def test_volume_branches_match_reference(p2):
    """A symmetric body's volume is twice the cones over one facet of each
    mirror pair; any other body's is the signed cones over all its facets."""
    table1 = [c.representative for c in enumerate_pm1(4).classes]
    # vertex 4-i is the antipode of vertex i but for the middle one
    pentagon = convex_hull([(-2, 0), (-1, -2), (0, 3), (1, 2), (2, 0)])
    asymmetric = BODIES[6:9] + [pentagon]
    assert all(P.symmetric for P in table1 + [p2])
    assert all(not P.symmetric and P.origin_interior() for P in asymmetric)
    for P in table1 + [p2] + asymmetric:
        assert volume(P) == ref_volume(P)
    assert [volume(P) for P in table1] == [F(7, 2), F(11, 3), F(23, 6), F(4)]


def _off_centre_bodies():
    """Bodies in dims 2-4 whose origin is strictly outside (random points
    shifted by +3 and by -5, the cube [1, 2]^4) or is a vertex (the same
    points moved so that one of them is the origin, the simplex
    conv{0, e1, e2, e3})."""
    rng = random.Random(2511)
    outside, at_vertex = [convex_hull(list(product((1, 2), repeat=4)))], []
    e = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    at_vertex.append(convex_hull([(0, 0, 0)] + e))
    for dim in (2, 3, 4):
        for shift in (3, -5):
            while True:
                pts = [random_point(rng, dim, span=2) for _ in range(dim + 4)]
                try:
                    P = convex_hull([tuple(c + shift for c in p) for p in pts])
                    Q = convex_hull([tuple(c - o for c, o in zip(p, pts[0])) for p in pts])
                except GeometryError:
                    continue
                if (0,) * dim in Q.vertices:
                    break
            outside.append(P)
            at_vertex.append(Q)
    return outside, at_vertex


def test_volume_with_the_origin_outside_or_at_a_vertex():
    """The cones over facets whose b is negative are subtracted, and those
    over facets through the origin are flat: both agree with the reference
    triangulation of the whole body."""
    outside, at_vertex = _off_centre_bodies()
    assert all(any(f[-1] > 0 for f in P.facet_rows) for P in outside)
    assert all(any(f[-1] == 0 for f in P.facet_rows) for P in at_vertex)
    assert {P.dim for P in outside} == {P.dim for P in at_vertex} == {2, 3, 4}
    for P in outside + at_vertex:
        assert volume(P) == ref_volume(P)
    assert volume(outside[0]) == 1
    assert volume(at_vertex[0]) == F(1, 6)


def test_volume_pools_from_parent_faces():
    """The triangulation takes a face's facets from its parent face's: P_4,
    whose facets it triangulates three levels deep, has the closed-form
    volume, and a dim-4 body with no centre, one signed cone from the origin
    per facet over facets of 8 or more vertices and square 2-faces, the
    reference volume."""
    assert volume(power_suspend(4)) == volume_closed_form(4) == F(11, 8)
    half, third = F(1, 2), F(1, 3)
    P = convex_hull(list(product((0, 1), repeat=4)) + [(2, half, half, half), (half, -1, third, 0)])
    assert P.dim == 4 and not P.symmetric
    assert max(len(s) for s in P.facet_vertex_sets()) >= 8
    assert volume(P) == ref_volume(P) == F(25, 16)


def test_facets_of_needs_no_maximality_test_below_dim_4(monkeypatch, p2, p3, generated):
    """No three vertices of a polytope are collinear, so the proper
    intersections of a face of dimension k <= 3 with at least k vertices are
    its facets: on every face that ``face_lattice`` or the volume's
    triangulation reaches, ``_facets_of`` returns the set of inclusion-maximal
    intersections over the same pool.  Faces of dimension 4 and more are
    checked as well, where four coplanar vertices make the test needed."""
    levels = set()

    def checked(pool, face, k):
        pool = list(pool)
        found = facets_of(pool, face, k)
        reference = _maximal(h for g in pool if (h := face & g) != face and h.bit_count() >= k)
        assert set(found) == set(reference), (face, k)
        levels.add(k)
        return found

    facets_of = geometry._facets_of
    monkeypatch.setattr(geometry, "_facets_of", checked)
    table1 = [c.representative for c in enumerate_pm1(4).classes]
    bodies = BODIES + table1 + [p2, p3, generated]
    bodies.append(random_symmetric_polytope(random.Random(1), 6, 14))
    for P in bodies:
        f_vector(P)
        volume(P)
    assert levels == {2, 3, 4, 5}


def test_vertices_sorted_with_mixed_denominators(generated):
    skew = [[1, F(1, 3), 0, 0], [0, 1, 0, 0], [F(-1, 2), 0, 2, 0], [0, 0, F(1, 5), -1]]
    shrunk = BODIES[9:15]
    bodies = shrunk + [generated, polar_dual(generated), apply_linear(skew, generated)]
    assert sum(len({r[-1] for r in P.rows}) > 1 for P in bodies) >= 5
    for P in bodies:
        assert any(c < 0 for v in P.vertices for c in v)
        assert P.vertices == tuple(sorted(P.vertices))


# --- the consistency check --------------------------------------------------


def test_consistency_rejects_facet_shifted_inward(square):
    rows = list(square.facet_rows)
    a = rows[0]
    rows[0] = tuple(2 * c for c in a[:-1]) + a[-1:]  # <a, x> <= b/2
    with pytest.raises(GeometryError, match="violates"):
        _check_consistency(2, square.rows, rows)


def test_consistency_rejects_unspanned_facet(square, hexa):
    corner = (1, 1, -2)  # x + y <= 2 touches the square at (1, 1) only
    assert _check_consistency(2, square.rows, square.facet_rows)
    with pytest.raises(GeometryError, match="not supported"):
        _check_consistency(2, square.rows, square.facet_rows + (corner,))
    # x1 + x2 <= 2 meets the cube [-1, 1]^4 in a square 2-face: dim points
    # of rank 3, the determinant test; x3 + x4 <= 2 meets hexagon x square
    # in a hexagon: 6 points of rank 3, the elimination
    cube = convex_hull(list(product((-1, 1), repeat=4)))
    prism = convex_hull([h + q for h in hexa.vertices for q in square.vertices])
    for P, row, on in ((cube, (1, 1, 0, 0, -2), 4), (prism, (0, 0, 1, 1, -2), 6)):
        assert _check_consistency(P.dim, P.rows, P.facet_rows)
        assert sum(int_dot(row, r) == 0 for r in P.rows) == on
        with pytest.raises(GeometryError, match="not supported"):
            _check_consistency(P.dim, P.rows, P.facet_rows + (row,))


def test_unpaired_consistency_names_the_violating_point():
    """Rows that are not mirrored take one product each: a facet row of a
    body with no centre, shifted inward past its points and no others, is
    violated by the first of them, which is named."""
    triangle = convex_hull([(1, 1), (3, 1), (1, 4)])
    half, third = F(1, 2), F(1, 3)
    off = convex_hull(list(product((0, 1), repeat=4)) + [(2, half, half, half), (half, -1, third, 0)])
    for P in (triangle, off):
        assert not _mirrored(P.rows)
        n = 1 + max(r[-1] for r in P.rows)
        for f, mask in zip(P.facet_rows, P.incidence):
            inward = tuple(n * c for c in f[:-1]) + (n * f[-1] + 1,)  # <a, x> <= b - 1/n
            with pytest.raises(GeometryError, match="violates") as info:
                _check_consistency(P.dim, P.rows, [inward])
            assert str(P.vertices[next(bits(mask))]) in str(info.value)


def test_paired_consistency_names_the_violating_point(square, generated):
    """A symmetric point set is checked with one product per antipodal pair;
    a point outside a facet row is named whether it comes first in its pair
    or after its antipode, with the origin among the points or not."""
    for P in (square, generated):
        f = P.facet_rows[0]
        v = P.rows[next(bits(P.incidence[0]))]
        q = tuple(2 * c for c in v[:-1]) + v[-1:]  # 2v: outside f, its antipode inside
        origin = (0,) * P.dim + (1,)
        for pair in ([q, _antipode(q)], [_antipode(q), q]):
            for rows in (pair + list(P.rows), list(P.rows) + [origin] + pair):
                with pytest.raises(GeometryError, match="violates") as info:
                    _check_consistency(P.dim, rows, [f])
                assert str(dehomogenize(q)) in str(info.value)
        # <a, x> <= -b: the origin, first in the rows, is outside
        with pytest.raises(GeometryError, match="violates") as info:
            _check_consistency(P.dim, [origin] + list(P.rows), [f[:-1] + (-f[-1],)])
        assert str(dehomogenize(origin)) in str(info.value)


def test_consistency_pairs_sorted_rows_by_position(p3, generated):
    """Sorted symmetric rows pair row i with row N-1-i: the incidence is the
    full one, a point outside a facet row is named, and a facet row that is
    not spanned is rejected."""
    for points in symmetric_point_sets(p3, generated):
        P = convex_hull(points)
        rows = sorted({homogeneous(p) for p in points}, key=_row_key)
        assert _mirrored(rows)
        assert _check_consistency(P.dim, rows, P.facet_rows) == _incidence(rows, P.facet_rows)
    f = generated.facet_rows[0]
    v = generated.rows[next(bits(generated.incidence[0]))]
    q = tuple(2 * c for c in v[:-1]) + v[-1:]  # 2v: outside f, its antipode inside
    rows = sorted(list(generated.rows) + [q, _antipode(q)], key=_row_key)
    assert _mirrored(rows)
    with pytest.raises(GeometryError, match="violates") as info:
        _check_consistency(generated.dim, rows, generated.facet_rows)
    assert str(dehomogenize(q)) in str(info.value)
    cube = convex_hull(list(product((-1, 1), repeat=4)))
    assert _mirrored(cube.rows)
    with pytest.raises(GeometryError, match="not supported"):
        _check_consistency(4, cube.rows, cube.facet_rows + ((1, 1, 0, 0, -2),))


def symmetric_point_sets(p3, generated):
    """Symmetric inputs: P_3's vertices, a table1 body's, the generated
    body's vertices with the origin and a symmetric pair of interior points,
    and random symmetric bodies' vertices in dims 2, 4 and 6."""
    table1 = enumerate_pm1(4, budget=25).classes[0].representative
    inner = tuple(c / 2 for c in generated.vertices[0])
    rng = random.Random(29)
    return [
        list(p3.vertices),
        list(table1.vertices),
        list(generated.vertices) + [inner, vneg(inner), (0,) * generated.dim],
    ] + [list(random_symmetric_polytope(rng, dim, dim + 2).vertices) for dim in (2, 4, 6)]


def test_hull_independent_of_point_order(p3, generated):
    rng = random.Random(17)
    for points in symmetric_point_sets(p3, generated):
        P = convex_hull(points)
        shuffled = points[:]
        rng.shuffle(shuffled)
        Q = convex_hull(shuffled)
        assert Q == P
        assert Q.facets == P.facets
        assert Q.facet_vertex_sets() == P.facet_vertex_sets()


def test_integer_points_give_the_fraction_hull(hexa):
    """``int`` points take their rows with no ``Fraction``; the hull is the
    one of the same points as ``Fraction``s, in rows, facet row order and
    incidence."""
    reps = sign_vector_pairs(4)
    cliques = list(maximal_cliques(compatibility_adjacency(reps)))[::50]
    point_sets = [[tuple(int(c) for c in v) for v in hexa.vertices]] + [
        [p for i in bits(clique) for p in (reps[i], vneg(reps[i]))] for clique in cliques
    ]
    assert len(point_sets) == 9
    for points in point_sets:
        assert all(type(c) is int for p in points for c in p)
        P = convex_hull(points)
        Q = convex_hull([tuple(F(c) for c in p) for p in points])
        assert (P.rows, P.facet_rows, P.incidence) == (Q.rows, Q.facet_rows, Q.incidence)


def test_consistency_mirror_matches_full_incidence(p3, generated):
    for points in symmetric_point_sets(p3, generated):
        P = convex_hull(points)
        rows = [homogeneous(p) for p in points]
        assert _check_consistency(P.dim, rows, P.facet_rows) == _incidence(rows, P.facet_rows)
    # mirror facet pairs over point sets that are not symmetric: a boundary
    # point without its antipode, so no tight set may be mapped through the
    # antipodes
    square = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    i, j = list(bits(p3.incidence[0]))[:2]
    midpoint = tuple((a + b) / 2 for a, b in zip(p3.vertices[i], p3.vertices[j]))
    for points in (square + [(1, 0)], list(p3.vertices) + [midpoint]):
        P = convex_hull(points)
        assert any(tuple(-c for c in f[:-1]) + f[-1:] in P.facet_rows for f in P.facet_rows)
        rows = [homogeneous(p) for p in points]
        assert _check_consistency(P.dim, rows, P.facet_rows) == _incidence(rows, P.facet_rows)


def test_consistency_reuses_carried_tight_sets(hexa, generated):
    """Facet rows whose tight sets on the old rows are given (a grown hull's
    facet rows carried over from P) are evaluated on the new antipodal pairs
    only: a new point outside one is named, a new point on one joins its
    tight set, and the incidence is the full one, also through the warm
    start."""
    for P in (hexa, generated):
        i, j = list(bits(P.incidence[0]))[:2]
        on = homogeneous(tuple((a + b) / 2 for a, b in zip(P.vertices[i], P.vertices[j])))
        out = homogeneous(tuple(2 * c for c in P.vertices[i]))  # outside facet row 0
        for q in (on, out):
            rows = sorted([*P.rows, q, _antipode(q)], key=_row_key)
            moved = [rows.index(r) for r in P.rows]
            known = [sum(1 << moved[k] for k in bits(mask)) for mask in P.incidence]
            old = sum(1 << k for k in moved)
            if q == out:
                with pytest.raises(GeometryError, match="violates") as info:
                    _check_consistency(P.dim, rows, P.facet_rows, known, old)
                assert str(dehomogenize(q)) in str(info.value)
            else:
                incidence = _check_consistency(P.dim, rows, P.facet_rows, known, old)
                assert incidence == _incidence(rows, P.facet_rows)
                assert incidence[0] >> rows.index(q) & 1
        grown = _grow_hull(P, sorted([on, _antipode(on), out, _antipode(out)], key=_row_key))
        assert set(grown.facet_rows) & set(P.facet_rows)
        assert grown.incidence == _incidence(grown.rows, grown.facet_rows)
        assert grown == convex_hull(list(P.vertices) + [dehomogenize(out), vneg(dehomogenize(out))])


def test_consistency_reuses_carried_tight_sets_on_unpaired_rows():
    """Carried tight sets hold on rows that are not mirrored too: a triangle
    and one new point, on an edge or outside it, give the full incidence or
    name the new point."""
    P = convex_hull([(1, 1), (3, 1), (1, 4)])
    i, j = list(bits(P.incidence[0]))[:2]
    on = homogeneous(tuple((a + b) / 2 for a, b in zip(P.vertices[i], P.vertices[j])))
    out = homogeneous(tuple(2 * a - b for a, b in zip(P.vertices[i], P.vertices[3 - i - j])))
    for q in (on, out):
        rows = sorted([*P.rows, q], key=_row_key)
        assert not _mirrored(rows)
        moved = [rows.index(r) for r in P.rows]
        known = [sum(1 << moved[k] for k in bits(mask)) for mask in P.incidence]
        old = sum(1 << k for k in moved)
        if q == out:
            with pytest.raises(GeometryError, match="violates") as info:
                _check_consistency(P.dim, rows, P.facet_rows, known, old)
            assert str(dehomogenize(q)) in str(info.value)
        else:
            incidence = _check_consistency(P.dim, rows, P.facet_rows, known, old)
            assert incidence == _incidence(rows, P.facet_rows)
            assert incidence[0] >> rows.index(q) & 1


# --- the row order -------------------------------------------------------------


def test_row_order_is_the_point_order():
    """Rows sort as their points sort: rows with one denominator as tuples,
    others coordinate by coordinate, where equal leading coordinates with
    different denominators are common on this grid."""
    rng = random.Random(61)
    for denominators in ((1,), (3,), (1, 2, 3, 4, 6)):
        def coordinate():
            return F(rng.randint(-4, 4), rng.choice(denominators))

        points = {(coordinate(), coordinate(), coordinate()) for _ in range(80)}
        rows = [homogeneous(p) for p in points]
        assert [dehomogenize(r) for r in sorted(rows, key=_row_key)] == sorted(points)
    assert len({r[-1] for r in rows}) > 1


def test_polytope_order_matches_common_denominator_key(generated):
    """``_polytope`` sorts and renumbers as the key that scales every row to
    the lcm of the kept rows' denominators did, on a shuffled vertex list and
    on a subset of it."""
    rng = random.Random(7)
    skew = [[1, F(1, 3), 0, 0], [0, 1, 0, 0], [F(-1, 2), 0, 2, 0], [0, 0, F(1, 5), -1]]
    for P in BODIES[9:15] + [generated, apply_linear(skew, generated)]:
        order = list(range(len(P.rows)))
        rng.shuffle(order)
        rows = [P.rows[i] for i in order]
        incidence = [
            sum(1 << j for j, i in enumerate(order) if mask >> i & 1) for mask in P.incidence
        ]
        for keep in (range(len(rows)), range(0, len(rows), 2)):
            common = lcm(*(rows[i][-1] for i in keep))
            scaled = {i: [c * (common // rows[i][-1]) for c in rows[i][:-1]] for i in keep}
            expected = sorted(keep, key=scaled.get)
            position = {i: j for j, i in enumerate(expected)}
            Q = _polytope(P.dim, rows, P.facet_rows, incidence, keep)
            assert Q.rows == tuple(rows[i] for i in expected)
            assert Q.incidence == tuple(
                sum(1 << position[i] for i in bits(mask) if i in position) for mask in incidence
            )


# --- the double description's adjacency test ------------------------------------


def ref_crossings(rays, masks, vals, plus, minus, bit, dim):
    """``_crossings`` with the adjacency test as a linear scan of every other
    ray's tight mask."""
    fresh, fresh_masks = [], []
    for p in plus:
        for m in minus:
            zpn = masks[p] & masks[m]
            if zpn.bit_count() < dim - 1:
                continue
            if any(zk & zpn == zpn for k, zk in enumerate(masks) if k != p and k != m):
                continue
            rp, rm = rays[p], rays[m]
            fresh.append(primitive([vals[p] * b - vals[m] * a for a, b in zip(rp, rm)]))
            fresh_masks.append(zpn | bit)
    return fresh, fresh_masks


def random_crossing_input(rng, dim, count, width):
    """``count`` rays of R^(dim+1) with tight masks on ``width`` constraints:
    dense random masks, empty ones, and copies of earlier masks with one bit
    cleared, which are tight on all but one constraint of a pair's common
    mask.  The top constraint is tight on at least one ray."""
    density = rng.choice((0.5, 0.75, 0.9))
    masks = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.1:
            masks.append(0)
        elif draw < 0.4 and masks:
            masks.append(rng.choice(masks) & ~(1 << rng.randrange(width)))
        else:
            masks.append(sum(1 << b for b in range(width) if rng.random() < density))
    masks[rng.randrange(count)] |= 1 << width - 1
    rays = [tuple(rng.randint(-5, 5) for _ in range(dim + 1)) for _ in range(count)]
    vals = [rng.choice((-3, -1, 0, 1, 2)) for _ in range(count)]
    plus = [i for i, v in enumerate(vals) if v > 0]
    minus = [i for i, v in enumerate(vals) if v < 0]
    return rays, masks, vals, plus, minus, 1 << width, dim


def test_packed_adjacency_matches_linear_scan():
    """The packed count returns the fresh rays and masks of the scan, in its
    order: in dims 2-8, on one block and on several with a short last one,
    with masks that use a field's top value bit, and with empty masks (all
    of them empty too, where dim 1 lets every pair past the popcount)."""
    rng = random.Random(2)
    blocks = set()
    adjacent = rejected = 0
    for dim in range(2, 9):
        for count, width in ((3, 5), (12, 2 * dim), (30, 40), (90, 40), (120, 3 * dim + 50)):
            for _ in range(3):
                rays, masks, vals, plus, minus, bit, _ = args = random_crossing_input(
                    rng, dim, count, width
                )
                expected = ref_crossings(*args)
                assert _crossings(*args) == expected
                packed = _packed(masks)[0]
                blocks.add((len(packed), packed[-1][1] < packed[0][1]))
                candidates = sum(
                    (masks[p] & masks[m]).bit_count() >= dim - 1 for p in plus for m in minus
                )
                adjacent += len(expected[0])
                rejected += candidates - len(expected[0])
    assert (1, False) in blocks and any(n > 2 and short for n, short in blocks)
    assert adjacent > 100 and rejected > 100
    for dim in range(1, 9):
        for count in (2, 20):
            rays, _, vals, _, _, bit, _ = random_crossing_input(rng, dim, count, 10)
            vals[:2] = [1, -1]
            plus = [i for i, v in enumerate(vals) if v > 0]
            minus = [i for i, v in enumerate(vals) if v < 0]
            args = (rays, [0] * count, vals, plus, minus, bit, dim)
            assert _crossings(*args) == ref_crossings(*args)


def hull_digest(P):
    return hashlib.sha256(repr((P.rows, P.facet_rows, P.incidence)).encode()).hexdigest()


def test_hull_order_is_pinned():
    """Vertex rows, facet rows in order and incidence, pinned: P_4 (cold
    start), a dim-6 symmetric hull whose crossings span up to 9 blocks, and
    a dim-6 generated body (warm start)."""
    assert hull_digest(power_suspend(4)) == (
        "a6a7ac66ac51da82641c98c1c8881d1a336298bf47e5d14906a347925b8c6fec"
    )
    assert hull_digest(random_symmetric_polytope(random.Random(1), 6, 14)) == (
        "bc3be6cd42236c2c7fbd6e9170adbb86efb0ac8994b7a2f71970062caad84251"
    )
    assert hull_digest(random_selfpolar(6, 8, 1, max_iter=2).final) == (
        "4707a29f86418a080f371d7e862a9ab32b8b53bd43cff542e0d669188969f40c"
    )


def test_table1_hulls_are_pinned():
    """Every one of the 396 dim-4 class-table hulls, in clique order: vertex
    rows, facet rows in order, incidence and volume."""
    reps = sign_vector_pairs(4)
    digest = hashlib.sha256()
    count = 0
    for clique in maximal_cliques(compatibility_adjacency(reps)):
        P = convex_hull([p for i in bits(clique) for p in (reps[i], vneg(reps[i]))])
        digest.update(repr((P.rows, P.facet_rows, P.incidence, volume(P))).encode())
        count += 1
    assert count == 396
    assert digest.hexdigest() == (
        "3307926c8cf8daa8be874fa9b80639661123b1531a026716b75c4191178b530f"
    )


# --- the adjugate -------------------------------------------------------------


def test_int_adjugate_matches_fraction_inverse():
    rng = random.Random(3)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # symmetric with zero diagonal, like an omega-block
            A = [[0 if i == j else A[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        det, adj = int_adjugate(A)
        assert det == int_det(A)
        if det == 0:
            singular += 1
            assert adj is None
            continue
        inverse = invert([[Fraction(c) for c in row] for row in A])
        assert adj == [[det * c for c in row] for row in inverse]
    assert singular > 20
    # entries of about 300 bits, as in generated bodies; the 4 x 4 closed
    # form and the Bareiss determinant against the Bareiss elimination of
    # the adjugate
    big = 1 << 300
    for _ in range(100):
        n = rng.randint(1, 6)
        A = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n)]
        det, adj = int_adjugate(A)
        assert det == int_det(A) != 0
        inverse = invert([[Fraction(c) for c in row] for row in A])
        assert adj == [[det * c for c in row] for row in inverse]
    # singular 2 x 2 to 4 x 4: one row a combination of the others
    for n in (2, 3, 4):
        for _ in range(30):
            A = [[rng.randint(-big, big) for _ in range(n)] for _ in range(n - 1)]
            coefs = [rng.randint(-(1 << 20), 1 << 20) for _ in range(n - 1)]
            A.insert(rng.randrange(n), [sum(c * row[k] for c, row in zip(coefs, A)) for k in range(n)])
            assert int_det(A) == 0
            assert int_adjugate(A) == (0, None)


def _greedy_rank_raising(rows, stop):
    """Indices of the rows that raise the Fraction rank, taken in order."""
    chosen = []
    for i, row in enumerate(rows):
        if len(chosen) == stop:
            break
        if rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


def test_independent_rows_matches_fraction_rank():
    rng = random.Random(5)
    big = 1 << 300
    for trial in range(120):
        n = rng.randint(1, 6)
        span = big if trial % 2 else 3
        rows = [[rng.randint(-span, span) for _ in range(n)] for _ in range(rng.randint(1, n + 2))]
        # dependent rows: combinations of the rows so far, and a zero row
        for _ in range(rng.randint(0, 3)):
            coefs = [rng.randint(-(1 << 20), 1 << 20) for _ in rows]
            combo = [sum(c * row[k] for c, row in zip(coefs, rows)) for k in range(n)]
            rows.insert(rng.randrange(len(rows) + 1), combo)
        if rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        for stop in (None, 1, 2, n):
            assert independent_rows(rows, stop) == _greedy_rank_raising(rows, stop)


# --- linear images ------------------------------------------------------------


def test_apply_linear_matches_fraction_inverse(p2):
    # vertices map by M and facets by the inverse transpose of the Fraction
    # reference, made primitive; the incidence is recomputed from the rows
    rng = random.Random(11)
    asymmetric = convex_hull([(0, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, F(1, 3)), (1, 1, 1)])
    negative = 0
    for P in [asymmetric] * 40 + [p2] * 40:
        M = [[F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(P.dim)] for _ in range(P.dim)]
        try:
            inv_t = transpose(invert(M))
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                apply_linear(M, P)
            continue
        Q = apply_linear(M, P)
        images = [homogeneous(tuple(sum(a * c for a, c in zip(row, v)) for row in M)) for v in P.vertices]
        assert Q.rows == tuple(sorted(images, key=dehomogenize))
        facet_rows = tuple(
            fraction_vec_to_int(tuple(sum(a * c for a, c in zip(row, f[:-1])) for row in inv_t) + (F(f[-1]),))
            for f in P.facet_rows
        )
        assert Q.facet_rows == facet_rows
        assert list(Q.incidence) == [
            sum(1 << i for i, r in enumerate(Q.rows) if int_dot(f, r) == 0) for f in facet_rows
        ]
        negative += int_det([fraction_vec_to_int(row) for row in inv_t]) < 0
    assert negative > 20
    with pytest.raises(SingularMatrixError):
        apply_linear([[F(1, 2), F(1, 3)], [F(3, 2), 1]], convex_hull([(1, 0), (0, 1), (-1, -1)]))


# --- the Fraction views of the integer rows -----------------------------------


def test_vertices_are_a_view_of_the_rows_on_every_route(tmp_path, hexa, cross2, p2, generated):
    skew = [[1, F(1, 3), 0, 0], [0, 1, 0, 0], [F(-1, 2), 0, 2, 0], [0, 0, F(1, 5), -1]]
    write_polytope(tmp_path / "p2.json", p2)
    # the hexagon suspension's halfspaces: the hexagon's facets lifted, and
    # ±omega(u, v) + <a, x> <= 1, u = (1, 1), for each hexagon facet normal a
    normals = polar_dual(hexa).vertices
    hexa_suspension_halfspaces = [(a + (F(0), F(0)), F(1)) for a in normals] + [
        ((F(-eps), F(eps)) + a, F(1)) for a in normals for eps in (1, -1)
    ]
    routes = {
        "convex_hull": [hexa, p2, generated],
        "expand_step": [expand_step(cross2, [(1, 1), (-1, -1)])],
        "polar_dual": [polar_dual(p2), polar_dual(generated)],
        "symplectic_polar": [symplectic_polar(p2), symplectic_polar(generated)],
        "from_halfspaces": [from_halfspaces(hexa_suspension_halfspaces, 4)],
        "suspend_halfspaces": [suspend_halfspaces(hexa)],
        "apply_linear": [apply_linear(skew, p2), apply_linear(skew, generated)],
        "read_polytope": [read_polytope(tmp_path / "p2.json")],
    }
    for route, bodies in routes.items():
        for P in bodies:
            assert P.vertices == tuple(dehomogenize(r) for r in P.rows), route
    # equality and the hash read the rows, so equal bodies from different
    # routes compare and hash equal
    same = [
        (routes["expand_step"][0], hexa),
        (routes["symplectic_polar"][0], p2),
        (routes["from_halfspaces"][0], power_suspend(2)),
        (routes["suspend_halfspaces"][0], power_suspend(2)),
        (routes["read_polytope"][0], p2),
    ]
    for P, Q in same:
        assert P is not Q
        assert P == Q and hash(P) == hash(Q)
    assert routes["apply_linear"][0] != p2


def test_generator_base_is_the_old_sorted_pair_representatives():
    rng = random.Random(41)
    random_bodies = [
        random_symmetric_polytope(rng, dim, points=dim + 1) for dim in (2, 2, 4, 4, 6)
    ]
    bodies = [P for P in BODIES if P.symmetric] + random_bodies
    assert len(bodies) == 18
    for P in bodies:
        for mode, items in (
            ("vertices", P.vertices),
            ("facet-normals", [f.normal for f in P.facets]),
        ):
            assert generator_base(P, mode) == tuple(sorted({_pair_rep(v) for v in items}))
