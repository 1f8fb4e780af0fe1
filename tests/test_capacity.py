import logging
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, lcm
from pathlib import Path

import pytest

from sympolar.capacity import (
    CapacityCertificate,
    CapacityError,
    CertificateError,
    SearchBudgetError,
    _clique_bound,
    _omega_matrix,
    _search,
    _suspension_base,
    effective_support_bound,
    ehz_brute_force,
    equal_weight_certificate,
    evaluate_certificate,
    generator_base,
    make_suspension_certificate,
)
from sympolar.geometry import apply_linear, convex_hull, polar_dual, volume
from sympolar.suspension import induction_certificate, power_suspend
from sympolar.symplectic import is_self_polar, omega

from conftest import random_symmetric_polytope
from fraction_linalg import solve

F = Fraction


# --- certificate evaluation -------------------------------------------------


def _vertex_certificate(vectors, coeffs, objective):
    base = tuple(sorted({v if v > tuple(-c for c in v) else tuple(-c for c in v) for v in vectors}))
    indices = []
    for v in vectors:
        rep = v if v > tuple(-c for c in v) else tuple(-c for c in v)
        indices.append((base.index(rep), 1 if v == rep else -1))
    return CapacityCertificate(
        kind="vertices",
        indices=tuple(indices),
        coeffs=tuple(coeffs),
        objective=objective,
        generators=base,
    )


def test_evaluate_hexagon_equal_weights(hexa):
    vectors = tuple(tuple(F(c) for c in p) for p in ((1, 0), (1, 1), (0, 1)))
    cert = _vertex_certificate(vectors, (F(1, 3),) * 3, F(1, 3))
    assert evaluate_certificate(hexa, cert) == F(1, 3)


def test_evaluate_p2_equal_weights(p2):
    cert = equal_weight_certificate(2)
    assert evaluate_certificate(p2, cert) == F(2, 5)


def test_evaluate_single_generator_is_zero(hexa):
    vectors = ((F(1), F(1)),)
    cert = _vertex_certificate(vectors, (F(1),), F(0))
    assert evaluate_certificate(hexa, cert) == 0


def test_evaluate_rejects_bad_normalization(hexa):
    vectors = tuple(tuple(F(c) for c in p) for p in ((1, 0), (1, 1)))
    cert = _vertex_certificate(vectors, (F(1, 3), F(1, 3)), F(0))
    with pytest.raises(CertificateError):
        evaluate_certificate(hexa, cert)


def test_evaluate_rejects_non_vertex(hexa):
    vectors = ((F(2), F(0)),)
    cert = _vertex_certificate(vectors, (F(1),), F(0))
    with pytest.raises(CertificateError):
        evaluate_certificate(hexa, cert)


def test_evaluate_facet_normals_certificate(hexa):
    """A facet-normals certificate's signed generators must be unit outer
    facet normals: the canonical certificate of the search evaluates to its
    objective, and a vector off the normals is rejected, a positive
    multiple of a unit normal with its coefficient scaled to match too."""
    _, cert = ehz_brute_force(hexa)
    assert cert.kind == "facet-normals"
    assert evaluate_certificate(hexa, cert) == cert.objective == F(1, 3)

    def variant(g0, c0):
        i = cert.indices[0][0]
        generators = list(cert.generators)
        generators[i] = g0(generators[i])
        coeffs = (c0(cert.coeffs[0]),) + cert.coeffs[1:]
        return CapacityCertificate(
            "facet-normals", cert.indices, coeffs, cert.objective, tuple(generators)
        )

    not_a_normal = variant(lambda g: (g[0] + 1, g[1]), lambda c: c)
    doubled = variant(lambda g: tuple(2 * c for c in g), lambda c: c / 2)
    for bad in (not_a_normal, doubled):
        with pytest.raises(CertificateError):
            evaluate_certificate(hexa, bad)


def test_zero_coefficient_generator_leaves_the_objective(p2):
    """A generator at coefficient 0 adds nothing to the double sum, wherever
    it stands in the ordering."""
    _, cert = ehz_brute_force(p2)
    extra = (0, -cert.indices[0][1])
    for at in range(len(cert.indices) + 1):
        padded = CapacityCertificate(
            cert.kind,
            cert.indices[:at] + (extra,) + cert.indices[at:],
            cert.coeffs[:at] + (F(0),) + cert.coeffs[at:],
            cert.objective,
            cert.generators,
        )
        assert evaluate_certificate(p2, padded) == cert.objective == evaluate_certificate(p2, cert)


@pytest.mark.parametrize(
    "kind, indices, coeffs, message",
    [
        ("edges", ((0, 1),), (F(1),), "unknown certificate kind"),
        ("vertices", ((0, 1), (1, 1)), (F(1),), "differ in length"),
        ("vertices", ((0, 1), (1, 1)), (F(2), F(-1)), "must be nonnegative"),
        ("vertices", ((3, 1),), (F(1),), r"invalid generator reference \(3, 1\)"),
    ],
)
def test_certificate_rejects_broken_invariants(hexa, kind, indices, coeffs, message):
    # the hexagon has three generator pairs, so index 3 is out of range
    base = generator_base(hexa, "vertices")
    with pytest.raises(CertificateError, match=message):
        CapacityCertificate(kind, indices, coeffs, F(0), base)


def test_certificate_refuses_float_coefficients_and_objective(hexa):
    """A float coefficient or objective raises TypeError, so neither a float
    value nor a float sum of weights (1/3 three times is 1.0) passes for
    exact; ints and 'p/q' strings lift to Fractions."""
    cert = equal_weight_certificate(1)
    for change in ({"coeffs": (1 / 3,) * 3}, {"objective": 1 / 3}):
        with pytest.raises(TypeError, match="is not exact"):
            replace(cert, **change)
    lifted = replace(cert, coeffs=("1/3",) * 3, objective="1/3")
    assert lifted == cert and all(type(c) is F for c in (*lifted.coeffs, lifted.objective))
    assert evaluate_certificate(hexa, lifted) == F(1, 3)


def test_evaluate_vertices_certificate_needs_self_polar(square):
    # the square conv{±1}^2 is centrally symmetric but not self-polar
    base = generator_base(square, "vertices")
    cert = CapacityCertificate("vertices", ((0, 1), (1, 1)), (F(1, 2),) * 2, F(0), base)
    with pytest.raises(CertificateError, match="symplectically self-polar"):
        evaluate_certificate(square, cert)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_equal_weight_objectives(n):
    cert = equal_weight_certificate(n)
    assert cert.objective == F(n, 2 * n + 1)
    assert sum(cert.coeffs) == 1
    assert len(cert.indices) == 2 * n + 1


# --- brute force ------------------------------------------------------------


def test_capacity_hexagon(hexa):
    capacity, cert = ehz_brute_force(hexa)
    assert capacity == 3
    assert cert.objective == F(1, 3)
    assert evaluate_certificate(hexa, cert) == F(1, 3)


def test_capacity_hexagon_vertices_mode(hexa):
    capacity, cert = ehz_brute_force(hexa, mode="vertices")
    assert capacity == 3
    assert evaluate_certificate(hexa, cert) == F(1, 3)


def test_capacity_square_equals_area(square):
    capacity, _ = ehz_brute_force(square)
    assert capacity == 4 == volume(square)


def test_capacity_cross_equals_area(cross2):
    capacity, _ = ehz_brute_force(cross2)
    assert capacity == 2 == volume(cross2)


def test_capacity_octagon_equals_area(octagon):
    capacity, _ = ehz_brute_force(octagon, support_bound=4)
    assert capacity == 14 == volume(octagon)


def test_capacity_2d_area_law_random():
    rng = random.Random(11)
    for _ in range(8):
        poly = random_symmetric_polytope(rng, 2, points=3)
        m = len(generator_base(poly, "facet-normals"))
        capacity, _ = ehz_brute_force(poly, support_bound=m)
        assert capacity == volume(poly)


def test_capacity_p2(p2):
    capacity, cert = ehz_brute_force(p2, mode="vertices")
    assert capacity == F(5, 2)
    assert cert.objective == F(2, 5)
    assert evaluate_certificate(p2, cert) == F(2, 5)


def test_capacity_p2_normals_mode(p2):
    capacity, _ = ehz_brute_force(p2)
    assert capacity == F(5, 2)


def test_capacity_scaling_law(hexa, square):
    lam = F(3, 2)
    for poly, cap in ((hexa, 3), (square, 4)):
        scaled = convex_hull([tuple(lam * c for c in v) for v in poly.vertices])
        capacity, _ = ehz_brute_force(scaled)
        assert capacity == lam**2 * cap


def test_capacity_symplectic_invariance(hexa, square, p2):
    shear2 = [[1, 1], [0, 1]]
    for poly, cap in ((hexa, 3), (square, 4)):
        moved = apply_linear(shear2, poly)
        assert ehz_brute_force(moved)[0] == cap
    shear4 = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    moved = apply_linear(shear4, p2)
    assert is_self_polar(moved)
    assert ehz_brute_force(moved, mode="vertices")[0] == F(5, 2)


def test_support_bound_soundness(hexa, square, cross2, p2):
    # on the reference instances the default-bounded search matches the full
    # search (the suspension-family optima use dim+1 generator pairs)
    for poly, mode in ((hexa, "facet-normals"), (square, "facet-normals"), (cross2, "facet-normals"), (p2, "vertices")):
        m = len(generator_base(poly, mode))
        bounded = ehz_brute_force(poly, mode=mode)
        full = ehz_brute_force(poly, support_bound=m, mode=mode)
        assert bounded[0] == full[0]


def test_support_bound_heuristic_can_be_strict(octagon):
    # the default bound is a heuristic: the octagon's optimum needs all four
    # generator pairs, so the bounded search only certifies an upper bound
    bounded, _ = ehz_brute_force(octagon)
    full, _ = ehz_brute_force(octagon, support_bound=4)
    assert full == 14 == volume(octagon)
    assert bounded > full


def test_budget_error():
    poly = random_symmetric_polytope(random.Random(12), 2)
    with pytest.raises(SearchBudgetError) as err:
        ehz_brute_force(poly, max_configs=1)
    assert err.value.configurations > 1


def test_negative_budget_is_a_domain_error(p2):
    # a budget below 0 is a bad argument, not a search that ran out; 0 is
    # still a budget stop
    with pytest.raises(CapacityError, match="budget must be at least 0") as err:
        ehz_brute_force(p2, max_configs=-5)
    assert not isinstance(err.value, SearchBudgetError)
    with pytest.raises(SearchBudgetError):
        ehz_brute_force(p2, max_configs=0)


def test_support_bound_below_two_is_rejected(hexa):
    with pytest.raises(CapacityError, match="support bound must be at least 2"):
        ehz_brute_force(hexa, support_bound=1)


@pytest.mark.parametrize(
    "m, dim, support_bound, expected", [(8, 4, None, 5), (8, 4, 100, 8), (4, 2, None, 3)]
)
def test_effective_support_bound(m, dim, support_bound, expected):
    """dim + 1 by default, and any bound clamped to the pair count m."""
    assert effective_support_bound(m, dim, support_bound) == expected


def test_capacity_needs_even_dimension():
    # the omega-matrix of odd-length rows would pair the last coordinate
    # with the homogenizing entry and report a capacity for the 3-cube
    for dim in (3, 5):
        cube = convex_hull(list(product((-1, 1), repeat=dim)))
        for mode in ("facet-normals", "vertices"):
            with pytest.raises(CapacityError, match="even dimension"):
                ehz_brute_force(cube, mode=mode)


def test_budget_counts_solved_configurations(p2):
    # P_2 at the default bound solves 442 of its 25368 configurations; the
    # clique bound prunes the rest, and they do not count against the budget
    capacity, _ = ehz_brute_force(p2, mode="vertices", max_configs=442)
    assert capacity == F(5, 2)
    with pytest.raises(SearchBudgetError) as err:
        ehz_brute_force(p2, mode="vertices", max_configs=441)
    assert err.value.configurations == 442


def test_vertices_mode_needs_self_polar(square):
    with pytest.raises(CapacityError):
        ehz_brute_force(square, mode="vertices")


def test_capacity_needs_symmetry():
    triangle = convex_hull([(1, 0), (-1, 1), (-1, -2)])
    with pytest.raises(CapacityError):
        ehz_brute_force(triangle)


def test_capacity_p3_reaches_the_lower_bound(p3):
    # the paper's value c_EHZ(P_3) = 2 + 1/3, found by the search at the
    # default bound and budget, with the suspension chain's objective
    capacity, cert = ehz_brute_force(p3, mode="vertices")
    assert capacity == F(7, 3) >= 2 + F(1, 3)
    assert cert.coeffs == (F(1, 7),) * 7
    chain = make_suspension_certificate(
        make_suspension_certificate(equal_weight_certificate(1), F(3)), F(5, 2)
    )
    assert evaluate_certificate(p3, cert) == chain.objective == F(3, 7)


def test_capacity_p2_full_search_is_pruned(p2, caplog):
    # the certified-complete P_2 search, pinned; a lost prune shows in the
    # count of configurations solved that the search logs
    with caplog.at_level(logging.INFO, logger="sympolar.capacity"):
        capacity, cert = ehz_brute_force(p2, support_bound=8, mode="vertices")
    assert capacity == F(5, 2)
    assert cert.indices == ((0, 1), (1, -1), (3, -1), (2, -1), (4, -1))
    assert cert.coeffs == (F(1, 5),) * 5
    solved, pruned = map(
        int, re.search(r"solved (\d+) configurations, pruned (\d+)", caplog.text).groups()
    )
    total = sum(comb(8, k) * factorial(k - 1) * 2 ** (k - 1) for k in range(2, 9))
    assert solved + pruned == total == 1_146_648
    assert solved < total // 20


# --- suspension certificates --------------------------------------------------


def test_suspension_certificate_chain(hexa, p2, p3):
    cert1 = equal_weight_certificate(1)
    assert evaluate_certificate(hexa, cert1) == F(1, 3)

    cert2 = make_suspension_certificate(cert1, F(3))
    assert cert2.objective == F(2, 5)
    assert 1 / cert2.objective == F(5, 2)
    assert evaluate_certificate(p2, cert2) == F(2, 5)

    cert3 = make_suspension_certificate(cert2, F(5, 2))
    assert cert3.objective == F(3, 7)
    assert 1 / cert3.objective == F(7, 3)
    assert evaluate_certificate(p3, cert3) == F(3, 7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_suspension_base_is_the_generator_base_of_the_suspension(n):
    # the generators lifted from P_{n-1} without a hull are those of the hull P_n
    lifted = _suspension_base(generator_base(power_suspend(n - 1), "vertices"))
    assert lifted == generator_base(power_suspend(n), "vertices")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_suspension_certificate_keeps_equal_weights(n):
    # with c_K = 2 + 1/n, alpha = 1/(2n+3) is also the weight (1 - 2 alpha)/(2n+1)
    # that the lift gives each lifted vector, so the uniform family stays uniform
    lifted = make_suspension_certificate(equal_weight_certificate(n), 2 + F(1, n))
    assert lifted == equal_weight_certificate(n + 1)


def test_suspension_certificate_refuses_float_capacity(p2):
    cert = equal_weight_certificate(1)
    with pytest.raises(TypeError, match="is not exact"):
        make_suspension_certificate(cert, 3.0)
    for c_K in (3, "3", "6/2"):
        lifted = make_suspension_certificate(cert, c_K)
        assert lifted == make_suspension_certificate(cert, F(3))
        assert evaluate_certificate(p2, lifted) == F(2, 5)


def test_suspension_certificate_alpha_regime():
    cert = equal_weight_certificate(1)
    with pytest.raises(CapacityError):
        make_suspension_certificate(cert, F(2))


def test_suspension_certificate_objective_mismatch():
    cert = equal_weight_certificate(1)
    with pytest.raises(CertificateError):
        make_suspension_certificate(cert, F(4))


def test_suspension_certificate_rejects_normals_and_unnormalized_weights(hexa):
    _, normals = ehz_brute_force(hexa)
    with pytest.raises(CertificateError, match="vertex-generator certificate"):
        make_suspension_certificate(normals, F(3))
    cert = equal_weight_certificate(1)
    doubled = replace(cert, coeffs=tuple(2 * c for c in cert.coeffs))
    with pytest.raises(CertificateError, match="weights must sum to 1"):
        make_suspension_certificate(doubled, F(3))


def test_brutal_search_agrees_with_certified_bound(hexa):
    # the optimal certificate found by search matches the constructed one in value
    capacity, cert = ehz_brute_force(hexa, mode="vertices")
    assert 1 / capacity == equal_weight_certificate(1).objective == cert.objective


def test_lower_bound_reference(p2, p3, hexa):
    # reference inequality: capacity of a self-polar body is >= 2 + 1/n
    for poly, n in ((hexa, 1), (p2, 2)):
        capacity, _ = ehz_brute_force(poly, mode="vertices")
        assert capacity >= 2 + F(1, n)


# --- independent references ---------------------------------------------------


def support_value(P, direction):
    """h_P(g), the largest <v, g> over P's vertices v."""
    return max(sum(a * b for a, b in zip(v, direction)) for v in P.vertices)


def _reference_search(P, bound, mode="facet-normals"):
    """The search solved one configuration at a time: for each support,
    ordering (smallest index first) and signing (first sign positive), the
    bordered Lagrange system M beta = lam h, h . beta = 1 in Fraction
    arithmetic; the best positive value wins, ties to the least
    (support, order, signs)."""
    base = generator_base(P, mode)
    m = len(base)
    W = [[omega(a, b) for b in base] for a in base]
    h = [F(1)] * m if mode == "vertices" else [support_value(P, g) for g in base]
    best = None
    for k in range(2, bound + 1):
        for support in combinations(range(m), k):
            for rest in permutations(support[1:]):
                order = (support[0],) + rest
                for bits in range(1 << (k - 1)):
                    signs = (1,) + tuple(-1 if bits >> i & 1 else 1 for i in range(k - 1))
                    mat = [[F(0)] * (k + 1) for _ in range(k + 1)]
                    for a in range(k):
                        for b in range(a + 1, k):
                            mat[a][b] = mat[b][a] = signs[a] * signs[b] * W[order[a]][order[b]]
                        mat[a][k] = -h[order[a]]
                        mat[k][a] = h[order[a]]
                    sol = solve(mat, [F(0)] * k + [F(1)])
                    if sol is None or any(c <= 0 for c in sol[:k]):
                        continue
                    value, key = sol[k] / 2, (support, order, signs)
                    if value > 0 and (
                        best is None or value > best[0] or (value == best[0] and key < best[1])
                    ):
                        best = (value, key, sol[:k])
    value, (_, order, signs), coeffs = best
    cert = CapacityCertificate(mode, tuple(zip(order, signs)), tuple(coeffs), value, base)
    return 1 / value, cert


def _symplectic_product(K, T):
    """K in the (q1, p1) plane times T in the (q2, p2) plane."""
    return convex_hull([k + t for k in K.vertices for t in T.vertices])


def _lagrangian_product(K, T):
    """K in the (q1, q2) plane times T in the (p1, p2) plane, in the
    coordinates (q1, p1, q2, p2)."""
    return convex_hull([(k[0], t[0], k[1], t[1]) for k in K.vertices for t in T.vertices])


@pytest.fixture(scope="module")
def products(hexa, square, cross2):
    # area 3, like the hexagon; its generators sort after the hexagon's in
    # the product, so the optimum is tied between a later-found pair of
    # rectangle normals and an earlier-sorted triple of hexagon normals
    rectangle = convex_hull([(1, F(3, 4)), (1, F(-3, 4)), (-1, F(3, 4)), (-1, F(-3, 4))])
    return {
        "rectangle_x_hexagon": _symplectic_product(rectangle, hexa),
        "square_x_square": _symplectic_product(square, square),
        "hexagon_x_square": _symplectic_product(hexa, square),
        "hexagon_x_hexagon": _symplectic_product(hexa, hexa),
        "square_x_cross_lagrangian": _lagrangian_product(square, cross2),
        "hexagon_x_polar_lagrangian": _lagrangian_product(hexa, polar_dual(hexa)),
    }


def test_search_matches_fraction_reference(hexa, square, cross2, octagon, p2, products):
    cases = [(poly, None, "facet-normals") for poly in (hexa, square, cross2, octagon)]
    rng = random.Random(11)
    polygons = [random_symmetric_polytope(rng, 2, points=3) for _ in range(4)]
    # facet normals are scaled to offset 1, so the generator data that the
    # search scales to integers is fractional in omega here
    assert any(
        omega(a, b).denominator > 1
        for poly in polygons
        for a in generator_base(poly, "facet-normals")
        for b in generator_base(poly, "facet-normals")
    )
    cases += [(poly, None, "facet-normals") for poly in polygons]
    cases += [
        (products["rectangle_x_hexagon"], 5, "facet-normals"),
        (products["hexagon_x_hexagon"], 4, "facet-normals"),
        (products["hexagon_x_polar_lagrangian"], 4, "facet-normals"),
        (random_symmetric_polytope(random.Random(5), 4, points=4), 4, "facet-normals"),
        (p2, 4, "vertices"),
    ]
    for poly, bound, mode in cases:
        if bound is None:
            bound = len(generator_base(poly, mode))
        got = ehz_brute_force(poly, support_bound=bound, mode=mode)
        assert got == _reference_search(poly, bound, mode)


def test_omega_matrix_matches_fraction_omega(hexa, square, cross2, octagon, p2, p3, products):
    """The search's integer omega-matrix, read off the generators' rows, is
    the one scaled from ``Fraction`` omega by the lcm of its denominators."""
    rng = random.Random(11)
    polygons = [random_symmetric_polytope(rng, 2, points=3) for _ in range(4)]
    scales = set()
    for poly in [hexa, square, cross2, octagon, p2, p3, *products.values(), *polygons]:
        for mode in ("facet-normals", "vertices"):
            base = generator_base(poly, mode)
            W = [[omega(a, b) for b in base] for a in base]
            w_scale = lcm(*(c.denominator for row in W for c in row))
            assert _omega_matrix(base) == ([[int(c * w_scale) for c in row] for row in W], w_scale)
            scales.add(w_scale)
    assert len(scales) > 2


def test_bounded_search_matches_fraction_reference(octagon):
    # below the full bound the clique bound decides between close values:
    # the octagon's best pairs reach 1/16 and only the triple (0, 1, 3),
    # whose largest |omega| is on its outer pair, reaches 1/15
    rng = random.Random(7)
    polygons = [random_symmetric_polytope(rng, 2, points=4) for _ in range(3)]
    for poly in [octagon] + polygons:
        for bound in (2, 3):
            got = ehz_brute_force(poly, support_bound=bound)
            assert got == _reference_search(poly, bound)
    assert ehz_brute_force(octagon, support_bound=3)[0] == 15


def test_search_rejects_zero_coefficients():
    # the triple's best stationary point ties with the pair (0, 2) at value
    # 1/2 but puts weight 0 on generator 1; it is a point of the pair's face,
    # not a configuration of the triple, so the lexicographically smaller
    # triple must not win the tie
    W = [[0, -1, -2], [1, 0, -1], [2, 1, 0]]
    supports = [s for k in (2, 3) for s in combinations(range(3), k)]
    (num, den, key, z, Q), _ = _search(supports, W)
    assert key == ((0, 2), (0, 2), (1, -1))
    assert F(num, den) == 1
    assert [F(c, Q) for c in z] == [F(1, 2), F(1, 2)]


def _integer_omega(P, mode):
    base = generator_base(P, mode)
    W = [[omega(a, b) for b in base] for a in base]
    scale = lcm(*(c.denominator for row in W for c in row))
    return [[int(c * scale) for c in row] for row in W]


def test_clique_bound_dominates_every_support(hexa, octagon, p2, products):
    # Motzkin-Straus: every configuration on a support S has value
    # det/Q <= w (kappa - 1)/kappa, with w the largest |W_ab| on S and kappa
    # the clique number of S's nonzero-W graph; the search skips supports on
    # this bound, so it must hold on every support, and the hexagon's
    # triangle attains it, so no tighter bound of this form is sound
    cases = [
        (hexa, "vertices", 3),
        (octagon, "facet-normals", 4),
        (p2, "vertices", 8),
        (products["rectangle_x_hexagon"], "facet-normals", 5),
        (products["hexagon_x_hexagon"], "facet-normals", 6),
    ]
    for poly, mode, bound in cases:
        W = _integer_omega(poly, mode)
        clique_bound = _clique_bound(W)
        for k in range(2, bound + 1):
            for S in combinations(range(len(W)), k):
                w, kappa = clique_bound(sum(1 << a for a in S))
                assert w == max(abs(W[a][b]) for a, b in combinations(S, 2))
                assert kappa == max(
                    r
                    for r in range(1, k + 1)
                    for C in combinations(S, r)
                    if all(W[a][b] for a, b in combinations(C, 2))
                )
                best, _ = _search([S], W)
                if best is not None:
                    assert F(best[0], best[1]) <= F(w * (kappa - 1), kappa)
    best, _ = _search([(0, 1, 2)], _integer_omega(hexa, "vertices"))
    assert F(best[0], best[1]) == F(2, 3) == F(1 * (3 - 1), 3)


@pytest.mark.parametrize(
    "name, capacity",
    [
        # c(K1 x K2) = min(area K1, area K2) for a symplectic product
        ("square_x_square", 4),
        ("hexagon_x_square", 3),
        ("hexagon_x_hexagon", 3),
        ("rectangle_x_hexagon", 3),
        # c(K x K°) = 4 for a Lagrangian product of K and its polar
        ("square_x_cross_lagrangian", 4),
        ("hexagon_x_polar_lagrangian", 4),
    ],
)
def test_capacity_product_closed_forms(products, name, capacity):
    poly = products[name]
    m = len(generator_base(poly, "facet-normals"))
    value, cert = ehz_brute_force(poly, support_bound=m)
    assert value == capacity
    assert evaluate_certificate(poly, cert) == 1 / value


def test_search_imports_no_numpy():
    code = (
        "import sys\n"
        "from sympolar.capacity import ehz_brute_force\n"
        "from sympolar.suspension import power_suspend\n"
        "ehz_brute_force(power_suspend(2), mode='vertices')\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
