from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from sympolar.experiments.pm1 import (
    compatibility_adjacency,
    enumerate_pm1,
    maximal_cliques,
    sign_vector_pairs,
)
from sympolar.geometry import DimensionDeficiencyError, convex_hull
from sympolar.linalg import vneg
from sympolar.symplectic import is_self_polar

F = Fraction


def test_pair_representatives_dim2():
    reps = sign_vector_pairs(2)
    assert len(reps) == 4
    assert all(r > vneg(r) for r in reps)


def test_pair_counts():
    assert len(sign_vector_pairs(4)) == 40
    assert len(sign_vector_pairs(6)) == 364


def _as_networkx(adj):
    graph = nx.Graph()
    graph.add_nodes_from(range(len(adj)))
    for i, mask in enumerate(adj):
        for j in range(i + 1, len(adj)):
            if (mask >> j) & 1:
                graph.add_edge(i, j)
    return graph


def test_cliques_match_networkx_dim2():
    adj = compatibility_adjacency(sign_vector_pairs(2))
    ours = {frozenset(_bits(c)) for c in maximal_cliques(adj)}
    theirs = {frozenset(c) for c in nx.find_cliques(_as_networkx(adj))}
    assert ours == theirs


def test_cliques_match_networkx_dim4():
    adj = compatibility_adjacency(sign_vector_pairs(4))
    ours = {frozenset(_bits(c)) for c in maximal_cliques(adj)}
    theirs = {frozenset(c) for c in nx.find_cliques(_as_networkx(adj))}
    assert ours == theirs
    assert len(ours) == 396


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_dim2_classes():
    result = enumerate_pm1(2)
    assert result.complete
    assert result.rejected == 0
    assert len(result.classes) == 1
    cls = result.classes[0]
    assert (cls.vertex_count, cls.volume, cls.count) == (6, 3, 2)
    assert is_self_polar(cls.representative)


def test_dim2_exhaustive_completeness():
    # every self-polar polytope with -1/0/1 vertices arises from a maximal clique
    reps = sign_vector_pairs(2)
    found = set()
    for size in range(1, 5):
        for subset in combinations(reps, size):
            points = [p for r in subset for p in (r, vneg(r))]
            try:
                poly = convex_hull(points)
            except DimensionDeficiencyError:
                continue
            if is_self_polar(poly):
                found.add(poly.vertices)
    result = enumerate_pm1(2)
    from_cliques = set()
    adj = compatibility_adjacency(reps)
    for clique in maximal_cliques(adj):
        points = [p for i in _bits(clique) for p in (reps[i], vneg(reps[i]))]
        poly = convex_hull(points)
        if is_self_polar(poly):
            from_cliques.add(poly.vertices)
    assert found == from_cliques
    assert {(len(v)) for v in found} == {6}


def test_dim4_partial_budget():
    result = enumerate_pm1(4, budget=25)
    assert not result.complete
    assert result.cliques_seen == 25
    assert result.rejected == 0
    for cls in result.classes:
        assert is_self_polar(cls.representative)


def test_budget_partial_exactly_when_cliques_remain():
    # dim 2 has exactly 2 maximal cliques
    seen = {}
    for budget in (0, 1, 2, 3):
        result = enumerate_pm1(2, budget=budget)
        seen[budget] = (result.cliques_seen, result.complete)
    assert seen == {0: (0, False), 1: (1, False), 2: (2, True), 3: (2, True)}


def test_negative_budget_is_rejected():
    for dim, budget in ((2, -1), (4, -1), (6, -3)):
        with pytest.raises(ValueError, match="at least 0"):
            enumerate_pm1(dim, budget=budget)


def test_dim6_requires_budget():
    with pytest.raises(ValueError):
        enumerate_pm1(6)


def test_dim6_tiny_budget_is_partial():
    result = enumerate_pm1(6, budget=2)
    assert not result.complete
    assert result.cliques_seen == 2
    for cls in result.classes:
        assert cls.representative.dim == 6


def test_dim6_filter_rejects_a_clique():
    # the 27th maximal clique in dim 6, on 54 vertices, is the first whose
    # polytope is not self-polar
    result = enumerate_pm1(6, budget=27)
    assert not result.complete
    assert result.cliques_seen == 27
    assert result.rejected == 1
    assert sum(cls.count for cls in result.classes) == 26


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        enumerate_pm1(3)
