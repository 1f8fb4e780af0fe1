import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sympolar.geometry import (
    GeometryError,
    convex_hull,
    f_vector,
    from_halfspaces,
    gauge_norm,
    volume,
)
from sympolar.io import read_polytope, write_polytope
from sympolar.suspension import (
    PIVOT,
    hexagon,
    induction_certificate,
    power_suspend,
    suspend_halfspaces,
    suspend_vertices,
    suspension_membership,
    vertex_count_formula,
    volume_closed_form,
)
from sympolar.symplectic import is_self_polar, omega, symplectic_polar

from conftest import random_point

F = Fraction


def test_hexagon_constants(hexa):
    assert PIVOT in hexa.vertices
    assert is_self_polar(hexa)
    assert volume(hexa) == 3


def test_suspend_vertices_of_hexagon(hexa, p2):
    built = suspend_vertices(hexa)
    assert built == p2
    assert len(built.vertices) == 16
    assert len(built.facets) == 16
    assert volume(built) == F(7, 2)


def test_suspension_vertex_membership(p2):
    assert tuple(F(c) for c in (1, 1, 1, 0)) in p2.vertices
    assert tuple(F(c) for c in (1, 0, 0, 0)) in p2.vertices


def test_suspend_vertices_needs_self_polar(square):
    with pytest.raises(GeometryError) as err:
        suspend_vertices(square)
    assert "suspend_halfspaces" in str(err.value)


def test_representation_equivalence(hexa, p2, p3):
    assert suspend_halfspaces(hexa) == p2
    assert suspend_halfspaces(p2) == p3


def test_self_polarity_is_preserved(hexa, p2, p3):
    assert is_self_polar(suspend_vertices(hexa))
    assert is_self_polar(p3)


def test_suspend_square_well_defined(square):
    lifted = suspend_halfspaces(square)
    assert lifted.dim == 4
    assert lifted.symmetric
    assert volume(lifted) == F(7, 6) * 4


def test_volume_recurrence(square, cross2, hexa, p2):
    for body in (square, cross2, hexa):
        n = body.dim // 2
        factor = F(4 * n + 3, (n + 1) * (2 * n + 1))
        assert volume(suspend_halfspaces(body)) == factor * volume(body)
    assert volume(suspend_halfspaces(p2)) == F(11, 15) * volume(p2)


def test_polar_of_suspension_has_dual_representation(square):
    # the symplectic polar of the suspension is the hull of the base hexagon
    # at level zero and of {±u} x V(X^omega)
    lifted = suspend_halfspaces(square)
    polar = symplectic_polar(lifted)
    inner_polar = symplectic_polar(square)
    points = [v + (F(0), F(0)) * (square.dim // 2) for v in hexagon().vertices]
    for w in inner_polar.vertices:
        points.append(PIVOT + w)
        points.append((-F(1), -F(1)) + w)
    assert polar == convex_hull(points)


def test_membership_examples(hexa):
    zeros = (0, 0)
    assert suspension_membership(PIVOT, zeros, hexa)
    for y in hexa.vertices:
        assert suspension_membership(PIVOT, y, hexa)
    assert not suspension_membership((1, 0), (F(1, 4), F(1, 4)), hexa)


def test_membership_agrees_with_halfspace_polytope(square):
    lifted = suspend_halfspaces(square)
    rng = random.Random(9)
    hits = 0
    for _ in range(1000):
        v = random_point(rng, 2, span=1)
        x = random_point(rng, 2, span=1)
        inside = suspension_membership(v, x, square)
        hits += inside
        assert inside == lifted.contains(v + x)
    assert 0 < hits < 1000


def test_power_suspend_values(p2, p3):
    assert power_suspend(1) == hexagon()
    assert len(p2.vertices) == vertex_count_formula(2) == 16
    assert len(p3.vertices) == vertex_count_formula(3) == 36
    assert volume(p2) == volume_closed_form(2) == F(7, 2)
    assert volume(p3) == volume_closed_form(3) == F(77, 30)


def test_p5_self_polar_and_round_trip(tmp_path):
    p5 = power_suspend(5)
    assert len(p5.vertices) == vertex_count_formula(5) == 156
    assert is_self_polar(p5)
    path = tmp_path / "p5.json"
    write_polytope(path, p5)
    back = read_polytope(path)
    assert back.vertices == p5.vertices
    assert back.facets == p5.facets
    assert back.facet_vertex_sets() == p5.facet_vertex_sets()


def test_power_suspend_writes_nothing(tmp_path):
    # a fresh process with an empty home: building P_3 leaves no file behind
    code = (
        "from sympolar.suspension import power_suspend\n"
        "assert len(power_suspend(3).vertices) == 36\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SYMPOLAR_CACHE_DIR"}
    env["HOME"] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []


def test_power_suspend_rejects_zero():
    with pytest.raises(ValueError):
        power_suspend(0)


def test_closed_forms():
    assert volume_closed_form(1) == 3
    assert volume_closed_form(2) == F(7, 2)
    assert volume_closed_form(3) == F(77, 30)
    assert vertex_count_formula(1) == 6
    assert vertex_count_formula(2) == 16
    assert vertex_count_formula(3) == 36


def test_f_vector_of_p2(p2):
    assert f_vector(p2) == (16, 44, 44, 16)


def test_induction_certificate_base():
    cert = induction_certificate(1)
    assert cert.vertices == (
        (F(1), F(0)),
        (F(1), F(1)),
        (F(0), F(1)),
    )


def test_induction_certificate_step():
    cert = induction_certificate(2)
    assert (F(0), F(1), F(0), F(0)) in cert.vertices
    assert (F(-1), F(0), F(0), F(0)) in cert.vertices
    assert len(cert.vertices) == 5


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_induction_certificate_invariants(n):
    cert = induction_certificate(n)
    assert len(cert.vertices) == 2 * n + 1
    for i, v in enumerate(cert.vertices):
        for w in cert.vertices[i + 1 :]:
            assert omega(v, w) == 1


def test_certified_vectors_are_vertices(hexa, p2, p3):
    for n, poly in ((1, hexa), (2, p2), (3, p3)):
        vertex_set = set(poly.vertices)
        for v in induction_certificate(n).vertices:
            assert v in vertex_set


def test_round_base_suspension_is_not_self_polar():
    # replacing the hexagon base by a polygonal stand-in for the disk breaks
    # self-polarity of the construction (non-blocking exploration)
    scale = F(11, 10)  # rational blow-up of the unit square's midpoint polygon
    disk_like = convex_hull(
        [
            (scale, 0),
            (0, scale),
            (-scale, 0),
            (0, -scale),
            (scale * F(3, 4), scale * F(3, 4)),
            (-scale * F(3, 4), scale * F(3, 4)),
            (scale * F(3, 4), -scale * F(3, 4)),
            (-scale * F(3, 4), -scale * F(3, 4)),
        ]
    )
    pivot = max(disk_like.vertices)
    halfspaces = []
    inner = hexagon()
    for hs in disk_like.facets:
        halfspaces.append((hs.normal + (F(0), F(0)), hs.offset))
    for hs in inner.facets:
        for eps in (1, -1):
            normal = (
                F(eps) * pivot[1],
                -F(eps) * pivot[0],
            ) + hs.normal
            halfspaces.append((normal, F(1)))
    lifted = from_halfspaces(halfspaces, 4)
    assert lifted.symmetric
    assert not is_self_polar(lifted)
