import csv
import hashlib
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from sympolar.experiments.generate import (
    _general_position_with,
    batch_generate,
    random_selfpolar,
    sample_start_points,
    write_batch_csv,
)
from sympolar.linalg import independent_rows, int_det
from sympolar.symplectic import is_self_polar

from test_kernel import ref_check_subset_sympolar

F = Fraction


def test_sample_points_inside_ball_general_position():
    rng = random.Random(100)
    points = sample_start_points(rng, 4, 6)
    assert len(points) == 6
    for p in points:
        assert sum(c * c for c in p) < 1
        assert all(c.denominator <= 2**16 for c in p)
    from fraction_linalg import rank
    from itertools import combinations

    for subset in combinations(points, 4):
        assert rank(list(subset)) == 4


def test_general_position_determinant_matches_rank():
    """dim integer rows of dim entries are independent exactly when their
    determinant is nonzero, so the general-position test decides as a rank
    test does, on random rows and on rows made dependent on purpose: a
    combination of others, a repeated row and a zero row."""
    rng = random.Random(37)
    ranks, decisions = set(), set()
    for dim in (2, 4, 6):
        for _ in range(30):
            accepted = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim)]
            a, b = rng.sample(accepted, 2)
            candidates = [
                tuple(rng.randint(-2**40, 2**40) for _ in range(dim)),
                tuple(rng.randint(-1, 1) for _ in range(dim)),
                tuple(2 * x - 3 * y for x, y in zip(a, b)),
                a,
                (0,) * dim,
            ]
            for candidate in candidates:
                independent = []
                for subset in combinations(accepted, dim - 1):
                    rows = [*subset, candidate]
                    independent.append(len(independent_rows(rows, dim)) == dim)
                    assert (int_det(rows) != 0) == independent[-1]
                expected = any(candidate) and all(independent)
                assert _general_position_with(accepted, candidate, dim) == expected
                ranks.update(independent)
                decisions.add(expected)
    assert ranks == decisions == {True, False}


def test_dim2_run_terminates_at_least_hexagon_volume():
    rec = random_selfpolar(2, 4, seed=3)
    assert rec.self_polar
    assert is_self_polar(rec.final)
    assert rec.volume >= 3
    assert rec.iterations <= 64
    assert rec.trace[-1].selected_pairs == rec.trace[-1].pair_count


def test_dim4_run(tmp_path):
    rec = random_selfpolar(4, 4, seed=2024)
    assert rec.self_polar
    assert rec.volume > F(7, 2)
    assert rec.vertex_count > 16
    assert ref_check_subset_sympolar(rec.final) == (True, None)


def test_determinism():
    a = random_selfpolar(2, 5, seed=77)
    b = random_selfpolar(2, 5, seed=77)
    assert a.final == b.final
    assert a.volume == b.volume
    assert a.iterations == b.iterations
    assert a.trace == b.trace


def test_parameter_validation():
    with pytest.raises(ValueError):
        random_selfpolar(4, 3, seed=1)
    with pytest.raises(ValueError):
        random_selfpolar(3, 4, seed=1)
    with pytest.raises(ValueError):
        random_selfpolar(2, 4, seed=1, max_iter=0)


@pytest.mark.parametrize(
    "seed, digest, vertex_count, iterations",
    [
        (45, "f9ea761eff4d8cfb", 60, 5),
        (8, "f180e83b24880d5e", 58, 5),
        (6, "541202c9665f8914", 62, 5),
    ],
)
def test_dim4_runs_match_pinned_results(seed, digest, vertex_count, iterations):
    """Three dim-4 runs pinned in the benchmark panel; a change to any
    greedy choice or to the hull moves them.  The volumes run to thousands
    of digits, so a hash of ``str(volume)`` is pinned."""
    rec = random_selfpolar(4, 10, seed)
    assert hashlib.sha256(str(rec.volume).encode()).hexdigest()[:16] == digest
    assert (rec.vertex_count, rec.iterations, rec.self_polar) == (vertex_count, iterations, True)


@pytest.mark.parametrize("dim, k, max_iter", [(4, 2, 64), (3, 4, 64), (2, 4, 0)])
def test_batch_checks_parameters_before_any_run(tmp_path, dim, k, max_iter):
    csv_path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        batch_generate(dim, k, runs=2, base_seed=0, max_iter=max_iter, csv_path=csv_path)
    assert not csv_path.exists()


def test_batch_csv_and_svg(tmp_path):
    csv_path = tmp_path / "batch.csv"
    svg_path = tmp_path / "batch.svg"
    result = batch_generate(
        2, 4, runs=3, base_seed=10, csv_path=csv_path, svg_path=svg_path
    )
    assert len(result.records) == 3
    assert result.min_volume >= 3
    with open(csv_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "seed",
        "k",
        "iterations",
        "volume_exact",
        "volume_float",
        "vertex_count",
        "self_polar",
    ]
    assert len(rows) == 4
    assert rows[1][0] == "10" and rows[3][0] == "12"
    assert all(row[6] == "true" for row in rows[1:])
    exact = F(rows[1][3])
    assert abs(float(exact) - float(rows[1][4])) < 1e-12
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_batch_csv_keeps_the_old_file_when_a_row_fails(tmp_path):
    """The CSV is built in memory and renamed into place, so a row that
    fails to format leaves the previous file whole and no temp file."""
    path = tmp_path / "batch.csv"
    path.write_text("old content\n")
    broken = SimpleNamespace(
        seed=0, k=4, iterations=1, volume="not a number", vertex_count=6, self_polar=True
    )
    with pytest.raises(ValueError):
        write_batch_csv(path, [(0, broken, None)])
    assert path.read_text() == "old content\n"
    assert list(tmp_path.iterdir()) == [path]


def test_batch_single_run_no_histogram(tmp_path):
    csv_path = tmp_path / "one.csv"
    svg_path = tmp_path / "one.svg"
    batch_generate(2, 4, runs=1, base_seed=5, csv_path=csv_path, svg_path=svg_path)
    assert csv_path.exists()
    assert not svg_path.exists()

