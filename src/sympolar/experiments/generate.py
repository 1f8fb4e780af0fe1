"""Seeded random generation of symplectically self-polar polytopes.

One run starts from the symmetrized hull of random rational points strictly
inside the Euclidean unit ball (in general position with the origin), then
repeatedly adjoins a greedy inclusion-maximal centrally symmetric subset of
the symplectic polar's vertices whose pairs stay within the form bound,
until the polar adds nothing new.  Every quantity recorded is exact; floats
appear only as renderings in the CSV and the histogram.
"""

from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from itertools import combinations

from sympolar.geometry import Polytope, Row, _antipode, _row_key, convex_hull, volume
from sympolar.io import atomic_write_text
from sympolar.linalg import Vec, dehomogenize, fraction_vec_to_int, int_det, vneg
from sympolar.symplectic import _sympolar_rows, expand_step, is_self_polar, omega_rows

log = logging.getLogger(__name__)

ROUNDING_DENOMINATOR = 2**16

CSV_COLUMNS = (
    "seed",
    "k",
    "iterations",
    "volume_exact",
    "volume_float",
    "vertex_count",
    "self_polar",
)


@dataclass(frozen=True)
class IterationStep:
    polar_vertex_count: int
    pair_count: int
    selected_pairs: int
    vertex_count_after: int


@dataclass(frozen=True)
class ExperimentRecord:
    seed: int
    dim: int
    k: int
    iterations: int
    final: Polytope
    volume: Fraction
    vertex_count: int
    self_polar: bool
    trace: tuple[IterationStep, ...]


def _round_to_grid(value: float) -> Fraction:
    return Fraction(round(value * ROUNDING_DENOMINATOR), ROUNDING_DENOMINATOR)


def _sample_point(rng: random.Random, dim: int) -> Vec:
    gauss = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = sum(g * g for g in gauss) ** 0.5
    if norm == 0.0:
        return tuple(Fraction(0) for _ in range(dim))
    radius = rng.random() ** (1.0 / dim)
    return tuple(_round_to_grid(g / norm * radius) for g in gauss)


def _general_position_with(accepted: list[Row], candidate: Row, dim: int) -> bool:
    """Every dim-subset of the points, given as integer rows, must be
    linearly independent, which is general position together with the
    origin: dim rows of dim entries are, exactly when their determinant is
    nonzero."""
    if not any(candidate):
        return False
    return all(int_det([*subset, candidate]) != 0 for subset in combinations(accepted, dim - 1))


def sample_start_points(rng: random.Random, dim: int, k: int) -> list[Vec]:
    """k rational points strictly inside the unit ball, rounded to the
    2^-16 grid, rejection-sampled into general position."""
    accepted: list[Vec] = []
    rows: list[Row] = []
    while len(accepted) < k:
        candidate = _sample_point(rng, dim)
        if sum(c * c for c in candidate) >= 1:
            continue
        row = fraction_vec_to_int(candidate)
        if not _general_position_with(rows, row, dim):
            continue
        accepted.append(candidate)
        rows.append(row)
    return accepted


def _antipodal_pair_reps(rows: list[Row]) -> list[Row]:
    """The rows of a symmetric set of homogeneous rows whose first nonzero
    coordinate is positive, one per antipodal pair, sorted as their points
    sort."""
    return sorted((row for row in rows if next(c for c in row if c) > 0), key=_row_key)


def _check_parameters(dim: int, k: int, max_iter: int) -> None:
    if dim not in (2, 4, 6):
        raise ValueError(f"generation supports dimensions 2, 4, 6; got {dim}")
    if k < dim:
        raise ValueError(f"need at least dim={dim} start points, got k={k}")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


def random_selfpolar(
    dim: int, k: int, seed: int, max_iter: int = 64
) -> ExperimentRecord:
    """One seeded generation run; re-running with the same arguments
    reproduces the record bit-identically."""
    _check_parameters(dim, k, max_iter)
    rng = random.Random(seed)
    points = sample_start_points(rng, dim, k)
    K = convex_hull(points + [vneg(p) for p in points])

    trace: list[IterationStep] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        polar_rows = _sympolar_rows(K)
        pairs = _antipodal_pair_reps(polar_rows)
        rng.shuffle(pairs)
        # Greedy: a pair is chosen when |omega| <= 1 against every pair
        # chosen before it.  K lies in K^omega, and |omega(w, v)| <= 1 for w
        # in K^omega and v in K, so a pair of K's own vertices passes every
        # test: it is chosen untested, and only the other chosen pairs are
        # tested against and added to K.
        known = set(K.rows)
        chosen = 0
        new: list[Row] = []
        for row in pairs:
            if row in known:
                chosen += 1
            elif all(abs(omega_rows(row, other)) <= row[-1] * other[-1] for other in new):
                chosen += 1
                new.append(row)
        self_polar = chosen == len(pairs)
        if not self_polar:
            K = expand_step(K, [dehomogenize(r) for row in new for r in (row, _antipode(row))])
        trace.append(
            IterationStep(
                polar_vertex_count=len(polar_rows),
                pair_count=len(pairs),
                selected_pairs=chosen,
                vertex_count_after=len(K.rows),
            )
        )
        if self_polar:
            break

    self_polar = self_polar and is_self_polar(K)
    return ExperimentRecord(
        seed=seed,
        dim=dim,
        k=k,
        iterations=iterations,
        final=K,
        volume=volume(K),
        vertex_count=len(K.rows),
        self_polar=self_polar,
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class BatchResult:
    dim: int
    k: int
    records: tuple[ExperimentRecord, ...]
    failures: tuple[tuple[int, str], ...]  # (seed, error message)

    @property
    def min_volume(self) -> Fraction | None:
        done = [r.volume for r in self.records if r.self_polar]
        return min(done) if done else None

    @property
    def min_vertex_count(self) -> int | None:
        done = [r.vertex_count for r in self.records if r.self_polar]
        return min(done) if done else None

    @property
    def mean_volume(self) -> Fraction | None:
        done = [r.volume for r in self.records if r.self_polar]
        if not done:
            return None
        return sum(done, Fraction(0)) / len(done)


def batch_generate(
    dim: int,
    k: int,
    runs: int,
    base_seed: int,
    *,
    max_iter: int = 64,
    csv_path=None,
    svg_path=None,
) -> BatchResult:
    """Seeded batch of generation runs with optional CSV and SVG emission.

    Uses seeds base_seed .. base_seed + runs - 1; a failed run is recorded in
    the CSV with a ``failed`` marker instead of aborting the batch.  When the
    target dimension is 4, observed volumes below 7/2 or vertex counts at or
    below 16 are loudly flagged (they would contradict the conjectured
    minimizers) but not fatal.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    _check_parameters(dim, k, max_iter)

    def one(seed: int):
        try:
            return seed, random_selfpolar(dim, k, seed, max_iter=max_iter), None
        except Exception as exc:  # noqa: BLE001 - recorded per run
            log.exception("generation run with seed %d failed", seed)
            return seed, None, f"{type(exc).__name__}: {exc}"

    outcomes = [one(seed) for seed in range(base_seed, base_seed + runs)]

    records = tuple(rec for _, rec, _ in outcomes if rec is not None)
    failures = tuple((seed, msg) for seed, _, msg in outcomes if msg is not None)
    result = BatchResult(dim=dim, k=k, records=records, failures=failures)

    if dim == 4:
        floor = Fraction(7, 2)
        if result.min_volume is not None and result.min_volume < floor:
            log.warning(
                "OBSERVED VOLUME %s BELOW 7/2 in dim-4 batch (seed base %d)",
                result.min_volume,
                base_seed,
            )
        if result.min_vertex_count is not None and result.min_vertex_count <= 16:
            log.warning(
                "OBSERVED VERTEX COUNT %d AT OR BELOW 16 in dim-4 batch (seed base %d)",
                result.min_vertex_count,
                base_seed,
            )

    if csv_path is not None:
        write_batch_csv(csv_path, outcomes)
    if svg_path is not None and runs > 1:
        volumes = [float(r.volume) for r in records if r.self_polar]
        write_histogram_svg(svg_path, volumes)
    return result


def write_batch_csv(path, outcomes):
    text = StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_COLUMNS)
    for seed, rec, msg in outcomes:
        if rec is None:
            writer.writerow([seed, "", "", "", "", "", "failed"])
        else:
            writer.writerow(
                [
                    rec.seed,
                    rec.k,
                    rec.iterations,
                    str(rec.volume),
                    repr(float(rec.volume)),
                    rec.vertex_count,
                    "true" if rec.self_polar else "false",
                ]
            )
    atomic_write_text(path, text.getvalue())


BIN_WIDTH = 0.05  # volume histogram resolution
SVG_WIDTH, SVG_HEIGHT = 640, 360  # histogram size in pixels


def write_histogram_svg(path, values):
    """Fixed-bin-width volume histogram; values are float renderings only."""
    if not values:
        atomic_write_text(path, '<svg xmlns="http://www.w3.org/2000/svg"/>\n')
        return
    lo_bin = int(min(values) / BIN_WIDTH)
    hi_bin = int(max(values) / BIN_WIDTH)
    counts = [0] * (hi_bin - lo_bin + 1)
    for v in values:
        counts[int(v / BIN_WIDTH) - lo_bin] += 1
    peak = max(counts)
    margin = 40
    plot_w = SVG_WIDTH - 2 * margin
    plot_h = SVG_HEIGHT - 2 * margin
    bar_w = plot_w / len(counts)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    for i, count in enumerate(counts):
        if count == 0:
            continue
        bar_h = plot_h * count / peak
        x = margin + i * bar_w
        y = SVG_HEIGHT - margin - bar_h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{bar_h:.2f}" fill="#4477aa" stroke="white"/>'
        )
    axis_y = SVG_HEIGHT - margin
    parts.append(
        f'<line x1="{margin}" y1="{axis_y}" x2="{SVG_WIDTH - margin}" y2="{axis_y}" stroke="black"/>'
    )
    for i in range(len(counts) + 1):
        if (lo_bin + i) % 4 == 0:
            x = margin + i * bar_w
            label = f"{(lo_bin + i) * BIN_WIDTH:.2f}"
            parts.append(
                f'<text x="{x:.2f}" y="{axis_y + 16}" font-size="10" '
                f'text-anchor="middle">{label}</text>'
            )
    parts.append(f'<text x="{margin}" y="{margin - 10}" font-size="11">count (peak {peak})</text>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
