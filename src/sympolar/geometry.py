"""Exact polyhedral kernel.

Provides full-dimensional polytopes with canonical vertex and facet
representations, convex hulls, polar duals, exact volumes, gauges, shadows,
and linear images.  There is no floating-point fallback anywhere.

The API speaks ``Fraction``; inside, each polytope keeps one integer form
(see ``linalg``) and nothing else: every vertex is a primitive homogeneous
row (V, d) with v = V/d and d > 0, every facet <a, x> <= b a primitive row
(a, -b), and the facet-vertex incidence a bitmask per facet.  The
``Fraction`` vertices and facets are views of these rows, made on first
use.  A vertex is on a facet when the integer dot product of their rows is
0 and inside it when it is <= 0.  The incidence is computed once per hull,
by the exact consistency check, and reused by the polar and by
``_facets_of``, which reads the faces off it with no rank test for the face
lattice and the volume, and with no maximality test either on faces of
dimension at most 3, as no three vertices of a polytope are collinear; the
volume's triangulation looks for a face's facets only among its parent
face's.  A hull grown from P keeps the facets of P that no new point cuts,
and its check takes their tight sets on P's vertices from P's incidence,
evaluating them on the new points only.
The volume of every body is one sum of signed cones from the origin over
its facets, each facet triangulated by pulling.

Facet enumeration uses incremental insertion of halfspaces in the
double-description style, which is robust under the heavy degeneracies of
the symmetric polytopes this kernel targets (dimension <= 8, a few hundred
vertices).  The facets <a, x> <= b of the hull of any full-dimensional
point set, wherever the origin lies, are the extreme rays (a, b) of the
cone {(a, b) : <a, p> <= b for every point p}, so every hull runs one
double description on that cone, whose starting basis is also its rank
test; ``from_halfspaces`` enumerates a region's vertices on its
homogenization cone and takes their hull.  A hull thus keeps the
double-description pair of its cone: its facet rows (a, -b) read as (a, b)
are the cone's extreme rays and its incidence their tight sets.
Growing it by a few points (``_grow_hull``) therefore starts from that pair
and inserts only the new points' constraints; the cold start in
``vertex_enumeration`` and this warm start share one crossing step
(``_crossings``), with its adjacency test.  Two rays are adjacent when no
third ray is tight on all their common constraints (Fukuda & Prodon,
1996); the test counts exactly the rays that are, with a few big-integer
operations per pair over the complemented tight masks packed into blocks
of about 2048 bits (``_packed``), in place of a scan over every ray.

Every body of the paper is centrally symmetric, and the kernel uses that
four times.  The cold start of a symmetric point set inserts each point's
constraint right after its antipode's, which keeps the intermediate cones
of the degenerate suspensions small.  The warm start keeps the symmetric
polar cone's rays in mirror pairs and cuts it by each new antipodal pair
of points at once, as one slab whose second half is the mirror of the
first.  The hull sorts its rows once, and negation reverses the order of
points, so row N-1-i is the antipode of row i (``_mirrored``): the warm
start reads its pairs off them, and the consistency check's one
evaluator, which takes a point row alone or with its antipode, reads a
facet row's values on a pair (V, d), (-V, d) off one product <a, V>.
The mirror facet (-a, -b) of a facet row (a, -b) satisfies
(-a, -b) . (V, d) = (a, -b) . (-V, d), so the check tests each such pair
of facets once and maps the tight set through the antipodes.  And the
volume's sum of a symmetric body takes one facet of each mirror pair,
twice.

Vertices sort as their points sort; rows are compared without
``Fraction``s or a common denominator (``_row_cmp``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import factorial, lcm, prod
from typing import Iterable, Sequence

from sympolar.linalg import (
    SingularMatrixError,
    Vec,
    as_fraction,
    as_vec,
    bits,
    dehomogenize,
    dot,
    fraction_vec_to_int,
    homogeneous,
    independent_rows,
    int_adjugate,
    int_det,
    int_dot,
    is_zero_vec,
    primitive,
)

ONE = Fraction(1)

Row = tuple[int, ...]


class GeometryError(ValueError):
    """Base class for polyhedral precondition and domain failures."""


class DimensionDeficiencyError(GeometryError):
    """The input points do not affinely span the ambient space."""

    def __init__(self, ambient_dim: int, affine_dim: int):
        super().__init__(
            f"hull is not full-dimensional: affine hull has dimension "
            f"{affine_dim} inside R^{ambient_dim}"
        )
        self.ambient_dim = ambient_dim
        self.affine_dim = affine_dim


class PolarityDomainError(GeometryError):
    """Polarity was requested for a body without the origin in its interior."""


class UnboundedRegionError(GeometryError):
    """A halfspace system describes an unbounded or empty region."""


@dataclass(frozen=True, order=True)
class HalfSpace:
    """The set {x : <normal, x> <= offset}; halfspaces sort by (normal, offset)."""

    normal: Vec
    offset: Fraction

    def __post_init__(self):
        if is_zero_vec(self.normal):
            raise GeometryError("halfspace normal must be nonzero")

    def contains(self, point: Vec) -> bool:
        return dot(self.normal, point) <= self.offset

    def is_tight(self, point: Vec) -> bool:
        return dot(self.normal, point) == self.offset


def _antipode(row: Row) -> Row:
    """The homogeneous row of -v, for the row of v; likewise, for a facet
    row (a, -b), the row (-a, -b) of the mirrored facet <-a, x> <= b."""
    return tuple(-c for c in row[:-1]) + row[-1:]


def _flip(row: Row) -> Row:
    """``row`` with its last entry negated: a facet row (a, -b) read as the
    ray (a, b) of the polar cone, and back; a point row (V, d) as (V, -d)."""
    return row[:-1] + (-row[-1],)


def _mirrored(rows: Sequence[Row]) -> bool:
    """Whether row N-1-i is the antipode of row i for every i: for distinct
    rows sorted as their points sort, whether the points are symmetric."""
    return all(rows[-1 - i] == _antipode(rows[i]) for i in range((len(rows) + 1) // 2))


class Polytope:
    """Immutable full-dimensional convex polytope with exact rational data.

    ``rows`` holds exactly the extreme points as primitive homogeneous
    integer rows, sorted as their points sort lexicographically; a point has
    one such row, so polytope equality is equality of these canonical lists.
    ``facet_rows`` holds the facets as integer rows (in no particular order)
    and ``incidence``, per facet row, the bitmask of the indices of the
    vertices on it.  The ``Fraction`` views ``vertices`` and ``facets`` are
    derived from the rows on first use.
    """

    __slots__ = ("dim", "rows", "facet_rows", "incidence", "symmetric", "_vertices", "_facets")

    def __init__(self, dim: int, rows, facet_rows, incidence):
        self.dim = dim
        self.rows = rows
        self.facet_rows = facet_rows
        self.incidence = incidence
        self.symmetric = _mirrored(rows)
        self._vertices = None
        self._facets = None

    def _halfspaces(self) -> list[HalfSpace]:
        """Facet halfspaces, scaled to offset 1 when the origin is interior,
        otherwise to a primitive integer normal."""
        if self.origin_interior():
            return [HalfSpace(dehomogenize(_flip(f)), ONE) for f in self.facet_rows]
        return [HalfSpace(as_vec(f[:-1]), Fraction(-f[-1])) for f in self.facet_rows]

    @property
    def vertices(self) -> tuple[Vec, ...]:
        if self._vertices is None:
            self._vertices = tuple(dehomogenize(r) for r in self.rows)
        return self._vertices

    @property
    def facets(self) -> tuple[HalfSpace, ...]:
        if self._facets is None:
            self._facets = tuple(sorted(self._halfspaces()))
        return self._facets

    def contains(self, point: Vec) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(point)}")
        row = homogeneous(as_vec(point))
        return all(int_dot(f, row) <= 0 for f in self.facet_rows)

    def origin_interior(self) -> bool:
        return all(f[-1] < 0 for f in self.facet_rows)

    def facet_vertex_sets(self) -> tuple[frozenset[int], ...]:
        """For each facet, in the order of ``facets``, the indices of the
        vertices lying on it."""
        pairs = sorted(zip(self._halfspaces(), self.incidence))
        return tuple(frozenset(bits(mask)) for _, mask in pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    def __repr__(self) -> str:
        return f"Polytope(dim={self.dim}, vertices={len(self.rows)})"


# ---------------------------------------------------------------------------
# Double description: vertex enumeration of a bounded halfspace intersection.


def _halfspace_rows(halfspaces: Sequence[tuple[Vec, Fraction]], dim: int) -> list[Row]:
    """Distinct primitive rows (a, -b) of the halfspaces <a, x> <= b in R^dim."""
    if any(len(normal) != dim for normal, _ in halfspaces):
        raise GeometryError(f"halfspace normals must have {dim} coordinates")
    if any(is_zero_vec(normal) for normal, _ in halfspaces):
        raise GeometryError("halfspace normal must be nonzero")
    return list(
        dict.fromkeys(fraction_vec_to_int(as_vec(a) + (-as_fraction(b),)) for a, b in halfspaces)
    )


def _packed(masks: list[int]) -> tuple[list[tuple[int, int]], int, int, int]:
    """The complemented ``masks`` packed into blocks of about 2048 bits, as
    (block, number of fields), with the block-wide constants ``ones``,
    ``fill`` and ``tops`` of ``_crossings``.  Each mask takes a field of
    width = max(masks).bit_length() + 1 bits, whose top bit, the guard,
    stays clear.  Blocks, not one integer over all the rays, let the count
    stop at the first block where it passes 2."""
    width = max(masks).bit_length() + 1
    low = (1 << width - 1) - 1  # the value bits of a field
    per = max(1, 2048 // width)  # fields per block
    blocks = []
    for start in range(0, len(masks), per):
        chunk = masks[start : start + per]
        block = 0
        for z in reversed(chunk):
            block = block << width | z ^ low
        blocks.append((block, len(chunk)))
    size = min(per, len(masks))
    ones = ((1 << width * size) - 1) // ((1 << width) - 1)  # bit 0 of each field
    return blocks, ones, low * ones, ones << width - 1


def _crossings(
    rays: list[Row], masks: list[int], vals: list[int], plus: list[int], minus: list[int],
    bit: int, dim: int,
) -> tuple[list[Row], list[int]]:
    """The new extreme rays on the hyperplane of one constraint, which takes
    the values ``vals`` on ``rays``: one primitive combination per adjacent
    pair of a ray in ``plus`` and one in ``minus``, with the pair's common
    tight mask and the constraint's ``bit``.

    Rays p and m are adjacent when no third ray is tight on all of their
    common constraints zpn, that is, when exactly two rays (p and m) are.
    The count is made on the packed complements c of the masks
    (``_packed``): a ray is tight on zpn exactly when c & zpn is 0, and
    adding 2^(width-1) - 1 (``fill``) to a field below 2^(width-1) sets its
    guard bit exactly when the field is nonzero and carries into no other
    field, so a block of ``size`` fields holds
    size - popcount(((block & zpn * ones) + fill) & tops) tight rays.  The
    fields past a short last block are 0 and set no guard.  The count stops
    once it passes 2, and the blocks are built on the first pair that passes
    the popcount filter."""
    fresh: list[Row] = []
    fresh_masks: list[int] = []
    blocks = None
    lows = [(masks[m], m) for m in minus]
    for p in plus:
        zp = masks[p]
        for zm, m in lows:
            zpn = zp & zm
            if zpn.bit_count() < dim - 1:
                continue
            if blocks is None:
                blocks, ones, fill, tops = _packed(masks)
            spread = zpn * ones
            tight = 0
            for block, size in blocks:
                tight += size - (((block & spread) + fill) & tops).bit_count()
                if tight > 2:
                    break
            else:
                combo = primitive([vals[p] * rm - vals[m] * rp for rp, rm in zip(rays[p], rays[m])])
                fresh.append(combo)
                fresh_masks.append(zpn | bit)
    return fresh, fresh_masks


def _split(vals: list[int]) -> tuple[list[int], list[int], list[int]]:
    """The indices of the positive, negative and zero ``vals``, in one pass."""
    plus, minus, zero = [], [], []
    for i, v in enumerate(vals):
        (plus if v > 0 else minus if v < 0 else zero).append(i)
    return plus, minus, zero


def _swap_pairs(mask: int, even: int) -> int:
    """``mask`` with bits 2j and 2j+1 swapped, for each bit 2j set in ``even``."""
    return (mask & even) << 1 | (mask >> 1) & even


def _slab(
    rays: list[Row], masks: list[int], row: Row, pair: int, even: int, dim: int
) -> tuple[list[Row], list[int]]:
    """The double-description step (as in ``vertex_enumeration``) by the
    constraint row r = (-V, d) of a point q = V/d, r . x >= 0, and the
    row (V, d) of -q together, on a cone symmetric under the mirror
    s(u, t) = (-u, t): rays 2k and 2k+1 are mirrors, constraint pairs take
    bits 2j and 2j+1, and ``even`` has bit 2j set for every pair j, so a
    ray's mirror has its mask with adjacent bits swapped.  The new pair
    takes bits 2 * ``pair`` and 2 * ``pair`` + 1.

    (V, d) . x = r . s(x) = 2dt - r . x, so -q's values are q's on the
    mirror rays, and r's are read off its values on one ray of each mirror
    pair.  Every ray has t > 0, hence (V, d) . x > 0 on q's boundary: no
    ray lies on both boundaries, the new rays on -q's boundary are the
    mirrors of those on q's, and only q's crossings are computed."""
    bit = 1 << 2 * pair
    d2 = 2 * row[-1]
    vals: list[int] = []
    for ray in rays[::2]:
        v = int_dot(row, ray)
        vals += (v, d2 * ray[-1] - v)
    plus, minus, _ = _split(vals)
    fresh, fresh_masks = _crossings(rays, masks, vals, plus, minus, bit, dim)
    out_rays: list[Row] = []
    out_masks: list[int] = []
    for i, v in enumerate(vals):
        w = vals[i ^ 1]
        if v >= 0 and w >= 0:
            out_rays.append(rays[i])
            out_masks.append(masks[i] | (bit if v == 0 else 0) | (bit << 1 if w == 0 else 0))
    for ray, mask in zip(fresh, fresh_masks):
        out_rays += [ray, _antipode(ray)]
        out_masks += [mask, _swap_pairs(mask, even)]
    return out_rays, out_masks


def vertex_enumeration(
    halfspaces: Sequence[tuple[Vec, Fraction]], dim: int, *, integer_rows: bool = False
) -> list[Vec] | list[Row]:
    """Vertices of {x : <a_i, x> <= b_i}, which must be a bounded polytope.

    Works on the homogenization cone {(x, t) : b_i t - <a_i, x> >= 0, t >= 0},
    inserting constraints incrementally and maintaining the extreme rays with
    exact integer arithmetic.  Raises UnboundedRegionError when a ray at
    infinity survives and GeometryError when the system cannot describe a
    bounded body.

    With ``integer_rows`` the halfspaces are distinct integer rows h and the
    result is the extreme rays of the cone {y : h . y <= 0} itself, with no
    homogenization row: ``convex_hull`` passes the flipped point rows, whose
    cone's rays are the facets.  The rows must span R^(dim+1); when they do
    not, their rank r gives DimensionDeficiencyError(dim, r - 1).
    """
    if integer_rows:
        rows = [tuple(-c for c in h) for h in halfspaces]
    else:
        rows = [tuple(-c for c in h) for h in _halfspace_rows(halfspaces, dim)]
        rows.append((0,) * dim + (1,))  # homogenization: t >= 0

    n = dim + 1
    basis = independent_rows(rows, n)
    if len(basis) < n:
        if integer_rows:
            raise DimensionDeficiencyError(dim, len(basis) - 1)
        raise GeometryError(
            "halfspace normals do not span the ambient space (the region "
            "contains a line, so it is unbounded or empty)"
        )
    chosen = set(basis)
    order = basis + [i for i in range(len(rows)) if i not in chosen]
    ordered = [rows[i] for i in order]

    # the initial rays are the columns of B^-1 for the basis B, taken from
    # adj(B) = det(B) B^-1 times the sign of det(B)
    det, adj = int_adjugate(ordered[:n])
    rays: list[Row] = [primitive([c if det > 0 else -c for c in col]) for col in zip(*adj)]
    full_mask = (1 << n) - 1
    masks: list[int] = [full_mask & ~(1 << j) for j in range(n)]

    # cut the cone by each other constraint row r . x >= 0 in turn; a ray's
    # mask holds the bits of the constraints so far that it is tight on
    for idx, row in enumerate(ordered[n:], n):
        bit = 1 << idx
        vals = [int_dot(row, ray) for ray in rays]
        plus, minus, zero = _split(vals)
        if not minus:
            for i in zero:
                masks[i] |= bit
            continue
        fresh, fresh_masks = _crossings(rays, masks, vals, plus, minus, bit, dim)
        rays = [rays[i] for i in plus] + [rays[i] for i in zero] + fresh
        masks = [masks[i] for i in plus] + [masks[i] | bit for i in zero] + fresh_masks
        if not rays:
            raise GeometryError("halfspace system has empty interior")

    if integer_rows:
        return rays
    for ray in rays:
        if ray[dim] == 0:  # every ray keeps t >= 0, one of the rows
            raise UnboundedRegionError("region is unbounded")
    return [dehomogenize(ray) for ray in rays]


# ---------------------------------------------------------------------------
# Canonical construction.


def _tight(f: Row, rows: Sequence[Row], pairs) -> int:
    """The bitmask of the point rows on the facet row f = (a, -b), given as
    ``pairs`` (i, k, V, d): the point row (V, d) at index i and k, the index
    of its antipode (-V, d) among the rows, or None.  One product
    s = <a, V> gives f's value u + s on the point, u = -bd, and when k is
    set u - s on its antipode; raises GeometryError when a point lies
    outside f."""
    a, c = f[:-1], f[-1]
    mask = 0
    for i, k, V, d in pairs:
        s = int_dot(a, V)
        u = c * d
        # an unpaired point has no second value: -1 is neither on nor outside f
        first, second = u + s, -1 if k is None else u - s
        if first > 0 or second > 0:
            raise GeometryError(
                f"vertex {dehomogenize(rows[i if first > 0 else k])} violates facet row {f}"
            )
        if first == 0:
            mask |= 1 << i
        if second == 0:
            mask |= 1 << k
    return mask


def _check_consistency(
    dim: int,
    rows: Sequence[Row],
    facet_rows: Sequence[Row],
    known: Sequence[int | None] | None = None,
    old: int = 0,
) -> tuple[int, ...]:
    """Check that every point lies inside every facet and that every facet
    is spanned by a (dim-1)-dimensional set of points on it; returns the
    incidence.

    One evaluator, ``_tight``, takes every tight set.  When the rows are
    mirrored (``_mirrored``), as symmetric rows sorted as their points sort
    are, row i is paired with its antipode, row N-1-i, and one product
    <a, V> gives the values of a facet row (a, -b) on both points; otherwise
    each unpaired row takes one product.  And the mirror (-a, -b) of a facet
    row of mirrored rows is checked with it: (-a, -b) . r = (a, -b) . r' for
    the antipode r' of r, so its tight set is the antipodes of the other's,
    whose rows differ by diag(-1, ..., -1, 1) and so have equal rank.

    A facet with exactly dim points on it has its rank certified by one
    dim x dim determinant; one with more keeps the elimination.

    ``known`` may give, per facet row, its tight set on the rows in the
    bitmask ``old`` as an earlier check proved it, or None: a grown hull's
    facet rows carried over from P, with P's incidence (``_grow_hull``).
    Such a facet is evaluated on the other rows' pairs only, their tight
    points join its tight set, and its rank test is skipped, as that set
    contains one that spans."""
    symmetric = _mirrored(rows)
    anti = range(len(rows) - 1, -1, -1) if symmetric else [None] * len(rows)
    pairs = [(i, k, rows[i][:-1], rows[i][-1]) for i, k in enumerate(anti) if k is None or i <= k]
    new_pairs = [p for p in pairs if not old >> p[0] & 1]
    if known is None:
        known = [None] * len(facet_rows)
    mirror = {f: j for j, f in enumerate(facet_rows)} if symmetric else {}
    incidence: list[int | None] = [None] * len(facet_rows)
    for j, f in enumerate(facet_rows):
        if incidence[j] is not None:
            continue
        if known[j] is not None:
            mask = incidence[j] = known[j] | _tight(f, rows, new_pairs)
        else:
            mask = incidence[j] = _tight(f, rows, pairs)
            tight = [rows[i] for i in bits(mask)]
            if len(tight) == dim:
                # the rows lie in f's orthogonal complement, on which dropping
                # a column c with f[c] != 0 is injective: rank dim iff det != 0
                c = next(k for k in range(dim, -1, -1) if f[k])
                spanned = int_det([r[:c] + r[c + 1 :] for r in tight]) != 0
            else:
                spanned = len(independent_rows(tight, dim)) == dim
            if not spanned:
                raise GeometryError(
                    f"facet row {f} is not supported by a (dim-1)-dimensional vertex set"
                )
        k = mirror.get(_antipode(f))
        if k is not None:
            incidence[k] = sum(1 << anti[i] for i in bits(mask))
    return tuple(incidence)


def _row_cmp(x: Row, y: Row) -> int:
    """-1, 0 or 1 as the point V/d of the row x = (V, d) sorts before, with
    or after that of y = (W, e): rows with d = e compare as tuples, others
    by V e against W d, coordinate by coordinate."""
    d, e = x[-1], y[-1]
    if d == e:
        return (x > y) - (x < y)
    for v, w in zip(x[:-1], y):
        if v * e != w * d:
            return 1 if v * e > w * d else -1
    return 0


_row_key = cmp_to_key(_row_cmp)


def _point_row(point: Sequence) -> Row:
    """The homogeneous row of a point given as ints, ``Fraction``s or both."""
    p = tuple(point)
    if all(type(c) is int for c in p):
        return p + (1,)
    return homogeneous(as_vec(p))


def _renumbered(incidence, keep: list[int]) -> tuple[int, ...]:
    """The incidence masks on the point rows indexed by ``keep``, in its order."""
    position = {i: j for j, i in enumerate(keep)}
    return tuple(sum(1 << position[i] for i in bits(mask) if i in position) for mask in incidence)


def _polytope(dim: int, rows, facet_rows, incidence, keep) -> Polytope:
    """Polytope on the point rows indexed by ``keep``, sorted as their
    points sort (``_row_cmp``, with no common denominator); the incidence is
    renumbered to the sorted vertex list."""
    keep = sorted(keep, key=lambda i: _row_key(rows[i]))
    return Polytope(dim, tuple(rows[i] for i in keep), tuple(facet_rows), _renumbered(incidence, keep))


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Canonical polytope spanned by the given points.

    The result's vertex list is exactly the set of extreme points.  Raises
    DimensionDeficiencyError when the points do not affinely span the
    ambient space.

    The facets <a, x> <= b of the hull are the extreme rays (a, b) of the
    cone {(a, b) : <a, p> <= b for every point p}, wherever the origin lies;
    its constraint rows are the point rows (V, d) read as (V, -d), and its
    rays (a, b) are read back as facet rows (a, -b) (``_flip``).  An integer
    point p has the row (p, 1), made with no ``Fraction``.  The rows go to
    the double description in input order, which fixes the facet row order,
    and to the check and the result sorted.
    """
    rows = list(dict.fromkeys(map(_point_row, points)))
    if not rows:
        raise GeometryError("no points given")
    dim = len(rows[0]) - 1
    if any(len(r) != dim + 1 for r in rows):
        raise GeometryError("points have mixed dimensions")
    # each point's constraint right after its antipode's keeps the cones of
    # the double description small; a symmetric set gains no point by it,
    # and its origin, interior, cuts nothing, so its constraint goes last
    order = list(dict.fromkeys(x for r in rows for x in (r, _antipode(r))))
    if len(order) == len(rows):
        origin = (0,) * dim + (1,)
        order.sort(key=origin.__eq__)
    else:
        order = rows
    rays = vertex_enumeration([_flip(r) for r in order], dim, integer_rows=True)
    return _hull_polytope(dim, sorted(rows, key=_row_key), [_flip(u) for u in rays])


def _hull_polytope(
    dim: int, rows: list[Row], facet_rows, known: Sequence[int | None] | None = None, old: int = 0
) -> Polytope:
    """The hull of the point ``rows``, sorted as their points sort, from its
    facet rows: the consistency check of every point against every facet,
    which takes the tight sets ``known`` on the rows ``old`` as proved
    (``_check_consistency``), then the extreme points, which stay sorted."""
    incidence = _check_consistency(dim, rows, facet_rows, known, old)

    # A point is extreme exactly when the facets through it meet in it alone.
    meet = [-1] * len(rows)
    for mask in incidence:
        for i in bits(mask):
            meet[i] &= mask
    keep = [i for i in range(len(rows)) if meet[i] == 1 << i]
    if len(keep) < len(rows):
        incidence = _renumbered(incidence, keep)
        rows = [rows[i] for i in keep]
    return Polytope(dim, tuple(rows), tuple(facet_rows), incidence)


def _grow_hull(P: Polytope, rows: Sequence[Row]) -> Polytope:
    """The hull of a centrally symmetric P and a centrally symmetric point
    set, given as distinct primitive homogeneous ``rows`` sorted as their
    points sort (what ``expand_step`` passes), warm-started from P's
    double-description pair.

    The facets of the hull are the vertices of its polar, which is P's polar
    cut by <q, u> <= 1 for each new point q.  So the double description
    starts from P's polar cone, whose extreme rays are P's facet rows
    (a, -b) read as (a, b) and whose tight sets are ``P.incidence``; only
    the new points' constraints are inserted.  That cone is symmetric, so
    its rays are stored in mirror pairs.  Row N-1-i is the antipode of row i
    (``_mirrored``), so P's vertex pair takes bits 2i and 2i+1, and each new
    row of the first half is inserted with its mirrored row as one slab
    |<q, u>| <= t (``_slab``), in the given order.  Vertices of P among the
    rows add nothing and are dropped, which keeps the rest mirrored; the
    origin, a middle row, is inside P and adds no constraint.

    A facet row of the hull that equals one of P's is one of P's rays that
    no slab cut.  P's check proved its tight set on P's vertices, so the
    hull's check takes that set, renumbered to the merged rows, and
    evaluates the facet on the new points only; the new rays, which a slab
    made, are checked in full.
    """
    if not P.symmetric:
        raise GeometryError("the warm start needs a centrally symmetric body")
    known = set(P.rows)
    new = [r for r in rows if r not in known]
    n = len(P.rows)
    even = ((1 << 2 * ((n + len(new)) // 2)) - 1) // 3  # bit 2j of each pair j
    rays: list[Row] = []
    masks: list[int] = []
    for f, tight in zip(P.facet_rows, P.incidence):
        if f > _antipode(f):  # one facet row of each mirror pair
            # vertex i < n/2 takes bit 2i, its antipode n-1-i bit 2i+1
            mask = sum(1 << min(2 * i, 2 * (n - i) - 1) for i in bits(tight))
            rays += [_flip(f), tuple(-c for c in f)]
            masks += [mask, _swap_pairs(mask, even)]
    for pair, r in enumerate(new[: len(new) // 2], n // 2):
        # (-V, d): <q, u> <= t, q = V/d
        rays, masks = _slab(rays, masks, _antipode(r), pair, even, P.dim)
    facet_rows = list(map(_flip, rays))
    # two sorted runs, which the sort merges in linear time
    merged = sorted([*P.rows, *new], key=_row_key)
    position = {r: i for i, r in enumerate(merged)}
    moved = [1 << position[r] for r in P.rows]  # P's vertex i as a bit of the merged rows
    verified = dict(zip(P.facet_rows, P.incidence))
    known = [
        None if (mask := verified.get(f)) is None else sum(moved[i] for i in bits(mask))
        for f in facet_rows
    ]
    return _hull_polytope(P.dim, merged, facet_rows, known, sum(moved))


def from_halfspaces(
    halfspaces: Sequence[tuple[Vec, Fraction]], dim: int
) -> Polytope:
    """Canonical polytope for a bounded halfspace system: the hull of the
    region's vertices, which drops the redundant halfspaces.  Raises
    DimensionDeficiencyError when the region is lower-dimensional."""
    return convex_hull(vertex_enumeration(halfspaces, dim))


# ---------------------------------------------------------------------------
# Operations.


def _move(row: Row, coords: Sequence[tuple[int, int]]) -> Row:
    """``row`` moved by the signed coordinate permutation ``coords`` of
    ``_polar``, with its last entry negated: a facet row (a, -b) becomes a
    vertex row of the polar, a vertex row (V, d) one of its facet rows."""
    return tuple(s * row[k] for s, k in coords) + (-row[-1],)


def _polar(P: Polytope, coords: Sequence[tuple[int, int]]) -> Polytope:
    """The polar body of P followed by the signed coordinate permutation
    whose output coordinate k is ``sign * x[index]``, ``coords[k] = (sign, index)``.

    No hull is computed: the polar's vertex rows are P's facet rows
    (a, -b) read as (a, b), its facet rows are P's vertex rows (V, d) read
    as (V, -d), and its incidence is P's, transposed.  A signed permutation
    is orthogonal, so it moves vertex and facet rows alike.
    """
    if not P.origin_interior():
        raise PolarityDomainError("origin is not interior to the polytope")

    transposed = [0] * len(P.rows)
    for j, mask in enumerate(P.incidence):
        for i in bits(mask):
            transposed[i] |= 1 << j
    rows = [_move(f, coords) for f in P.facet_rows]
    facet_rows = [_move(r, coords) for r in P.rows]
    return _polytope(P.dim, rows, facet_rows, transposed, range(len(rows)))


def polar_dual(P: Polytope) -> Polytope:
    """The polar body {y : <x, y> <= 1 for all x in P}.

    Needs the origin strictly inside P.  Both representations come for free:
    the dual's vertices are P's canonical facet normals and its facets are
    P's vertices at offset 1.
    """
    return _polar(P, [(1, k) for k in range(P.dim)])


def apply_linear(matrix: Sequence[Sequence], P: Polytope) -> Polytope:
    """Image of P under an invertible linear map, re-canonicalized; the
    incidence carries over.  With M = A/s for an integer A, a vertex row
    (V, d) maps to (A V, s d), and a facet row (a, -b), defined up to a
    positive scale, by the inverse transpose s adj(A)^T / det(A) to
    (sign(det) s adj(A)^T a, -b |det|)."""
    M = tuple(as_vec(row) for row in matrix)
    if len(M) != P.dim or any(len(row) != P.dim for row in M):
        raise GeometryError("matrix shape does not match the polytope dimension")
    s = lcm(*(c.denominator for row in M for c in row))
    A = [[c.numerator * (s // c.denominator) for c in row] for row in M]
    det, adj = int_adjugate(A)
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    rows = [primitive([int_dot(a, r[:-1]) for a in A] + [s * r[-1]]) for r in P.rows]
    scale = s if det > 0 else -s
    facet_rows = [
        primitive([scale * int_dot(col, f[:-1]) for col in zip(*adj)] + [abs(det) * f[-1]])
        for f in P.facet_rows
    ]
    return _polytope(P.dim, rows, facet_rows, P.incidence, range(len(rows)))


def gauge_norm(P: Polytope, x: Sequence) -> Fraction:
    """Minkowski gauge min{t >= 0 : x in tP} of a symmetric body, whose
    origin is interior: the largest <a, x>/b over its facets <a, x> <= b,
    all with b > 0, read off the facet rows (a, -b) as <a, X>/(bD) for
    x = X/D."""
    if not P.symmetric:
        raise GeometryError("gauge is only defined here for symmetric bodies")
    if len(x) != P.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {len(x)}")
    *X, D = _point_row(x)
    return max(Fraction(int_dot(f[:-1], X), -f[-1] * D) for f in P.facet_rows)


def volume(P: Polytope) -> Fraction:
    """Exact Lebesgue volume as signed cones from the origin over the
    facets, wherever the origin lies: the sum over facets <a, x> <= b of
    sign(b) vol(conv(0, F)) (Bueler, Enge & Fukuda, 2000).  A facet through
    the origin bounds a flat cone, of determinant 0.  Each facet is
    triangulated by pulling, through one memo, and the cone over a simplex
    with rows (V_i, d_i) has volume |det(V_1, ..., V_dim)| / (d_1 ... d_dim dim!).
    The triangulation finds the facets of its faces of dimension at most 3
    with no maximality test, as no three vertices of a polytope are
    collinear; four can be coplanar, so faces of dimension 4 and more keep
    the test (``_facets_of``).
    Mirror facets (a, -b), (-a, -b) of a symmetric P bound congruent cones,
    so its volume is twice the cones' over one facet of each mirror pair.

    The signed integer determinants are summed per denominator product, and
    these sums, as ``Fraction``s, pairwise in a balanced tree, so that the
    summands stay about one size."""
    points = [r[:-1] for r in P.rows]
    dens = [r[-1] for r in P.rows]
    memo: dict[int, list[tuple[int, ...]]] = {}
    sums: dict[int, int] = {}  # denominator product -> signed sum of |det|
    for f, mask in zip(P.facet_rows, P.incidence):
        # f < its mirror (-a, -b) exactly when the first nonzero entry of a
        # is negative; the mirror, a distinct facet row, counts the pair
        if P.symmetric and next(c for c in f if c) < 0:
            continue
        sign = 1 if f[-1] < 0 else -1  # the sign of b in f = (a, -b)
        for simplex in _pulling_triangulation(P.incidence, mask, P.dim - 1, memo):
            d = prod(dens[i] for i in simplex)
            sums[d] = sums.get(d, 0) + sign * abs(int_det([points[i] for i in simplex]))
    terms = [Fraction(n, d) for d, n in sums.items()]
    while len(terms) > 1:  # an odd one out moves up a level as it is
        terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1 :]
    return (2 if P.symmetric else 1) * terms[0] / factorial(P.dim)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct inclusion-maximal bitmasks among ``masks``."""
    kept: list[int] = []
    # a mask can only lie inside one with at least as many bits
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


def _facets_of(pool: Iterable[int], face: int, k: int) -> list[int]:
    """The facets of a k-dimensional face of P, k >= 1, as vertex bitmasks:
    the inclusion-maximal intersections of ``face`` with the faces in
    ``pool`` that do not contain it.  The pool is P's incidence, as every
    face is the intersection of the facets containing it, or, for a facet R
    of a face F, F's facets: each facet of R is a ridge of F, which lies in
    R and one other facet of F.  A (k-1)-face has at least k vertices, so
    smaller intersections are never maximal and are left out first.

    Each intersection left is a face of P properly inside ``face``, of
    dimension at most k-1.  No three vertices of a polytope are collinear,
    so a face of dimension at most 1 has at most 2 vertices: for k <= 3 an
    intersection with at least k vertices has dimension k-1 and is a facet,
    and the distinct ones are returned with no maximality test.  Four
    vertices can lie in one 2-face, so from k = 4 on the maximal ones are
    kept (``_maximal``)."""
    found = {h for g in pool if (h := face & g) != face and h.bit_count() >= k}
    return list(found) if k <= 3 else _maximal(found)


def face_lattice(P: Polytope) -> dict[int, list[frozenset[int]]]:
    """Faces of each dimension 1..dim-1 as frozensets of vertex indices.

    Level dim-1 holds the facets' vertex sets from the incidence, and level
    k-1 is the union of the facets of the faces in level k (``_facets_of``),
    so no rank test is made in any dimension, and a maximality test only on
    faces of dimension 4 and more.
    """
    levels = {P.dim - 1: set(P.incidence)}
    for k in range(P.dim - 1, 1, -1):
        levels[k - 1] = {h for face in levels[k] for h in _facets_of(P.incidence, face, k)}
    return {
        k: sorted((frozenset(bits(mask)) for mask in level), key=sorted)
        for k, level in levels.items()
    }


def f_vector(P: Polytope) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_{dim-1})."""
    levels = face_lattice(P)
    return (len(P.rows),) + tuple(len(levels[k]) for k in range(1, P.dim))


def _pulling_triangulation(
    pool: list[int], face: int, k: int, memo: dict[int, list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """Simplices of the pulling triangulation of the k-dimensional ``face``
    of P, a vertex bitmask, as (k+1)-tuples of vertex indices, memoized by
    mask.  A face with k+1 vertices is a simplex; any other is the fan from
    its lowest (lex-smallest) vertex over its facets that miss it, found in
    ``pool``, its parent's facets or P's (``_facets_of``)."""
    if face not in memo:
        if face.bit_count() == k + 1:
            memo[face] = [tuple(bits(face))]
        else:
            low = face & -face
            apex = low.bit_length() - 1
            children = _facets_of(pool, face, k)
            memo[face] = [
                (apex,) + s
                for child in children
                if not child & low
                for s in _pulling_triangulation(children, child, k - 1, memo)
            ]
    return memo[face]


def shadow_area(P: Polytope) -> Fraction:
    """Area of the orthogonal projection onto the first two coordinates."""
    if P.dim < 2:
        raise GeometryError("shadow needs ambient dimension >= 2")
    projected = {(v[0], v[1]) for v in P.vertices}
    return volume(convex_hull(projected))
