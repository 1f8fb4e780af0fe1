"""Ekeland-Hofer-Zehnder capacity of centrally symmetric polytopes.

The reciprocal capacity of a symmetric polytope P is the maximum of
sum_{i<j} beta_i beta_j omega(g_i, g_j) over orderings and signings of its
facet-normal generators with sum beta_i h(g_i) = 1, beta >= 0.  A symmetric
body's facets are stored at offset 1, so its unit facet normals, with
h(g_i) = 1, are the vertices of its polar; for a symplectically self-polar
polytope the generators may equivalently be taken to be P's own vertices
(Haim-Kislev 2019).  Either way the generators are one body's vertices, one
representative per antipodal pair, with sum beta_i = 1.

The search enumerates supports, orderings, and sign patterns exactly; the
inner maximization over coefficients on each face of the normalized simplex
is the stationary point of the Lagrange system.  The generator data are
scaled to integers once, and the system of a signing s factors as
D A D with D = diag(s) and A the omega-block of the ordering, so one
fraction-free determinant and adjugate of A per ordering yield the value
and coefficients of every signing in integer arithmetic.  Supports are
pruned by branch and bound: by Motzkin-Straus (1965) the objective on a
support is at most w (1 - 1/kappa)/2, with w the largest |omega| on it and
kappa the clique number of its nonzero-omega graph, so a support whose bound
cannot beat the best value so far is never solved.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial, gcd, lcm
from operator import add, mul, sub
from typing import Sequence

from sympolar.geometry import Polytope, polar_dual
from sympolar.linalg import Vec, as_fraction, homogeneous, int_adjugate, vneg
from sympolar.suspension import hexagon, induction_certificate, suspension_points, witness_step
from sympolar.symplectic import is_self_polar, omega, omega_rows

log = logging.getLogger(__name__)

ZERO = Fraction(0)

VERTICES = "vertices"
FACET_NORMALS = "facet-normals"

#: Hard ceiling on the (support, ordering, signing) configurations that one
#: search solves; supports skipped by the clique bound do not count.
DEFAULT_MAX_CONFIGS = 5_000_000


class CapacityError(ValueError):
    """Base class for capacity-search and certificate failures."""


class SearchBudgetError(CapacityError):
    """The exact search would solve more configurations than its budget."""

    def __init__(self, configurations: int, budget: int):
        super().__init__(
            f"search would solve at least {configurations} configurations, over "
            f"the budget of {budget}; raise max_configs or lower support_bound"
        )
        self.configurations = configurations
        self.budget = budget


class CertificateError(CapacityError):
    """A capacity certificate violates its invariants."""


@dataclass(frozen=True)
class CapacityCertificate:
    """A signed ordering of generators with normalized nonnegative
    coefficients; its objective value witnesses c_EHZ <= 1/objective.

    ``indices`` lists (position in ``generators``, sign) in objective order;
    coefficients are aligned with it and absorb no signs.
    """

    kind: str
    indices: tuple[tuple[int, int], ...]
    coeffs: tuple[Fraction, ...]
    objective: Fraction
    generators: tuple[Vec, ...]

    def __post_init__(self):
        if self.kind not in (VERTICES, FACET_NORMALS):
            raise CertificateError(f"unknown certificate kind {self.kind!r}")
        # ints and 'p/q' strings lift to Fractions; a float raises TypeError
        object.__setattr__(self, "coeffs", tuple(map(as_fraction, self.coeffs)))
        object.__setattr__(self, "objective", as_fraction(self.objective))
        if len(self.indices) != len(self.coeffs):
            raise CertificateError("indices and coefficients differ in length")
        if any(c < 0 for c in self.coeffs):
            raise CertificateError("certificate coefficients must be nonnegative")
        for i, s in self.indices:
            if not 0 <= i < len(self.generators) or s not in (-1, 1):
                raise CertificateError(f"invalid generator reference ({i}, {s})")

    def support_vectors(self) -> tuple[Vec, ...]:
        out = []
        for i, s in self.indices:
            g = self.generators[i]
            out.append(g if s == 1 else vneg(g))
        return tuple(out)


def _pair_rep(v: Vec) -> Vec:
    neg = vneg(v)
    return v if v > neg else neg


def _generator_body(P: Polytope, kind: str) -> Polytope:
    """The body whose vertices are P's generators of ``kind``: P itself, or
    for facet normals P's polar, whose vertices are P's unit facet normals
    (no hull: the polar reads P's rows)."""
    if not P.symmetric:
        raise CapacityError("capacity generators need a centrally symmetric body")
    if kind == VERTICES:
        return P
    if kind == FACET_NORMALS:
        return polar_dual(P)
    raise CapacityError(f"unknown generator kind {kind!r}")


def generator_base(P: Polytope, kind: str) -> tuple[Vec, ...]:
    """One canonical representative per antipodal generator pair, the
    greater of the two, in increasing order: the second half of the sorted
    vertices of ``_generator_body``, since negation reverses them."""
    items = _generator_body(P, kind).vertices
    return items[len(items) // 2 :]


def _double_sum(vectors: Sequence[Vec], coeffs: Sequence[Fraction]) -> Fraction:
    total = ZERO
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            total += coeffs[i] * coeffs[j] * omega(vectors[i], vectors[j])
    return total


def evaluate_certificate(P: Polytope, cert: CapacityCertificate) -> Fraction:
    """Re-evaluate a certificate against a polytope.

    Checks that every signed generator is a vertex of ``_generator_body``:
    a vertex of P in vertices mode, which also needs a symplectically
    self-polar P, or a unit outer facet normal in facet-normals mode, whose
    support value is 1.  Either way the coefficients must sum to 1.
    Returns the recomputed objective.
    """
    if cert.kind == VERTICES and not is_self_polar(P):
        raise CertificateError(
            "vertex-generator certificates need a symplectically self-polar body"
        )
    rows = set(_generator_body(P, cert.kind).rows)
    vectors = cert.support_vectors()
    for g in vectors:
        if homogeneous(g) not in rows:
            raise CertificateError(f"{g} is not among the polytope's {cert.kind} generators")
    normalization = sum(cert.coeffs, ZERO)
    if normalization != 1:
        raise CertificateError(
            f"certificate normalization is {normalization}, expected 1"
        )
    return _double_sum(vectors, cert.coeffs)


def _indices(base: Sequence[Vec], vectors: Sequence[Vec]) -> tuple[tuple[int, int], ...]:
    """The (position in ``base``, sign) of each vector's pair representative."""
    position = {g: i for i, g in enumerate(base)}
    return tuple((position[_pair_rep(v)], 1 if v == _pair_rep(v) else -1) for v in vectors)


def _suspension_base(base: Sequence[Vec]) -> tuple[Vec, ...]:
    """The vertex ``generator_base`` of the suspension of a self-polar K,
    from K's with no hull: the vertex lift ``suspension_points`` of K's
    vertices ±g, sorted, upper half, by ``generator_base``'s rule."""
    points = sorted(suspension_points([*base, *map(vneg, base)]))
    return tuple(points[len(points) // 2 :])


def equal_weight_certificate(n: int) -> CapacityCertificate:
    """Uniform weights 1/(2n+1) on the induction witness family; the
    objective is n/(2n+1), so the certified bound is c_EHZ <= 2 + 1/n.
    The indices refer to the vertex ``generator_base`` of P_n, built from
    the hexagon's by ``_suspension_base``, the vertex lift, with no hull."""
    vectors = induction_certificate(n).vertices
    coeffs = (Fraction(1, 2 * n + 1),) * len(vectors)
    base = generator_base(hexagon(), VERTICES)
    for _ in range(n - 1):
        base = _suspension_base(base)
    objective = _double_sum(vectors, coeffs)
    return CapacityCertificate(VERTICES, _indices(base, vectors), coeffs, objective, base)


def make_suspension_certificate(
    cert_K: CapacityCertificate, c_K
) -> CapacityCertificate:
    """Push a vertex certificate of a self-polar body K with capacity c_K > 2
    through the suspension.

    The suspension's witnesses are ``witness_step`` of K's, u + v_i
    together with (0,1) + 0 and (-1,0) + 0; with alpha = (c_K - 2)/(3 c_K - 4)
    the weights (1 - 2 alpha) beta_i, alpha, alpha give objective
    (c_K - 1)/(3 c_K - 4), certifying c_EHZ <= 3 - 1/(c_K - 1).  The
    indices refer to the suspension's vertex ``generator_base``, built from
    K's, ``cert_K.generators``, by ``_suspension_base``, the vertex lift.
    """
    c_K = as_fraction(c_K)
    if cert_K.kind != VERTICES:
        raise CertificateError("suspension lift needs a vertex-generator certificate")
    if c_K <= 2:
        raise CapacityError(
            f"suspension bound needs capacity > 2, got {c_K}"
        )
    if cert_K.objective * c_K != 1:
        raise CertificateError(
            f"certificate objective {cert_K.objective} does not match 1/{c_K}"
        )
    betas = cert_K.coeffs
    if sum(betas, ZERO) != 1:
        raise CertificateError("certificate weights must sum to 1")
    vectors = witness_step(cert_K.support_vectors())
    alpha = (c_K - 2) / (3 * c_K - 4)
    coeffs = tuple((1 - 2 * alpha) * b for b in betas) + (alpha, alpha)
    objective = _double_sum(vectors, coeffs)
    expected = (c_K - 1) / (3 * c_K - 4)
    if objective != expected:
        raise CertificateError(
            f"suspension certificate evaluates to {objective}, expected {expected}"
        )
    base = _suspension_base(cert_K.generators)
    return CapacityCertificate(VERTICES, _indices(base, vectors), coeffs, objective, base)


# ---------------------------------------------------------------------------
# Exact brute-force search.


def _clique_bound(W):
    """The map from a support bitmask S to (w, kappa): w the largest |W_ab|
    and kappa the clique number of the nonzero-W graph on S.  Both are
    memoized over sub-bitmasks, so a support visited after its subsets
    costs O(1)."""
    nbr = [sum(1 << b for b, w in enumerate(row) if w) for row in W]

    @cache
    def clique_number(mask):
        # the highest vertex is either outside a largest clique or in one
        # together with a largest clique of its neighbours
        if not mask & (mask - 1):
            return mask.bit_count()
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        return max(clique_number(rest), 1 + clique_number(rest & nbr[v]))

    @cache
    def w_max(mask):
        # a pair of S is its lowest and highest member, or lies in S minus
        # one of them
        low = mask & -mask
        high = 1 << (mask.bit_length() - 1)
        w = abs(W[low.bit_length() - 1][high.bit_length() - 1])
        if mask == low | high:
            return w
        return max(w, w_max(mask ^ low), w_max(mask ^ high))

    return lambda mask: (w_max(mask), clique_number(mask))


def _search(supports, W, max_configs=DEFAULT_MAX_CONFIGS):
    """Best positive stationary configuration over the integer omega-matrix W
    of generators whose support values are all 1.

    For an ordering, the Lagrange system of signing s is D A D beta = lam 1,
    1 . beta = 1 with D = diag(s) and A the symmetric omega-block of the
    ordering, so one determinant and adjugate of A serve every signing: with
    y = adj(A) s and Q = s . y, the system is regular exactly when Q != 0,
    and then lam = det/Q and beta = s*y/Q.  A singular A leaves only
    value-0 systems, which cannot be the positive optimum.  Signings are
    walked in Gray-code order, so each one updates y by one adjugate column.

    A support S is skipped unsolved when its clique bound cannot beat the
    best value so far.  Every configuration on S has value det/Q = twice
    sum_{a<b} beta_a beta_b (+-W_ab) on the simplex, which by Motzkin-Straus
    is at most w (kappa - 1)/kappa, with w the largest |W_ab| on S and kappa
    the clique number of S's nonzero-W graph; at equality S can only tie,
    and a tie goes to the least (support, order, signs).

    Raises SearchBudgetError before solving a support whose
    (k-1)! 2^(k-1) configurations would take the solved count past
    ``max_configs``.  Returns (best, (solved, pruned, skipped)): best is
    (num, den, (support, order, signs), s*y, Q) with num/den = det/Q and
    den > 0, or None; solved and pruned count the configurations of the
    solved and of the skipped supports, and skipped the signings with
    Q == 0 plus those of orderings with a singular block.
    """
    clique_bound = _clique_bound(W)
    best = None
    best_num, best_den = 0, 1
    solved = pruned = skipped = 0
    for support in supports:
        k = len(support)
        signings = 1 << (k - 1)
        configs = factorial(k - 1) * signings
        mask = sum(1 << a for a in support)
        w, kappa = clique_bound(mask)
        cap = w * (kappa - 1) * best_den
        beat = best_num * kappa
        if cap < beat or (cap == beat and (best is None or support > best[2][0])):
            pruned += configs
            continue
        if solved + configs > max_configs:
            raise SearchBudgetError(solved + configs, max_configs)
        solved += configs
        for rest in permutations(support[1:]):
            order = (support[0],) + rest
            block = [[0] * k for _ in range(k)]
            for a in range(k):
                row = W[order[a]]
                for b in range(a + 1, k):
                    block[a][b] = block[b][a] = row[order[b]]
            det, adj = int_adjugate(block)
            if det == 0:
                skipped += signings
                continue
            s = [1] * k
            y = [sum(col) for col in adj]
            Q = sum(y)
            # adj is symmetric, so row j is column j
            moves = [[2 * c for c in col] for col in adj]
            for i in range(signings):
                if i:
                    # flip the sign of position j: s_j -> -s_j moves y by
                    # -2 s_j adj[j] and Q by 4 (adj_jj - s_j y_j)
                    j = (i & -i).bit_length()
                    sj = s[j]
                    Q += 4 * (adj[j][j] - sj * y[j])
                    y = list(map(sub if sj > 0 else add, y, moves[j]))
                    s[j] = -sj
                if Q == 0:
                    skipped += 1
                    continue
                # feasible: every coefficient s_a y_a / Q is positive (s_0 = 1)
                if (y[0] > 0) != (Q > 0):
                    continue
                z = list(map(mul, s, y))
                if (min(z) <= 0) if Q > 0 else (max(z) >= 0):
                    continue
                # stationary value: y^T A y = det Q, since A y = det s
                if sum(map(mul, y, [sum(map(mul, row, y)) for row in block])) != det * Q:
                    raise CapacityError("stationary value mismatch; please report this input")
                num, den = (det, Q) if Q > 0 else (-det, -Q)
                if num <= 0:
                    continue
                lead = num * best_den - best_num * den
                if lead < 0:
                    continue
                key = (support, order, tuple(s))
                if lead > 0 or key < best[2]:
                    best = (num, den, key, z, Q)
                    best_num, best_den = num, den
    return best, (solved, pruned, skipped)


def _omega_matrix(base: Sequence[Vec]) -> tuple[list[list[int]], int]:
    """The omega-matrix W of the generators ``base`` as W_int = w_scale W,
    with w_scale the lcm of W's denominators: on the generators' rows
    (V_a, d_a), W_ab = o / d with o = omega(V_a, V_b) and d = d_a d_b."""
    rows = [homogeneous(g) for g in base]
    W = [[(omega_rows(a, b), a[-1] * b[-1]) for b in rows] for a in rows]
    w_scale = lcm(*(d // gcd(o, d) for row in W for o, d in row))
    return [[o * w_scale // d for o, d in row] for row in W], w_scale


def effective_support_bound(m: int, dim: int, support_bound: int | None) -> int:
    """The largest support size the search enumerates over m generator pairs
    of a dim-dimensional body: min(m, dim + 1) by default, and otherwise
    ``support_bound`` clamped to m."""
    return min(m, dim + 1) if support_bound is None else min(support_bound, m)


def ehz_brute_force(
    P: Polytope,
    support_bound: int | None = None,
    *,
    mode: str = FACET_NORMALS,
    max_configs: int = DEFAULT_MAX_CONFIGS,
) -> tuple[Fraction, CapacityCertificate]:
    """Exact EHZ capacity with an optimal certificate.

    Enumerates generator supports up to ``support_bound``, by size and then
    lexicographically, all orderings with the smallest support index first,
    and all sign patterns with the first sign positive.  The default bound
    min(m, dim+1) matches the support size of the optimal certificates of
    the suspension family; it is a heuristic with no general guarantee, so a
    bounded search yields a certified upper bound that can be strict (an
    octagon already needs all four generator pairs).  Any ``support_bound``
    at or above m is clamped to m: the certified-complete full search.

    A support whose Motzkin-Straus clique bound cannot beat the best value
    found so far, or can only tie it with a later key, is skipped unsolved;
    the test is exact integer arithmetic, so the value and certificate are
    those of the unpruned search.  This is what makes P_3 reachable: at the
    default bound it solves about 0.6 M of its 1.54e9 configurations.

    Singular stationary systems are skipped and counted: the signings whose
    bordered system is singular (Q == 0) plus every signing of an ordering
    whose omega-block is singular, which can only give value 0.  The
    configurations solved, those pruned by the clique bound and the singular
    systems are logged.  Ties in value go to the least (support, order,
    signs).  ``max_configs`` caps the configurations solved, not the
    unpruned total: the search raises SearchBudgetError, rather than
    approximating, before a support that would take it past the budget, so
    an over-budget search fails only after spending its budget.
    """
    if P.dim % 2 != 0:
        raise CapacityError(f"symplectic capacity needs even dimension, got {P.dim}")
    if max_configs < 0:
        raise CapacityError("configuration budget must be at least 0")
    base = generator_base(P, mode)
    if mode == VERTICES and not is_self_polar(P):
        raise CapacityError(
            "vertex-generator search needs a symplectically self-polar polytope"
        )
    m = len(base)
    if m < 2:
        raise CapacityError("need at least two generator pairs")
    bound = effective_support_bound(m, P.dim, support_bound)
    if bound < 2:
        raise CapacityError("support bound must be at least 2")

    # the normalization weights every coefficient by 1: plain coefficient
    # mass in vertices mode, and in normals mode the support value of each
    # generator, a unit facet normal.  With W = W_int / w_scale, a
    # configuration's value det/(2Q) comes back as det / (2 w_scale Q)
    W_int, w_scale = _omega_matrix(base)
    supports = (s for k in range(2, bound + 1) for s in combinations(range(m), k))
    best, (solved, pruned, skipped) = _search(supports, W_int, max_configs)
    log.info(
        "capacity search solved %d configurations, pruned %d by the clique "
        "bound and skipped %d singular stationary systems (signings with "
        "Q == 0 or of a singular omega-block)",
        solved,
        pruned,
        skipped,
    )
    if best is None:
        raise CapacityError(
            "search found no positive stationary value; the input is degenerate"
        )
    num, den, key, z, Q = best
    value = Fraction(num, 2 * w_scale * den)
    coeffs = [Fraction(c, Q) for c in z]
    support, order, signs = key
    cert = CapacityCertificate(
        kind=mode,
        indices=tuple(zip(order, signs)),
        coeffs=tuple(coeffs),
        objective=value,
        generators=base,
    )
    return 1 / value, cert
