"""Exact sequence comparisons for the suspension family.

Two normalized sequences are tracked: the volume of the Lagrangian l2-sum
of the cube and the cross-polytope relative to the suspension volume, and
the Viterbo-style ratio n! vol / capacity^n.  Values with an odd half-integer
Gamma content carry an explicit power of pi; all coefficients stay rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from sympolar.suspension import volume_closed_form

#: pi is strictly below 22/7; enough to anchor the one cross-parity comparison.
PI_UPPER = Fraction(22, 7)


@dataclass(frozen=True)
class SequenceValue:
    """An exact rational multiple of an integer power of pi."""

    coefficient: Fraction
    pi_power: int

    def __mul__(self, other):
        if isinstance(other, SequenceValue):
            return SequenceValue(
                self.coefficient * other.coefficient, self.pi_power + other.pi_power
            )
        return SequenceValue(self.coefficient * Fraction(other), self.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SequenceValue):
            return SequenceValue(
                self.coefficient / other.coefficient, self.pi_power - other.pi_power
            )
        return SequenceValue(self.coefficient / Fraction(other), self.pi_power)

    def as_fraction(self) -> Fraction:
        if self.pi_power != 0:
            raise ValueError(f"value carries pi^{self.pi_power}, not rational")
        return self.coefficient

    def __float__(self) -> float:
        return float(self.coefficient) * math.pi**self.pi_power

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coefficient)
        power = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"{self.coefficient} * {power}"


def _gamma_half_square(n: int) -> SequenceValue:
    """Gamma(n/2 + 1)^2 exactly; odd n contributes one power of pi."""
    if n % 2 == 0:
        half = n // 2
        return SequenceValue(Fraction(factorial(half)) ** 2, 0)
    m = (n - 1) // 2  # Gamma(m + 3/2) = (2m+2)! / (4^(m+1) (m+1)!) sqrt(pi)
    coeff = Fraction(factorial(2 * m + 2), 4 ** (m + 1) * factorial(m + 1))
    return SequenceValue(coeff**2, 1)


def l2_sum_volume(n: int) -> SequenceValue:
    """Volume of the Lagrangian l2-sum of the n-cube with its polar
    cross-polytope: 4^n/n! * Gamma(n/2+1)^2 / Gamma(n+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rational = Fraction(4**n, factorial(n) ** 2)
    return _gamma_half_square(n) * rational


def sequence_compare(n: int) -> SequenceValue:
    """The l2-sum volume relative to the suspension volume; pi appears
    exactly when n is odd."""
    return l2_sum_volume(n) / volume_closed_form(n)


def compare_parity_ratio(n: int) -> Fraction:
    """a_{n+2}/a_n of the comparison sequence, a rational number because the
    two terms share parity: (n+2)(4n+2)(4n+6) / ((n+1)(4n+3)(4n+7))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction((n + 2) * (4 * n + 2) * (4 * n + 6), (n + 1) * (4 * n + 3) * (4 * n + 7))


def sequence_viterbo_ratio(n: int) -> Fraction:
    """n! vol / (2 + 1/n)^n for the n-fold suspension."""
    return factorial(n) * volume_closed_form(n) / Fraction(2 * n + 1, n) ** n


def viterbo_step_ratio(n: int) -> Fraction:
    """a_{n+1}/a_n of the Viterbo-style sequence, as an exact rational."""
    power_part = Fraction(2 * n + 1, 2 * n) ** n * Fraction(2 * n + 2, 2 * n + 3) ** (
        n + 1
    )
    return power_part * Fraction(4 * n + 3, 4 * n + 2)


COMPARE_ASYMPTOTE = math.gamma(0.75) / math.sqrt(2.0)
VITERBO_ASYMPTOTE = math.sqrt(math.pi) / (math.exp(0.5) * math.gamma(0.75))
ASYMPTOTE_N = 10**6  # where the n^(1/4) asymptote is checked
ASYMPTOTE_TOL = 0.01  # its allowed relative error


def _compare_float(n: int) -> float:
    ln = (
        n * math.log(2.0)
        + 2.0 * math.lgamma(n / 2.0 + 1.0)
        + math.lgamma(n + 0.5)
        + math.lgamma(0.75)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + 0.75)
        - math.lgamma(0.5)
    )
    return math.exp(ln)


def _viterbo_float(n: int) -> float:
    ln = (
        n * (math.log(2.0 * n) - math.log(2.0 * n + 1.0))
        + math.lgamma(n + 0.75)
        - math.lgamma(n + 0.5)
        + math.lgamma(0.5)
        - math.lgamma(0.75)
    )
    return math.exp(ln)


#: Per kind: the exact step ratio, the first term, a_n in floats, lim a_n / n^(1/4).
_SEQUENCES = {
    "compare": (compare_parity_ratio, sequence_compare(1), _compare_float, COMPARE_ASYMPTOTE),
    "viterbo": (viterbo_step_ratio, SequenceValue(sequence_viterbo_ratio(1), 0),
                _viterbo_float, VITERBO_ASYMPTOTE),
}


@dataclass(frozen=True)
class MonotonicityReport:
    kind: str
    n_checked: int
    ok: bool
    failures: tuple[int, ...]
    anchor_ok: bool | None
    minimum: SequenceValue
    asymptote_n: int
    asymptote_observed: float
    asymptote_target: float
    asymptote_rel_err: float
    asymptote_ok: bool


def monotonicity_check(kind: str, n_max: int) -> MonotonicityReport:
    """Exact strict-growth check up to n_max plus a floating-point check of
    the n^(1/4) asymptote.

    ``compare`` verifies a_{n+2} > a_n within each parity class and the
    cross-parity anchor a_2 > a_1 (exactly, via pi < 22/7); ``viterbo``
    verifies a_{n+1} > a_n.  Any violation lands in ``failures``.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if kind not in _SEQUENCES:
        raise ValueError(f"unknown sequence kind {kind!r}")
    step_ratio, minimum, as_float, target = _SEQUENCES[kind]
    failures = [n for n in range(1, n_max + 1) if step_ratio(n) <= 1]
    anchor_ok: bool | None = None
    if kind == "compare":
        # a_1 = (1/3) pi < 22/21 < 8/7 = a_2
        anchor_ok = minimum.coefficient * PI_UPPER < sequence_compare(2).as_fraction()
    observed = as_float(ASYMPTOTE_N) / ASYMPTOTE_N**0.25
    rel_err = abs(observed - target) / target
    return MonotonicityReport(
        kind=kind,
        n_checked=n_max,
        ok=not failures and anchor_ok in (None, True),
        failures=tuple(failures),
        anchor_ok=anchor_ok,
        minimum=minimum,
        asymptote_n=ASYMPTOTE_N,
        asymptote_observed=observed,
        asymptote_target=target,
        asymptote_rel_err=rel_err,
        asymptote_ok=rel_err <= ASYMPTOTE_TOL,
    )
