import math
from fractions import Fraction

import pytest

from sympolar.experiments.sequences import (
    SequenceValue,
    compare_parity_ratio,
    l2_sum_volume,
    monotonicity_check,
    sequence_compare,
    sequence_viterbo_ratio,
    viterbo_step_ratio,
)
from sympolar.suspension import volume_closed_form

F = Fraction


def test_sequence_value_arithmetic():
    a = SequenceValue(F(1, 3), 1)
    b = SequenceValue(F(8, 7), 0)
    assert (a / a).as_fraction() == 1
    assert (a * b).pi_power == 1
    assert float(b) == 8 / 7
    with pytest.raises(ValueError):
        a.as_fraction()
    assert str(a) == "1/3 * pi"
    assert str(b) == "8/7"


def test_l2_sum_volume_small_cases():
    assert l2_sum_volume(1) == SequenceValue(F(1), 1)  # pi
    assert l2_sum_volume(2) == SequenceValue(F(4), 0)
    # n = 3: 4^3/3! * Gamma(5/2)^2 / Gamma(4) = 64/36 * (3/4)^2 pi = pi
    assert l2_sum_volume(3) == SequenceValue(F(1), 1)


def test_compare_sequence_values():
    assert sequence_compare(1) == SequenceValue(F(1, 3), 1)
    assert sequence_compare(2) == SequenceValue(F(8, 7), 0)


def test_compare_parity_ratio_formula():
    for n in range(1, 101):
        expected = F(
            16 * n**3 + 64 * n**2 + 76 * n + 24,
            16 * n**3 + 56 * n**2 + 61 * n + 21,
        )
        assert compare_parity_ratio(n) == expected


def test_compare_parity_ratio_matches_sequence():
    for n in range(1, 200):
        ratio = sequence_compare(n + 2) / sequence_compare(n)
        assert compare_parity_ratio(n) == ratio.as_fraction()


def test_viterbo_values():
    assert sequence_viterbo_ratio(1) == 1
    assert sequence_viterbo_ratio(2) == F(28, 25)
    assert sequence_viterbo_ratio(3) == F(297, 245)


def test_viterbo_two_formulas_agree():
    # product form versus the defining ratio through the closed-form volume
    for n in range(1, 51):
        definition = (
            F(math.factorial(n)) * volume_closed_form(n) / F(2 * n + 1, n) ** n
        )
        assert sequence_viterbo_ratio(n) == definition


def test_viterbo_volume_identity():
    for n in range(1, 51):
        lhs = sequence_viterbo_ratio(n) * F(2 * n + 1, n) ** n / math.factorial(n)
        assert lhs == volume_closed_form(n)


def test_viterbo_step_ratio_consistent():
    for n in range(1, 30):
        assert (
            sequence_viterbo_ratio(n) * viterbo_step_ratio(n)
            == sequence_viterbo_ratio(n + 1)
        )


def test_monotonicity_viterbo():
    report = monotonicity_check("viterbo", 1000)
    assert report.ok
    assert not report.failures
    assert report.minimum.as_fraction() == 1
    assert report.asymptote_ok
    assert report.asymptote_rel_err < 0.01


def test_monotonicity_compare():
    report = monotonicity_check("compare", 1000)
    assert report.ok
    assert report.anchor_ok
    assert report.minimum == SequenceValue(F(1, 3), 1)
    assert report.asymptote_ok


def test_monotonicity_rejects_bad_kind():
    with pytest.raises(ValueError):
        monotonicity_check("nonsense", 10)
    with pytest.raises(ValueError):
        monotonicity_check("viterbo", 1)
