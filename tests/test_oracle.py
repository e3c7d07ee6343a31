"""Independent rational reference path and brute-force cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj.characterization import SegmentKind, default_characterization
from mdmtj.errors import DomainCountTooLarge, EmptyNetwork
from mdmtj.margins import cluster_extremes, enumerate_levels, worst_case_levels
from mdmtj.network import ALL_CONDITIONS, BitPattern, decompose, equivalent_resistance
from mdmtj.variation import NeighborAssumption
from mdmtj.oracle import (
    BRUTE_FORCE_LIMIT,
    brute_force_offset_margins,
    brute_force_report,
    distinct_resistance_classes,
    rational_parallel_sum,
    rational_pattern_resistance,
    reference_resistance,
    segment_counts,
    symmetry_sweep,
    worst_case_brute_force,
)

patterns = st.text(alphabet="01", min_size=1, max_size=12)
conditions = st.sampled_from(ALL_CONDITIONS)


def test_rational_parallel_sum_exact():
    assert rational_parallel_sum([3, 5]) == Fraction(15, 8)
    assert rational_parallel_sum([Fraction(7, 2)]) == Fraction(7, 2)


def test_rational_parallel_sum_guards():
    with pytest.raises(EmptyNetwork):
        rational_parallel_sum([])
    with pytest.raises(ValueError):
        rational_parallel_sum([100, 0])
    with pytest.raises(ValueError):
        rational_parallel_sum([100, -5])


@settings(max_examples=120, deadline=None)
@given(text=patterns, borders=conditions)
def test_segment_counts_agree_with_decomposition(text, borders):
    counts = segment_counts(text, borders)
    counted = {kind: counts[i] for i, kind in enumerate(SegmentKind) if counts[i]}
    decomposed = dict(decompose(BitPattern.parse(text), borders).segments)
    assert counted == decomposed


@settings(max_examples=120, deadline=None)
@given(text=patterns, borders=conditions)
def test_reference_resistance_is_bitwise_identical(text, borders):
    # the reference path recounts segments on its own but must replay the
    # identical float accumulation
    char = default_characterization()
    production = equivalent_resistance(decompose(BitPattern.parse(text), borders), char.table)
    assert reference_resistance(text, borders, char.table) == production


@settings(max_examples=120, deadline=None)
@given(text=patterns, borders=conditions)
def test_rational_resistance_tracks_float(text, borders):
    char = default_characterization()
    exact = rational_pattern_resistance(text, borders, char.table)
    approx = reference_resistance(text, borders, char.table)
    assert abs(approx - float(exact)) <= 1e-9 * float(exact)


def test_brute_force_limit(char, same_same):
    with pytest.raises(DomainCountTooLarge):
        brute_force_report(BRUTE_FORCE_LIMIT + 1, same_same, char)


def test_brute_force_equals_enumeration(char):
    for domains in (1, 2, 5, 9):
        for borders in ALL_CONDITIONS:
            assert brute_force_report(domains, borders, char) == enumerate_levels(
                domains, borders, char
            )


@pytest.mark.parametrize("domains", [13, 14])
@pytest.mark.parametrize("borders", ALL_CONDITIONS, ids=str)
def test_enumerated_margin_matches_count_matrix_above_limit(char, domains, borders):
    # the count-matrix oracle has no domain guard, so it checks the
    # run-structure walk where brute_force_report stops
    worst = NeighborAssumption.WORST
    ref = brute_force_offset_margins(domains, borders, [0.0], worst, worst, char)[0]
    assert enumerate_levels(domains, borders, char).min_margin == ref
    assert cluster_extremes(domains, borders, char).min_margin == ref


def test_worst_case_brute_force_equals_levels(char):
    # the whole report, as `margin --borders worst --oracle` requires
    for domains in range(1, BRUTE_FORCE_LIMIT + 1):
        assert worst_case_brute_force(domains, char) == worst_case_levels(domains, char)


def test_distinct_class_counts(char, same_same, differ_differ):
    assert distinct_resistance_classes(5, same_same, char) == 16
    assert distinct_resistance_classes(5, differ_differ, char) == 18


def test_symmetry_sweep_passes(char):
    result = symmetry_sweep(6, char.table)
    assert result.passed
    assert result.counterexample is None
    assert result.checks_run == 1008


def test_symmetry_sweep_catches_broken_reversal(char):
    # dropping the wall-direction swap must break mirror symmetry
    result = symmetry_sweep(6, char.table, skip_wall_reversal=True)
    assert not result.passed
    kind, text, borders = result.counterexample
    assert kind == "mirror"
    assert "0" in text and "1" in text  # a uniform pattern cannot expose it
