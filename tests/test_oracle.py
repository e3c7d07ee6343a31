"""Independent rational reference path and brute-force cross-checks."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj import oracle
from mdmtj.characterization import default_characterization
from mdmtj.errors import DomainCountTooLarge, EmptyNetwork
from mdmtj.margins import cluster_extremes, enumerate_levels, sweep_domains, worst_case_levels
from mdmtj.network import ALL_CONDITIONS, BitPattern, Border, decompose, pattern_resistance
from mdmtj.variation import MisalignmentSpec, NeighborAssumption, offset_margin_report
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
    # the bank, recounted from the bit string
    assert list(decompose(BitPattern.parse(text), borders)) == segment_counts(text, borders)


@settings(max_examples=120, deadline=None)
@given(text=patterns, borders=conditions)
def test_reference_resistance_is_bitwise_identical(text, borders):
    # the reference path recounts segments on its own but must replay the
    # identical float accumulation
    char = default_characterization()
    production = pattern_resistance(text, borders, char)
    assert reference_resistance(text, borders, char.table) == production


@settings(max_examples=120, deadline=None)
@given(text=patterns, borders=conditions)
def test_rational_resistance_tracks_float(text, borders):
    char = default_characterization()
    exact = rational_pattern_resistance(text, borders, char.table)
    approx = reference_resistance(text, borders, char.table)
    assert abs(approx - float(exact)) <= 1e-9 * float(exact)


def test_edge_structure_reads_the_end_domain_of_every_word():
    for domains in range(1, 11):
        for value in range(2**domains):
            bits = format(value, f"0{domains}b")
            for borders in ALL_CONDITIONS:
                indices = oracle._domain_indices(bits, borders)
                for left, end in ((True, 0), (False, -1)):
                    edge, half = oracle._edge_structure(bits, borders, left)
                    assert edge == indices[end], (bits, str(borders), left)
                    differ = (borders.left if left else borders.right) is Border.DIFFER
                    assert half == (8 + (bits[end] == "1") if differ else None)


def test_brute_force_limit(char, same_same):
    with pytest.raises(DomainCountTooLarge):
        brute_force_report(BRUTE_FORCE_LIMIT + 1, same_same, char)


def test_library_and_flag_refusals_are_worded_apart(char, same_same):
    # a library caller is told about the enumeration, never about a flag it
    # did not pass; each --oracle check refuses first, in the flag's words
    worst = NeighborAssumption.WORST
    for call in (
        lambda: brute_force_report(13, same_same, char),
        lambda: worst_case_brute_force(13, char),
        lambda: distinct_resistance_classes(13, same_same, char),
        lambda: brute_force_offset_margins(13, same_same, [1e-9], worst, worst, char),
    ):
        with pytest.raises(DomainCountTooLarge) as refusal:
            call()
        assert str(refusal.value) == "brute-force enumeration stops at 12 domains, got 13"
    spec = MisalignmentSpec(1e-9)
    for check in (
        lambda: oracle.check_report(cluster_extremes(13, same_same, char), char),
        lambda: oracle.check_report(worst_case_levels(13, char), char),
        lambda: oracle.check_closed_form(13, 0.0, char),
        lambda: oracle.check_offset_margins(offset_margin_report(13, same_same, spec, char), char),
    ):
        with pytest.raises(DomainCountTooLarge) as refusal:
            check()
        assert str(refusal.value) == "--oracle cross-checks stop at 12 domains"


def test_brute_force_equals_enumeration(char, brute_forced):
    for domains in (1, 2, 5, 9):
        for borders in ALL_CONDITIONS:
            assert brute_forced(domains, borders, char) == enumerate_levels(
                domains, borders, char
            )


@pytest.mark.parametrize("domains", [13, 14])
@pytest.mark.parametrize("borders", ALL_CONDITIONS, ids=str)
def test_enumerated_margin_matches_count_matrix_above_limit(char, domains, borders, monkeypatch):
    # with its guard lifted, the count matrix checks the bit scan where
    # --oracle stops
    monkeypatch.setattr(oracle, "BRUTE_FORCE_LIMIT", domains)
    worst = NeighborAssumption.WORST
    ref = brute_force_offset_margins(domains, borders, [0.0], worst, worst, char)[0]
    assert enumerate_levels(domains, borders, char).min_margin == ref
    assert cluster_extremes(domains, borders, char).min_margin == ref


def test_worst_case_brute_force_equals_levels(char):
    # the whole report, as `margin --borders worst --oracle` requires
    for domains in range(1, BRUTE_FORCE_LIMIT + 1):
        assert worst_case_brute_force(domains, char) == worst_case_levels(domains, char)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), domains=st.integers(1, 10))
def test_brute_force_equals_enumeration_on_perturbed_tables(perturbed_tables, data, domains):
    # every condition's report, class listing included, and the worst case
    perturbed = data.draw(perturbed_tables)
    for borders in ALL_CONDITIONS:
        assert brute_force_report(domains, borders, perturbed) == enumerate_levels(
            domains, borders, perturbed
        )
    assert worst_case_brute_force(domains, perturbed) == worst_case_levels(domains, perturbed)


@pytest.fixture(scope="module")
def counts_at_12(char):
    """The D = 12 count rows of every condition; they hold for any table."""
    patterns = oracle._Enumeration(12, char)
    return {borders: patterns.counts(borders) for borders in ALL_CONDITIONS}


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_row_sums_equal_the_numpy_column_sum_bit_for_bit(perturbed_tables, counts_at_12, data):
    # the plain rows add the same divisions in the same kind order as a
    # column-by-column sum over the whole count matrix
    patterns = oracle._Enumeration(12, data.draw(perturbed_tables))
    for borders, rows in counts_at_12.items():
        matrix = np.array([list(row) for row in rows], dtype=np.int8)
        columns = np.zeros(len(matrix))
        for index, ohms in enumerate(patterns.ohms):
            columns = columns + np.divide(matrix[:, index], ohms, dtype=float)
        assert np.array(patterns.conductance(rows)).tobytes() == columns.tobytes(), borders


def test_a_sweep_check_counts_each_row_once_per_condition(char, monkeypatch):
    # one enumeration per row: its four count matrices give both the sweep's
    # own margin and the worst case, so 4 counts per row, not 5
    real = oracle._Enumeration.counts
    calls = Counter()

    def spy(self, borders):
        calls[self.domains, borders] += 1
        return real(self, borders)

    same_differ = ALL_CONDITIONS[1]
    report = sweep_domains(2, 12, 20e-3, same_differ, char)
    monkeypatch.setattr(oracle._Enumeration, "counts", spy)
    oracle.check_sweep(report, char)
    assert sum(calls.values()) == 44
    assert calls == Counter((d, borders) for d in range(2, 13) for borders in ALL_CONDITIONS)


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
