"""Weight-cluster enumeration, closed-form margins and sweeps."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj.characterization import Characterization, SegmentKind, default_characterization
from mdmtj import margins
from mdmtj.errors import DomainCountTooLarge, DomainCountTooSmall, ModelError
from mdmtj.margins import (
    SWEEP_ENUMERATION_LIMIT,
    closed_form_min_margin,
    cluster_extremes,
    closed_form_resistances,
    enumerate_levels,
    sweep_domains,
    worst_case_levels,
)
from mdmtj.network import ALL_CONDITIONS


def test_five_domain_class_structure(char, same_same):
    report = enumerate_levels(5, same_same, char)
    assert report.domains == 5
    assert [c.pattern_count for c in report.clusters] == [1, 5, 10, 10, 5, 1]
    assert [len(c.classes) for c in report.clusters] == [1, 2, 5, 5, 2, 1]
    reps = [
        [(e.representative, e.multiplicity) for e in cluster.classes]
        for cluster in report.clusters
    ]
    assert reps[0] == [("00000", 1)]
    assert reps[1] == [("00001", 2), ("00010", 3)]
    assert reps[2] == [("00011", 2), ("00110", 3), ("01001", 2), ("00101", 2), ("01010", 1)]
    assert reps[3] == [("00111", 2), ("01110", 3), ("01011", 2), ("01101", 2), ("10101", 1)]
    assert reps[4] == [("01111", 2), ("10111", 3)]
    assert reps[5] == [("11111", 1)]


def test_classes_sorted_by_resistance(char):
    for borders in ALL_CONDITIONS:
        report = enumerate_levels(6, borders, char)
        for cluster in report.clusters:
            values = [e.resistance for e in cluster.classes]
            assert values == sorted(values)
            assert sum(e.multiplicity for e in cluster.classes) == cluster.pattern_count


@settings(max_examples=40, deadline=None)
@given(domains=st.integers(min_value=1, max_value=10), index=st.integers(0, 3))
def test_cluster_population_is_binomial(domains, index):
    char = default_characterization()
    report = enumerate_levels(domains, ALL_CONDITIONS[index], char)
    for cluster in report.clusters:
        assert cluster.pattern_count == math.comb(domains, cluster.weight)
    assert sum(c.pattern_count for c in report.clusters) == 2**domains


def test_cluster_extremes_bound_classes(char, differ_differ):
    report = enumerate_levels(7, differ_differ, char)
    for cluster in report.clusters:
        for entry in cluster.classes:
            # class listing folds wall direction, so the representative's
            # value sits within the true pattern extremes
            assert cluster.min_resistance <= entry.resistance <= cluster.max_resistance
        assert cluster.min_voltage == report.read_current * cluster.min_resistance
        assert cluster.max_voltage == report.read_current * cluster.max_resistance


def test_min_margin_is_first_gap_here(char):
    for domains in range(2, 9):
        for borders in ALL_CONDITIONS:
            report = enumerate_levels(domains, borders, char)
            assert report.min_margin_pair == (0, 1)
            assert report.min_margin == report.adjacent_margins[0].margin
            assert report.distinguishable_levels == domains + 1


def test_adjacent_margin_fields(char, same_same):
    report = enumerate_levels(4, same_same, char)
    for gap in report.adjacent_margins:
        low = report.clusters[gap.weight_low]
        high = report.clusters[gap.weight_high]
        assert gap.r_low_max == low.max_resistance
        assert gap.r_high_min == high.min_resistance
        assert gap.margin == high.min_voltage - low.max_voltage


def test_domain_count_guards(char, same_same):
    with pytest.raises(ValueError):
        enumerate_levels(0, same_same, char)
    with pytest.raises(DomainCountTooLarge):
        enumerate_levels(31, same_same, char)
    enumerate_levels(1, same_same, char)  # D=1 has two singleton clusters


def test_lost_patterns_raise_a_model_error(char, same_same, monkeypatch):
    # the population check must hold under python -O, so it is no assert
    real = margins._walk

    def drop_one(domains):
        families = real(domains)
        first = next(families)
        yield first._replace(subclasses=first.subclasses[1:])
        yield from families

    monkeypatch.setattr(margins, "_walk", drop_one)
    for report in (
        lambda: enumerate_levels(5, same_same, char),
        lambda: cluster_extremes(5, same_same, char),
        lambda: worst_case_levels(5, char),
    ):
        with pytest.raises(ModelError, match="expected"):
            report()


def test_worst_case_levels_mixes_conventions(char):
    for domains in (6, 13, 20):
        worst = worst_case_levels(domains, char)
        assert worst.borders is None
        assert worst.convention_label == "worst"
        per_conv = [enumerate_levels(domains, borders, char) for borders in ALL_CONDITIONS]
        for weight in range(domains + 1):
            lows = [r.clusters[weight].min_resistance for r in per_conv]
            highs = [r.clusters[weight].max_resistance for r in per_conv]
            assert worst.clusters[weight].min_resistance == min(lows)
            assert worst.clusters[weight].max_resistance == max(highs)
            assert worst.clusters[weight].pattern_count == math.comb(domains, weight)
            assert worst.clusters[weight].classes == ()
        assert worst.min_margin <= min(r.min_margin for r in per_conv)


def _bank_conductance(bank, ohms):
    # the float contract spelled out: count/ohms summed in kind order,
    # skipping absent kinds
    g = 0.0
    for count, r in zip(bank, ohms):
        if count:
            g += count / r
    return g


def test_spare_conductances_match_the_bank_sum(char):
    # the per-family shortcut must replay the plain sum over each full bank
    ohms = margins._kind_ohms(char.table)
    for domains in (1, 2, 7, 10):
        for family in margins._walk(domains):
            for borders in ALL_CONDITIONS:
                counts, _, _ = margins._condition_counts(family, borders)
                want = [
                    _bank_conductance(margins._spared(counts, zero, one), ohms)
                    for _, _, zero, one in family.subclasses
                ]
                assert margins._spare_conductances(counts, family.subclasses, ohms) == want


@pytest.mark.parametrize("domains", [1, 2, 5, 9, 16])
def test_cluster_extremes_are_the_listed_report_without_classes(char, domains):
    for borders in ALL_CONDITIONS:
        listed = enumerate_levels(domains, borders, char)
        bare = replace(
            listed, clusters=tuple(replace(c, classes=()) for c in listed.clusters)
        )
        assert cluster_extremes(domains, borders, char) == bare


def test_closed_form_matches_worst_case_extremes(char):
    # on the default table the 0/1 gap binds only up to D = 24; from D = 25
    # the minimum moves to the middle weights (ROADMAP item 1)
    for domains in range(2, 25):
        r_one, r_zero = closed_form_resistances(domains, char.table)
        worst = worst_case_levels(domains, char)
        assert r_one == worst.clusters[1].min_resistance
        assert r_zero == worst.clusters[0].max_resistance
        assert closed_form_min_margin(domains, char) == worst.min_margin


def test_closed_form_known_values(char):
    # frozen from exact rational evaluation of the characterized table
    assert closed_form_min_margin(4, char) * 1e3 == pytest.approx(30.642789, abs=1e-5)
    assert closed_form_min_margin(8, char) * 1e3 == pytest.approx(14.127115, abs=1e-5)


def test_closed_form_needs_two_domains(char):
    with pytest.raises(DomainCountTooSmall):
        closed_form_resistances(1, char.table)
    with pytest.raises(DomainCountTooSmall):
        closed_form_min_margin(1, char)


def test_closed_form_margin_decreases_with_domains(char):
    values = [closed_form_min_margin(d, char) for d in range(2, 20)]
    assert all(b < a for a, b in zip(values, values[1:]))


def _squeezed_characterization(char: Characterization) -> Characterization:
    # polarity split small enough that wall-count spread swamps the gaps
    table = char.table.replace(
        {
            SegmentKind.DOMAIN_PLUS_FULL: 1950,
            SegmentKind.DOMAIN_PLUS_MID: 2100,
            SegmentKind.DOMAIN_PLUS_SHORT: 2280,
        }
    )
    return Characterization(
        table=table, geometry=char.geometry, drive=char.drive, metadata=char.metadata
    )


def test_overlapping_clusters_lower_distinguishable_levels(char, same_same):
    squeezed = _squeezed_characterization(char)
    report = enumerate_levels(5, same_same, squeezed)
    assert any(gap.margin <= 0 for gap in report.adjacent_margins)
    assert report.distinguishable_levels < 6


def test_sweep_rows_and_scalability(char, same_same):
    report = sweep_domains(2, 8, 20e-3, same_same, char)
    assert [row.domains for row in report.rows] == list(range(2, 9))
    assert report.max_scalable_domains == 5  # 23.71 mV holds, 19.34 mV does not
    for row in report.rows:
        assert row.closed_form_margin == closed_form_min_margin(row.domains, char)
        assert row.enumerated_margin == enumerate_levels(
            row.domains, same_same, char
        ).min_margin


def test_sweep_threshold_edges(char, same_same):
    assert sweep_domains(2, 6, 1.0, same_same, char).max_scalable_domains is None
    assert sweep_domains(2, 6, 1e-9, same_same, char).max_scalable_domains == 6


def test_sweep_enumeration_stops_at_limit(char, same_same):
    report = sweep_domains(SWEEP_ENUMERATION_LIMIT - 1, SWEEP_ENUMERATION_LIMIT + 2, 5e-3, same_same, char)
    by_domains = {row.domains: row for row in report.rows}
    assert by_domains[SWEEP_ENUMERATION_LIMIT].enumerated_margin is not None
    assert by_domains[SWEEP_ENUMERATION_LIMIT + 1].enumerated_margin is None
    assert by_domains[SWEEP_ENUMERATION_LIMIT + 2].enumerated_margin is None


def test_sweep_range_guards(char, same_same):
    with pytest.raises(DomainCountTooSmall):
        sweep_domains(1, 5, 1e-3, same_same, char)
    with pytest.raises(DomainCountTooLarge):
        sweep_domains(2, 31, 1e-3, same_same, char)
    with pytest.raises(ValueError):
        sweep_domains(6, 4, 1e-3, same_same, char)


def test_enumeration_scales_past_raw_loops(char, same_same):
    # class enumeration keeps large windows cheap; a raw 2^25 walk would not be
    report = enumerate_levels(25, same_same, char)
    assert report.clusters[0].pattern_count == 1
    assert report.clusters[12].pattern_count == math.comb(25, 12)
    assert report.min_margin > 0
