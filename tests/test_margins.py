"""Weight-cluster enumeration, closed-form margins and sweeps."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj.characterization import (
    DOMAIN,
    Characterization,
    SegmentKind,
    default_characterization,
)
from mdmtj import margins, variation
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
from mdmtj.network import ALL_CONDITIONS, Border, BorderCondition
from mdmtj.oracle import segment_counts, walk_reference
from mdmtj.variation import (
    MisalignmentSpec,
    MonteCarloSpec,
    NeighborAssumption,
    min_margins_for_offsets,
    monte_carlo_margins,
    offset_margin_report,
)

WORST = NeighborAssumption.WORST


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


def _listing_reports(char, borders):
    """Every report built on the listing scan, at D = 5."""
    return (lambda: enumerate_levels(5, borders, char),)


def _side_scanning_reports(char, borders):
    """Every report built on the scans of uncovered sides, at D = 5, with the
    number of scans it needs: one per side with offsets, one when no offset
    is nonzero."""
    offsets = np.array([0.0, 3e-9, -3e-9])
    return (
        (lambda: min_margins_for_offsets(5, borders, offsets, WORST, WORST, char), 2),
        # no zero offset asks for the nominal report; the scans still check
        (lambda: min_margins_for_offsets(5, borders, offsets[1:], WORST, WORST, char), 2),
        (lambda: min_margins_for_offsets(5, borders, [3e-9], WORST, WORST, char), 1),
        (lambda: min_margins_for_offsets(5, borders, [-3e-9, 0.0], WORST, WORST, char), 1),
        (lambda: min_margins_for_offsets(5, borders, [0.0], WORST, WORST, char), 1),
        (lambda: offset_margin_report(5, borders, MisalignmentSpec(3e-9), char), 2),
        (lambda: offset_margin_report(5, borders, MisalignmentSpec(0.0), char), 1),
        (lambda: monte_carlo_margins(5, borders, MonteCarloSpec(4, seed=1), char), 2),
    )


def _scanning_reports(char, borders):
    """Every class-free report built on one bit scan, ending at D = 5."""
    return (
        lambda: cluster_extremes(5, borders, char),
        lambda: worst_case_levels(5, char),
        lambda: sweep_domains(2, 5, 1e-3, borders, char),
    )


def test_lost_patterns_raise_a_model_error(char, same_same, monkeypatch):
    # the population check must hold under python -O, so it is no assert
    real_list_banks = margins._list_banks
    real_advance = margins._advance

    def drop_a_bank(domains, borders):
        banks = real_list_banks(domains, borders)
        del banks[next(iter(banks))]
        return banks

    def drop_a_state(states, moves, band):
        grown = real_advance(states, moves, band)
        del grown[next(iter(grown))]
        return grown

    monkeypatch.setattr(margins, "_list_banks", drop_a_bank)
    monkeypatch.setattr(margins, "_advance", drop_a_state)
    reports = _listing_reports(char, same_same) + _scanning_reports(char, same_same)
    reports += tuple(report for report, _ in _side_scanning_reports(char, same_same))
    for report in reports:
        with pytest.raises(ModelError, match="expected"):
            report()


def test_every_report_scans_once_per_side(char, same_same, monkeypatch):
    # a class listing is one listing scan; a class-free report one pruned
    # scan; a misalignment study one pruned scan per uncovered side, or one
    # for the nominal margin alone. variation reaches the scan only through
    # margins.
    assert not hasattr(variation, "_scan")
    assert not hasattr(variation, "_list_banks")
    passes = []
    for engine in ("_list_banks", "_scan"):
        real = getattr(margins, engine)

        def counted(*args, real=real, engine=engine):
            passes.append(engine)
            return real(*args)

        monkeypatch.setattr(margins, engine, counted)
    expected = [(report, ["_list_banks"]) for report in _listing_reports(char, same_same)]
    expected += [(report, ["_scan"]) for report in _scanning_reports(char, same_same)]
    expected += [
        (report, ["_scan"] * scans) for report, scans in _side_scanning_reports(char, same_same)
    ]
    for report, engines in expected:
        passes.clear()
        report()
        assert passes == engines


@pytest.fixture(scope="module")
def tables(char):
    """The default table and two perturbed by up to 10 %: one with tied
    walls, one with tied half-walls. Decimal values give exact conductances
    with large denominators."""
    tied_walls = {
        SegmentKind.DOMAIN_MINUS_FULL: Fraction("1893.7"),
        SegmentKind.DOMAIN_MINUS_MID: Fraction("2101.25"),
        SegmentKind.DOMAIN_MINUS_SHORT: Fraction("2190.4"),
        SegmentKind.DOMAIN_PLUS_FULL: Fraction("4410.3"),
        SegmentKind.DOMAIN_PLUS_MID: Fraction("4655.9"),
        SegmentKind.DOMAIN_PLUS_SHORT: Fraction("5302.6"),
        SegmentKind.WALL_01: Fraction("19870.5"),
        SegmentKind.WALL_10: Fraction("19870.5"),
        SegmentKind.HALF_WALL_MINUS: Fraction("36120.8"),
        SegmentKind.HALF_WALL_PLUS: Fraction("44950.1"),
    }
    tied_half_walls = {
        SegmentKind.DOMAIN_MINUS_FULL: Fraction("2007.31"),
        SegmentKind.DOMAIN_MINUS_MID: Fraction("2087.5"),
        SegmentKind.DOMAIN_MINUS_SHORT: Fraction("2301.02"),
        SegmentKind.DOMAIN_PLUS_FULL: Fraction("4102.9"),
        SegmentKind.DOMAIN_PLUS_MID: Fraction("4899.45"),
        SegmentKind.DOMAIN_PLUS_SHORT: Fraction("4977.7"),
        SegmentKind.WALL_01: Fraction("21006.6"),
        SegmentKind.WALL_10: Fraction("19311.2"),
        SegmentKind.HALF_WALL_MINUS: Fraction("40307.9"),
        SegmentKind.HALF_WALL_PLUS: Fraction("40307.9"),
    }
    return {
        "default": char,
        "tied walls": char.replace(table=char.table.replace(tied_walls)),
        "tied half-walls": char.replace(table=char.table.replace(tied_half_walls)),
    }


def test_worst_case_levels_mixes_conventions(tables, walked):
    # the one scan that mixes both left and both right borders; the tied
    # tables keep several banks per state, so they reach its pruning
    cases = [(d, name) for d in (6, 13, 20) for name in tables] + [(30, "default")]
    for domains, name in cases:
        worst = worst_case_levels(domains, tables[name])
        assert worst.borders is None
        assert worst.convention_label == "worst"
        per_conv = [walked(domains, borders, tables[name])[0] for borders in ALL_CONDITIONS]
        for weight in range(domains + 1):
            lows = [r.clusters[weight].min_resistance for r in per_conv]
            highs = [r.clusters[weight].max_resistance for r in per_conv]
            assert worst.clusters[weight].min_resistance == min(lows)
            assert worst.clusters[weight].max_resistance == max(highs)
            assert worst.clusters[weight].pattern_count == math.comb(domains, weight)
            assert worst.clusters[weight].classes == ()
        assert worst.min_margin <= min(r.min_margin for r in per_conv)


@pytest.mark.parametrize("domains", [1, 2, 5, 9, 16, 24, 30])
def test_cluster_extremes_are_the_listed_report_without_classes(tables, walked, domains):
    # both scan modes against the walk: the listing, the class-free report
    # and both sides' edge groups. A wall counted by the wrong bit shows only
    # under an asymmetric condition on a table whose two walls differ. The
    # walk at D = 30 costs about 0.3 s a condition, so D = 30 runs on the
    # default table only, whose walks the worst-case test shares.
    conditions = ALL_CONDITIONS if domains <= 16 else ALL_CONDITIONS[1:3]
    names = ["default"] if domains > 24 else list(tables)
    for name in names:
        char = tables[name]
        for borders in conditions:
            report, groups = walked(domains, borders, char)
            assert enumerate_levels(domains, borders, char) == report
            bare = report.replace(clusters=tuple(c.replace(classes=()) for c in report.clusters))
            assert cluster_extremes(domains, borders, char) == bare
            for left, side_groups in zip((True, False), groups):
                assert margins._side_scan(domains, borders, char, left) == (bare, side_groups)


@settings(max_examples=8, deadline=None)
@given(data=st.data(), domains=st.integers(13, 30), index=st.integers(0, 3))
def test_both_scan_modes_match_the_walk_on_perturbed_tables(
    perturbed_tables, data, domains, index
):
    # above the brute-force limit the walk is the reference: the listing,
    # and each side's edge groups from its own pruned scan
    perturbed = data.draw(perturbed_tables)
    borders = ALL_CONDITIONS[index]
    report, groups = walk_reference(domains, borders, perturbed)
    assert enumerate_levels(domains, borders, perturbed) == report
    for left, side_groups in zip((True, False), groups):
        assert margins._side_scan(domains, borders, perturbed, left)[1] == side_groups


def test_each_scan_state_keeps_the_banks_near_either_extreme(tables):
    # against brute force, under both left borders and a same right border:
    # a state holds its prefixes' count and exactly the distinct banks of its
    # prefixes within the band of their largest or smallest exact value, each
    # with that value in units. A prefix's bank is its word's bank less the
    # open last domain.
    pruned = False
    for name, char in tables.items():
        ohms = margins._kind_ohms(char.table)
        for domains in range(1, 11):
            units, band = margins._exact_units(ohms, domains)
            lengths = range(domains, domains + 1)
            _, states = margins._scan(lengths, (False, True), (False,), ohms)
            expected = {}
            for left, border in enumerate((Border.SAME, Border.DIFFER)):
                for word in range(2**domains):
                    bits = format(word, f"0{domains}b")
                    bit = word & 1
                    walled = int(bits[-2] != bits[-1]) if domains > 1 else left
                    counts = segment_counts(bits, BorderCondition(border, Border.SAME))
                    counts[DOMAIN[bit][walled]] -= 1
                    packed = sum(n << margins._FIELD * kind for kind, n in enumerate(counts))
                    value = sum(count * unit for count, unit in zip(counts, units))
                    entry = expected.setdefault((left, bit, walled, bits.count("1")), [0, {}])
                    entry[0] += 1
                    entry[1][packed] = value
            assert states.keys() == expected.keys()
            for key, (patterns, banks) in expected.items():
                low, high = min(banks.values()) + band, max(banks.values()) - band
                near = {bank: value for bank, value in banks.items() if not low < value < high}
                assert states[key] == [patterns, near], (name, domains, key)
                pruned |= len(near) < len(banks)
    assert pruned


def test_near_extremes_keeps_either_band_edge():
    near = margins._near_extremes
    # a bank exactly the band from an extreme stays; one inside both bands goes
    banks = {1: 0, 2: 5, 3: 6, 4: 14, 5: 15, 6: 20}
    assert near(banks, 5) == {1: 0, 2: 5, 5: 15, 6: 20}
    assert near(banks, 0) == {1: 0, 6: 20}
    # ties at an extreme all stay
    assert near({1: 3, 2: 3, 3: 7, 4: 9, 5: 9}, 0) == {1: 3, 2: 3, 4: 9, 5: 9}
    # one or two banks are both extremes
    assert near({7: 3}, 0) == {7: 3}
    assert near({7: 0, 8: 100}, 1) == {7: 0, 8: 100}
    # overlapping bands keep every bank
    assert near({1: 0, 2: 4, 3: 8}, 5) == {1: 0, 2: 4, 3: 8}
    assert near({1: 0, 2: 4, 3: 8}, 4) == {1: 0, 2: 4, 3: 8}


@pytest.mark.parametrize(
    "d_min, name",
    [(2, name) for name in ("default", "tied walls", "tied half-walls")]
    + [(d_min, "default") for d_min in (7, 19, 20)],
)
def test_sweep_rows_are_the_cluster_extremes_of_their_window(tables, d_min, name):
    # one scan completes every window length on the way to the longest;
    # d_min = 2 covers every enumerated row, the others move the window start
    char = tables[name]
    for borders in ALL_CONDITIONS[1:3]:
        report = sweep_domains(d_min, 30, 5e-3, borders, char)
        for row in report.rows:
            if row.domains > SWEEP_ENUMERATION_LIMIT:
                assert row.enumerated_margin is None
            else:
                extremes = cluster_extremes(row.domains, borders, char)
                assert row.enumerated_margin == extremes.min_margin


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
    # like every other report, and like the config's overflow guards, the
    # closed form stops at MAX_DOMAINS
    with pytest.raises(DomainCountTooLarge):
        closed_form_resistances(31, char.table)
    with pytest.raises(DomainCountTooLarge):
        closed_form_min_margin(31, char)


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
