"""Misalignment coverage model, vectorized margin engine, Monte Carlo."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mdmtj.characterization import SegmentKind, scaled_resistance
from mdmtj.errors import DomainCountTooLarge, OffsetOutOfRange
from mdmtj.margins import enumerate_levels
from mdmtj.network import ALL_CONDITIONS, MAX_DOMAINS, BitPattern, BorderCondition, decompose
from mdmtj.oracle import brute_force_offset_margins
from mdmtj.variation import (
    SIGMA_DEFAULT,
    MisalignmentSpec,
    MonteCarloSpec,
    NeighborAssumption,
    PartialSegment,
    apply_misalignment,
    min_margins_for_offsets,
    monte_carlo_margins,
    offset_margin_report,
    perturbed_resistance,
    sample_offsets,
)

ZERO = NeighborAssumption.ZERO
ONE = NeighborAssumption.ONE
WORST = NeighborAssumption.WORST


def test_neighbor_assumption_parse():
    assert NeighborAssumption.parse("0") is ZERO
    assert NeighborAssumption.parse(" WORST ") is WORST
    with pytest.raises(ValueError, match="0, 1 or worst"):
        NeighborAssumption.parse("maybe")
    assert WORST.bits == (0, 1)
    assert ONE.bits == (1,)


def test_zero_offset_is_the_nominal_decomposition(char, same_same):
    perturbed = apply_misalignment("0110", same_same, MisalignmentSpec(0.0), char.geometry)
    assert perturbed.offset == 0.0
    assert perturbed.overhang_bit is None
    assert perturbed.partial_segments == ()
    assert perturbed.full_segments == decompose(BitPattern.parse("0110"), same_same).segments
    assert perturbed_resistance(perturbed, char.table, char.geometry) == pytest.approx(
        1.0 / (2 / char.table.ohms(SegmentKind.DOMAIN_MINUS_MID)
               + 2 / char.table.ohms(SegmentKind.DOMAIN_PLUS_MID)
               + 1 / char.table.ohms(SegmentKind.WALL_01)
               + 1 / char.table.ohms(SegmentKind.WALL_10)),
        rel=1e-15,
    )


def test_positive_offset_uncovers_left_edge(char, same_same):
    spec = MisalignmentSpec(2e-9, right_neighbor=ONE)
    perturbed = apply_misalignment("00", same_same, spec, char.geometry)
    assert perturbed.overhang_bit == 1
    # one of the two full-length minus domains loses 2 nm, the other stays
    assert perturbed.full_segments == ((SegmentKind.DOMAIN_MINUS_FULL, 1),)
    full_len = char.geometry.nominal_length(SegmentKind.DOMAIN_MINUS_FULL)
    assert perturbed.partial_segments == (
        PartialSegment(SegmentKind.DOMAIN_MINUS_FULL, full_len - 2e-9),
        PartialSegment(SegmentKind.DOMAIN_PLUS_FULL, 2e-9),
    )


def test_negative_offset_uncovers_right_edge(char):
    borders = BorderCondition.parse("same/differ")
    spec = MisalignmentSpec(-3e-9, left_neighbor=ZERO)
    perturbed = apply_misalignment("10", borders, spec, char.geometry)
    assert perturbed.overhang_bit == 0
    kinds = [seg.kind for seg in perturbed.partial_segments]
    # trailing domain, then its surviving half-wall, then the overhang
    assert kinds == [
        SegmentKind.DOMAIN_MINUS_SHORT,
        SegmentKind.HALF_WALL_MINUS,
        SegmentKind.DOMAIN_MINUS_FULL,
    ]
    assert perturbed.partial_segments[2].covered_length == 3e-9


def test_half_wall_survives_small_offsets(char, differ_differ):
    half_len = char.geometry.nominal_length(SegmentKind.HALF_WALL_PLUS)
    spec = MisalignmentSpec(5e-9, right_neighbor=ZERO)
    perturbed = apply_misalignment("1", differ_differ, spec, char.geometry)
    assert PartialSegment(SegmentKind.HALF_WALL_PLUS, half_len - 5e-9) in perturbed.partial_segments
    # the untouched right half-wall stays a full segment
    assert (SegmentKind.HALF_WALL_PLUS, 1) in perturbed.full_segments


def test_half_wall_dropped_when_fully_uncovered(char, differ_differ):
    spec = MisalignmentSpec(7e-9, right_neighbor=ZERO)
    perturbed = apply_misalignment("1", differ_differ, spec, char.geometry)
    kinds = [seg.kind for seg in perturbed.partial_segments]
    assert SegmentKind.HALF_WALL_PLUS not in kinds
    assert kinds == [SegmentKind.DOMAIN_PLUS_SHORT, SegmentKind.DOMAIN_MINUS_FULL]
    assert perturbed.full_segments == ((SegmentKind.HALF_WALL_PLUS, 1),)


def test_worst_assumption_rejected_at_this_level(char, same_same):
    with pytest.raises(ValueError, match="report level"):
        apply_misalignment("01", same_same, MisalignmentSpec(1e-9), char.geometry)
    # only the overhang side's assumption matters
    spec = MisalignmentSpec(1e-9, left_neighbor=WORST, right_neighbor=ZERO)
    apply_misalignment("01", same_same, spec, char.geometry)


def test_offset_bounded_by_notch(char, same_same):
    limit = char.geometry.notch_length
    apply_misalignment("01", same_same, MisalignmentSpec(limit, right_neighbor=ZERO), char.geometry)
    for offset in (limit + 1e-12, -limit - 1e-12):
        with pytest.raises(OffsetOutOfRange, match="notch"):
            apply_misalignment("01", same_same, MisalignmentSpec(offset), char.geometry)


def test_nan_offset_is_out_of_range(char, same_same):
    with pytest.raises(OffsetOutOfRange):
        offset_margin_report(2, same_same, MisalignmentSpec(math.nan), char)
    with pytest.raises(OffsetOutOfRange):
        min_margins_for_offsets(2, same_same, np.array([1e-9, math.nan]), WORST, WORST, char)


def test_perturbed_resistance_formula(char):
    borders = BorderCondition.parse("differ/same")
    spec = MisalignmentSpec(4e-9, right_neighbor=ONE)
    perturbed = apply_misalignment("01", borders, spec, char.geometry)
    g = 0.0
    for kind, count in perturbed.full_segments:
        g += count / char.table.ohms(kind)
    for seg in perturbed.partial_segments:
        g += 1.0 / scaled_resistance(seg.kind, seg.covered_length, char.table, char.geometry)
    assert perturbed_resistance(perturbed, char.table, char.geometry) == 1.0 / g


def _scalar_min_margin(domains, borders, offset, left, right, char):
    """Raw per-pattern reference for the vectorized engine."""
    current = char.drive.read_current(domains, char.geometry)
    neighbor_bits = right.bits if offset > 0 else left.bits
    lows = [np.inf] * (domains + 1)
    highs = [-np.inf] * (domains + 1)
    for value in range(2**domains):
        text = format(value, f"0{domains}b")
        for bit in neighbor_bits:
            assumption = ZERO if bit == 0 else ONE
            spec = MisalignmentSpec(offset, left_neighbor=assumption, right_neighbor=assumption)
            perturbed = apply_misalignment(text, borders, spec, char.geometry)
            r = perturbed_resistance(perturbed, char.table, char.geometry)
            weight = text.count("1")
            lows[weight] = min(lows[weight], r)
            highs[weight] = max(highs[weight], r)
    return min(
        current * lows[w + 1] - current * highs[w] for w in range(domains)
    )


def test_engine_matches_scalar_path_bitwise(char):
    offsets = np.array([2e-9, 7e-9, -2e-9, -7e-9])
    for borders in ALL_CONDITIONS:
        engine = min_margins_for_offsets(3, borders, offsets, WORST, WORST, char)
        for offset, got in zip(offsets, engine):
            want = _scalar_min_margin(3, borders, float(offset), WORST, WORST, char)
            assert got == want, (borders, offset)


def test_engine_routes_zero_offsets_to_nominal(char, same_same):
    nominal = enumerate_levels(4, same_same, char).min_margin
    out = min_margins_for_offsets(
        4, same_same, np.array([0.0, 3e-9, -3e-9, 0.0]), ZERO, ZERO, char
    )
    assert out[0] == nominal and out[3] == nominal
    single_pos = min_margins_for_offsets(4, same_same, np.array([3e-9]), ZERO, ZERO, char)
    single_neg = min_margins_for_offsets(4, same_same, np.array([-3e-9]), ZERO, ZERO, char)
    assert out[1] == single_pos[0]
    assert out[2] == single_neg[0]


def test_margins_never_improve_with_offset(char, same_same):
    grid = np.linspace(0.0, char.geometry.notch_length / 2, 13)
    margins = min_margins_for_offsets(4, same_same, grid, WORST, WORST, char)
    assert all(b <= a for a, b in zip(margins, margins[1:]))


def test_worst_neighbors_never_beat_fixed_ones(char, same_same):
    values = {
        assumption: offset_margin_report(
            3,
            same_same,
            MisalignmentSpec(4e-9, left_neighbor=assumption, right_neighbor=assumption),
            char,
        ).perturbed_min_margin
        for assumption in (ZERO, ONE, WORST)
    }
    assert values[WORST] <= min(values[ZERO], values[ONE])


def _boundary_offsets(char):
    notch = char.geometry.notch_length
    # +-notch is the largest admissible offset; at +-notch/2 a half-wall is
    # exactly fully uncovered
    magnitudes = [notch, notch / 2, np.nextafter(notch / 2, 0.0), 1e-15, 4.2e-9]
    return np.array(magnitudes + [-m for m in magnitudes] + [0.0])


def test_engine_matches_brute_force_oracle_bitwise(char):
    offsets = _boundary_offsets(char)
    for domains in range(1, 13):
        for borders in ALL_CONDITIONS:
            for assumption in (ZERO, ONE, WORST):
                engine = min_margins_for_offsets(
                    domains, borders, offsets, assumption, assumption, char
                )
                reference = brute_force_offset_margins(
                    domains, borders, offsets, assumption, assumption, char
                )
                assert engine.tobytes() == reference.tobytes(), (domains, borders, assumption)


def test_engine_matches_oracle_beyond_twelve_domains(char):
    borders = BorderCondition.parse("same,differ")
    offsets = _boundary_offsets(char)
    engine = min_margins_for_offsets(14, borders, offsets, WORST, WORST, char)
    reference = brute_force_offset_margins(14, borders, offsets, WORST, WORST, char)
    assert engine.tobytes() == reference.tobytes()


def _short_domains(char):
    # valid (notch 12 nm < 20 nm), but a two-wall domain is only 8 nm long
    return replace(char, geometry=replace(char.geometry, domain_length=20e-9))


@pytest.mark.parametrize("engine", [min_margins_for_offsets, brute_force_offset_margins])
@pytest.mark.parametrize("offset", [11e-9, -11e-9])
def test_offset_past_an_edge_domain_is_refused(char, differ_differ, engine, offset):
    # 0101 has a two-wall edge domain at both ends under differ/differ
    with pytest.raises(OffsetOutOfRange, match="edge domain"):
        engine(4, differ_differ, np.array([0.0, offset]), WORST, WORST, _short_domains(char))


def test_offset_short_of_every_edge_domain_is_evaluated(char, same_same, differ_differ):
    short = _short_domains(char)
    # same/same edge domains have at most one wall (14 nm); 7.5 nm leaves
    # the 8 nm two-wall ones covered
    for borders, offsets in ((same_same, [11e-9, -11e-9]), (differ_differ, [7.5e-9, -7.5e-9])):
        offsets = np.array(offsets)
        engine = min_margins_for_offsets(4, borders, offsets, WORST, WORST, short)
        reference = brute_force_offset_margins(4, borders, offsets, WORST, WORST, short)
        assert engine.tobytes() == reference.tobytes()


def test_variation_domain_cap(char, same_same):
    with pytest.raises(DomainCountTooLarge, match="30"):
        min_margins_for_offsets(
            MAX_DOMAINS + 1, same_same, np.array([1e-9]), WORST, WORST, char
        )
    with pytest.raises(ValueError):
        min_margins_for_offsets(0, same_same, np.array([1e-9]), WORST, WORST, char)


def test_offset_report_fields(char, differ_differ):
    spec = MisalignmentSpec(6e-9, left_neighbor=WORST, right_neighbor=WORST)
    report = offset_margin_report(4, differ_differ, spec, char)
    assert report.nominal_min_margin == enumerate_levels(4, differ_differ, char).min_margin
    assert report.margin_deviation == report.nominal_min_margin - report.perturbed_min_margin
    assert 0 < report.perturbed_min_margin < report.nominal_min_margin


def test_offset_report_takes_both_signs(char):
    borders = BorderCondition.parse("same,differ")  # the two sides differ
    offset = 4.2e-9
    plus = offset_margin_report(4, borders, MisalignmentSpec(offset, ZERO, ONE), char)
    minus = offset_margin_report(4, borders, MisalignmentSpec(-offset, ZERO, ONE), char)
    assert plus == minus
    signed = min_margins_for_offsets(4, borders, np.array([offset, -offset]), ZERO, ONE, char)
    assert signed[0] != signed[1]
    assert plus.offset == offset
    assert plus.sign_min_margins == tuple(signed.tolist())
    assert plus.perturbed_min_margin == min(signed)


def test_monte_carlo_spec_validation():
    MonteCarloSpec(samples=10, seed=0).validate()
    with pytest.raises(ValueError, match="sample count"):
        MonteCarloSpec(samples=0, seed=1).validate()
    with pytest.raises(ValueError, match="seed"):
        MonteCarloSpec(samples=10, seed=-1).validate()
    with pytest.raises(ValueError, match="sigma"):
        MonteCarloSpec(samples=10, seed=1, sigma=0.0).validate()
    with pytest.raises(ValueError, match="truncation"):
        MonteCarloSpec(samples=10, seed=1, truncation=0.0).validate()


def test_sample_offsets_chunking_is_seamless():
    spec = MonteCarloSpec(samples=40, seed=97)
    full = sample_offsets(spec)
    parts = np.concatenate(
        [sample_offsets(spec, 0, 7), sample_offsets(spec, 7, 29), sample_offsets(spec, 29, 40)]
    )
    assert np.array_equal(full, parts)


def test_sample_offsets_respect_truncation():
    spec = MonteCarloSpec(samples=500, seed=11, truncation=1.0)
    offsets = sample_offsets(spec)
    assert np.max(np.abs(offsets)) <= spec.truncation * spec.sigma
    # default sigma keeps every draw within the valid offset window
    assert SIGMA_DEFAULT * 6.0 == pytest.approx(5.5e-9)


def test_monte_carlo_is_deterministic(char, same_same):
    spec = MonteCarloSpec(samples=200, seed=42)
    first = monte_carlo_margins(4, same_same, spec, char)
    second = monte_carlo_margins(4, same_same, spec, char)
    assert first == second


def test_monte_carlo_stats_match_the_samples(char, same_same):
    spec = MonteCarloSpec(samples=150, seed=7)
    report = monte_carlo_margins(3, same_same, spec, char)
    margins = np.array(report.margins)
    assert len(report.offsets) == 150
    assert report.mean_margin == float(np.mean(margins))
    assert report.stddev_margin == float(np.std(margins, ddof=1))
    assert report.min_margin == float(np.min(margins))
    assert report.p01_margin == float(np.percentile(margins, 1.0))
    assert report.min_margin <= report.p01_margin <= report.mean_margin
    assert report.nominal_min_margin == enumerate_levels(3, same_same, char).min_margin
    assert all(m <= report.nominal_min_margin for m in report.margins)


def test_monte_carlo_single_sample_has_zero_spread(char, same_same):
    report = monte_carlo_margins(2, same_same, MonteCarloSpec(samples=1, seed=5), char)
    assert report.stddev_margin == 0.0
    assert report.mean_margin == report.min_margin == report.p01_margin

