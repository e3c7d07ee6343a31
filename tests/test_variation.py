"""Misalignment coverage model, vectorized margin engine, Monte Carlo."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj import variation
from mdmtj.characterization import DOMAIN, HALF_WALL, KINDS, SegmentKind, scaled_resistance
from mdmtj.errors import DomainCountTooLarge, OffsetOutOfRange, UsageError
from mdmtj.margins import enumerate_levels
from mdmtj.network import ALL_CONDITIONS, MAX_DOMAINS, BitPattern, BorderCondition, decompose
from mdmtj.oracle import brute_force_offset_margins, reference_sample_offsets
from mdmtj.variation import (
    SIGMA_DEFAULT,
    MisalignmentSpec,
    MonteCarloSpec,
    NeighborAssumption,
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
    assert perturbed.partials == ()  # no coverage loss, no overhang
    assert perturbed.counts == decompose(BitPattern.parse("0110"), same_same).counts
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
    # one of the two full-length minus domains loses 2 nm, the other stays
    assert perturbed.counts == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    full_len = char.geometry.nominal_length(SegmentKind.DOMAIN_MINUS_FULL)
    assert perturbed.partials == (
        (DOMAIN[0][0], full_len - 2e-9),
        (DOMAIN[1][0], 2e-9),
    )


def test_negative_offset_uncovers_right_edge(char):
    borders = BorderCondition.parse("same/differ")
    spec = MisalignmentSpec(-3e-9, left_neighbor=ZERO)
    perturbed = apply_misalignment("10", borders, spec, char.geometry)
    kinds = [index for index, _ in perturbed.partials]
    # trailing domain, then its surviving half-wall, then the overhang
    assert kinds == [DOMAIN[0][2], HALF_WALL[0], DOMAIN[0][0]]
    # the overhang covers the offset on a full-length domain of the assumed bit
    assert perturbed.partials[2] == (DOMAIN[0][0], 3e-9)


def test_half_wall_survives_small_offsets(char, differ_differ):
    half_len = char.geometry.nominal_length(SegmentKind.HALF_WALL_PLUS)
    spec = MisalignmentSpec(5e-9, right_neighbor=ZERO)
    perturbed = apply_misalignment("1", differ_differ, spec, char.geometry)
    assert (HALF_WALL[1], half_len - 5e-9) in perturbed.partials
    # the untouched right half-wall stays a full segment
    assert perturbed.counts[HALF_WALL[1]] == 1


def test_half_wall_dropped_when_fully_uncovered(char, differ_differ):
    spec = MisalignmentSpec(7e-9, right_neighbor=ZERO)
    perturbed = apply_misalignment("1", differ_differ, spec, char.geometry)
    kinds = [index for index, _ in perturbed.partials]
    assert HALF_WALL[1] not in kinds
    assert kinds == [DOMAIN[1][2], DOMAIN[0][0]]
    assert perturbed.counts == (0, 0, 0, 0, 0, 0, 0, 0, 0, 1)


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
    for kind, count in zip(KINDS, perturbed.counts):
        if count:  # a zero count adds 0.0 in production
            g += count / char.table.ohms(kind)
    for index, covered in perturbed.partials:
        g += 1.0 / scaled_resistance(KINDS[index], covered, char.table, char.geometry)
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
    # exactly fully uncovered; at 1e-314 the overhang resistance overflows to
    # inf and conducts 1/inf = 0.0 (the suite fails on any overflow warning)
    magnitudes = [notch, notch / 2, np.nextafter(notch / 2, 0.0), 1e-15, 1e-314, 4.2e-9]
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


@pytest.mark.parametrize("offset", [9e-9, -9e-9])
def test_every_path_refuses_an_offset_past_an_edge_domain(char, differ_differ, offset):
    # 01 under differ/differ: each edge domain has a wall and a half-wall,
    # 8 nm long on 20 nm domains, so 9 nm leaves it no covered length
    short = _short_domains(char)
    with pytest.raises(OffsetOutOfRange, match="edge domain"):
        apply_misalignment("01", differ_differ, MisalignmentSpec(offset, ZERO, ZERO), short.geometry)
    for engine in (min_margins_for_offsets, brute_force_offset_margins):
        with pytest.raises(OffsetOutOfRange, match="edge domain"):
            engine(2, differ_differ, np.array([offset]), ZERO, ZERO, short)


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


@pytest.mark.parametrize("name", ["sigma", "truncation"])
def test_monte_carlo_refuses_a_nan_spread(char, same_same, name):
    spec = replace(MonteCarloSpec(samples=10, seed=1), **{name: math.nan})
    with pytest.raises(UsageError, match=name):
        monte_carlo_margins(2, same_same, spec, char)


def test_sample_offsets_chunking_is_seamless():
    spec = MonteCarloSpec(samples=40, seed=97)
    full = sample_offsets(spec)
    parts = np.concatenate(
        [sample_offsets(spec, 0, 7), sample_offsets(spec, 7, 29), sample_offsets(spec, 29, 40)]
    )
    assert np.array_equal(full, parts)


# one to five uint32 words of seed entropy
SEEDS = (0, 1, 2**31 - 1, 2**32, 2**64 + 1, 2**96 + 3, 2**130 + 11)
SLICES = (
    (0, 0),
    (7, 7),
    (0, 24),
    (variation._CHUNK - 3, variation._CHUNK + 3),
    (2**32 - 3, 2**32 + 3),  # the index grows a second word
    (2**64 - 2, 2**64 + 2),  # and a third
)


def _same_bits(spec, start, stop):
    got = sample_offsets(spec, start, stop)
    want = reference_sample_offsets(spec, start, stop)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


# 0.3 sigma rejects about three draws in four, so most samples redraw
@pytest.mark.parametrize("truncation", [6.0, 0.3])
@pytest.mark.parametrize("seed", SEEDS)
def test_sample_offsets_match_the_per_sample_reference(seed, truncation):
    spec = MonteCarloSpec(samples=24, seed=seed, truncation=truncation)
    for start, stop in SLICES:
        assert _same_bits(spec, start, stop), (start, stop)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**140),
    start=st.one_of(st.integers(0, 2**16), st.integers(0, 2**70)),
    length=st.integers(0, 12),
    truncation=st.sampled_from([6.0, 1.0, 0.3]),
)
def test_sample_offsets_match_the_reference_anywhere(seed, start, length, truncation):
    spec = MonteCarloSpec(samples=1, seed=seed, truncation=truncation)
    assert _same_bits(spec, start, start + length)


def test_sample_offsets_refuse_negative_seeds_and_indices():
    for spec, start in ((MonteCarloSpec(samples=3, seed=-1), 0), (MonteCarloSpec(3, 1), -2)):
        for sampler in (sample_offsets, reference_sample_offsets):
            with pytest.raises(ValueError):
                sampler(spec, start, 3)


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


def test_monte_carlo_reports_compare_every_sample_bitwise(char, same_same):
    report = monte_carlo_margins(4, same_same, MonteCarloSpec(samples=50, seed=42), char)
    assert report == replace(report, offsets=report.offsets.copy())
    assert not report.offsets.flags.writeable and not report.margins.flags.writeable
    for name in ("offsets", "margins"):
        moved = getattr(report, name).copy()
        moved[37] = np.nextafter(moved[37], np.inf)
        assert report != replace(report, **{name: moved}), name


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

