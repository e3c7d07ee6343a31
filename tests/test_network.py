"""Pattern parsing, decomposition into segment banks, parallel resistance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj.characterization import SegmentKind, default_characterization
from mdmtj.errors import EmptyNetwork, PatternError
from mdmtj.margins import equivalence_key
from mdmtj.network import (
    ALL_CONDITIONS,
    MAX_DOMAINS,
    BitPattern,
    Border,
    BorderCondition,
    Decomposition,
    decompose,
    equivalent_resistance,
    pattern_resistance,
    pattern_voltage,
)
from mdmtj.oracle import rational_pattern_resistance

patterns = st.text(alphabet="01", min_size=1, max_size=12)
conditions = st.sampled_from(ALL_CONDITIONS)


def test_pattern_parse_and_str():
    p = BitPattern.parse("00110")
    assert p.bits == (0, 0, 1, 1, 0)
    assert str(p) == "00110"
    assert len(p) == 5


def test_pattern_rejects_bad_characters():
    with pytest.raises(PatternError, match="'2'"):
        BitPattern.parse("0201")
    with pytest.raises(PatternError):
        BitPattern.parse("")
    with pytest.raises(PatternError):
        BitPattern.parse("0b10")


def test_pattern_rejects_over_length():
    BitPattern.parse("0" * MAX_DOMAINS)  # boundary is fine
    with pytest.raises(PatternError):
        BitPattern.parse("0" * (MAX_DOMAINS + 1))


def test_pattern_errors_are_value_errors():
    with pytest.raises(ValueError):
        BitPattern.parse("xyz")


def test_border_condition_parse_forms():
    assert BorderCondition.parse("same,same") == BorderCondition(Border.SAME, Border.SAME)
    assert BorderCondition.parse("Same/Differ") == BorderCondition(Border.SAME, Border.DIFFER)
    assert BorderCondition.parse(" DIFFER , differ ") == BorderCondition(Border.DIFFER, Border.DIFFER)
    assert str(BorderCondition(Border.SAME, Border.SAME)) == "same/same"
    assert str(BorderCondition.parse("differ,same")) == "differ/same"
    with pytest.raises(ValueError):
        BorderCondition.parse("same")
    with pytest.raises(ValueError):
        BorderCondition.parse("near,far")


def test_decompose_uniform_pattern(same_same):
    deco = decompose(BitPattern.parse("00000"), same_same)
    assert deco.segments == ((SegmentKind.DOMAIN_MINUS_FULL, 5),)
    assert deco.left_half_wall is None and deco.right_half_wall is None


def test_decompose_single_one(same_same):
    # 00010: two walls pin the 1, its neighbors each lose one notch share
    deco = decompose(BitPattern.parse("00010"), same_same)
    assert deco.segments == (
        (SegmentKind.DOMAIN_MINUS_FULL, 2),
        (SegmentKind.DOMAIN_MINUS_MID, 2),
        (SegmentKind.DOMAIN_PLUS_SHORT, 1),
        (SegmentKind.WALL_01, 1),
        (SegmentKind.WALL_10, 1),
    )
    assert deco.domain_kinds == (
        SegmentKind.DOMAIN_MINUS_FULL,
        SegmentKind.DOMAIN_MINUS_FULL,
        SegmentKind.DOMAIN_MINUS_MID,
        SegmentKind.DOMAIN_PLUS_SHORT,
        SegmentKind.DOMAIN_MINUS_MID,
    )


def test_decompose_single_domain_differ_borders(differ_differ):
    deco = decompose(BitPattern.parse("1"), differ_differ)
    assert deco.segments == (
        (SegmentKind.DOMAIN_PLUS_SHORT, 1),
        (SegmentKind.HALF_WALL_PLUS, 2),
    )
    assert deco.left_half_wall is SegmentKind.HALF_WALL_PLUS
    assert deco.right_half_wall is SegmentKind.HALF_WALL_PLUS


def test_decompose_mixed_borders():
    deco = decompose(BitPattern.parse("10"), BorderCondition.parse("differ,same"))
    assert deco.segments == (
        (SegmentKind.DOMAIN_MINUS_MID, 1),
        (SegmentKind.DOMAIN_PLUS_SHORT, 1),
        (SegmentKind.WALL_10, 1),
        (SegmentKind.HALF_WALL_PLUS, 1),
    )
    assert SegmentKind.WALL_01 not in dict(deco.segments)


@settings(max_examples=200, deadline=None)
@given(bits=patterns, borders=conditions)
def test_decompose_structural_invariants(bits, borders):
    char = default_characterization()
    pattern = BitPattern.parse(bits)
    deco = decompose(pattern, borders)

    domain_total = sum(n for kind, n in deco.segments if kind.is_domain)
    assert domain_total == len(pattern)
    assert len(deco.domain_kinds) == len(pattern)

    counts = dict(deco.segments)
    transitions = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    n01 = counts.get(SegmentKind.WALL_01, 0)
    n10 = counts.get(SegmentKind.WALL_10, 0)
    assert n01 + n10 == transitions
    assert abs(n01 - n10) <= 1  # transitions strictly alternate

    halves = counts.get(SegmentKind.HALF_WALL_MINUS, 0) + counts.get(SegmentKind.HALF_WALL_PLUS, 0)
    expected_halves = (borders.left is Border.DIFFER) + (borders.right is Border.DIFFER)
    assert halves == expected_halves
    assert (deco.left_half_wall is not None) == (borders.left is Border.DIFFER)

    # each wall structure returns the notch share it eats, so nominal
    # lengths add back up to the plain domain run
    geo = char.geometry
    total = sum(n * geo.nominal_length(kind) for kind, n in deco.segments)
    assert total == pytest.approx(len(pattern) * geo.domain_length, rel=1e-12)

    # canonical order, positive counts
    kinds = [kind for kind, _ in deco.segments]
    order = list(SegmentKind)
    assert kinds == sorted(kinds, key=order.index)
    assert all(n > 0 for _, n in deco.segments)


def test_equivalent_resistance_matches_literal_sum(char, same_same):
    deco = decompose(BitPattern.parse("00010"), same_same)
    expected = 1.0 / (2 / 1911 + 2 / 2048 + 1 / 5143 + 1 / 20053 + 1 / 20063)
    assert equivalent_resistance(deco, char.table) == expected


def test_exact_equivalent_resistance(char, same_same):
    conductance = (
        2 * Fraction(1, 1911)
        + 2 * Fraction(1, 2048)
        + Fraction(1, 5143)
        + Fraction(1, 20053)
        + Fraction(1, 20063)
    )
    assert rational_pattern_resistance("00010", same_same, char.table) == 1 / conductance


@settings(max_examples=100, deadline=None)
@given(bits=patterns, borders=conditions)
def test_float_tracks_exact(bits, borders):
    char = default_characterization()
    approx = equivalent_resistance(decompose(BitPattern.parse(bits), borders), char.table)
    exact = rational_pattern_resistance(bits, borders, char.table)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_empty_network_rejected(char, same_same):
    hollow = Decomposition(
        pattern=BitPattern.parse("0"),
        borders=same_same,
        segments=(),
        domain_kinds=(),
        left_half_wall=None,
        right_half_wall=None,
    )
    with pytest.raises(EmptyNetwork):
        equivalent_resistance(hollow, char.table)


@settings(max_examples=100, deadline=None)
@given(bits=patterns, borders=conditions)
def test_added_branch_always_lowers_resistance(bits, borders):
    char = default_characterization()
    deco = decompose(BitPattern.parse(bits), borders)
    base = equivalent_resistance(deco, char.table)
    widened = 1.0 / (1.0 / base + 1.0 / char.table.ohms(SegmentKind.WALL_01))
    assert widened < base


def test_pattern_helpers_accept_strings(char, same_same):
    assert pattern_resistance("00010", same_same, char) == pattern_resistance(
        BitPattern.parse("00010"), same_same, char
    )
    volts = pattern_voltage("00010", same_same, char)
    current = char.drive.read_current(5, char.geometry)
    assert volts == current * pattern_resistance("00010", same_same, char)


def _key(bits: str, borders: BorderCondition) -> tuple:
    counts = dict(decompose(BitPattern.parse(bits), borders).segments)
    return equivalence_key(tuple(counts.get(kind, 0) for kind in SegmentKind))


def _reversed(borders: BorderCondition) -> BorderCondition:
    return BorderCondition(borders.right, borders.left)


def test_equivalence_key_folds_wall_direction(same_same):
    a = _key("00001", same_same)
    b = _key("10000", same_same)
    assert a == b
    c = _key("00010", same_same)
    assert a != c


def test_equivalence_key_groups_shared_banks(same_same):
    keys = {_key(p, same_same) for p in ("00110", "01100", "10001")}
    assert len(keys) == 1


@settings(max_examples=150, deadline=None)
@given(bits=patterns, borders=conditions)
def test_equivalence_key_mirror_invariant(bits, borders):
    forward = _key(bits, borders)
    backward = _key(bits[::-1], _reversed(borders))
    assert forward == backward


@settings(max_examples=150, deadline=None)
@given(bits=patterns, borders=conditions)
def test_mirror_resistance_close_on_raw_table(bits, borders):
    # reversal swaps wall directions; the raw table's 01/10 split keeps the
    # two values close but almost never equal
    char = default_characterization()
    fwd = pattern_resistance(bits, borders, char)
    rev = pattern_resistance(bits[::-1], _reversed(borders), char)
    assert rev == pytest.approx(fwd, rel=1e-4)


def test_decompose_bulk_seeded_sweep():
    # cheap randomized sweep beyond the property samples
    char = default_characterization()
    rng = random.Random(20260821)
    for _ in range(2000):
        d = rng.randint(1, 14)
        bits = "".join(rng.choice("01") for _ in range(d))
        borders = ALL_CONDITIONS[rng.randrange(4)]
        deco = decompose(BitPattern.parse(bits), borders)
        assert sum(n for kind, n in deco.segments if kind.is_domain) == d
        resistance = equivalent_resistance(deco, char.table)
        assert 0 < resistance < char.table.ohms(SegmentKind.HALF_WALL_PLUS)
