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
    DIFFER_DIFFER,
    MAX_DOMAINS,
    SAME_SAME,
    BitPattern,
    Border,
    BorderCondition,
    Decomposition,
    decompose,
    equivalent_resistance,
    exact_equivalent_resistance,
    pattern_resistance,
    pattern_voltage,
)

patterns = st.text(alphabet="01", min_size=1, max_size=12)
conditions = st.sampled_from(ALL_CONDITIONS)


def test_pattern_parse_and_str():
    p = BitPattern.parse("00110")
    assert p.bits == (0, 0, 1, 1, 0)
    assert str(p) == "00110"
    assert len(p) == 5
    assert p.weight == 2
    assert str(p.mirror()) == "01100"
    assert str(p.complement()) == "11001"


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
    assert BorderCondition.parse("same,same") == SAME_SAME
    assert BorderCondition.parse("Same/Differ") == BorderCondition(Border.SAME, Border.DIFFER)
    assert BorderCondition.parse(" DIFFER , differ ") == DIFFER_DIFFER
    assert str(SAME_SAME) == "same/same"
    assert str(BorderCondition.parse("differ,same")) == "differ/same"
    with pytest.raises(ValueError):
        BorderCondition.parse("same")
    with pytest.raises(ValueError):
        BorderCondition.parse("near,far")


def test_border_condition_mirror():
    sd = BorderCondition.parse("same,differ")
    assert sd.mirror() == BorderCondition.parse("differ,same")
    assert SAME_SAME.mirror() == SAME_SAME


def test_decompose_uniform_pattern():
    deco = decompose(BitPattern.parse("00000"), SAME_SAME)
    assert deco.segments == ((SegmentKind.DOMAIN_MINUS_FULL, 5),)
    assert deco.left_half_wall is None and deco.right_half_wall is None
    assert deco.segment_count == 5


def test_decompose_single_one():
    # 00010: two walls pin the 1, its neighbors each lose one notch share
    deco = decompose(BitPattern.parse("00010"), SAME_SAME)
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


def test_decompose_single_domain_differ_borders():
    deco = decompose(BitPattern.parse("1"), DIFFER_DIFFER)
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
    assert deco.count(SegmentKind.WALL_01) == 0
    assert deco.count(SegmentKind.WALL_10) == 1


@settings(max_examples=200, deadline=None)
@given(bits=patterns, borders=conditions)
def test_decompose_structural_invariants(bits, borders):
    char = default_characterization()
    pattern = BitPattern.parse(bits)
    deco = decompose(pattern, borders)

    domain_total = sum(n for kind, n in deco.segments if kind.is_domain)
    assert domain_total == len(pattern)
    assert len(deco.domain_kinds) == len(pattern)

    transitions = sum(1 for a, b in zip(bits, bits[1:]) if a != b)
    n01 = deco.count(SegmentKind.WALL_01)
    n10 = deco.count(SegmentKind.WALL_10)
    assert n01 + n10 == transitions
    assert abs(n01 - n10) <= 1  # transitions strictly alternate

    halves = deco.count(SegmentKind.HALF_WALL_MINUS) + deco.count(SegmentKind.HALF_WALL_PLUS)
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


def test_equivalent_resistance_matches_literal_sum(char):
    deco = decompose(BitPattern.parse("00010"), SAME_SAME)
    expected = 1.0 / (2 / 1911 + 2 / 2048 + 1 / 5143 + 1 / 20053 + 1 / 20063)
    assert equivalent_resistance(deco, char.table) == expected


def test_exact_equivalent_resistance(char):
    deco = decompose(BitPattern.parse("00010"), SAME_SAME)
    conductance = (
        2 * Fraction(1, 1911)
        + 2 * Fraction(1, 2048)
        + Fraction(1, 5143)
        + Fraction(1, 20053)
        + Fraction(1, 20063)
    )
    assert exact_equivalent_resistance(deco, char.table) == 1 / conductance


@settings(max_examples=100, deadline=None)
@given(bits=patterns, borders=conditions)
def test_float_tracks_exact(bits, borders):
    char = default_characterization()
    deco = decompose(BitPattern.parse(bits), borders)
    approx = equivalent_resistance(deco, char.table)
    exact = exact_equivalent_resistance(deco, char.table)
    assert approx == pytest.approx(float(exact), rel=1e-12)


def test_empty_network_rejected(char):
    hollow = Decomposition(
        pattern=BitPattern.parse("0"),
        borders=SAME_SAME,
        segments=(),
        domain_kinds=(),
        left_half_wall=None,
        right_half_wall=None,
    )
    with pytest.raises(EmptyNetwork):
        equivalent_resistance(hollow, char.table)
    with pytest.raises(EmptyNetwork):
        exact_equivalent_resistance(hollow, char.table)


@settings(max_examples=100, deadline=None)
@given(bits=patterns, borders=conditions)
def test_added_branch_always_lowers_resistance(bits, borders):
    char = default_characterization()
    deco = decompose(BitPattern.parse(bits), borders)
    base = equivalent_resistance(deco, char.table)
    widened = 1.0 / (1.0 / base + 1.0 / char.table.ohms(SegmentKind.WALL_01))
    assert widened < base


def test_pattern_helpers_accept_strings(char):
    assert pattern_resistance("00010", SAME_SAME, char) == pattern_resistance(
        BitPattern.parse("00010"), SAME_SAME, char
    )
    volts = pattern_voltage("00010", SAME_SAME, char)
    current = char.drive.read_current(5, char.geometry)
    assert volts == current * pattern_resistance("00010", SAME_SAME, char)


def _key(pattern: BitPattern, borders: BorderCondition) -> tuple:
    deco = decompose(pattern, borders)
    return equivalence_key(tuple(deco.count(kind) for kind in SegmentKind))


def test_equivalence_key_folds_wall_direction():
    a = _key(BitPattern.parse("00001"), SAME_SAME)
    b = _key(BitPattern.parse("10000"), SAME_SAME)
    assert a == b
    c = _key(BitPattern.parse("00010"), SAME_SAME)
    assert a != c


def test_equivalence_key_groups_shared_banks():
    keys = {_key(BitPattern.parse(p), SAME_SAME) for p in ("00110", "01100", "10001")}
    assert len(keys) == 1


@settings(max_examples=150, deadline=None)
@given(bits=patterns, borders=conditions)
def test_equivalence_key_mirror_invariant(bits, borders):
    forward = _key(BitPattern.parse(bits), borders)
    backward = _key(BitPattern.parse(bits).mirror(), borders.mirror())
    assert forward == backward


@settings(max_examples=150, deadline=None)
@given(bits=patterns, borders=conditions)
def test_mirror_resistance_close_on_raw_table(bits, borders):
    # reversal swaps wall directions; the raw table's 01/10 split keeps the
    # two values close but almost never equal
    char = default_characterization()
    fwd = pattern_resistance(bits, borders, char)
    rev = pattern_resistance(str(BitPattern.parse(bits).mirror()), borders.mirror(), char)
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
