"""Characterization table, geometry, drive, and config file handling."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdmtj.characterization import (
    Characterization,
    DeviceGeometry,
    DriveParams,
    Polarity,
    SegmentKind,
    SegmentResistanceTable,
    default_characterization,
    domain_kind,
    dump_config,
    half_wall_kind,
    load_config,
    parse_config,
    scaled_resistance,
    wall_kind,
)
from mdmtj.errors import (
    ConfigError,
    ConfigInvariantError,
    ConfigParseError,
    DegenerateCoverage,
)

# characterized mini-resistor values, ohms
DEFAULTS = {
    SegmentKind.DOMAIN_MINUS_FULL: 1911,
    SegmentKind.DOMAIN_MINUS_MID: 2048,
    SegmentKind.DOMAIN_MINUS_SHORT: 2228,
    SegmentKind.DOMAIN_PLUS_FULL: 4324,
    SegmentKind.DOMAIN_PLUS_MID: 4730,
    SegmentKind.DOMAIN_PLUS_SHORT: 5143,
    SegmentKind.WALL_01: 20053,
    SegmentKind.WALL_10: 20063,
    SegmentKind.HALF_WALL_MINUS: 35061,
    SegmentKind.HALF_WALL_PLUS: 46196,
}


def test_segment_kind_order_matches_config_keys():
    assert [k.value for k in SegmentKind] == [
        "r_minus_80",
        "r_minus_74",
        "r_minus_68",
        "r_plus_80",
        "r_plus_74",
        "r_plus_68",
        "r_dw_01",
        "r_dw_10",
        "r_hdw_minus",
        "r_hdw_plus",
    ]


def test_default_table_values(char):
    for kind, ohms in DEFAULTS.items():
        assert char.table.exact(kind) == Fraction(ohms)
        assert char.table.ohms(kind) == float(ohms)


def test_kind_classification():
    domains = [k for k in SegmentKind if k.is_domain]
    walls = [k for k in SegmentKind if k.is_wall]
    halves = [k for k in SegmentKind if k.is_half_wall]
    assert len(domains) == 6 and len(walls) == 2 and len(halves) == 2
    assert domain_kind(Polarity.MINUS_Z, 0) is SegmentKind.DOMAIN_MINUS_FULL
    assert domain_kind(Polarity.PLUS_Z, 2) is SegmentKind.DOMAIN_PLUS_SHORT
    assert wall_kind(0, 1) is SegmentKind.WALL_01
    assert wall_kind(1, 0) is SegmentKind.WALL_10
    assert half_wall_kind(Polarity.PLUS_Z) is SegmentKind.HALF_WALL_PLUS
    assert Polarity.from_bit(1) is Polarity.PLUS_Z


def test_nominal_lengths(char):
    geo = char.geometry
    nm = 1e-9
    assert geo.nominal_length(SegmentKind.DOMAIN_MINUS_FULL) == pytest.approx(80 * nm)
    assert geo.nominal_length(SegmentKind.DOMAIN_PLUS_MID) == pytest.approx(74 * nm)
    assert geo.nominal_length(SegmentKind.DOMAIN_MINUS_SHORT) == pytest.approx(68 * nm)
    assert geo.nominal_length(SegmentKind.WALL_01) == pytest.approx(12 * nm)
    assert geo.nominal_length(SegmentKind.HALF_WALL_PLUS) == pytest.approx(6 * nm)


def test_junction_area_and_read_current(char):
    geo = char.geometry
    assert geo.junction_area_per_domain() == pytest.approx(3.2e-15)
    assert char.drive.current_density == 3.21e10
    # I = J * D * A_d, exactly this operation order
    assert char.drive.read_current(5, geo) == 3.21e10 * 5 * (80e-9 * 40e-9)
    assert char.drive.read_current(5, geo) == pytest.approx(513.6e-6)


def test_table_rejects_nonpositive():
    with pytest.raises(ConfigInvariantError, match="r_minus_80"):
        SegmentResistanceTable.defaults().replace({SegmentKind.DOMAIN_MINUS_FULL: 0})


def test_table_rejects_length_order_violation():
    # shorter coverage must cost more ohms
    with pytest.raises(ConfigInvariantError, match="r_minus_74"):
        SegmentResistanceTable.defaults().replace({SegmentKind.DOMAIN_MINUS_MID: 1900})


def test_table_rejects_polarity_order_violation():
    with pytest.raises(ConfigInvariantError, match="r_plus_80"):
        SegmentResistanceTable.defaults().replace({SegmentKind.DOMAIN_PLUS_FULL: 1800})


def test_scaled_resistance_full_coverage_is_identity(char):
    kind = SegmentKind.DOMAIN_MINUS_FULL
    nominal = char.geometry.nominal_length(kind)
    assert scaled_resistance(kind, nominal, char.table, char.geometry) == char.table.ohms(kind)


def test_scaled_resistance_half_coverage_doubles(char):
    kind = SegmentKind.DOMAIN_PLUS_MID
    nominal = char.geometry.nominal_length(kind)
    value = scaled_resistance(kind, nominal / 2, char.table, char.geometry)
    assert value == pytest.approx(2 * char.table.ohms(kind))


def test_scaled_resistance_rejects_degenerate(char):
    kind = SegmentKind.DOMAIN_MINUS_FULL
    nominal = char.geometry.nominal_length(kind)
    for covered in (0.0, -1e-9, nominal * 1.01):
        with pytest.raises(DegenerateCoverage):
            scaled_resistance(kind, covered, char.table, char.geometry)


@given(
    fraction=st.floats(min_value=0.01, max_value=1.0),
    smaller=st.floats(min_value=0.01, max_value=0.99),
)
def test_scaled_resistance_monotone_in_coverage(fraction, smaller):
    char = default_characterization()
    kind = SegmentKind.DOMAIN_MINUS_FULL
    nominal = char.geometry.nominal_length(kind)
    a = scaled_resistance(kind, nominal * fraction, char.table, char.geometry)
    b = scaled_resistance(kind, nominal * fraction * smaller, char.table, char.geometry)
    assert b >= a  # less coverage never conducts better
    if smaller < 0.9:
        assert b > a


def test_geometry_validation():
    with pytest.raises(ConfigInvariantError):
        DeviceGeometry(notch_length=200e-9).validate()  # notch longer than domain
    with pytest.raises(ConfigInvariantError):
        DeviceGeometry(track_width=0.0).validate()
    with pytest.raises(ConfigInvariantError):
        DriveParams(current_density=-1.0).validate()


@pytest.mark.parametrize(
    "key",
    ["domain_length_nm", "track_width_nm", "notch_length_nm", "free_thickness_nm", "mgo_thickness_nm"],
)
def test_geometry_error_names_the_config_key(key):
    with pytest.raises(ConfigInvariantError, match=rf"^{key} must be positive$"):
        parse_config(f"{key} = 0\n")


# --- config files ---------------------------------------------------------


def test_dump_parse_round_trip(char):
    assert parse_config(dump_config(char), source="round-trip") == char


def test_round_trip_with_overrides(char):
    table = char.table.replace({SegmentKind.DOMAIN_MINUS_FULL: Fraction(38221, 20)})
    custom = Characterization(
        table=table, geometry=char.geometry, drive=char.drive, metadata=char.metadata
    )
    again = parse_config(dump_config(custom))
    assert again == custom
    assert again.table.exact(SegmentKind.DOMAIN_MINUS_FULL) == Fraction(38221, 20)


def test_parse_overrides_single_key(char):
    cfg = "r_minus_80 = 1900\n"
    parsed = parse_config(cfg)
    assert parsed.table.exact(SegmentKind.DOMAIN_MINUS_FULL) == 1900
    # everything else stays at defaults
    assert parsed.table.exact(SegmentKind.WALL_01) == 20053
    assert parsed.geometry == char.geometry


def test_parse_geometry_nm_conversion():
    parsed = parse_config("domain_length_nm = 90\n")
    assert parsed.geometry.domain_length == 90e-9


def test_parse_accepts_comments_and_blanks():
    cfg = "# comment\n\n  r_dw_01 = 20053   # trailing note\n"
    assert parse_config(cfg).table.exact(SegmentKind.WALL_01) == 20053


def test_parse_exact_decimal_values():
    parsed = parse_config("r_plus_80 = 4324.5\n")
    assert parsed.table.exact(SegmentKind.DOMAIN_PLUS_FULL) == Fraction(8649, 2)


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigParseError, match=r"line 3.*first on line 1"):
        parse_config("r_minus_80 = 1911\n\nr_minus_80 = 1912\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigParseError, match=r"unknown key 'resistance_80'.*line 1"):
        parse_config("resistance_80 = 1911\n")


def test_parse_rejects_bad_number():
    with pytest.raises(ConfigParseError, match="line 1"):
        parse_config("r_minus_80 = twelve\n")


@pytest.mark.parametrize(
    "line",
    [
        "domain_length_nm = 1e400",
        "j_c_a_per_m2 = 1e400",
        "k_u = -1e400",
        "r_minus_80 = 1e400",
    ],
)
def test_parse_rejects_values_beyond_float_range(line):
    # finite as decimals, but float() would turn them into inf
    key = line.split()[0]
    with pytest.raises(ConfigParseError, match=rf"'{key}'.*floating-point range.*line 2"):
        parse_config("# overflow\n" + line + "\n")


@pytest.mark.parametrize(
    "text",
    [
        "domain_length_nm = 1e310\n",
        "j_c_a_per_m2 = 1e308\ntrack_width_nm = 1e12\n",
        "r_hdw_plus = 1e308\nj_c_a_per_m2 = 1e14\n",
    ],
)
def test_parse_rejects_overflowing_read_voltages(text):
    # every value is a finite float, but read current x resistance is not
    with pytest.raises(ConfigInvariantError, match="overflow"):
        parse_config(text)


@pytest.mark.parametrize("value", ["1e-307", "1e-400"])
def test_parse_rejects_overflowing_conductances(value):
    # 62 segments (30 domains, 29 walls, two half-walls, an overhang) at
    # 1e-307 ohm conduct more than the float range; 1e-400 ohm is 0.0 as a float
    with pytest.raises(ConfigInvariantError, match="r_minus_80 is too small"):
        parse_config(f"r_minus_80 = {value}\n")


def test_parse_accepts_small_finite_conductances():
    char = parse_config("r_minus_80 = 1e-306\n")
    assert char.table.ohms(SegmentKind.DOMAIN_MINUS_FULL) == 1e-306


def test_parse_accepts_large_finite_read_voltages():
    char = parse_config("domain_length_nm = 1e290\n")
    assert char.geometry.domain_length == pytest.approx(1e281)


def test_parse_rejects_missing_separator():
    with pytest.raises(ConfigParseError, match="line 2"):
        parse_config("# fine\nr_minus_80 1911\n")


def test_parse_rejects_empty_value():
    with pytest.raises(ConfigParseError, match="line 1"):
        parse_config("r_minus_80 =\n")


def test_parse_errors_are_config_errors():
    with pytest.raises(ConfigError):
        parse_config("nope = 1\n")
    with pytest.raises(ConfigError):
        parse_config("r_minus_74 = 1000\n")  # breaks the length ordering


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_load_config_round_trip(tmp_path, char):
    path = tmp_path / "device.cfg"
    path.write_text(dump_config(char))
    assert load_config(str(path)) == char


@st.composite
def _valid_tables(draw):
    # ascending within polarity, plus strictly above minus per length class
    m80 = draw(st.integers(min_value=1, max_value=10**5))
    m74 = m80 + draw(st.integers(min_value=1, max_value=10**4))
    m68 = m74 + draw(st.integers(min_value=1, max_value=10**4))
    p80 = m68 + draw(st.integers(min_value=1, max_value=10**5))
    p74 = p80 + draw(st.integers(min_value=1, max_value=10**4))
    p68 = p74 + draw(st.integers(min_value=1, max_value=10**4))
    w01 = draw(st.integers(min_value=1, max_value=10**6))
    w10 = draw(st.integers(min_value=1, max_value=10**6))
    h_minus = draw(st.integers(min_value=1, max_value=10**6))
    h_plus = draw(st.integers(min_value=1, max_value=10**6))
    values = [m80, m74, m68, p80, p74, p68, w01, w10, h_minus, h_plus]
    return SegmentResistanceTable.defaults().replace(
        dict(zip(SegmentKind, map(Fraction, values)))
    )


@settings(max_examples=50, deadline=None)
@given(table=_valid_tables())
def test_config_round_trip_any_valid_table(table):
    base = default_characterization()
    custom = Characterization(
        table=table, geometry=base.geometry, drive=base.drive, metadata=base.metadata
    )
    assert parse_config(dump_config(custom)) == custom
