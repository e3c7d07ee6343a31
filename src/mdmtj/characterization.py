"""Characterized electrical model of a multi-domain magneto-tunnel junction.

A free layer spanning D nanowire domains under one fixed/barrier stack acts as
a parallel bank of mini-resistors: one per domain, one per internal domain
wall, and one per pinned half-wall at a track border whose outside neighbor
holds the opposite bit. Each resistor kind carries a single characterized
resistance. Geometry enters only through segment lengths, so partial coverage
rescales a kind by nominal/covered length.

This module owns the segment vocabulary, the characterized resistance table,
device geometry, drive conditions, metadata passthrough, and the config file
format. Resistance values are kept as exact rationals next to the float view
so cross-check arithmetic can stay exact.

Config files are plain ``key = value`` lines; ``#`` starts a full-line
comment. Resistances are in ohms, lengths in nanometers (``*_nm`` keys),
current density in A/m^2. Unknown and duplicated keys are hard errors.
Partial files merge onto the defaults.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Mapping

from .errors import ConfigInvariantError, ConfigParseError, DegenerateCoverage

# largest window any analysis accepts; patterns and reports stop here
MAX_DOMAINS = 30


class Polarity(enum.Enum):
    """Free-layer domain orientation relative to the fixed layer."""

    MINUS_Z = "minus"  # parallel, low resistance, stores 0
    PLUS_Z = "plus"    # anti-parallel, high resistance, stores 1

    @classmethod
    def from_bit(cls, bit: int) -> "Polarity":
        return cls.PLUS_Z if bit else cls.MINUS_Z


class SegmentKind(enum.Enum):
    """One characterized mini-resistor kind. Values double as config keys.

    Domain kinds split by polarity and by how many adjacent walls eat into
    the domain (0, 1, or 2), full walls by transition direction read left to
    right, half-walls by the polarity of the edge domain they pin against.
    """

    DOMAIN_MINUS_FULL = "r_minus_80"
    DOMAIN_MINUS_MID = "r_minus_74"
    DOMAIN_MINUS_SHORT = "r_minus_68"
    DOMAIN_PLUS_FULL = "r_plus_80"
    DOMAIN_PLUS_MID = "r_plus_74"
    DOMAIN_PLUS_SHORT = "r_plus_68"
    WALL_01 = "r_dw_01"
    WALL_10 = "r_dw_10"
    HALF_WALL_MINUS = "r_hdw_minus"
    HALF_WALL_PLUS = "r_hdw_plus"

    @property
    def is_domain(self) -> bool:
        return self in _DOMAIN_INFO

    @property
    def is_wall(self) -> bool:
        return self in (SegmentKind.WALL_01, SegmentKind.WALL_10)

    @property
    def is_half_wall(self) -> bool:
        return self in (SegmentKind.HALF_WALL_MINUS, SegmentKind.HALF_WALL_PLUS)

    @property
    def wall_count(self) -> int:
        """Adjacent-wall count encoded by a domain kind's length class."""
        if self not in _DOMAIN_INFO:
            raise ValueError(f"{self.name} is not a domain kind")
        return _DOMAIN_INFO[self][1]


_DOMAIN_INFO = {
    SegmentKind.DOMAIN_MINUS_FULL: (Polarity.MINUS_Z, 0),
    SegmentKind.DOMAIN_MINUS_MID: (Polarity.MINUS_Z, 1),
    SegmentKind.DOMAIN_MINUS_SHORT: (Polarity.MINUS_Z, 2),
    SegmentKind.DOMAIN_PLUS_FULL: (Polarity.PLUS_Z, 0),
    SegmentKind.DOMAIN_PLUS_MID: (Polarity.PLUS_Z, 1),
    SegmentKind.DOMAIN_PLUS_SHORT: (Polarity.PLUS_Z, 2),
}

_DOMAIN_BY_SHAPE = {info: kind for kind, info in _DOMAIN_INFO.items()}


def domain_kind(polarity: Polarity, wall_count: int) -> SegmentKind:
    """Domain segment kind for a polarity and its adjacent-wall count."""
    try:
        return _DOMAIN_BY_SHAPE[(polarity, wall_count)]
    except KeyError:
        raise ValueError(f"no domain kind with {wall_count} adjacent walls") from None


def wall_kind(left_bit: int, right_bit: int) -> SegmentKind:
    """Full-wall kind for a transition, read left to right."""
    if left_bit == right_bit:
        raise ValueError("no wall between equal bits")
    return SegmentKind.WALL_01 if left_bit == 0 else SegmentKind.WALL_10


def half_wall_kind(polarity: Polarity) -> SegmentKind:
    return (
        SegmentKind.HALF_WALL_PLUS
        if polarity is Polarity.PLUS_Z
        else SegmentKind.HALF_WALL_MINUS
    )


_DEFAULT_RESISTANCES: dict[SegmentKind, int] = {
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


class SegmentResistanceTable:
    """Characterized resistance per segment kind, in ohms.

    Exact rational values are the source of truth; ``ohms`` is the float view
    the model computes with. Ordering invariants (longer coverage conducts
    better, anti-parallel resists more) are enforced on construction.
    """

    def __init__(self, exact: Mapping[SegmentKind, Fraction | int]):
        missing = [k.value for k in SegmentKind if k not in exact]
        if missing:
            raise ConfigInvariantError(f"missing resistance entries: {', '.join(missing)}")
        self._exact = {k: Fraction(exact[k]) for k in SegmentKind}
        self._ohms = {k: float(v) for k, v in self._exact.items()}
        self._check_invariants()

    def _check_invariants(self) -> None:
        for kind, value in self._exact.items():
            if value <= 0:
                raise ConfigInvariantError(
                    f"{kind.value} must be positive, got {float(value)}"
                )
        for pol in ("minus", "plus"):
            keys = [f"r_{pol}_80", f"r_{pol}_74", f"r_{pol}_68"]
            full, mid, short = (self._exact[SegmentKind(k)] for k in keys)
            if not (full < mid < short):
                raise ConfigInvariantError(
                    f"length classes must satisfy {keys[0]} < {keys[1]} < {keys[2]}"
                )
        for suffix in ("80", "74", "68"):
            minus = self._exact[SegmentKind(f"r_minus_{suffix}")]
            plus = self._exact[SegmentKind(f"r_plus_{suffix}")]
            if not (plus > minus):
                raise ConfigInvariantError(
                    f"r_plus_{suffix} must exceed r_minus_{suffix}"
                    " (anti-parallel is the high-resistance state)"
                )

    def ohms(self, kind: SegmentKind) -> float:
        return self._ohms[kind]

    def exact(self, kind: SegmentKind) -> Fraction:
        return self._exact[kind]

    def replace(self, overrides: Mapping[SegmentKind, Fraction | int]) -> "SegmentResistanceTable":
        merged = dict(self._exact)
        merged.update({k: Fraction(v) for k, v in overrides.items()})
        return SegmentResistanceTable(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentResistanceTable):
            return NotImplemented
        return self._exact == other._exact

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k.value}={float(v)}" for k, v in self._exact.items())
        return f"SegmentResistanceTable({pairs})"

    @classmethod
    def defaults(cls) -> "SegmentResistanceTable":
        return cls(_DEFAULT_RESISTANCES)


@dataclass(frozen=True)
class DeviceGeometry:
    """Nanowire and stack dimensions, SI units (meters)."""

    domain_length: float = 80e-9
    track_width: float = 40e-9
    notch_length: float = 12e-9
    free_layer_thickness: float = 2e-9
    mgo_thickness: float = 1e-9

    def junction_area_per_domain(self) -> float:
        """Stack footprint above one domain, m^2."""
        return self.domain_length * self.track_width

    def nominal_length(self, kind: SegmentKind) -> float:
        """Length the characterized resistance of ``kind`` refers to."""
        if kind.is_wall:
            return self.notch_length
        if kind.is_half_wall:
            return self.notch_length / 2
        return self.domain_length - kind.wall_count * (self.notch_length / 2)

    def validate(self) -> None:
        for key, attr in _GEOMETRY_KEYS.items():
            if getattr(self, attr) <= 0:
                raise ConfigInvariantError(f"{key} must be positive")
        if self.notch_length >= self.domain_length:
            raise ConfigInvariantError(
                "notch_length_nm must be smaller than domain_length_nm"
            )


@dataclass(frozen=True)
class DriveParams:
    """Read drive: a fixed current density across the whole stack."""

    current_density: float = 3.21e10  # A/m^2

    def read_current(self, domains: int, geometry: DeviceGeometry) -> float:
        """Read current in amperes; scales linearly with the domain count."""
        return self.current_density * domains * geometry.junction_area_per_domain()

    def validate(self) -> None:
        if self.current_density <= 0:
            raise ConfigInvariantError("j_c_a_per_m2 must be positive")


@dataclass(frozen=True)
class CharacterizationMetadata:
    """Provenance values carried through to reports verbatim; not computed on."""

    material: str = "CoFeB"
    k_u: float = 99999.0            # uniaxial anisotropy, erg/cc
    m_s: float = 1200.0             # saturation magnetization, emu/cc
    exchange_stiffness: float = 2.2  # uerg/cm
    amr_ratio: float = 0.014
    tmr_ratio: float = 0.8
    resistivity: float = 15.0       # uOhm*cm


@dataclass(frozen=True)
class Characterization:
    """Everything the model needs: table, geometry, drive, metadata."""

    table: SegmentResistanceTable
    geometry: DeviceGeometry
    drive: DriveParams
    metadata: CharacterizationMetadata


def default_characterization() -> Characterization:
    return Characterization(
        table=SegmentResistanceTable.defaults(),
        geometry=DeviceGeometry(),
        drive=DriveParams(),
        metadata=CharacterizationMetadata(),
    )


def scaled_resistance(
    kind: SegmentKind,
    covered_length: float,
    table: SegmentResistanceTable,
    geometry: DeviceGeometry,
) -> float:
    """Resistance of a partially covered segment.

    Only the covered portion conducts through the stack, so resistance grows
    as nominal/covered; full coverage reproduces the table value exactly.
    """
    nominal = geometry.nominal_length(kind)
    if covered_length <= 0:
        raise DegenerateCoverage(
            f"covered length must be positive, got {covered_length}"
        )
    if covered_length > nominal:
        raise DegenerateCoverage(
            f"covered length {covered_length} exceeds nominal {nominal} for {kind.name}"
        )
    return table.ohms(kind) * (nominal / covered_length)


# --- config file format ----------------------------------------------------

_GEOMETRY_KEYS = {
    "domain_length_nm": "domain_length",
    "track_width_nm": "track_width",
    "notch_length_nm": "notch_length",
    "free_thickness_nm": "free_layer_thickness",
    "mgo_thickness_nm": "mgo_thickness",
}

_METADATA_NUMERIC_KEYS = (
    "k_u",
    "m_s",
    "exchange_stiffness",
    "amr_ratio",
    "tmr_ratio",
    "resistivity",
)

_RESISTANCE_KEYS = {kind.value: kind for kind in SegmentKind}

_ALL_KEYS = (
    set(_RESISTANCE_KEYS)
    | set(_GEOMETRY_KEYS)
    | {"j_c_a_per_m2", "material"}
    | set(_METADATA_NUMERIC_KEYS)
)


def _decimal(raw: str, key: str, line_no: int) -> Decimal:
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigParseError(
            f"non-numeric value {raw!r} for {key!r} (line {line_no})"
        ) from None
    if not value.is_finite():
        raise ConfigParseError(
            f"non-numeric value {raw!r} for {key!r} (line {line_no})"
        )
    return value


def _float(value: Decimal, key: str, line_no: int) -> float:
    number = float(value)
    # a finite decimal can still round to inf; written so that inf fails
    if not (abs(number) <= sys.float_info.max):
        raise ConfigParseError(
            f"value for {key!r} is out of the floating-point range (line {line_no})"
        )
    return number


def parse_config(text: str, source: str = "<config>") -> Characterization:
    """Parse ``key = value`` text merged onto the defaults.

    Raises ConfigParseError (with line number) for syntax, unknown keys,
    duplicates, and non-numeric values; ConfigInvariantError (naming the key)
    for value combinations that break characterization invariants.
    """
    seen: dict[str, int] = {}
    resistance_overrides: dict[SegmentKind, Fraction] = {}
    geometry_kwargs: dict[str, float] = {}
    drive_kwargs: dict[str, float] = {}
    metadata_kwargs: dict[str, object] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"expected 'key = value' in {source} (line {line_no}): {raw_line!r}"
            )
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _ALL_KEYS:
            raise ConfigParseError(f"unknown key {key!r} (line {line_no})")
        if key in seen:
            raise ConfigParseError(
                f"duplicate key {key!r} (line {line_no}, first on line {seen[key]})"
            )
        seen[key] = line_no
        if not raw_value:
            raise ConfigParseError(f"empty value for {key!r} (line {line_no})")

        if key in _RESISTANCE_KEYS:
            value = _decimal(raw_value, key, line_no)
            _float(value, key, line_no)  # the table keeps a float view too
            resistance_overrides[_RESISTANCE_KEYS[key]] = Fraction(value)
        elif key in _GEOMETRY_KEYS:
            # scale in decimal so nm text converts to meters in one rounding
            geometry_kwargs[_GEOMETRY_KEYS[key]] = _float(
                _decimal(raw_value, key, line_no).scaleb(-9), key, line_no
            )
        elif key == "j_c_a_per_m2":
            drive_kwargs["current_density"] = _float(
                _decimal(raw_value, key, line_no), key, line_no
            )
        elif key == "material":
            metadata_kwargs["material"] = raw_value
        else:
            metadata_kwargs[key] = _float(_decimal(raw_value, key, line_no), key, line_no)

    table = SegmentResistanceTable.defaults().replace(resistance_overrides)
    geometry = DeviceGeometry(**geometry_kwargs)
    geometry.validate()
    drive = DriveParams(**drive_kwargs)
    drive.validate()
    _check_voltage_bound(table, geometry, drive)
    _check_conductance_bound(table)
    metadata = CharacterizationMetadata(**metadata_kwargs)
    return Characterization(table, geometry, drive, metadata)


def _check_voltage_bound(
    table: SegmentResistanceTable, geometry: DeviceGeometry, drive: DriveParams
) -> None:
    """Refuse values whose read voltages could overflow.

    A parallel bank resists less than its largest segment, and the read
    current grows with the domain count, so the read current at MAX_DOMAINS
    times the largest segment resistance bounds every read voltage.
    """
    bound = drive.read_current(MAX_DOMAINS, geometry) * max(
        table.ohms(kind) for kind in SegmentKind
    )
    if not (bound <= sys.float_info.max):  # written so that inf and nan fail
        raise ConfigInvariantError(
            f"read voltages overflow: j_c_a_per_m2 x domain_length_nm x track_width_nm"
            f" x {MAX_DOMAINS} domains x the largest segment resistance is not a finite"
            " number"
        )


def _check_conductance_bound(table: SegmentResistanceTable) -> None:
    """Refuse resistances so small that a bank's conductance could overflow.

    The largest bank any report builds holds 2 * MAX_DOMAINS + 2 segments
    (the domains, the walls between them, two half-walls and a misalignment
    overhang), none conducting more than the smallest resistance allows.
    """
    segments = 2 * MAX_DOMAINS + 2
    smallest = min(SegmentKind, key=table.ohms)
    ohms = table.ohms(smallest)
    # written so that a float view of 0 and an infinite bound both fail
    if not (ohms > 0.0 and segments / ohms <= sys.float_info.max):
        raise ConfigInvariantError(
            f"{smallest.value} is too small: the conductance of {segments}"
            " segments at that resistance is not a finite number"
        )


def load_config(path: str) -> Characterization:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text, source=path)


def _fraction_text(value: Fraction) -> str:
    """Shortest decimal text that parses back to exactly ``value``."""
    if value.denominator == 1:
        return str(value.numerator)
    num, den = value.numerator, value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(
            f"resistance {value} has no finite decimal form; cannot serialize"
        )
    digits = max(twos, fives)
    scaled = num * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return (text[:-digits] + "." + text[-digits:]).lstrip() if digits else text


def _meters_as_nm_text(meters: float) -> str:
    # repr is the shortest round-tripping decimal; scaling it by 10^9 in
    # Decimal is exact, so load(dump(x)) reproduces x bit for bit
    as_decimal = Decimal(repr(meters)).scaleb(9)
    text = format(as_decimal, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def config_mapping(char: Characterization) -> dict[str, str]:
    """Effective config as an ordered key -> value-text mapping (manifests)."""
    mapping = {kind.value: _fraction_text(char.table.exact(kind)) for kind in SegmentKind}
    for key, attr in _GEOMETRY_KEYS.items():
        mapping[key] = _meters_as_nm_text(getattr(char.geometry, attr))
    mapping["j_c_a_per_m2"] = repr(char.drive.current_density)
    mapping["material"] = char.metadata.material
    for key in _METADATA_NUMERIC_KEYS:
        mapping[key] = repr(getattr(char.metadata, key))
    return mapping


# dump headings, each written before the key that opens its section
_HEADINGS = {
    "r_minus_80": "segment resistances, ohms",
    "domain_length_nm": "geometry, nanometers",
    "j_c_a_per_m2": "drive",
    "material": "characterization metadata (informational)",
}


def dump_config(char: Characterization) -> str:
    """Serialize the effective configuration; reloading reproduces it exactly."""
    lines = ["# multi-domain MTJ characterization (effective values)"]
    for key, value in config_mapping(char).items():
        if key in _HEADINGS:
            lines.append(f"# {_HEADINGS[key]}")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
