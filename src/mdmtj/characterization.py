"""Characterized electrical model of a multi-domain magneto-tunnel junction.

A free layer spanning D nanowire domains under one fixed/barrier stack acts as
a parallel bank of mini-resistors: one per domain, one per internal domain
wall, and one per pinned half-wall at a track border whose outside neighbor
holds the opposite bit. Each resistor kind carries a single characterized
resistance. Geometry enters only through segment lengths: ``nominal_length``
gives the length each resistance refers to, and ``variation`` rescales a
partially covered segment by nominal/covered length.

This module owns the segment vocabulary, the characterized resistance table,
device geometry, drive conditions, metadata passthrough, and the config file
format. Resistance values are kept as exact rationals next to the float view
so cross-check arithmetic can stay exact.

Config files are plain ``key = value`` lines. Each line is cut at its
first ``#``, so a comment may follow a value and no value can hold a ``#``
(``material = Co#FeB`` reads as ``Co``). Resistances are in ohms, lengths
in nanometers (``*_nm`` keys), current density in A/m^2. Unknown and
duplicated keys are hard errors. Partial files merge onto the defaults.
"""

from __future__ import annotations

import enum
import math
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Mapping

from .errors import ConfigInvariantError, ConfigParseError, DomainCountTooLarge, DomainCountTooSmall

# largest window any analysis accepts; patterns and reports stop here
MAX_DOMAINS = 30


def check_domain_count(domains: int, floor: int = 1) -> None:
    """The one refusal of a window length: an analysis accepts ``floor``
    (1, or 2 where it needs a 0/1 gap) to MAX_DOMAINS domains."""
    if domains < floor:
        plural = "s" if floor > 1 else ""
        raise DomainCountTooSmall(f"need at least {floor} domain{plural}, got {domains}")
    if domains > MAX_DOMAINS:
        raise DomainCountTooLarge(f"domain count {domains} exceeds limit {MAX_DOMAINS}")


class SegmentKind(enum.Enum):
    """One characterized mini-resistor kind. Values double as config keys.

    Domain kinds split by polarity and by how many adjacent walls eat into
    the domain (0, 1, or 2), full walls by transition direction read left to
    right, half-walls by the polarity of the edge domain they pin against.
    Enum order is the kind order of every segment-count bank.
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


# The kind layout: a bank is a list of counts indexed like KINDS. A domain's
# index is DOMAIN[bit][adjacent walls], a full wall's WALL[bit on its left],
# a half-wall's HALF_WALL[bit of the edge domain it pins against].
KINDS = tuple(SegmentKind)
DOMAIN = ((0, 1, 2), (3, 4, 5))
WALL = (6, 7)
HALF_WALL = (8, 9)


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
        for row in DOMAIN:
            full, mid, short = (KINDS[i] for i in row)
            if not (self._exact[full] < self._exact[mid] < self._exact[short]):
                raise ConfigInvariantError(
                    f"length classes must satisfy {full.value} < {mid.value} < {short.value}"
                )
        for walls in range(3):
            minus, plus = (KINDS[row[walls]] for row in DOMAIN)
            if not (self._exact[plus] > self._exact[minus]):
                raise ConfigInvariantError(
                    f"{plus.value} must exceed {minus.value}"
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


class _Record:
    """Base of every record class of the package, written without
    ``dataclasses``: importing that module loads ``inspect``, ``ast``, ``dis``
    and ``tokenize``, a large share of a short query's start-up, and building
    a dataclass runs a code generator once per class.

    A subclass names its fields once, as ``__slots__ = _fields = (...)``, and
    the defaults of trailing fields in ``_defaults``. The constructor binds
    positional and keyword arguments to the fields as a dataclass's does and
    raises TypeError on a missing, unknown or repeated one. Equality, hash,
    repr and immutability read as a frozen dataclass's do; ``replace`` stands
    in for ``dataclasses.replace``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: Mapping[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):  # else the common call, kept fast
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    def _bind(self, args: tuple, kwargs: dict[str, object]) -> tuple:
        """The arguments in field order with defaults filled in, bound as a
        dataclass's ``__init__`` binds them."""
        fields, cls = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        rest = fields[len(args) :]
        wrong = kwargs.keys() - rest
        if wrong:
            name = wrong.pop()
            problem = "multiple values for" if name in fields else "an unexpected keyword"
            raise TypeError(f"{cls}() got {problem} argument {name!r}")
        defaults = self._defaults
        try:
            return args + tuple([kwargs[name] if name in kwargs else defaults[name] for name in rest])
        except KeyError as missing:
            raise TypeError(f"{cls}() missing required argument {missing.args[0]!r}") from None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({pairs})"

    def __reduce__(self) -> tuple:  # copy and pickle through __init__
        return self.__class__, self._values()

    def replace(self, **changes: object):
        """A copy with the named fields changed, through ``__init__``."""
        return self.__class__(**{**dict(zip(self._fields, self._values())), **changes})


class DeviceGeometry(_Record):
    """Nanowire and stack dimensions, SI units (meters)."""

    __slots__ = _fields = (
        "domain_length", "track_width", "notch_length", "free_layer_thickness", "mgo_thickness"
    )
    _defaults = {
        "domain_length": 80e-9,
        "track_width": 40e-9,
        "notch_length": 12e-9,
        "free_layer_thickness": 2e-9,
        "mgo_thickness": 1e-9,
    }

    def junction_area_per_domain(self) -> float:
        """Stack footprint above one domain, m^2."""
        return self.domain_length * self.track_width

    def nominal_length(self, kind: SegmentKind) -> float:
        """Length the characterized resistance of ``kind`` refers to."""
        index = KINDS.index(kind)
        if index in WALL:
            return self.notch_length
        if index in HALF_WALL:
            return self.notch_length / 2
        walls = next(row.index(index) for row in DOMAIN if index in row)
        return self.domain_length - walls * (self.notch_length / 2)

    def validate(self) -> None:
        for key, attr in _GEOMETRY_KEYS.items():
            if getattr(self, attr) <= 0:
                raise ConfigInvariantError(f"{key} must be positive")
        if self.notch_length >= self.domain_length:
            raise ConfigInvariantError(
                "notch_length_nm must be smaller than domain_length_nm"
            )


class DriveParams(_Record):
    """Read drive: a fixed current density across the whole stack, A/m^2."""

    __slots__ = _fields = ("current_density",)
    _defaults = {"current_density": 3.21e10}

    def read_current(self, domains: int, geometry: DeviceGeometry) -> float:
        """Read current in amperes; scales linearly with the domain count."""
        return self.current_density * domains * geometry.junction_area_per_domain()

    def validate(self) -> None:
        if self.current_density <= 0:
            raise ConfigInvariantError("j_c_a_per_m2 must be positive")


class CharacterizationMetadata(_Record):
    """Provenance values carried through to reports verbatim; not computed on.

    ``k_u`` is the uniaxial anisotropy in erg/cc, ``m_s`` the saturation
    magnetization in emu/cc, ``exchange_stiffness`` in uerg/cm and
    ``resistivity`` in uOhm*cm.
    """

    __slots__ = _fields = (
        "material", "k_u", "m_s", "exchange_stiffness", "amr_ratio", "tmr_ratio", "resistivity"
    )
    _defaults = {
        "material": "CoFeB",
        "k_u": 99999.0,
        "m_s": 1200.0,
        "exchange_stiffness": 2.2,
        "amr_ratio": 0.014,
        "tmr_ratio": 0.8,
        "resistivity": 15.0,
    }


class Characterization(_Record):
    """Everything the model needs: table, geometry, drive, metadata."""

    __slots__ = _fields = ("table", "geometry", "drive", "metadata")


def default_characterization() -> Characterization:
    return Characterization(
        table=SegmentResistanceTable.defaults(),
        geometry=DeviceGeometry(),
        drive=DriveParams(),
        metadata=CharacterizationMetadata(),
    )


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
    """A length in nm, for config text and refusals alike; ``repr`` when it
    is not finite.

    repr is the shortest round-tripping decimal; scaling it by 10^9 in
    Decimal is exact, so load(dump(x)) reproduces x bit for bit and two
    different lengths never print alike.
    """
    meters = float(meters)
    if not math.isfinite(meters):
        return repr(meters)
    text = format(Decimal(repr(meters)).scaleb(9), "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


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
