"""Pattern decomposition and the parallel resistor network it induces.

A stored word is a left-to-right bit pattern. Every domain contributes one
mini-resistor, every transition between unequal neighbor bits contributes a
full wall, and each track border whose outside neighbor differs from the edge
bit contributes a pinned half-wall on that side. Walls eat into the length of
the domains beside them (a full wall takes half the notch from each side, a
half-wall takes half the notch from its edge domain), which picks each
domain's length class. All segments sit electrically in parallel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .characterization import (
    MAX_DOMAINS,
    Characterization,
    Polarity,
    SegmentKind,
    SegmentResistanceTable,
    domain_kind,
    half_wall_kind,
    wall_kind,
)
from .errors import EmptyNetwork, PatternError


@dataclass(frozen=True)
class BitPattern:
    """Immutable left-to-right bit word; index 0 is the leftmost domain."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise PatternError("pattern must contain at least one bit")
        if len(self.bits) > MAX_DOMAINS:
            raise PatternError(
                f"pattern length {len(self.bits)} exceeds the supported"
                f" maximum of {MAX_DOMAINS} domains"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise PatternError(f"pattern bits must be 0 or 1, got {self.bits}")

    @classmethod
    def parse(cls, text: str) -> "BitPattern":
        stripped = text.strip()
        if not stripped:
            raise PatternError("pattern must contain at least one bit")
        bad = sorted(set(stripped) - {"0", "1"})
        if bad:
            raise PatternError(
                f"pattern may only contain 0 and 1, got {stripped!r}"
                f" (offending: {', '.join(map(repr, bad))})"
            )
        return cls(tuple(int(c) for c in stripped))

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(map(str, self.bits))

    def __iter__(self):
        return iter(self.bits)

    def mirror(self) -> "BitPattern":
        return BitPattern(self.bits[::-1])

    def complement(self) -> "BitPattern":
        return BitPattern(tuple(1 - b for b in self.bits))

    @property
    def weight(self) -> int:
        return sum(self.bits)


class Border(enum.Enum):
    """Relation of the bit just outside a track border to the edge bit."""

    SAME = "same"
    DIFFER = "differ"

    @property
    def opposite(self) -> "Border":
        return Border.DIFFER if self is Border.SAME else Border.SAME


@dataclass(frozen=True)
class BorderCondition:
    """Border relation on each side of the D-domain window."""

    left: Border
    right: Border

    @classmethod
    def parse(cls, text: str) -> "BorderCondition":
        normalized = text.strip().lower().replace(",", "/")
        parts = normalized.split("/")
        if len(parts) != 2:
            raise PatternError(
                f"border condition must look like 'same/differ', got {text!r}"
            )
        try:
            return cls(Border(parts[0].strip()), Border(parts[1].strip()))
        except ValueError:
            raise PatternError(
                f"border sides must be 'same' or 'differ', got {text!r}"
            ) from None

    def __str__(self) -> str:
        return f"{self.left.value}/{self.right.value}"

    def mirror(self) -> "BorderCondition":
        return BorderCondition(self.right, self.left)


SAME_SAME = BorderCondition(Border.SAME, Border.SAME)
DIFFER_DIFFER = BorderCondition(Border.DIFFER, Border.DIFFER)

ALL_CONDITIONS = (
    BorderCondition(Border.SAME, Border.SAME),
    BorderCondition(Border.SAME, Border.DIFFER),
    BorderCondition(Border.DIFFER, Border.SAME),
    BorderCondition(Border.DIFFER, Border.DIFFER),
)


@dataclass(frozen=True)
class Decomposition:
    """Parallel segment bank induced by a pattern under a border condition.

    ``segments`` is canonical: kinds in enum order, counts positive. The
    per-domain views keep left-to-right order for coverage bookkeeping.
    """

    pattern: BitPattern
    borders: BorderCondition
    segments: tuple[tuple[SegmentKind, int], ...]
    domain_kinds: tuple[SegmentKind, ...]
    left_half_wall: SegmentKind | None
    right_half_wall: SegmentKind | None

    @cached_property
    def segment_count(self) -> int:
        return sum(count for _, count in self.segments)

    def count(self, kind: SegmentKind) -> int:
        for found, n in self.segments:
            if found is kind:
                return n
        return 0


def decompose(pattern: BitPattern, borders: BorderCondition) -> Decomposition:
    bits = pattern.bits
    eats = [0] * len(bits)
    counts: dict[SegmentKind, int] = {}

    def add(kind: SegmentKind) -> None:
        counts[kind] = counts.get(kind, 0) + 1

    for i in range(len(bits) - 1):
        if bits[i] != bits[i + 1]:
            add(wall_kind(bits[i], bits[i + 1]))
            eats[i] += 1
            eats[i + 1] += 1

    left_half = right_half = None
    if borders.left is Border.DIFFER:
        left_half = half_wall_kind(Polarity.from_bit(bits[0]))
        add(left_half)
        eats[0] += 1
    if borders.right is Border.DIFFER:
        right_half = half_wall_kind(Polarity.from_bit(bits[-1]))
        add(right_half)
        eats[-1] += 1

    domain_kinds = tuple(
        domain_kind(Polarity.from_bit(b), eaten) for b, eaten in zip(bits, eats)
    )
    for kind in domain_kinds:
        add(kind)

    segments = tuple(
        (kind, counts[kind]) for kind in SegmentKind if kind in counts
    )
    return Decomposition(
        pattern=pattern,
        borders=borders,
        segments=segments,
        domain_kinds=domain_kinds,
        left_half_wall=left_half,
        right_half_wall=right_half,
    )


def equivalent_resistance(
    decomposition: Decomposition, table: SegmentResistanceTable
) -> float:
    """Parallel combination of every segment, in ohms.

    Conductances accumulate in canonical segment order so equal banks always
    produce bit-identical floats.
    """
    if not decomposition.segments:
        raise EmptyNetwork("decomposition holds no segments")
    conductance = 0.0
    for kind, count in decomposition.segments:
        conductance += count / table.ohms(kind)
    return 1.0 / conductance


def exact_equivalent_resistance(
    decomposition: Decomposition, table: SegmentResistanceTable
) -> Fraction:
    """Same combination in exact rational arithmetic (cross-checks)."""
    if not decomposition.segments:
        raise EmptyNetwork("decomposition holds no segments")
    conductance = Fraction(0)
    for kind, count in decomposition.segments:
        conductance += Fraction(count) / table.exact(kind)
    return 1 / conductance


def pattern_resistance(
    pattern: BitPattern | str,
    borders: BorderCondition,
    char: Characterization,
) -> float:
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    return equivalent_resistance(decompose(pattern, borders), char.table)


def pattern_voltage(
    pattern: BitPattern | str,
    borders: BorderCondition,
    char: Characterization,
) -> float:
    """Sense voltage in volts: read current times equivalent resistance."""
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    resistance = equivalent_resistance(decompose(pattern, borders), char.table)
    current = char.drive.read_current(len(pattern), char.geometry)
    return current * resistance
