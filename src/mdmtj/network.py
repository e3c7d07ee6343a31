"""Pattern decomposition and the parallel resistor network it induces.

A stored word is a left-to-right bit pattern. Every domain contributes one
mini-resistor, every transition between unequal neighbor bits contributes a
full wall, and each track border whose outside neighbor differs from the edge
bit contributes a pinned half-wall on that side. Walls eat into the length of
the domains beside them (a full wall takes half the notch from each side, a
half-wall takes half the notch from its edge domain), which picks each
domain's length class. All segments sit electrically in parallel.

A bank is its segment counts indexed like ``characterization.KINDS``;
``decompose`` returns it. The bit scan of ``margins`` packs the same counts
into one integer (``margins._FIELD`` bits a kind), and the misalignment
engine reads that scan's conductance extremes per edge group, not banks.
``bank_conductance`` is the one float sum over a bank, in kind order.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .characterization import (
    DOMAIN,
    HALF_WALL,
    KINDS,
    MAX_DOMAINS,
    WALL,
    Characterization,
    SegmentResistanceTable,
    _Record,
)
from .errors import PatternError


class BitPattern(_Record):
    """Immutable left-to-right bit word; index 0 is the leftmost domain."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits: tuple[int, ...]) -> None:
        if not bits:
            raise PatternError("pattern must contain at least one bit")
        if len(bits) > MAX_DOMAINS:
            raise PatternError(
                f"pattern length {len(bits)} exceeds the supported"
                f" maximum of {MAX_DOMAINS} domains"
            )
        if any(b not in (0, 1) for b in bits):
            raise PatternError(f"pattern bits must be 0 or 1, got {bits}")
        object.__setattr__(self, "bits", bits)

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


class Border(enum.Enum):
    """Relation of the bit just outside a track border to the edge bit."""

    SAME = "same"
    DIFFER = "differ"


class BorderCondition(_Record):
    """Border relation on each side of the D-domain window."""

    __slots__ = _fields = ("left", "right")

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


ALL_CONDITIONS = (
    BorderCondition(Border.SAME, Border.SAME),
    BorderCondition(Border.SAME, Border.DIFFER),
    BorderCondition(Border.DIFFER, Border.SAME),
    BorderCondition(Border.DIFFER, Border.DIFFER),
)


def decompose(pattern: BitPattern, borders: BorderCondition) -> tuple[int, ...]:
    """The pattern's bank under ``borders``: one count per kind, indexed
    like ``KINDS``."""
    bits = pattern.bits
    eats = [0] * len(bits)
    counts = [0] * len(KINDS)

    for i in range(len(bits) - 1):
        if bits[i] != bits[i + 1]:
            counts[WALL[bits[i]]] += 1
            eats[i] += 1
            eats[i + 1] += 1

    if borders.left is Border.DIFFER:
        counts[HALF_WALL[bits[0]]] += 1
        eats[0] += 1
    if borders.right is Border.DIFFER:
        counts[HALF_WALL[bits[-1]]] += 1
        eats[-1] += 1

    for bit, eaten in zip(bits, eats):
        counts[DOMAIN[bit][eaten]] += 1

    return tuple(counts)


def bank_conductance(counts: Sequence[int], table: SegmentResistanceTable) -> float:
    """Summed conductance of a bank, term by term in kind order.

    Every kind adds its term, 0.0 for a zero count, so equal banks always
    produce bit-identical floats. The loop is explicit because the builtin
    ``sum`` compensates float sums from CPython 3.12 on.
    """
    conductance = 0.0
    for kind, count in zip(KINDS, counts):
        conductance += count / table.ohms(kind)
    return conductance


def pattern_resistance(
    pattern: BitPattern | str,
    borders: BorderCondition,
    char: Characterization,
) -> float:
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    return 1.0 / bank_conductance(decompose(pattern, borders), char.table)


def pattern_voltage(
    pattern: BitPattern | str,
    borders: BorderCondition,
    char: Characterization,
) -> float:
    """Sense voltage in volts: read current times equivalent resistance."""
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    current = char.drive.read_current(len(pattern), char.geometry)
    return current * pattern_resistance(pattern, borders, char)
