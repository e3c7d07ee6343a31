"""Slow, independent reference paths used to check the production model.

Everything here recomputes from scratch: segment counting works directly on
the bit string, parallel sums are redone in exact rational arithmetic, and
every brute-force report comes from one raw 2^D enumeration: all D-bit words
in weight order, their 2^D x 10 segment-count matrix per border condition,
conductances summed column by column, and per-weight extremes over the row
range of each weight. No run structure or equivalence class shortens the
walk; the class listing of ``brute_force_report`` only groups its rows. The
only things shared with the production modules are data (the
characterization, the neighbor assumption) and the report dataclass types,
never composition code. The float reference path follows the same
documented summation order (segment kinds in enum order), because that
order is part of the report contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .characterization import Characterization, SegmentKind, SegmentResistanceTable
from .errors import DomainCountTooLarge, EmptyNetwork, OffsetOutOfRange
from .margins import AdjacentMargin, ClassEntry, LevelCluster, MarginReport
from .network import ALL_CONDITIONS, Border, BorderCondition
from .variation import NeighborAssumption

BRUTE_FORCE_LIMIT = 12

# index layout, fixed by the enum: 0..2 minus-polarity domains by adjacent
# wall count, 3..5 plus-polarity, 6 wall 0->1, 7 wall 1->0, 8..9 half-walls
_N_KINDS = len(SegmentKind)


def rational_parallel_sum(resistances: Sequence[Fraction]) -> Fraction:
    """Exact (sum of reciprocals)^-1; no rounding anywhere."""
    if not resistances:
        raise EmptyNetwork("parallel sum of nothing")
    total = Fraction(0)
    for value in resistances:
        if value <= 0:
            raise ValueError(f"resistances must be positive, got {value}")
        total += 1 / Fraction(value)
    return 1 / total


def _domain_indices(bits: str, borders: BorderCondition) -> list[int]:
    """Kind index of each domain: its polarity block plus its wall count."""
    n = len(bits)
    left_differ = borders.left is Border.DIFFER
    right_differ = borders.right is Border.DIFFER
    indices = []
    for i, ch in enumerate(bits):
        walls = 0
        if i > 0 and bits[i - 1] != ch:
            walls += 1
        if i < n - 1 and bits[i + 1] != ch:
            walls += 1
        if i == 0 and left_differ:
            walls += 1
        if i == n - 1 and right_differ:
            walls += 1
        indices.append((3 if ch == "1" else 0) + walls)
    return indices


def segment_counts(bits: str, borders: BorderCondition) -> list[int]:
    """Count mini-resistors for a bit string, recomputed from first rules."""
    counts = [0] * _N_KINDS
    for i in range(len(bits) - 1):
        if bits[i] != bits[i + 1]:
            counts[6 if bits[i] == "0" else 7] += 1
    if borders.left is Border.DIFFER:
        counts[8 + (bits[0] == "1")] += 1
    if borders.right is Border.DIFFER:
        counts[8 + (bits[-1] == "1")] += 1
    for index in _domain_indices(bits, borders):
        counts[index] += 1
    return counts


def _edge_structure(bits: str, borders: BorderCondition, left: bool) -> tuple[int, int | None]:
    """Kind indices of the end domain and of the half-wall (None when the
    outside neighbor holds the same bit) on one side of the window."""
    end = 0 if left else -1
    differ = (borders.left if left else borders.right) is Border.DIFFER
    half = 8 + (bits[end] == "1") if differ else None
    return _domain_indices(bits, borders)[end], half


def reference_resistance(
    bits: str, borders: BorderCondition, table: SegmentResistanceTable
) -> float:
    """Float path: same summation order contract, independent counting."""
    counts = segment_counts(bits, borders)
    g = 0.0
    for index, kind in enumerate(SegmentKind):
        if counts[index]:
            g += counts[index] / table.ohms(kind)
    return 1.0 / g


def rational_pattern_resistance(
    bits: str, borders: BorderCondition, table: SegmentResistanceTable
) -> Fraction:
    counts = segment_counts(bits, borders)
    flat: list[Fraction] = []
    for index, kind in enumerate(SegmentKind):
        flat.extend([table.exact(kind)] * counts[index])
    return rational_parallel_sum(flat)


def _canonical_key(counts: Sequence[int]) -> tuple:
    walls = sorted((counts[6], counts[7]))
    return tuple(counts[:6]) + tuple(counts[8:]) + (tuple(walls),)


class _Enumeration:
    """Every D-bit word once, in weight order and in value order within a
    weight, so each weight's patterns are one contiguous row range."""

    def __init__(self, domains: int, char: Characterization):
        self.domains = domains
        words = (format(value, f"0{domains}b") for value in range(2**domains))
        self.words = sorted(words, key=lambda bits: bits.count("1"))
        self.weights = [bits.count("1") for bits in self.words]
        self.starts = np.searchsorted(self.weights, np.arange(domains + 1))
        self.ohms = [char.table.ohms(kind) for kind in SegmentKind]
        area = char.geometry.domain_length * char.geometry.track_width
        self.current = char.drive.current_density * domains * area

    def counts(self, borders: BorderCondition) -> np.ndarray:
        """The 2^D x 10 count matrix, one ``segment_counts`` row per word;
        no count exceeds D, so int8 keeps the matrix small."""
        counts = np.empty((len(self.words), _N_KINDS), dtype=np.int8)
        for row, bits in enumerate(self.words):
            counts[row] = segment_counts(bits, borders)
        return counts

    def conductance(self, bank: np.ndarray) -> np.ndarray:
        g = np.zeros(len(bank))
        for index in range(_N_KINDS):
            # in float64 whatever the promotion rules; a zero count adds 0.0
            g = g + np.divide(bank[:, index], self.ohms[index], dtype=float)
        return g

    def margins(self, resistances: list[np.ndarray]) -> tuple[np.ndarray, ...]:
        """Per-weight extremes over every array, and the adjacent margins."""
        low = np.minimum.reduce([np.minimum.reduceat(r, self.starts) for r in resistances])
        high = np.maximum.reduce([np.maximum.reduceat(r, self.starts) for r in resistances])
        return low, high, self.current * low[1:] - self.current * high[:-1]

    def report(
        self,
        borders: BorderCondition | None,
        resistances: list[np.ndarray],
        classes: list[list[ClassEntry]] | None = None,
    ) -> MarginReport:
        low, high, margins = (values.tolist() for values in self.margins(resistances))
        sizes = np.diff(self.starts, append=len(self.words)).tolist()
        clusters = tuple(
            LevelCluster(
                weight=weight,
                pattern_count=sizes[weight],
                min_resistance=low[weight],
                max_resistance=high[weight],
                min_voltage=self.current * low[weight],
                max_voltage=self.current * high[weight],
                classes=tuple(classes[weight]) if classes else (),
            )
            for weight in range(self.domains + 1)
        )
        adjacent = tuple(
            AdjacentMargin(weight, weight + 1, high[weight], low[weight + 1], margin)
            for weight, margin in enumerate(margins)
        )
        best = min(adjacent, key=lambda entry: entry.margin)  # the first of equals
        return MarginReport(
            domains=self.domains,
            borders=borders,
            read_current=self.current,
            clusters=clusters,
            adjacent_margins=adjacent,
            min_margin=best.margin,
            min_margin_pair=(best.weight_low, best.weight_high),
            distinguishable_levels=1 + sum(1 for margin in margins if margin > 0.0),
        )


def _check_domains(domains: int) -> None:
    if domains > BRUTE_FORCE_LIMIT:
        raise DomainCountTooLarge(
            f"brute force stops at {BRUTE_FORCE_LIMIT} domains, got {domains}"
        )
    if domains < 1:
        raise ValueError(f"need at least 1 domain, got {domains}")


def brute_force_report(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """Raw 2^D enumeration assembled into the production report shape.

    A class is a (weight, canonical key) group; its representative is the
    group's first word in value order, which is its lex-smallest.
    """
    _check_domains(domains)
    patterns = _Enumeration(domains, char)
    counts = patterns.counts(borders)
    resistance = 1.0 / patterns.conductance(counts)
    groups: dict[tuple, list[int]] = {}  # key -> [first row, multiplicity]
    for row, weight in enumerate(patterns.weights):
        key = (weight,) + _canonical_key(counts[row].tolist())
        groups.setdefault(key, [row, 0])[1] += 1
    classes: list[list[ClassEntry]] = [[] for _ in range(domains + 1)]
    for (weight, *_), (row, multiplicity) in groups.items():
        value = float(resistance[row])
        classes[weight].append(
            ClassEntry(patterns.words[row], multiplicity, value, patterns.current * value)
        )
    for listing in classes:
        listing.sort(key=lambda entry: (entry.resistance, entry.representative))
    return patterns.report(borders, [resistance], classes)


def distinct_resistance_classes(
    domains: int, borders: BorderCondition, char: Characterization
) -> int:
    """Number of canonical equivalence classes seen by brute force."""
    report = brute_force_report(domains, borders, char)
    return sum(len(cluster.classes) for cluster in report.clusters)


def worst_case_brute_force(domains: int, char: Characterization) -> MarginReport:
    """Count-matrix counterpart of the worst-over-conventions report.

    Cluster extremes are taken over every pattern under every border
    condition; class listings stay empty, matching the production shape.
    """
    _check_domains(domains)
    patterns = _Enumeration(domains, char)
    resistances = [
        1.0 / patterns.conductance(patterns.counts(borders)) for borders in ALL_CONDITIONS
    ]
    return patterns.report(None, resistances)


def brute_force_offset_margins(
    domains: int,
    borders: BorderCondition,
    offsets: Sequence[float],
    left_neighbor: NeighborAssumption,
    right_neighbor: NeighborAssumption,
    char: Characterization,
) -> np.ndarray:
    """Raw 2^D counterpart of ``variation.min_margins_for_offsets``.

    Every pattern is recounted from its bit string, and every offset is
    evaluated over all patterns at once, in the documented float order: the
    bank minus the uncovered edge domain and half-wall summed in kind order,
    then the edge domain, the half-wall while still covered, the overhang.
    An offset that leaves an edge domain of some pattern no covered length
    raises OffsetOutOfRange. There is no domain guard here: callers bound the
    2^D cost (the CLI stops at BRUTE_FORCE_LIMIT).
    """
    patterns = _Enumeration(domains, char)
    ohms = patterns.ohms
    nominal = [char.geometry.nominal_length(kind) for kind in SegmentKind]
    counts = patterns.counts(borders)
    rows = np.arange(len(counts))

    def min_margin(resistances: list[np.ndarray]) -> float:
        return float(np.min(patterns.margins(resistances)[2]))

    offsets = np.asarray(offsets, dtype=float)
    out = np.empty(offsets.shape)
    zero = offsets == 0.0
    if zero.any():
        out[zero] = min_margin([1.0 / patterns.conductance(counts)])
    for left, neighbor, selected in (
        (True, right_neighbor, offsets > 0.0),
        (False, left_neighbor, offsets < 0.0),
    ):
        if not selected.any():
            continue
        edges = [_edge_structure(bits, borders, left) for bits in patterns.words]
        edge = np.array([domain for domain, _ in edges])
        half = np.array([_N_KINDS if kind is None else kind for _, kind in edges])
        adjusted = counts.copy()
        adjusted[rows, edge] -= 1
        has_half = half < _N_KINDS
        adjusted[rows[has_half], half[has_half]] -= 1
        g = patterns.conductance(adjusted)
        present = sorted(set(edge.tolist()))
        for j in np.flatnonzero(selected):
            magnitude = abs(float(offsets[j]))
            for index in present:
                if not nominal[index] - magnitude > 0.0:
                    raise OffsetOutOfRange(
                        f"offset {float(offsets[j]) * 1e9:.3f} nm leaves edge domain"
                        f" kind {index} no covered length"
                    )
            # partial conductance per kind at this coverage; a fully
            # uncovered half-wall, and the "no half-wall" slot, add 0.0
            partial = np.zeros(_N_KINDS + 1)
            for index, kind in enumerate(SegmentKind):
                covered = nominal[index] - magnitude
                if kind.is_domain or (kind.is_half_wall and covered > 0.0):
                    partial[index] = 1.0 / (ohms[index] * (nominal[index] / covered))
            base = (g + partial[edge]) + partial[half]
            out[j] = min_margin(
                [
                    1.0 / (base + 1.0 / (ohms[3 * bit] * (nominal[3 * bit] / magnitude)))
                    for bit in neighbor.bits  # overhang: full domain of that polarity
                ]
            )
    return out


@dataclass(frozen=True)
class SymmetryResult:
    passed: bool
    counterexample: tuple[str, str, str] | None  # (check, pattern, borders)
    checks_run: int


def _swapped_wall_exact(table: SegmentResistanceTable) -> dict[SegmentKind, Fraction]:
    values = {kind: table.exact(kind) for kind in SegmentKind}
    values[SegmentKind.WALL_01], values[SegmentKind.WALL_10] = (
        values[SegmentKind.WALL_10],
        values[SegmentKind.WALL_01],
    )
    return values


def _complemented_exact(table: SegmentResistanceTable) -> dict[SegmentKind, Fraction]:
    kinds = list(SegmentKind)
    values = {}
    # polarity pairs sit 3 apart in the domain block; walls and half-walls
    # swap within their own pairs
    for i in range(3):
        values[kinds[i]] = table.exact(kinds[i + 3])
        values[kinds[i + 3]] = table.exact(kinds[i])
    values[SegmentKind.WALL_01] = table.exact(SegmentKind.WALL_10)
    values[SegmentKind.WALL_10] = table.exact(SegmentKind.WALL_01)
    values[SegmentKind.HALF_WALL_MINUS] = table.exact(SegmentKind.HALF_WALL_PLUS)
    values[SegmentKind.HALF_WALL_PLUS] = table.exact(SegmentKind.HALF_WALL_MINUS)
    return values


def _rational_from_values(
    bits: str, borders: BorderCondition, values: dict[SegmentKind, Fraction]
) -> Fraction:
    counts = segment_counts(bits, borders)
    total = Fraction(0)
    for index, kind in enumerate(SegmentKind):
        if counts[index]:
            total += Fraction(counts[index]) / values[kind]
    return 1 / total


def symmetry_sweep(
    d_max: int,
    table: SegmentResistanceTable,
    *,
    skip_wall_reversal: bool = False,
) -> SymmetryResult:
    """Exhaustive mirror and complement checks in exact arithmetic.

    Mirror: reading the word right-to-left with swapped border sides matches
    the original, once the wall-direction entries are swapped with it (a
    reversed word crosses each wall the other way). ``skip_wall_reversal``
    deliberately omits that swap; with asymmetric wall values the sweep must
    then fail, which is how tests prove the checker has teeth.

    Complement: flipping every bit matches the original against the table
    with all polarity-paired entries exchanged.
    """
    plain = {kind: table.exact(kind) for kind in SegmentKind}
    mirrored = plain if skip_wall_reversal else _swapped_wall_exact(table)
    complemented = _complemented_exact(table)
    checks = 0
    for domains in range(1, d_max + 1):
        for value in range(2**domains):
            bits = format(value, f"0{domains}b")
            flipped = "".join("1" if c == "0" else "0" for c in bits)
            for borders in ALL_CONDITIONS:
                swapped_borders = BorderCondition(borders.right, borders.left)
                reference = _rational_from_values(bits, borders, plain)
                checks += 1
                if reference != _rational_from_values(
                    bits[::-1], swapped_borders, mirrored
                ):
                    return SymmetryResult(False, ("mirror", bits, str(borders)), checks)
                checks += 1
                if reference != _rational_from_values(flipped, borders, complemented):
                    return SymmetryResult(
                        False, ("complement", bits, str(borders)), checks
                    )
    return SymmetryResult(True, None, checks)
