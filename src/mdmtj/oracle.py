"""Slow, independent reference paths used to check the production model.

Everything here recomputes from scratch: segment counting works directly on
the bit string, parallel sums are redone in exact rational arithmetic, and
every brute-force report comes from one raw 2^D enumeration: all D-bit words
in weight order, one ``segment_counts`` row per word and border condition,
each row's conductance summed in kind order, and per-weight extremes over the
row range of each weight. No run structure or equivalence class shortens that
enumeration; the class listing of ``brute_force_report`` only groups its
rows. ``BRUTE_FORCE_LIMIT`` is its one bound: every brute-force path refuses
above it. Above it the reference is the run-structure walk
(``walk_reference``), which derives every bank combinatorially from the
runs of equal bits; the production bit scan reads bits instead.

The misalignment coverage model is stated here apart from the engine in
``variation``: ``apply_misalignment`` and ``perturbed_resistance`` for one
pattern, ``brute_force_offset_margins`` for all 2^D, on the same
partial-coverage term and refusal texts.

The report, closed-form and sweep references are plain Python. numpy is
imported only inside the offset and sample references and their checks
(``brute_force_offset_margins``, ``reference_sample_offsets``,
``check_offset_margins``, ``check_sample_stream``), which evaluate arrays of
offsets, so an ``--oracle`` run of any other subcommand never loads it.

The ``check_*`` functions are the hidden ``--oracle`` flag: each takes one
production result, recomputes its reference here and raises OracleMismatch
on any disagreement. They call the references as module globals, so a name
rebound on this module (a tracer's wrapper, a test's stub) is the one run.

The only things shared with the production modules are data (the
characterization, the kind layout, the neighbor assumption), the report
record types, the domain-count policy and the nm formatter of refusal
texts, never composition code. The float reference paths follow the same
documented summation order (segment kinds in enum order), because that
order is part of the report contract.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .characterization import (
    DOMAIN,
    HALF_WALL,
    WALL,
    Characterization,
    DeviceGeometry,
    SegmentKind,
    SegmentResistanceTable,
    _meters_as_nm_text,
    _Record,
    check_domain_count,
)
from .errors import DomainCountTooLarge, EmptyNetwork, OffsetOutOfRange, OracleMismatch
from .margins import AdjacentMargin, ClassEntry, LevelCluster, MarginReport, SweepReport
from .network import ALL_CONDITIONS, BitPattern, Border, BorderCondition

if TYPE_CHECKING:
    import numpy as np

    from .variation import MisalignmentSpec, MonteCarloReport, MonteCarloSpec
    from .variation import NeighborAssumption, OffsetReport

BRUTE_FORCE_LIMIT = 12


def check_limit(domains: int) -> None:
    """Refuse a window the analyses refuse (``check_domain_count``), then one
    longer than BRUTE_FORCE_LIMIT in the words of the ``--oracle`` flag:
    every ``check_*`` of a domain count calls it first, so the CLI never
    shows the library text of ``_Enumeration``."""
    check_domain_count(domains)
    if domains > BRUTE_FORCE_LIMIT:
        raise DomainCountTooLarge(f"--oracle cross-checks stop at {BRUTE_FORCE_LIMIT} domains")


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
    outside neighbor holds the same bit) on one side of the window. The end
    domain's walls are its border's and the one toward its inside neighbor,
    which for a one-domain window is the far border."""
    end, inside = (0, 1) if left else (-1, -2)
    here, far = (borders.left, borders.right) if left else (borders.right, borders.left)
    differ = here is Border.DIFFER
    walls = differ + (bits[inside] != bits[end] if len(bits) > 1 else far is Border.DIFFER)
    half = 8 + (bits[end] == "1") if differ else None
    return (3 if bits[end] == "1" else 0) + walls, half


def reference_resistance(
    bits: str, borders: BorderCondition, table: SegmentResistanceTable
) -> float:
    """Float path: same summation order contract, independent counting."""
    ohms = [table.ohms(kind) for kind in SegmentKind]
    return 1.0 / _kind_order_conductance(segment_counts(bits, borders), ohms)


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
    weight, so each weight's patterns are one contiguous row range:
    ``starts[w]`` to ``starts[w + 1]``.

    A row is a word's ``segment_counts``, its conductance summed in kind
    order (the production contract) and its resistance, in plain Python."""

    def __init__(self, domains: int, char: Characterization):
        check_domain_count(domains)
        if domains > BRUTE_FORCE_LIMIT:
            raise DomainCountTooLarge(
                f"brute-force enumeration stops at {BRUTE_FORCE_LIMIT} domains, got {domains}"
            )
        self.domains = domains
        words = (format(value, f"0{domains}b") for value in range(2**domains))
        self.words = sorted(words, key=lambda bits: bits.count("1"))
        self.weights = [bits.count("1") for bits in self.words]
        # the last start, of the weight past D, is the row count
        self.starts = [bisect_left(self.weights, weight) for weight in range(domains + 2)]
        self.ohms = [char.table.ohms(kind) for kind in SegmentKind]
        self.current = _read_current(domains, char)

    def counts(self, borders: BorderCondition) -> list[bytes]:
        """One ``segment_counts`` row per word; no count exceeds D, so bytes
        keep the rows small."""
        return [bytes(segment_counts(bits, borders)) for bits in self.words]

    def resistances(self, borders: BorderCondition) -> list[float]:
        """Every word's resistance under ``borders``, in row order."""
        return [1.0 / g for g in self.conductance(self.counts(borders))]

    def conductance(self, bank: Iterable[Sequence[int]]) -> list[float]:
        """Each row's conductance: ``g = 0.0``, then ``g += count / ohms`` in
        kind order, a zero count adding 0.0."""
        return [_kind_order_conductance(row, self.ohms) for row in bank]

    def extremes(self, resistances: list[list[float]]) -> tuple[list[float], list[float]]:
        """Per-weight smallest and largest resistance over every list."""
        bounds = list(zip(self.starts, self.starts[1:]))
        low = [min(min(r[a:b]) for r in resistances) for a, b in bounds]
        high = [max(max(r[a:b]) for r in resistances) for a, b in bounds]
        return low, high

    def report(
        self,
        borders: BorderCondition | None,
        resistances: list[list[float]],
        classes: list[list[ClassEntry]] | None = None,
    ) -> MarginReport:
        low, high = self.extremes(resistances)
        sizes = [b - a for a, b in zip(self.starts, self.starts[1:])]
        return _report(self.domains, borders, self.current, sizes, low, high, classes)


def _read_current(domains: int, char: Characterization) -> float:
    area = char.geometry.domain_length * char.geometry.track_width
    return char.drive.current_density * domains * area


def _report(
    domains: int,
    borders: BorderCondition | None,
    current: float,
    sizes: Sequence[int],
    low: Sequence[float],
    high: Sequence[float],
    classes: list[list[ClassEntry]] | None,
) -> MarginReport:
    """The production report shape from per-weight pattern counts and
    extreme resistances."""
    clusters = tuple(
        LevelCluster(
            weight, sizes[weight], low[weight], high[weight], current * low[weight],
            current * high[weight], tuple(classes[weight]) if classes else (),
        )
        for weight in range(domains + 1)
    )
    adjacent = tuple(
        AdjacentMargin(
            weight, weight + 1, high[weight], low[weight + 1],
            current * low[weight + 1] - current * high[weight],
        )
        for weight in range(domains)
    )
    best = min(adjacent, key=lambda entry: entry.margin)  # the first of equals
    return MarginReport(
        domains=domains,
        borders=borders,
        read_current=current,
        clusters=clusters,
        adjacent_margins=adjacent,
        min_margin=best.margin,
        min_margin_pair=(best.weight_low, best.weight_high),
        distinguishable_levels=1 + sum(1 for entry in adjacent if entry.margin > 0.0),
    )


def brute_force_report(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """Raw 2^D enumeration assembled into the production report shape.

    A class is a (weight, canonical key) group; its representative is the
    group's first word in value order, which is its lex-smallest.
    """
    patterns = _Enumeration(domains, char)
    counts = patterns.counts(borders)
    resistance = [1.0 / g for g in patterns.conductance(counts)]
    groups: dict[tuple, list[int]] = {}  # key -> [first row, multiplicity]
    for row, weight in enumerate(patterns.weights):
        key = (weight,) + _canonical_key(counts[row])
        groups.setdefault(key, [row, 0])[1] += 1
    classes: list[list[ClassEntry]] = [[] for _ in range(domains + 1)]
    for (weight, *_), (row, multiplicity) in groups.items():
        value = resistance[row]
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
    patterns = _Enumeration(domains, char)
    return patterns.report(None, [patterns.resistances(borders) for borders in ALL_CONDITIONS])


# --- the run-structure walk ----------------------------------------------------
#
# The reference for every window up to MAX_DOMAINS. It derives banks from
# maximal blocks of equal bits (runs), combinatorially, instead of reading
# bits: nothing is shared with the production bit scan but the data. Every
# sub-class bank is summed in plain kind order.


class _RunCategory(NamedTuple):
    """Interchangeable runs: same polarity and the same neighbors.

    ``positions`` are 1-based run indices. ``n`` is their count, stored
    because the walk reads it in its innermost loops.
    """

    pol: int
    positions: tuple[int, ...]
    n: int


def _categories(s: int, runs: int) -> tuple[_RunCategory, ...]:
    """The first run, the last run, then the interior runs by polarity.

    Interior runs have a wall on both sides under every border condition;
    only the first and last runs meet a border.
    """
    if runs == 1:
        return (_RunCategory(s, (1,), 1),)
    last_pol = s if runs % 2 else 1 - s
    cats = [_RunCategory(s, (1,), 1), _RunCategory(last_pol, (runs,), 1)]
    same = tuple(i for i in range(2, runs) if i % 2 == 1)
    other = tuple(i for i in range(2, runs) if i % 2 == 0)
    if same:
        cats.append(_RunCategory(s, same, len(same)))
    if other:
        cats.append(_RunCategory(1 - s, other, len(other)))
    return tuple(cats)


def _stars(extra: int, bins: int) -> int:
    if bins == 0:
        return 1 if extra == 0 else 0
    return math.comb(extra + bins - 1, bins - 1)


class _Family(NamedTuple):
    """Sub-classes that share first-run polarity, run count and which run
    categories hold the length-1 runs.

    A sub-class then fixes the weight: how the spare length (beyond 2 per
    longer run) splits between 0-runs and 1-runs. Spare length changes the
    pattern but not the bank, so within a sub-class it distributes freely
    (stars and bars). Weight, multiplicity and the lex-min representative are
    the same under every border condition; ``_condition_counts`` adds what is
    not.
    """

    first_pol: int
    runs: int
    cats: tuple[_RunCategory, ...]
    shorts: tuple[int, ...]  # length-1 runs per category
    inner: list[int]  # walls and interior-run domains, before spare length
    # (weight, multiplicity, spare 0-length, spare 1-length) per sub-class
    subclasses: list[tuple[int, int, int, int]]


def _walk(domains: int) -> Iterator[_Family]:
    """Every sub-class of ``domains``-bit patterns, border condition aside."""
    for s in (0, 1):
        for runs in range(1, domains + 1):
            cats = _categories(s, runs)
            t = runs - 1
            n01 = (t + 1) // 2 if s == 0 else t // 2
            for shorts in product(*(range(c.n + 1) for c in cats)):
                if 2 * runs - sum(shorts) > domains:
                    continue  # the runs alone need more than ``domains`` bits
                base_mult = 1
                m_pol = [0, 0]
                f_pol = [0, 0]
                for cat, m in zip(cats, shorts):
                    base_mult *= math.comb(cat.n, m)
                    m_pol[cat.pol] += m
                    f_pol[cat.pol] += cat.n - m
                lo_one = m_pol[1] + 2 * f_pol[1]
                lo_zero = m_pol[0] + 2 * f_pol[0]
                subclasses = []
                for weight in range(lo_one, domains - lo_zero + 1):
                    extra_one = weight - lo_one
                    extra_zero = (domains - weight) - lo_zero
                    if f_pol[1] == 0 and extra_one:
                        break  # larger weights only add more spare 1-length
                    if f_pol[0] == 0 and extra_zero:
                        continue
                    mult = (
                        base_mult
                        * _stars(extra_zero, f_pol[0])
                        * _stars(extra_one, f_pol[1])
                    )
                    subclasses.append((weight, mult, extra_zero, extra_one))
                if not subclasses:
                    continue
                inner = [0] * _N_KINDS
                inner[WALL[0]] = n01
                inner[WALL[1]] = t - n01
                for cat, m in zip(cats[2:], shorts[2:]):
                    inner[DOMAIN[cat.pol][2]] += m
                    inner[DOMAIN[cat.pol][1]] += 2 * (cat.n - m)
                yield _Family(s, runs, cats, shorts, inner, subclasses)


def _end_run(
    counts: list[int], pol: int, left: int, right: int, short: int
) -> tuple[int, int]:
    """Count one end run's edge domains; return the kinds at its two ends."""
    if short:
        kind = DOMAIN[pol][left + right]
        counts[kind] += 1
        return kind, kind
    left_kind = DOMAIN[pol][left]
    right_kind = DOMAIN[pol][right]
    counts[left_kind] += 1
    counts[right_kind] += 1
    return left_kind, right_kind


def _condition_counts(
    family: _Family, borders: BorderCondition
) -> tuple[list[int], tuple[int, int | None], tuple[int, int | None]]:
    """The family's bank under one border condition, before spare length,
    and its left and right edge structures.

    Adds to the shared inner counts what the borders decide: the end runs'
    domain kinds and the half-walls.
    """
    lb = 1 if borders.left is Border.DIFFER else 0
    rb = 1 if borders.right is Border.DIFFER else 0
    s = family.first_pol
    last_pol = s if family.runs % 2 else 1 - s
    counts = family.inner.copy()
    if family.runs == 1:
        left, right = _end_run(counts, s, lb, rb, family.shorts[0])
    else:
        left, _ = _end_run(counts, s, lb, 1, family.shorts[0])
        _, right = _end_run(counts, last_pol, 1, rb, family.shorts[1])
    left_half = right_half = None
    if lb:
        left_half = HALF_WALL[s]
        counts[left_half] += 1
    if rb:
        right_half = HALF_WALL[last_pol]
        counts[right_half] += 1
    return counts, (left, left_half), (right, right_half)


def _spared(counts: list[int], extra_zero: int, extra_one: int) -> list[int]:
    """``counts`` plus a sub-class's spare length, as full-length domains."""
    bank = counts.copy()
    bank[DOMAIN[0][0]] += extra_zero
    bank[DOMAIN[1][0]] += extra_one
    return bank


def _lexmin_patterns(family: _Family) -> list[str]:
    """Lex-smallest pattern of each of the family's sub-classes, in order.

    Greedy by position: 0-runs grab length as early as possible (shorts go to
    the latest 0-runs, all spare 0-length to the earliest long 0-run), 1-runs
    shed length as early as possible (shorts first, spare 1-length deferred
    to the last long 1-run).
    """
    s = family.first_pol
    lengths = [2] * family.runs
    for cat, m in zip(family.cats, family.shorts):
        for pos in cat.positions[:m] if cat.pol else cat.positions[cat.n - m :]:
            lengths[pos - 1] = 1
    bits = ["1" if (s if i % 2 == 0 else 1 - s) else "0" for i in range(family.runs)]
    runs = [bit * length for bit, length in zip(bits, lengths)]
    longs = [i for i, length in enumerate(lengths) if length == 2]
    zero_at = next((i for i in longs if bits[i] == "0"), None)
    one_at = next((i for i in reversed(longs) if bits[i] == "1"), None)
    patterns = []
    for _, _, extra_zero, extra_one in family.subclasses:
        pieces = runs.copy()
        if extra_zero:
            pieces[zero_at] += "0" * extra_zero
        if extra_one:
            pieces[one_at] += "1" * extra_one
        patterns.append("".join(pieces))
    return patterns


def _less_edge(bank: Sequence[int], edge: int, half: int | None) -> list[int]:
    """``bank`` less one edge domain of kind ``edge`` and, unless None, one
    half-wall of kind ``half``."""
    adjusted = list(bank)
    adjusted[edge] -= 1
    if half is not None:
        adjusted[half] -= 1
    return adjusted


def _kind_order_conductance(bank: Sequence[int], ohms: Sequence[float]) -> float:
    g = 0.0
    for count, r in zip(bank, ohms):
        g += count / r
    return g


def walk_reference(
    domains: int, borders: BorderCondition, char: Characterization
) -> tuple[MarginReport, list[dict[tuple[int, int, int | None], tuple[float, float]]]]:
    """The run-structure counterpart of ``margins.enumerate_levels`` and of
    the edge groups of the misalignment engine, at any window length; its
    cost is polynomial in D.

    Returns the report with its class listing, and the left then the right
    edge groups: (weight, edge domain kind, half-wall kind or None) -> the
    smallest and largest conductance of the bank less those two segments.
    A class is a (weight, canonical key) group of sub-classes; its
    representative is the lex-smallest of their representatives.
    """
    ohms = [char.table.ohms(kind) for kind in SegmentKind]
    current = _read_current(domains, char)
    sizes = [0] * (domains + 1)
    low = [math.inf] * (domains + 1)
    high = [0.0] * (domains + 1)
    folded: dict[tuple, list] = {}  # (weight, key) -> [multiplicity, representative, resistance]
    groups: list[dict] = [{}, {}]
    for family in _walk(domains):
        counts, *edges = _condition_counts(family, borders)
        reps = _lexmin_patterns(family)
        for (weight, mult, extra_zero, extra_one), rep in zip(family.subclasses, reps):
            bank = _spared(counts, extra_zero, extra_one)
            resistance = 1.0 / _kind_order_conductance(bank, ohms)
            sizes[weight] += mult
            low[weight] = min(low[weight], resistance)
            high[weight] = max(high[weight], resistance)
            key = (weight, _canonical_key(bank))
            entry = folded.setdefault(key, [0, rep, resistance])
            entry[0] += mult
            if rep < entry[1]:
                entry[1:] = rep, resistance
            for side_groups, (edge, half) in zip(groups, edges):
                g = _kind_order_conductance(_less_edge(bank, edge, half), ohms)
                g_low, g_high = side_groups.get((weight, edge, half), (g, g))
                side_groups[(weight, edge, half)] = (min(g_low, g), max(g_high, g))
    classes: list[list[ClassEntry]] = [[] for _ in range(domains + 1)]
    for (weight, _), (mult, rep, resistance) in folded.items():
        classes[weight].append(ClassEntry(rep, mult, resistance, current * resistance))
    for listing in classes:
        listing.sort(key=lambda entry: (entry.resistance, entry.representative))
    return _report(domains, borders, current, sizes, low, high, classes), groups


# --- misalignment ---------------------------------------------------------------


def _partial_conductance(ohms: float, nominal: float, covered: float) -> float:
    """A segment of ``ohms`` over ``nominal`` meters, ``covered`` of them
    under the stack."""
    return 1.0 / (ohms * (nominal / covered))


def _check_notch(offset: float, geometry: DeviceGeometry) -> None:
    # written so that NaN fails the test too
    if not (abs(offset) <= geometry.notch_length):
        raise OffsetOutOfRange(
            f"offset {_meters_as_nm_text(offset)} nm exceeds one notch length"
            f" ({_meters_as_nm_text(geometry.notch_length)} nm); the coverage model"
            " is not valid beyond that"
        )


def _uncovered_edge(magnitude: float, nominal: float) -> OffsetOutOfRange:
    return OffsetOutOfRange(
        f"an offset of {_meters_as_nm_text(magnitude)} nm uncovers the whole"
        f" {_meters_as_nm_text(nominal)} nm edge domain; the coverage model is not"
        " valid beyond that"
    )


class PerturbedDecomposition(_Record):
    """The nominal bank less the uncovered edge domain and half-wall, which
    reappear in ``partials`` as (kind index, covered meters): the edge
    domain, the half-wall while still covered, then the overhang. Zero
    offset leaves the bank whole and ``partials`` empty."""

    __slots__ = _fields = ("counts", "partials")


def apply_misalignment(
    pattern: str | BitPattern,
    borders: BorderCondition,
    spec: MisalignmentSpec,
    geometry: DeviceGeometry,
) -> PerturbedDecomposition:
    """Shift the stack by ``spec.offset`` over one pattern: a positive offset
    uncovers the left edge and overhangs the right neighbor, a negative one
    mirrors that. Refuses as the engine does; a worst-case neighbor raises
    ValueError, since only a report resolves it."""
    bits = str(BitPattern.parse(pattern) if isinstance(pattern, str) else pattern)
    _check_notch(spec.offset, geometry)
    counts = segment_counts(bits, borders)
    if spec.offset == 0.0:
        return PerturbedDecomposition(tuple(counts), ())
    left = spec.offset > 0
    neighbor = spec.right_neighbor if left else spec.left_neighbor
    if len(neighbor.bits) != 1:
        raise ValueError("worst-case neighbors resolve at the report level; pass 0 or 1 here")
    magnitude = abs(spec.offset)
    nominal = [geometry.nominal_length(kind) for kind in SegmentKind]
    edge, half = _edge_structure(bits, borders, left)
    if not nominal[edge] - magnitude > 0.0:
        raise _uncovered_edge(magnitude, nominal[edge])
    counts[edge] -= 1
    partials = [(edge, nominal[edge] - magnitude)]
    if half is not None:
        counts[half] -= 1
        if nominal[half] - magnitude > 0.0:
            partials.append((half, nominal[half] - magnitude))
    partials.append((3 * neighbor.bits[0], magnitude))  # a full domain of that bit
    return PerturbedDecomposition(tuple(counts), tuple(partials))


def perturbed_resistance(
    perturbed: PerturbedDecomposition, table: SegmentResistanceTable, geometry: DeviceGeometry
) -> float:
    """The counts in kind order, then the partials in their listed order."""
    ohms = [table.ohms(kind) for kind in SegmentKind]
    nominal = [geometry.nominal_length(kind) for kind in SegmentKind]
    g = _kind_order_conductance(perturbed.counts, ohms)
    for index, covered in perturbed.partials:
        g += _partial_conductance(ohms[index], nominal[index], covered)
    return 1.0 / g


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
    Like the other brute-force paths, it refuses above BRUTE_FORCE_LIMIT.
    Then it refuses as the engine does, in ``apply_misalignment``'s words:
    the first NaN offset, else the largest magnitude, beyond one notch
    length; then, side by side, a side whose largest magnitude leaves the
    shortest edge domain of some pattern no covered length.
    """
    import numpy as np

    patterns = _Enumeration(domains, char)
    ohms = patterns.ohms
    nominal = [char.geometry.nominal_length(kind) for kind in SegmentKind]
    counts = patterns.counts(borders)
    starts = patterns.starts[:-1]
    current = patterns.current

    def min_margin(resistances: list[np.ndarray]) -> float:
        """The smallest adjacent margin of the per-weight extremes."""
        low = np.minimum.reduce([np.minimum.reduceat(r, starts) for r in resistances])
        high = np.maximum.reduce([np.maximum.reduceat(r, starts) for r in resistances])
        return float(np.min(current * low[1:] - current * high[:-1]))

    offsets = np.asarray(offsets, dtype=float)
    listed = offsets.reshape(-1).tolist()
    worst = next((x for x in listed if x != x), max(listed, key=abs, default=0.0))
    _check_notch(worst, char.geometry)
    out = np.empty(offsets.shape)
    zero = offsets == 0.0
    if zero.any():
        out[zero] = min_margin([1.0 / np.array(patterns.conductance(counts))])
    for left, neighbor, selected in (
        (True, right_neighbor, offsets > 0.0),
        (False, left_neighbor, offsets < 0.0),
    ):
        if not selected.any():
            continue
        edges = [_edge_structure(bits, borders, left) for bits in patterns.words]
        edge = np.array([domain for domain, _ in edges])
        half = np.array([_N_KINDS if kind is None else kind for _, kind in edges])
        g = np.array(patterns.conductance(
            _less_edge(row, *structure) for row, structure in zip(counts, edges)
        ))
        largest = float(np.max(np.abs(offsets[selected])))
        shortest = min(nominal[index] for index in set(edge.tolist()))
        if not shortest - largest > 0.0:
            raise _uncovered_edge(largest, shortest)
        for j in np.flatnonzero(selected):
            magnitude = abs(float(offsets[j]))
            # partial conductance per domain kind (0..5) and half-wall at
            # this coverage; a fully uncovered half-wall, and the "no
            # half-wall" slot, add 0.0
            partial = np.zeros(_N_KINDS + 1)
            for index in range(_N_KINDS):
                covered = nominal[index] - magnitude
                if index < 6 or (index >= 8 and covered > 0.0):
                    partial[index] = _partial_conductance(ohms[index], nominal[index], covered)
            base = (g + partial[edge]) + partial[half]
            out[j] = min_margin(
                [
                    1.0 / (base + _partial_conductance(ohms[3 * bit], nominal[3 * bit], magnitude))
                    for bit in neighbor.bits  # overhang: full domain of that polarity
                ]
            )
    return out


def reference_sample_offsets(
    spec: MonteCarloSpec, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Per-sample counterpart of ``variation.sample_offsets``.

    Each index builds numpy's own ``SeedSequence((seed, index))``, ``PCG64``
    and ``Generator``, and redraws until the normal lies within the
    truncation; nothing is shared between samples.
    """
    import numpy as np

    if stop is None:
        stop = spec.samples
    offsets = []
    for index in range(start, stop):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, index))))
        z = rng.standard_normal()
        while abs(z) > spec.truncation:
            z = rng.standard_normal()
        offsets.append(z * spec.sigma)
    return np.array(offsets, dtype=float)


# --- the --oracle cross-checks ---------------------------------------------------


def check_pattern(
    pattern: str, borders: BorderCondition, ohms: float, char: Characterization,
    volts: float | None = None,
) -> None:
    """A pattern's float resistance ``ohms``, and its sense voltage ``volts``
    when given, against exact rationals, to a relative 1e-9."""
    exact = float(rational_pattern_resistance(pattern, borders, char.table))
    want_volts = _read_current(len(pattern), char) * exact
    for label, got, want in (("float path", ohms, exact), ("sense voltage", volts, want_volts)):
        rel = 0.0 if got is None else abs(got - want) / want
        if rel > 1e-9:
            raise OracleMismatch(
                f"pattern {pattern}: {label} {got!r} vs rational"
                f" {want!r} (relative error {rel:.3e})"
            )


def check_report(report: MarginReport, char: Characterization) -> None:
    """A margin report, field for field: the worst report against
    ``worst_case_brute_force``, any other against ``brute_force_report``,
    without its class listing when the report lists none."""
    check_limit(report.domains)
    if report.borders is None:
        ref = worst_case_brute_force(report.domains, char)
    else:
        ref = brute_force_report(report.domains, report.borders, char)
        if not report.clusters[0].classes:  # a cluster_extremes report lists none
            ref = ref.replace(clusters=tuple(c.replace(classes=()) for c in ref.clusters))
    if ref != report:
        raise OracleMismatch(
            f"{report.domains}-domain report ({report.convention_label}) disagrees"
            " with the brute-force reference"
        )


def _match_closed_form(domains: int, volts: float, worst: float) -> None:
    if worst != volts:
        raise OracleMismatch(
            f"closed-form margin {volts!r} V differs from the brute-force"
            f" worst-case margin {worst!r} V at {domains} domains"
        )


def check_closed_form(domains: int, volts: float, char: Characterization) -> None:
    """The closed-form margin ``volts`` against the brute-force worst case."""
    check_limit(domains)
    _match_closed_form(domains, volts, worst_case_brute_force(domains, char).min_margin)


def check_sweep(report: SweepReport, char: Characterization) -> None:
    """Every row of a sweep, both margins, then its answer: the largest D
    whose brute-force worst-case margin meets the threshold. Each row counts
    its words once per border condition: the sweep's own condition gives the
    enumerated margin, all four the worst case. The whole range is refused
    before the first row when it ends above BRUTE_FORCE_LIMIT."""
    check_limit(report.d_max)
    best = None
    for row in report.rows:
        patterns = _Enumeration(row.domains, char)
        resistances = {borders: patterns.resistances(borders) for borders in ALL_CONDITIONS}
        enumerated = patterns.report(report.borders, [resistances[report.borders]])
        if enumerated.min_margin != row.enumerated_margin:
            raise OracleMismatch(
                f"enumerated margin at {row.domains} domains disagrees"
                " with the brute-force reference"
            )
        worst = patterns.report(None, list(resistances.values())).min_margin
        _match_closed_form(row.domains, row.closed_form_margin, worst)
        if worst >= report.threshold:
            best = row.domains
    if best != report.max_scalable_domains:
        raise OracleMismatch(
            f"max scalable domains {report.max_scalable_domains} differs from the"
            f" brute-force worst case: {best}"
        )


def check_offset_margins(
    report: OffsetReport | MonteCarloReport, char: Characterization
) -> None:
    """A misalignment report's margins, bit for bit, from one
    ``brute_force_offset_margins`` call that also covers the nominal margin:
    a fixed-offset report's at +offset and -offset, a Monte Carlo report's
    at every sample, once ``check_sample_stream`` has passed its offsets."""
    import numpy as np

    check_limit(report.domains)
    if hasattr(report, "spec"):  # a Monte Carlo report
        check_sample_stream(report.spec, report.offsets)
        offsets, margins = report.offsets, report.margins
    else:
        offsets, margins = (report.offset, -report.offset), report.sign_min_margins
    offsets = np.concatenate(([0.0], offsets))
    got = np.concatenate(([report.nominal_min_margin], margins))
    ref = brute_force_offset_margins(
        report.domains, report.borders, offsets, report.left_neighbor,
        report.right_neighbor, char,
    )
    wrong = np.flatnonzero(got != ref)
    if wrong.size:
        index = int(wrong[0])
        raise OracleMismatch(
            f"margin {float(got[index])!r} V at offset {offsets[index] * 1e9:.6f} nm"
            f" disagrees with the brute-force reference {float(ref[index])!r} V at"
            f" {report.domains} domains"
        )


def check_sample_stream(spec: MonteCarloSpec, offsets: np.ndarray) -> None:
    """Sampled offsets against ``reference_sample_offsets``, bit for bit."""
    import numpy as np

    ref = reference_sample_offsets(spec)
    # bits, not values: 0.0 and -0.0 differ, a NaN matches itself
    wrong = np.flatnonzero(offsets.view(np.uint64) != ref.view(np.uint64))
    if wrong.size:
        index = int(wrong[0])
        raise OracleMismatch(
            f"sample {index} offset {float(offsets[index])!r} m differs from the"
            f" per-sample reference {float(ref[index])!r} m (seed {spec.seed})"
        )


class SymmetryResult(_Record):
    """Outcome of ``symmetry_sweep``: ``counterexample`` is the first failed
    (check, pattern, borders), or None when every check passed."""

    __slots__ = _fields = ("passed", "counterexample", "checks_run")


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
