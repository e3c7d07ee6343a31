"""Hamming-weight clustering and sense-margin analysis.

Patterns with the same count of 1s land in one resistance cluster; the gap
between adjacent clusters is what a sense amplifier must resolve. This module
finds clusters without touching all 2^D patterns, by two exact engines whose
cost is polynomial in D.

- The bit scan, ``_scan``, reads patterns left to right and keeps, per state
  (last bit, wall on its left, weight, left border), the pattern count and
  the banks whose exact conductance, an integer sum of exact units, can
  still end up a cluster extreme. Equal states extend equally, so pruning
  loses no extreme. Completing every state after each bit gives every
  window length in one pass, and both right borders in the same pass.
  ``cluster_extremes``, ``worst_case_levels`` (all four conditions in one
  scan) and the enumerated column of ``sweep_domains`` (every row in one
  scan) take this path.
- The run-structure walk, ``_walk``, enumerates maximal blocks of equal bits
  combinatorially. One fold over it, ``_fold``, under one border condition,
  lists the classes of ``enumerate_levels`` and groups the edge structures
  the misalignment engine of ``variation`` perturbs. Representatives (the
  lex-smallest pattern of each class) are built only for class listings.

Both engines check their population against C(D, w) with a raise, not an
assert, so the check also runs under ``python -O``.

Float contract: every resistance is produced by summing count/ohms over
segment kinds in enum order and inverting once; the scan uses exact
integers only to decide which banks to sum. The brute-force oracle
reimplements the same contract independently, which is what makes
field-for-field report equality a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter, truediv
from typing import Iterator, NamedTuple, Sequence

from .characterization import (
    DOMAIN,
    HALF_WALL,
    KINDS,
    WALL,
    Characterization,
    SegmentResistanceTable,
)
from .errors import DomainCountTooLarge, DomainCountTooSmall, ModelError, UsageError
from .network import (
    MAX_DOMAINS,
    BitPattern,
    Border,
    BorderCondition,
    Edge,
    bank_conductance,
    decompose,
)

# above this the sweep leaves the enumerated column blank; the closed form
# carries the scaling story alone
SWEEP_ENUMERATION_LIMIT = 20

_NON_WALLS = itemgetter(*(i for i in range(len(KINDS)) if i not in WALL))
_WALLS = itemgetter(*WALL)
# spare run length beyond two domains adds full-length (wall-free) domains
_MINUS_FULL = DOMAIN[0][0]
_PLUS_FULL = DOMAIN[1][0]

# (weight, edge domain kind index, half-wall kind index or None) -> the
# smallest and largest conductance of the bank left once those two segments
# lose their nominal coverage
_EdgeGroups = dict[tuple[int, int, int | None], list[float]]


@dataclass(frozen=True)
class ClassEntry:
    """One equivalence class: lex-smallest member, population, resistance."""

    representative: str
    multiplicity: int
    resistance: float
    voltage: float


@dataclass(frozen=True)
class LevelCluster:
    weight: int
    pattern_count: int
    min_resistance: float
    max_resistance: float
    min_voltage: float
    max_voltage: float
    classes: tuple[ClassEntry, ...]


@dataclass(frozen=True)
class AdjacentMargin:
    weight_low: int
    weight_high: int
    r_low_max: float
    r_high_min: float
    margin: float  # volts


@dataclass(frozen=True)
class MarginReport:
    """Full weight-cluster picture for one domain count.

    ``borders`` is None for the worst-case-over-conventions mode, where
    cluster extremes mix the four border conditions and class listings are
    not meaningful. Only ``enumerate_levels`` fills ``classes``; every other
    report leaves each cluster's listing empty.
    """

    domains: int
    borders: BorderCondition | None
    read_current: float
    clusters: tuple[LevelCluster, ...]
    adjacent_margins: tuple[AdjacentMargin, ...]
    min_margin: float
    min_margin_pair: tuple[int, int]
    distinguishable_levels: int

    @property
    def convention_label(self) -> str:
        return "worst" if self.borders is None else str(self.borders)


def _kind_ohms(table: SegmentResistanceTable) -> list[float]:
    """The table's resistances in kind order, to build once per report."""
    return [table.ohms(kind) for kind in KINDS]


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
                inner = [0] * len(KINDS)
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
) -> tuple[list[int], Edge, Edge]:
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


def _spared(counts: list[int], extra_zero: int, extra_one: int) -> tuple[int, ...]:
    """``counts`` plus a sub-class's spare length, as full-length domains."""
    bank = counts.copy()
    bank[_MINUS_FULL] += extra_zero
    bank[_PLUS_FULL] += extra_one
    return tuple(bank)


def _spare_conductances(
    counts: list[int], subclasses: list[tuple[int, int, int, int]], ohms: list[float]
) -> list[float]:
    """Summed conductance of each sub-class's bank, ``counts`` plus its spare
    length; a bank's resistance is the reciprocal.

    The sum runs term by term in kind order (the float contract). Only the
    two full-length domain counts differ between sub-classes, so the other
    eight terms are divided once.
    """
    # kind layout: minus full, mid, short, plus full, mid, short, two walls,
    # two half-walls
    _, t1, t2, _, t4, t5, t6, t7, t8, t9 = map(truediv, counts, ohms)
    minus, minus_ohms = counts[_MINUS_FULL], ohms[_MINUS_FULL]
    plus, plus_ohms = counts[_PLUS_FULL], ohms[_PLUS_FULL]
    return [
        (minus + extra_zero) / minus_ohms + t1 + t2 + (plus + extra_one) / plus_ohms
        + t4 + t5 + t6 + t7 + t8 + t9
        for _, _, extra_zero, extra_one in subclasses
    ]


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


def equivalence_key(bank: tuple[int, ...]) -> tuple:
    """Key grouping segment-count banks that are equal up to wall direction.

    The key is the non-wall counts in kind order plus the sorted wall-count
    pair. Sorting the pair folds the two transition directions together, so
    a word and its reversal share a class; their resistances agree exactly
    when the wall count is even and to within the small 01/10
    characterization split when it is odd.
    """
    return _NON_WALLS(bank) + (tuple(sorted(_WALLS(bank))),)


def _check_domain_count(domains: int) -> None:
    if domains < 1:
        raise DomainCountTooSmall(f"need at least 1 domain, got {domains}")
    if domains > MAX_DOMAINS:
        raise DomainCountTooLarge(f"domain count {domains} exceeds limit {MAX_DOMAINS}")


def _check_population(domains: int, by_weight_count: Sequence[int]) -> None:
    for weight, count in enumerate(by_weight_count):
        if count != math.comb(domains, weight):
            raise ModelError(
                f"{domains}-domain enumeration covers {count} patterns"
                f" of weight {weight}, expected {math.comb(domains, weight)}"
            )


# A bank packed into one integer: each kind's count in a _FIELD-bit field,
# kind order from the low bits up. No count reaches 2^_FIELD (a window has
# at most MAX_DOMAINS domains), so adding packed banks adds their counts.
_FIELD = 6
_FIELD_MASK = (1 << _FIELD) - 1


def _packed_conductance(bank: int, ohms: Sequence[float]) -> float:
    """A packed bank's summed conductance, count/ohms in kind order: the
    same float sum as ``network.bank_conductance``."""
    conductance = 0.0
    for r in ohms:
        conductance += (bank & _FIELD_MASK) / r
        bank >>= _FIELD
    return conductance


def _exact_units(ohms: Sequence[float], longest: int) -> tuple[list[int], int]:
    """Each kind's conductance as an exact integer, and the pruning band.

    A float resistance is exactly p/q, so its conductance is q/p; scaling
    every conductance by the lcm of the p makes it an integer, and a bank's
    exact conductance is then the integer sum of its counts times units.

    The float sum of a bank of at most 2D + 1 segments differs from its
    exact value by less than 16·(2D+2)/(min ohms)·2^-53: each of the ten
    quotients rounds once and each of nine additions rounds once. The band
    is twice that, in units, rounded up: a bank whose exact conductance lies
    further than the band below another's also has a smaller float sum, and
    one further above a larger one.
    """
    ratios = [r.as_integer_ratio() for r in ohms]
    scale = math.lcm(*(p for p, _ in ratios))
    units = [scale // p * q for p, q in ratios]
    p_min, q_min = min(ohms).as_integer_ratio()
    band = -(-2 * 16 * (2 * longest + 2) * q_min * scale // (p_min << 53))
    return units, band


# One scan state: patterns whose prefix ends in the same bit, with or without
# a wall on the left of that last domain, at the same weight and under the
# same left border. Equal states extend equally, so a state keeps only its
# prefix count and the packed banks that can still become an extreme:
# key (left border index, last bit, walled, weight) -> [patterns, banks near
# the largest exact conductance, banks near the smallest], each bank dict
# mapping a packed bank to its exact conductance in units.
_States = dict[tuple[int, int, int, int], list]


def _advance(states: _States, moves: list, band: int) -> _States:
    """Append one bit to every prefix and prune each new state to its band.

    ``moves[bit][walled][new]`` is the packed bank, and its exact value,
    that the new bit finalizes: the old last domain, whose wall count it now
    knows, and the wall between them, directed by the old bit.
    """
    grown: _States = {}
    for (left, bit, walled, weight), (patterns, high, low) in states.items():
        for new in (0, 1):
            step, value = moves[bit][walled][new]
            key = (left, new, int(bit != new), weight + new)
            entry = grown.get(key)
            if entry is None:
                entry = grown[key] = [0, {}, {}]
            entry[0] += patterns
            grown_high, grown_low = entry[1], entry[2]
            for bank, total in high.items():
                grown_high[bank + step] = total + value
            for bank, total in low.items():
                grown_low[bank + step] = total + value
    for entry in grown.values():
        entry[1], entry[2] = _near_extremes(entry[1], entry[2], band)
    return grown


def _near_extremes(
    high: dict[int, int], low: dict[int, int], band: int
) -> tuple[dict[int, int], dict[int, int]]:
    """The banks within ``band`` of the largest, and of the smallest, exact
    conductance."""
    if len(high) > 1:
        floor = max(high.values()) - band
        high = {bank: total for bank, total in high.items() if total >= floor}
    if len(low) > 1:
        ceiling = min(low.values()) + band
        low = {bank: total for bank, total in low.items() if total <= ceiling}
    return high, low


def _scan(
    lengths: range,
    lefts: Sequence[bool],
    rights: Sequence[bool],
    ohms: Sequence[float],
) -> list[tuple[list[int], list[float], list[float]]]:
    """Cluster extremes of every window length in ``lengths``, mixed over
    the given left and right borders, in one left-to-right bit scan.

    Returns, per length, the population by weight and each weight's
    smallest and largest bank conductance. After each bit the scan completes
    every state (its last domain and the right half-wall) under each right
    border; the kind-order float sums of the banks left within the band of
    the exact extremes decide the reported values, bit for bit. Every left
    border's population is checked against C(D, w).
    """
    units, band = _exact_units(ohms, lengths[-1])

    def bank(kinds: list[int]) -> tuple[int, int]:
        """One segment of each of ``kinds``: packed, and its exact value."""
        return sum(1 << (_FIELD * kind) for kind in kinds), sum(units[kind] for kind in kinds)

    # moves[bit][walled][new]: the last domain and the wall a new bit closes
    moves = [
        [
            [bank([DOMAIN[bit][walled + wall]] + [WALL[bit]] * wall)
             for wall in (bit != 0, bit != 1)]
            for walled in (0, 1)
        ]
        for bit in (0, 1)
    ]
    # ends[bit][walled]: the last domain and half-wall under each right border
    ends = [
        [
            [bank([DOMAIN[bit][walled + differ]] + [HALF_WALL[bit]] * differ)
             for differ in rights]
            for walled in (0, 1)
        ]
        for bit in (0, 1)
    ]
    states: _States = {}
    for left, differ in enumerate(lefts):
        for bit in (0, 1):
            first = bank([HALF_WALL[bit]] * differ)
            states[(left, bit, int(differ), bit)] = [1, dict([first]), dict([first])]
    results = []
    for domains in range(1, lengths[-1] + 1):
        if domains > 1:
            states = _advance(states, moves, band)
        if domains in lengths:
            results.append(_complete(domains, states, ends, len(lefts), band, ohms))
    return results


def _complete(
    domains: int, states: _States, ends: list, n_lefts: int, band: int, ohms: Sequence[float]
) -> tuple[list[int], list[float], list[float]]:
    """Close every ``domains``-bit prefix under each right border: population
    by weight and each weight's extreme float conductances."""
    population = [[0] * (domains + 1) for _ in range(n_lefts)]
    high: list[dict[int, int]] = [{} for _ in range(domains + 1)]
    low: list[dict[int, int]] = [{} for _ in range(domains + 1)]
    for (left, bit, walled, weight), (patterns, state_high, state_low) in states.items():
        population[left][weight] += patterns
        for step, value in ends[bit][walled]:
            for packed, total in state_high.items():
                high[weight][packed + step] = total + value
            for packed, total in state_low.items():
                low[weight][packed + step] = total + value
    for by_weight in population:
        _check_population(domains, by_weight)
    g_low, g_high = [], []
    for weight_high, weight_low in zip(high, low):
        weight_high, weight_low = _near_extremes(weight_high, weight_low, band)
        g_high.append(max(_packed_conductance(packed, ohms) for packed in weight_high))
        g_low.append(min(_packed_conductance(packed, ohms) for packed in weight_low))
    return population[0], g_low, g_high


def _fold(
    domains: int,
    borders: BorderCondition,
    char: Characterization,
    sides: Sequence[bool] = (),
    listed: bool = False,
) -> tuple[MarginReport, list[_EdgeGroups]]:
    """One pass over ``_walk`` under one border condition, behind the class
    listing of ``enumerate_levels`` and the misalignment engine.

    It sums and checks the population, keeps each weight's extreme
    conductances, and lists the classes when ``listed``. For each uncovered
    side in ``sides`` (``True`` for the left edge) it also groups the
    sub-classes by edge structure (``_EdgeGroups``).
    """
    _check_domain_count(domains)
    ohms = _kind_ohms(char.table)
    by_weight_count = [0] * (domains + 1)
    g_low = [math.inf] * (domains + 1)
    g_high = [0.0] * (domains + 1)
    # (weight, equivalence key) -> [multiplicity, representative, its conductance]
    folded: dict[tuple[int, tuple], list] = {}
    groups: list[_EdgeGroups] = [{} for _ in sides]
    for family in _walk(domains):
        subclasses = family.subclasses
        counts, left_edge, right_edge = _condition_counts(family, borders)
        gs = _spare_conductances(counts, subclasses, ohms)
        for (weight, mult, _, _), g in zip(subclasses, gs):
            by_weight_count[weight] += mult
            if g < g_low[weight]:
                g_low[weight] = g
            if g > g_high[weight]:
                g_high[weight] = g
        if listed:
            reps = _lexmin_patterns(family)
            for (weight, mult, extra_zero, extra_one), rep, g in zip(subclasses, reps, gs):
                key = (weight, equivalence_key(_spared(counts, extra_zero, extra_one)))
                entry = folded.get(key)
                if entry is None:
                    folded[key] = [mult, rep, g]
                else:
                    entry[0] += mult
                    if rep < entry[1]:
                        entry[1] = rep
                        entry[2] = g
        for side_groups, left in zip(groups, sides):
            edge, half = left_edge if left else right_edge
            adjusted = counts.copy()
            adjusted[edge] -= 1
            if half is not None:
                adjusted[half] -= 1
            remaining = _spare_conductances(adjusted, subclasses, ohms)
            for (weight, _, _, _), g in zip(subclasses, remaining):
                structure = (weight, edge, half)
                extremes = side_groups.get(structure)
                if extremes is None:
                    side_groups[structure] = [g, g]
                elif g < extremes[0]:
                    extremes[0] = g
                elif g > extremes[1]:
                    extremes[1] = g
    _check_population(domains, by_weight_count)

    current = char.drive.read_current(domains, char.geometry)
    classes_by_weight: list[list[ClassEntry]] = [[] for _ in range(domains + 1)]
    for (weight, _), (mult, rep, g) in folded.items():
        resistance = 1.0 / g
        classes_by_weight[weight].append(
            ClassEntry(rep, mult, resistance, current * resistance)
        )
    for entries in classes_by_weight:
        entries.sort(key=lambda c: (c.resistance, c.representative))
    report = _finish_report(
        domains,
        borders,
        current,
        _clusters(current, by_weight_count, g_low, g_high, classes_by_weight),
    )
    return report, groups


def enumerate_levels(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """Cluster every pattern of ``domains`` bits by weight under one border
    condition and report resistances, voltages, adjacent margins and the
    class listing.

    Class listings are grouped by the direction-folded equivalence key; the
    per-class resistance is that of the lex-smallest member. Cluster extremes
    are taken over the direction-sensitive banks, so they are true pattern
    extremes.
    """
    return _fold(domains, borders, char, listed=True)[0]


def _clusters(
    current: float,
    by_weight_count: Sequence[int],
    g_low: Sequence[float],
    g_high: Sequence[float],
    classes_by_weight: Sequence[Sequence[ClassEntry]],
) -> tuple[LevelCluster, ...]:
    """Clusters from per-weight extreme conductances.

    Rounded 1/g is monotone, so a cluster's extreme resistances are the
    reciprocals of its extreme conductances, bit for bit.
    """
    clusters = []
    for weight, count in enumerate(by_weight_count):
        low, high = 1.0 / g_high[weight], 1.0 / g_low[weight]
        clusters.append(
            LevelCluster(
                weight=weight,
                pattern_count=count,
                min_resistance=low,
                max_resistance=high,
                min_voltage=current * low,
                max_voltage=current * high,
                classes=tuple(classes_by_weight[weight]),
            )
        )
    return tuple(clusters)


def _scan_reports(
    lengths: range, borders: BorderCondition | None, char: Characterization
) -> list[MarginReport]:
    """The class-free report of every window length in ``lengths`` from one
    ``_scan``, under ``borders`` or mixed over all four conditions when it
    is None."""
    if not lengths:
        return []
    if borders is None:
        lefts = rights = (False, True)
    else:
        lefts = (borders.left is Border.DIFFER,)
        rights = (borders.right is Border.DIFFER,)
    extremes = _scan(lengths, lefts, rights, _kind_ohms(char.table))
    reports = []
    for domains, (by_weight_count, g_low, g_high) in zip(lengths, extremes):
        current = char.drive.read_current(domains, char.geometry)
        clusters = _clusters(current, by_weight_count, g_low, g_high, [()] * (domains + 1))
        reports.append(_finish_report(domains, borders, current, clusters))
    return reports


def cluster_extremes(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """``enumerate_levels`` without the class listing: the same cluster
    extremes and margins, with empty ``classes``.

    Reports that need only the margins (``margin``) take this path: one bit
    scan, which lists no class and builds no representative pattern. A
    misalignment study reads its nominal margin off the walk that groups
    its edge structures instead.
    """
    _check_domain_count(domains)
    return _scan_reports(range(domains, domains + 1), borders, char)[0]


def worst_case_levels(domains: int, char: Characterization) -> MarginReport:
    """Weight clusters with extremes mixed over all four border conditions.

    This is the convention behind the closed-form first-gap margin: each
    cluster's spread is widened to the worst any border assumption allows.
    Class listings are omitted (they are per-convention objects). One bit
    scan starts from both left borders and completes under both right
    borders, so it covers all four conditions.
    """
    _check_domain_count(domains)
    return _scan_reports(range(domains, domains + 1), None, char)[0]


def _finish_report(
    domains: int,
    borders: BorderCondition | None,
    current: float,
    clusters: tuple[LevelCluster, ...],
) -> MarginReport:
    margins = []
    for weight in range(domains):
        low = clusters[weight]
        high = clusters[weight + 1]
        margins.append(
            AdjacentMargin(
                weight_low=weight,
                weight_high=weight + 1,
                r_low_max=low.max_resistance,
                r_high_min=high.min_resistance,
                margin=high.min_voltage - low.max_voltage,
            )
        )
    best = margins[0]
    for entry in margins[1:]:
        if entry.margin < best.margin:  # ties keep the lower weight pair
            best = entry
    distinguishable = 1 + sum(1 for entry in margins if entry.margin > 0.0)
    return MarginReport(
        domains=domains,
        borders=borders,
        read_current=current,
        clusters=clusters,
        adjacent_margins=tuple(margins),
        min_margin=best.margin,
        min_margin_pair=(best.weight_low, best.weight_high),
        distinguishable_levels=distinguishable,
    )


def closed_form_resistances(
    domains: int, table: SegmentResistanceTable
) -> tuple[float, float]:
    """The two bank resistances behind the closed-form first-gap margin.

    Returns (minimum weight-1 resistance, maximum weight-0 resistance), each
    taken over the four border conditions: the bank of a lone 1 at the window
    edge next to a differing outside neighbor, and that of the all-0 word
    with both outside neighbors differing, each summed in kind order.
    On the default table these banks are the enumerated worst-case extremes
    of weights 1 and 0, bit for bit, for D <= 24; from D = 25, and on many
    other tables, the binding gap lies elsewhere (ROADMAP item 1).
    """
    if domains < 2:
        raise DomainCountTooSmall(
            f"closed form needs at least 2 domains, got {domains}"
        )
    _check_domain_count(domains)
    one = decompose(
        BitPattern((0,) * (domains - 1) + (1,)), BorderCondition(Border.SAME, Border.DIFFER)
    )
    zero = decompose(BitPattern((0,) * domains), BorderCondition(Border.DIFFER, Border.DIFFER))
    return 1.0 / bank_conductance(one.counts, table), 1.0 / bank_conductance(zero.counts, table)


def closed_form_min_margin(domains: int, char: Characterization) -> float:
    """Worst-case margin of the 0/1 weight gap, in volts.

    Evaluates as read current times the resistance gap between the two
    closed-form banks. For the default characterization and D <= 24 this is
    the minimum margin of the whole worst-case report; from D = 25 the
    binding gap moves to the middle weights and this value overstates it
    (ROADMAP item 1).
    """
    r_one, r_zero = closed_form_resistances(domains, char.table)
    current = char.drive.read_current(domains, char.geometry)
    return current * r_one - current * r_zero


@dataclass(frozen=True)
class SweepRow:
    domains: int
    closed_form_margin: float  # volts
    enumerated_margin: float | None  # volts; None above the enumeration limit


@dataclass(frozen=True)
class SweepReport:
    d_min: int
    d_max: int
    threshold: float  # volts
    borders: BorderCondition
    rows: tuple[SweepRow, ...]
    max_scalable_domains: int | None


def sweep_domains(
    d_min: int,
    d_max: int,
    threshold: float,
    borders: BorderCondition,
    char: Characterization,
) -> SweepReport:
    """Closed-form and enumerated minimum margins over a domain-count range.

    ``max_scalable_domains`` is the largest D whose closed-form margin still
    meets ``threshold`` (None if none does). The enumerated column uses the
    fixed ``borders`` convention and stops at SWEEP_ENUMERATION_LIMIT; one
    bit scan up to that limit fills every row of it.
    """
    if d_min < 2:
        raise DomainCountTooSmall(f"sweep starts at 2 domains, got {d_min}")
    if d_max > MAX_DOMAINS:
        raise DomainCountTooLarge(f"sweep end {d_max} exceeds limit {MAX_DOMAINS}")
    if d_min > d_max:
        raise UsageError(f"empty sweep range [{d_min}, {d_max}]")
    enumerated = {
        report.domains: report.min_margin
        for report in _scan_reports(
            range(d_min, min(d_max, SWEEP_ENUMERATION_LIMIT) + 1), borders, char
        )
    }
    rows = []
    best = None
    for domains in range(d_min, d_max + 1):
        closed = closed_form_min_margin(domains, char)
        rows.append(SweepRow(domains, closed, enumerated.get(domains)))
        if closed >= threshold:
            best = domains
    return SweepReport(
        d_min=d_min,
        d_max=d_max,
        threshold=threshold,
        borders=borders,
        rows=tuple(rows),
        max_scalable_domains=best,
    )
