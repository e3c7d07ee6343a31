"""Hamming-weight clustering and sense-margin analysis.

Patterns with the same count of 1s land in one resistance cluster; the gap
between adjacent clusters is what a sense amplifier must resolve. This module
enumerates clusters without touching all 2^D patterns: it walks run
structures (maximal blocks of equal bits) combinatorially, so the cost is
polynomial in D and the same report is exact for any D up to the pattern
limit.

Float contract: every resistance is produced by summing count/ohms over
segment kinds in enum order and inverting once. The brute-force oracle
reimplements the same contract independently, which is what makes
field-for-field report equality a meaningful check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .characterization import (
    Characterization,
    Polarity,
    SegmentKind,
    SegmentResistanceTable,
    domain_kind,
    half_wall_kind,
)
from .errors import ClustersOverlap, DomainCountTooLarge, DomainCountTooSmall, ModelError
from .network import ALL_CONDITIONS, Border, BorderCondition, MAX_DOMAINS

# above this the sweep leaves the enumerated column blank; the closed form
# carries the scaling story alone
SWEEP_ENUMERATION_LIMIT = 20

_KINDS = tuple(SegmentKind)
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}
_DOMAIN_AT = {
    (bit, walls): _KIND_INDEX[domain_kind(Polarity.from_bit(bit), walls)]
    for bit in (0, 1)
    for walls in (0, 1, 2)
}
_NON_WALLS = itemgetter(*(i for i, kind in enumerate(_KINDS) if not kind.is_wall))
_WALLS = itemgetter(*(i for i, kind in enumerate(_KINDS) if kind.is_wall))
_WALL_01 = _KIND_INDEX[SegmentKind.WALL_01]
_WALL_10 = _KIND_INDEX[SegmentKind.WALL_10]
_HALF_AT = {
    0: _KIND_INDEX[half_wall_kind(Polarity.MINUS_Z)],
    1: _KIND_INDEX[half_wall_kind(Polarity.PLUS_Z)],
}


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
    not meaningful.
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
    return [table.ohms(kind) for kind in _KINDS]


def _conductance(bank: Sequence[int], ohms: Sequence[float]) -> float:
    """Summed conductance of a segment-count bank, in kind order (the float
    contract); the bank's resistance is its reciprocal."""
    g = 0.0
    for count, r in zip(bank, ohms):
        if count:
            g += count / r
    return g


class _RunCategory(NamedTuple):
    """Interchangeable runs: same polarity and same left/right structures.

    ``left``/``right`` say whether a wall or half-wall eats into that end of
    each run in the category; ``positions`` are 1-based run indices.
    """

    pol: int
    left: int
    right: int
    positions: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.positions)


def _categories(
    s: int, runs: int, borders: BorderCondition
) -> tuple[_RunCategory, ...]:
    lb = 1 if borders.left is Border.DIFFER else 0
    rb = 1 if borders.right is Border.DIFFER else 0
    if runs == 1:
        return (_RunCategory(s, lb, rb, (1,)),)
    last_pol = s if runs % 2 else 1 - s
    cats = [
        _RunCategory(s, lb, 1, (1,)),
        _RunCategory(last_pol, 1, rb, (runs,)),
    ]
    same = tuple(i for i in range(2, runs) if i % 2 == 1)
    other = tuple(i for i in range(2, runs) if i % 2 == 0)
    if same:
        cats.append(_RunCategory(s, 1, 1, same))
    if other:
        cats.append(_RunCategory(1 - s, 1, 1, other))
    return tuple(cats)


def _stars(extra: int, bins: int) -> int:
    if bins == 0:
        return 1 if extra == 0 else 0
    return math.comb(extra + bins - 1, bins - 1)


def _lexmin_pattern(
    s: int,
    runs: int,
    cats: tuple[_RunCategory, ...],
    m_combo: tuple[int, ...],
    extra_zero: int,
    extra_one: int,
) -> str:
    """Lex-smallest pattern in the sub-class.

    Greedy by position: 0-runs grab length as early as possible (shorts go to
    the latest 0-runs, all spare 0-length to the earliest long 0-run), 1-runs
    shed length as early as possible (shorts first, spare 1-length deferred
    to the last long 1-run).
    """
    lengths: dict[int, int] = {}
    long_zero: list[int] = []
    long_one: list[int] = []
    for cat, m in zip(cats, m_combo):
        if cat.pol == 1:
            shorts = set(cat.positions[:m])
        else:
            shorts = set(cat.positions[cat.n - m :])
        for pos in cat.positions:
            if pos in shorts:
                lengths[pos] = 1
            else:
                lengths[pos] = 2
                (long_one if cat.pol else long_zero).append(pos)
    if extra_zero:
        lengths[min(long_zero)] += extra_zero
    if extra_one:
        lengths[max(long_one)] += extra_one
    parts = []
    for i in range(1, runs + 1):
        bit = "1" if (s if i % 2 else 1 - s) else "0"
        parts.append(bit * lengths[i])
    return "".join(parts)


# An edge structure: the kind index of the window's end domain, and of the
# half-wall on that border (None when the outside neighbor is the same bit).
_Edge = tuple[int, int | None]


def _subclasses(
    domains: int, borders: BorderCondition
) -> Iterator[tuple[tuple[int, ...], int, int, str, _Edge, _Edge]]:
    """Yield (bank, weight, multiplicity, lexmin representative, left edge,
    right edge) tuples.

    A sub-class fixes the first-run polarity, the run count, and which run
    categories hold the length-1 runs; leftover length distributes freely
    over the longer runs (stars and bars), which changes the pattern but not
    the bank. The first and last runs each form a category of their own, so
    every pattern of a sub-class shares its edge structures too.
    """
    lb = 1 if borders.left is Border.DIFFER else 0
    rb = 1 if borders.right is Border.DIFFER else 0
    for s in (0, 1):
        for runs in range(1, domains + 1):
            cats = _categories(s, runs, borders)
            last_pol = s if runs % 2 else 1 - s
            first = cats[0]
            last_at = 0 if runs == 1 else 1
            last = cats[last_at]
            left_half = _HALF_AT[s] if lb else None
            right_half = _HALF_AT[last_pol] if rb else None
            t = runs - 1
            n01 = (t + 1) // 2 if s == 0 else t // 2
            n10 = t - n01
            for m_combo in product(*(range(c.n + 1) for c in cats)):
                # a length-1 end run has walls on both sides of its domain;
                # a longer one only on its outer side
                walls = first.left + first.right if m_combo[0] else first.left
                left_edge = (_DOMAIN_AT[first.pol, walls], left_half)
                walls = last.left + last.right if m_combo[last_at] else last.right
                right_edge = (_DOMAIN_AT[last.pol, walls], right_half)
                base_mult = 1
                m_pol = [0, 0]
                f_pol = [0, 0]
                for cat, m in zip(cats, m_combo):
                    base_mult *= math.comb(cat.n, m)
                    m_pol[cat.pol] += m
                    f_pol[cat.pol] += cat.n - m
                lo_one = m_pol[1] + 2 * f_pol[1]
                lo_zero = m_pol[0] + 2 * f_pol[0]
                if lo_one + lo_zero > domains:
                    continue
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
                    counts = [0] * len(_KINDS)
                    counts[_WALL_01] = n01
                    counts[_WALL_10] = n10
                    if lb:
                        counts[_HALF_AT[s]] += 1
                    if rb:
                        counts[_HALF_AT[last_pol]] += 1
                    for cat, m in zip(cats, m_combo):
                        f = cat.n - m
                        counts[_DOMAIN_AT[cat.pol, cat.left + cat.right]] += m
                        if f:
                            counts[_DOMAIN_AT[cat.pol, cat.left]] += f
                            counts[_DOMAIN_AT[cat.pol, cat.right]] += f
                    counts[_DOMAIN_AT[0, 0]] += extra_zero
                    counts[_DOMAIN_AT[1, 0]] += extra_one
                    rep = _lexmin_pattern(s, runs, cats, m_combo, extra_zero, extra_one)
                    yield tuple(counts), weight, mult, rep, left_edge, right_edge


def _merged_banks(
    domains: int, borders: BorderCondition
) -> dict[tuple[int, ...], list]:
    """bank -> [weight, multiplicity, lexmin representative]."""
    banks: dict[tuple[int, ...], list] = {}
    for bank, weight, mult, rep, _, _ in _subclasses(domains, borders):
        entry = banks.get(bank)
        if entry is None:
            banks[bank] = [weight, mult, rep]
        else:
            entry[1] += mult
            if rep < entry[2]:
                entry[2] = rep
    return banks


def equivalence_key(bank: tuple[int, ...]) -> tuple:
    """Key grouping segment-count banks that are equal up to wall direction.

    The key is the non-wall counts in kind order plus the sorted wall-count
    pair. Sorting the pair folds the two transition directions together, so
    a word and its reversal share a class; their resistances agree exactly
    when the wall count is even and to within the small 01/10
    characterization split when it is odd.
    """
    return _NON_WALLS(bank) + (tuple(sorted(_WALLS(bank))),)


def _check_domain_count(domains: int, limit: int = MAX_DOMAINS) -> None:
    if domains < 1:
        raise DomainCountTooSmall(f"need at least 1 domain, got {domains}")
    if domains > limit:
        raise DomainCountTooLarge(f"domain count {domains} exceeds limit {limit}")


def enumerate_levels(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """Cluster every pattern of ``domains`` bits by weight under one border
    condition and report resistances, voltages, and adjacent margins.

    Class listings are grouped by the direction-folded equivalence key; the
    per-class resistance is that of the lex-smallest member. Cluster extremes
    are taken over the direction-sensitive banks, so they are true pattern
    extremes.
    """
    _check_domain_count(domains)
    banks = _merged_banks(domains, borders)
    ohms = _kind_ohms(char.table)
    current = char.drive.read_current(domains, char.geometry)

    res_by_bank = {bank: 1.0 / _conductance(bank, ohms) for bank in banks}
    by_weight_res: list[list[float]] = [[] for _ in range(domains + 1)]
    by_weight_count = [0] * (domains + 1)
    folded: dict[tuple[int, tuple], list] = {}
    for bank, (weight, mult, rep) in banks.items():
        by_weight_res[weight].append(res_by_bank[bank])
        by_weight_count[weight] += mult
        key = (weight, equivalence_key(bank))
        entry = folded.get(key)
        if entry is None:
            folded[key] = [mult, rep, bank]
        else:
            entry[0] += mult
            if rep < entry[1]:
                entry[1] = rep
                entry[2] = bank

    classes_by_weight: list[list[ClassEntry]] = [[] for _ in range(domains + 1)]
    for (weight, _), (mult, rep, rep_bank) in folded.items():
        resistance = res_by_bank[rep_bank]
        classes_by_weight[weight].append(
            ClassEntry(rep, mult, resistance, current * resistance)
        )

    clusters = []
    for weight in range(domains + 1):
        if by_weight_count[weight] != math.comb(domains, weight):
            raise ModelError(
                f"{domains}-domain enumeration covers {by_weight_count[weight]} patterns"
                f" of weight {weight}, expected {math.comb(domains, weight)}"
            )
        values = by_weight_res[weight]
        low, high = min(values), max(values)
        entries = tuple(
            sorted(classes_by_weight[weight], key=lambda c: (c.resistance, c.representative))
        )
        clusters.append(
            LevelCluster(
                weight=weight,
                pattern_count=by_weight_count[weight],
                min_resistance=low,
                max_resistance=high,
                min_voltage=current * low,
                max_voltage=current * high,
                classes=entries,
            )
        )
    return _finish_report(domains, borders, current, tuple(clusters))


def worst_case_levels(domains: int, char: Characterization) -> MarginReport:
    """Weight clusters with extremes mixed over all four border conditions.

    This is the convention behind the closed-form first-gap margin: each
    cluster's spread is widened to the worst any border assumption allows.
    Class listings are omitted (they are per-convention objects).
    """
    _check_domain_count(domains)
    ohms = _kind_ohms(char.table)
    current = char.drive.read_current(domains, char.geometry)
    by_weight: list[list[float]] = [[] for _ in range(domains + 1)]
    for borders in ALL_CONDITIONS:
        for bank, (weight, _, _) in _merged_banks(domains, borders).items():
            by_weight[weight].append(1.0 / _conductance(bank, ohms))

    clusters = []
    for weight in range(domains + 1):
        values = by_weight[weight]
        low, high = min(values), max(values)
        clusters.append(
            LevelCluster(
                weight=weight,
                pattern_count=math.comb(domains, weight),
                min_resistance=low,
                max_resistance=high,
                min_voltage=current * low,
                max_voltage=current * high,
                classes=(),
            )
        )
    return _finish_report(domains, None, current, tuple(clusters))


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
    taken over the four border conditions: a lone 1 at the window edge next
    to a differing outside neighbor, and the all-0 word with both outside
    neighbors differing. Term order matches the canonical bank summation so
    the values are bit-identical to the enumerated extremes.
    """
    if domains < 2:
        raise DomainCountTooSmall(
            f"closed form needs at least 2 domains, got {domains}"
        )
    o = table.ohms
    g_one = (
        (domains - 2) / o(SegmentKind.DOMAIN_MINUS_FULL)
        + 1 / o(SegmentKind.DOMAIN_MINUS_MID)
        + 1 / o(SegmentKind.DOMAIN_PLUS_SHORT)
        + 1 / o(SegmentKind.WALL_01)
        + 1 / o(SegmentKind.HALF_WALL_PLUS)
    )
    g_zero = (
        (domains - 2) / o(SegmentKind.DOMAIN_MINUS_FULL)
        + 2 / o(SegmentKind.DOMAIN_MINUS_MID)
        + 2 / o(SegmentKind.HALF_WALL_MINUS)
    )
    return 1.0 / g_one, 1.0 / g_zero


def closed_form_min_margin(domains: int, char: Characterization) -> float:
    """Worst-case margin of the 0/1 weight gap, in volts.

    Evaluates as read current times the resistance gap between the two
    closed-form banks; for the default characterization this is the minimum
    margin of the whole worst-case report.
    """
    r_one, r_zero = closed_form_resistances(domains, char.table)
    current = char.drive.read_current(domains, char.geometry)
    return current * r_one - current * r_zero


def reference_ladder(report: MarginReport) -> tuple[float, ...]:
    """Midpoint threshold per adjacent gap, for sense-amplifier references.

    Requires all clusters strictly separated; thresholds come out strictly
    increasing.
    """
    for entry in report.adjacent_margins:
        if entry.margin <= 0.0:
            raise ClustersOverlap(
                f"weight {entry.weight_low} and {entry.weight_high} clusters"
                f" overlap (margin {entry.margin * 1e3:.4f} mV)"
            )
    return tuple(
        (report.clusters[w].max_voltage + report.clusters[w + 1].min_voltage) / 2
        for w in range(report.domains)
    )


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
    fixed ``borders`` convention and stops at SWEEP_ENUMERATION_LIMIT.
    """
    if d_min < 2:
        raise DomainCountTooSmall(f"sweep starts at 2 domains, got {d_min}")
    if d_max > MAX_DOMAINS:
        raise DomainCountTooLarge(f"sweep end {d_max} exceeds limit {MAX_DOMAINS}")
    if d_min > d_max:
        raise ValueError(f"empty sweep range [{d_min}, {d_max}]")
    rows = []
    best = None
    for domains in range(d_min, d_max + 1):
        closed = closed_form_min_margin(domains, char)
        enumerated = None
        if domains <= SWEEP_ENUMERATION_LIMIT:
            enumerated = enumerate_levels(domains, borders, char).min_margin
        rows.append(SweepRow(domains, closed, enumerated))
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
