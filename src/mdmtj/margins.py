"""Hamming-weight clustering and sense-margin analysis.

Patterns with the same count of 1s land in one resistance cluster; the gap
between adjacent clusters is what a sense amplifier must resolve. This module
enumerates clusters without touching all 2^D patterns: it walks run
structures (maximal blocks of equal bits) combinatorially, so the cost is
polynomial in D and the same report is exact for any D up to the pattern
limit.

The walk does not depend on the border condition: weight, multiplicity and
representative are shared, and each requested condition adds only its
end-run domains and half-walls, so ``worst_case_levels`` covers all four
conditions in one pass. One fold over the walk, ``_fold``, serves every
report and the misalignment engine of ``variation``: it checks the
population once, keeps the cluster extremes, and adds on request the class
listing or the edge-structure groups a stack offset perturbs.
Representatives (the lex-smallest pattern of each class) are built only for
class listings, in ``enumerate_levels``.

Float contract: every resistance is produced by summing count/ohms over
segment kinds in enum order and inverting once. The brute-force oracle
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
    ALL_CONDITIONS,
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


def _fold(
    domains: int,
    borders: BorderCondition | None,
    char: Characterization,
    sides: Sequence[bool] = (),
    listed: bool = False,
) -> tuple[MarginReport, list[_EdgeGroups]]:
    """The one pass over ``_walk`` behind every report and the misalignment
    engine.

    Covers the patterns of ``borders``, or of all four conditions when it is
    None. It sums and checks the population, keeps each weight's extreme
    conductances, and lists the classes when ``listed``. For each uncovered
    side in ``sides`` (``True`` for the left edge) it also groups the
    sub-classes by edge structure (``_EdgeGroups``). ``listed`` and
    ``sides`` need one condition.
    """
    _check_domain_count(domains)
    conditions = ALL_CONDITIONS if borders is None else (borders,)
    ohms = _kind_ohms(char.table)
    by_weight_count = [0] * (domains + 1)
    g_low = [math.inf] * (domains + 1)
    g_high = [0.0] * (domains + 1)
    # (weight, equivalence key) -> [multiplicity, representative, its conductance]
    folded: dict[tuple[int, tuple], list] = {}
    groups: list[_EdgeGroups] = [{} for _ in sides]
    for family in _walk(domains):
        subclasses = family.subclasses
        for weight, mult, _, _ in subclasses:
            by_weight_count[weight] += mult
        for condition in conditions:
            counts, left_edge, right_edge = _condition_counts(family, condition)
            gs = _spare_conductances(counts, subclasses, ohms)
            for (weight, _, _, _), g in zip(subclasses, gs):
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


def cluster_extremes(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """``enumerate_levels`` without the class listing: the same cluster
    extremes and margins, with empty ``classes``.

    Reports that need only the margins (``margin`` and the enumerated column
    of a sweep) take this path, which builds no representative pattern. A
    misalignment study reads its nominal margin off the same fold that
    groups its edge structures.
    """
    return _fold(domains, borders, char)[0]


def worst_case_levels(domains: int, char: Characterization) -> MarginReport:
    """Weight clusters with extremes mixed over all four border conditions.

    This is the convention behind the closed-form first-gap margin: each
    cluster's spread is widened to the worst any border assumption allows.
    Class listings are omitted (they are per-convention objects). One walk
    serves all four conditions.
    """
    return _fold(domains, None, char)[0]


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
    fixed ``borders`` convention and stops at SWEEP_ENUMERATION_LIMIT.
    """
    if d_min < 2:
        raise DomainCountTooSmall(f"sweep starts at 2 domains, got {d_min}")
    if d_max > MAX_DOMAINS:
        raise DomainCountTooLarge(f"sweep end {d_max} exceeds limit {MAX_DOMAINS}")
    if d_min > d_max:
        raise UsageError(f"empty sweep range [{d_min}, {d_max}]")
    rows = []
    best = None
    for domains in range(d_min, d_max + 1):
        closed = closed_form_min_margin(domains, char)
        enumerated = None
        if domains <= SWEEP_ENUMERATION_LIMIT:
            enumerated = cluster_extremes(domains, borders, char).min_margin
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
