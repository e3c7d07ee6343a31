"""Hamming-weight clustering and sense-margin analysis.

Patterns with the same count of 1s land in one resistance cluster; the gap
between adjacent clusters is what a sense amplifier must resolve. This module
finds clusters without touching all 2^D patterns, by one exact engine whose
cost is polynomial in D: a bit scan that reads patterns left to right. A
state is the prefixes that end in the same bit, with or without a wall on
the left of that last domain; equal states extend equally. Banks are packed
into one integer each. The scan runs in two modes:

- Extremes, ``_scan``. A state also fixes the weight and the left border,
  and keeps its pattern count and the banks whose exact conductance, an
  integer sum of exact units, can still end up an extreme. Completing every
  state after each bit gives every window length in one pass, and both
  right borders in the same pass. ``cluster_extremes``,
  ``worst_case_levels`` (all four conditions in one scan) and the
  enumerated column of ``sweep_domains`` (every row in one scan) take this
  path. So does the misalignment engine of ``variation``: its groups of
  one side's edge structures are the states of one scan before their last
  domain is closed (``_side_scan``).
- Listing, ``_list_banks``. Under one border condition, a state also fixes
  the bank of its prefix, so nothing is pruned; it keeps its pattern count
  and its lex-smallest prefix. The last bit is appended and the window
  closed in one pass over the states of D - 1 bits, straight into the
  banks. Those states are visited in ascending order of their lex-smallest
  prefix A, and A·0 comes before A·1; A < B implies A·1 < B·0, so the words
  come in ascending order and each bank is first reached by its
  lex-smallest word. ``enumerate_levels`` folds the banks into its classes
  in packed form: weight, class key and conductance each come from integer
  fields and per-kind tables, with no bank unpacked.

Both modes check their population against C(D, w) with a raise, not an
assert, so the check also runs under ``python -O``. ``oracle`` keeps the
run-structure walk as the reference for every window up to MAX_DOMAINS.

Float contract: every resistance is produced by summing count/ohms over
segment kinds in enum order and inverting once; the scan uses exact
integers only to decide which banks to sum. The brute-force oracle
reimplements the same contract independently, which is what makes
field-for-field report equality a meaningful check.
"""

from __future__ import annotations

import math
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
    check_domain_count,
)
from .errors import ModelError, UsageError
from .network import (
    BitPattern,
    Border,
    BorderCondition,
    bank_conductance,
    decompose,
)

# above this the sweep leaves the enumerated column blank; the closed form
# carries the scaling story alone
SWEEP_ENUMERATION_LIMIT = 20

# (weight, edge domain kind index, half-wall kind index or None) -> the
# smallest and largest conductance of the bank left once those two segments
# lose their nominal coverage
_EdgeGroups = dict[tuple[int, int, int | None], tuple[float, float]]


class ClassEntry(_Record):
    """One equivalence class: lex-smallest member, population, resistance
    (ohms) and voltage (volts)."""

    __slots__ = _fields = ("representative", "multiplicity", "resistance", "voltage")


class LevelCluster(_Record):
    """The patterns of one Hamming weight: their count, resistance range
    (ohms), voltage range (volts) and class listing."""

    __slots__ = _fields = (
        "weight", "pattern_count", "min_resistance", "max_resistance", "min_voltage",
        "max_voltage", "classes",
    )


class AdjacentMargin(_Record):
    """The gap between two adjacent weights: the lower cluster's largest and
    the higher cluster's smallest resistance (ohms), and ``margin`` in volts."""

    __slots__ = _fields = ("weight_low", "weight_high", "r_low_max", "r_high_min", "margin")


class MarginReport(_Record):
    """Full weight-cluster picture for one domain count.

    ``borders`` is None for the worst-case-over-conventions mode, where
    cluster extremes mix the four border conditions and class listings are
    not meaningful. Only ``enumerate_levels`` fills ``classes``; every other
    report leaves each cluster's listing empty.
    """

    __slots__ = _fields = (
        "domains", "borders", "read_current", "clusters", "adjacent_margins", "min_margin",
        "min_margin_pair", "distinguishable_levels",
    )

    @property
    def convention_label(self) -> str:
        return "worst" if self.borders is None else str(self.borders)


def _kind_ohms(table: SegmentResistanceTable) -> list[float]:
    """The table's resistances in kind order, to build once per report."""
    return [table.ohms(kind) for kind in KINDS]


def _check_population(domains: int, by_weight_count: Sequence[int]) -> None:
    for weight, count in enumerate(by_weight_count):
        if count != math.comb(domains, weight):
            raise ModelError(
                f"{domains}-domain enumeration covers {count} patterns"
                f" of weight {weight}, expected {math.comb(domains, weight)}"
            )


# A bank packed into one integer: each kind's count in a _FIELD-bit field,
# kind order from the low bits up. No count exceeds MAX_DOMAINS (a window
# holds at most that many domains, fewer walls and two half-walls), so none
# reaches 2^_FIELD and adding packed banks adds their counts.
_FIELD = MAX_DOMAINS.bit_length()
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


def _packed(kinds: Sequence[int]) -> int:
    """One segment of each of ``kinds``, packed."""
    return sum(1 << (_FIELD * kind) for kind in kinds)


def _segments(walls: Sequence[int], rights: Sequence[bool]) -> tuple[list, list]:
    """The kind indices of the segments each scan step finalizes.

    ``moves[bit][walled][new]``: appending ``new`` to a prefix that ends in
    ``bit`` closes that last domain, whose wall count it now knows, and
    crosses the wall between them, directed by the old bit (``walls[bit]``).
    ``ends[bit][walled][right]``: closing the window closes the last domain
    and adds its half-wall, under each right border of ``rights``.
    """
    moves = [
        [
            [[DOMAIN[bit][walled + wall]] + [walls[bit]] * wall for wall in (bit != 0, bit != 1)]
            for walled in (0, 1)
        ]
        for bit in (0, 1)
    ]
    ends = [
        [
            [[DOMAIN[bit][walled + differ]] + [HALF_WALL[bit]] * differ for differ in rights]
            for walled in (0, 1)
        ]
        for bit in (0, 1)
    ]
    return moves, ends


# One state of the extremes mode: patterns whose prefix ends in the same
# bit, with or without a wall on the left of that last domain, at the same
# weight and under the same left border. Equal states extend equally, so a
# state keeps only its prefix count and the packed banks that can still
# become an extreme: key (left border index, last bit, walled, weight) ->
# [patterns, banks near the largest exact conductance, banks near the
# smallest], each bank dict mapping a packed bank to its exact conductance
# in units.
_States = dict[tuple[int, int, int, int], list]


def _advance(states: _States, moves: list, band: int) -> _States:
    """Append one bit to every prefix and prune each new state to its band.

    ``moves[bit][walled][new]`` is the packed bank, and its exact value,
    that the new bit finalizes (``_segments``).
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
    walls: Sequence[int] = WALL,
) -> tuple[list[tuple[list[int], list[float], list[float]]], _States]:
    """Cluster extremes of every window length in ``lengths``, mixed over
    the given left and right borders, in one left-to-right bit scan.

    Returns, per length, the population by weight and each weight's
    smallest and largest bank conductance; then the states of the longest
    length, before completion. After each bit the scan completes every state
    (its last domain and the right half-wall) under each right border; the
    kind-order float sums of the banks left within the band of the exact
    extremes decide the reported values, bit for bit. Every left border's
    population is checked against C(D, w). ``walls`` directs the walls; its
    reverse scans mirror images.
    """
    units, band = _exact_units(ohms, lengths[-1])

    def bank(kinds: list[int]) -> tuple[int, int]:
        """One segment of each of ``kinds``: packed, and its exact value."""
        return _packed(kinds), sum(units[kind] for kind in kinds)

    moves, ends = (
        [[[bank(kinds) for kinds in steps] for steps in by_walled] for by_walled in by_bit]
        for by_bit in _segments(walls, rights)
    )
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
    return results, states


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


def _side_scan(
    domains: int, borders: BorderCondition, char: Characterization, left: bool
) -> tuple[MarginReport, _EdgeGroups]:
    """One scan under ``borders``: the class-free report, and the groups of
    the left (``left``) or right edge structures.

    A right edge structure is a state's last domain and half-wall, so each
    state before completion is one group, and its banks are the banks the
    misalignment engine perturbs; its band keeps their extremes exact. The
    left side's groups are the right side's of the mirror image: the word
    read right to left has the same bank, with the borders swapped and each
    wall crossed the other way.
    """
    differ = [borders.left is Border.DIFFER, borders.right is Border.DIFFER]
    walls = WALL
    if left:
        differ.reverse()
        walls = WALL[::-1]
    ohms = _kind_ohms(char.table)
    [extremes], states = _scan(range(domains, domains + 1), differ[:1], differ[1:], ohms, walls)
    right = differ[1]
    groups: _EdgeGroups = {}
    for (_, bit, walled, weight), (_, high, low) in states.items():
        structure = (weight, DOMAIN[bit][walled + right], HALF_WALL[bit] if right else None)
        groups[structure] = (
            min(_packed_conductance(bank, ohms) for bank in low),
            max(_packed_conductance(bank, ohms) for bank in high),
        )
    return _report(domains, borders, char, *extremes), groups


def _list_banks(domains: int, borders: BorderCondition) -> dict[int, list[int]]:
    """Every bank of ``domains`` bits under ``borders``: packed bank ->
    [patterns, the lex-smallest pattern as an integer], in ascending order
    of that pattern. The listing mode of the scan.

    A state key is the packed bank of a prefix's finalized segments shifted
    up two bits, with the last bit and the walled flag in those two bits, so
    one integer addition moves a state. The states that merge into one all
    end in the same new bit, so when the old states are visited in ascending
    order of their lex-smallest prefix, the new states are created in that
    order too and the first prefix to reach a state is its smallest (at
    equal length, integer order is lex order). The last bit is appended and
    the window closed in one pass over the states of D - 1 bits, straight
    into the banks: each state's smallest prefix A gives A·0, then A·1, and
    A < B implies A·1 < B·0, so the words come in ascending order as well.
    """
    differ = borders.left is Border.DIFFER
    moves, ends = _segments(WALL, (borders.right is Border.DIFFER,))
    # the (last bit, walled) pair in a key's low two bits, by their value
    lasts = [(bit, walled) for bit in (0, 1) for walled in (0, 1)]
    # steps[bit << 1 | walled][new]: what appending ``new`` adds to a key
    steps = [
        [
            (_packed(moves[bit][walled][new]) << 2) + (new << 1 | (bit != new))
            - (bit << 1 | walled)
            for new in (0, 1)
        ]
        for bit, walled in lasts
    ]
    # closing[bit << 1 | walled]: what closing the window adds to a key's bank
    closing = [_packed(ends[bit][walled][0]) for bit, walled in lasts]
    counts = {_packed([HALF_WALL[bit]] * differ) << 2 | bit << 1 | differ: 1 for bit in (0, 1)}
    firsts = [0, 1]
    if domains == 1:
        return {
            (key >> 2) + closing[key & 3]: [patterns, first]
            for (key, patterns), first in zip(counts.items(), firsts)
        }
    for _ in range(domains - 2):
        grown: dict[int, int] = {}
        grown_firsts = []
        # both new bits spelled out: a loop over them costs about 30 % more
        for (key, patterns), first in zip(counts.items(), firsts):
            zero, one = steps[key & 3]
            total = grown.get(key + zero)
            if total is None:
                grown[key + zero] = patterns
                grown_firsts.append(first << 1)
            else:
                grown[key + zero] = total + patterns
            total = grown.get(key + one)
            if total is None:
                grown[key + one] = patterns
                grown_firsts.append(first << 1 | 1)
            else:
                grown[key + one] = total + patterns
        counts, firsts = grown, grown_firsts
    # finals[bit << 1 | walled][new]: what appending ``new`` and closing the
    # window adds to a key's bank
    finals = [
        [_packed(moves[bit][walled][new]) + closing[new << 1 | (bit != new)] for new in (0, 1)]
        for bit, walled in lasts
    ]
    banks: dict[int, list[int]] = {}
    for (key, patterns), first in zip(counts.items(), firsts):
        zero, one = finals[key & 3]
        key >>= 2
        entry = banks.get(key + zero)
        if entry is None:
            banks[key + zero] = [patterns, first << 1]
        else:
            entry[0] += patterns
        entry = banks.get(key + one)
        if entry is None:
            banks[key + one] = [patterns, first << 1 | 1]
        else:
            entry[0] += patterns
    return banks


def enumerate_levels(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """Cluster every pattern of ``domains`` bits by weight under one border
    condition and report resistances, voltages, adjacent margins and the
    class listing.

    Class listings are grouped by the direction-folded equivalence key; the
    per-class resistance is that of the lex-smallest member. Cluster extremes
    are taken over the direction-sensitive banks, so they are true pattern
    extremes. One listing scan (``_list_banks``) gives every distinct bank.

    Each bank is read in its packed form. Its weight is the sum of its
    counts of 1-domains (``DOMAIN[1]``). Its class key is the bank with its
    two wall counts in ascending order: that folds the two transition
    directions together, so a word and its reversal share a class; their
    resistances agree exactly when the wall count is even and to within the
    small 01/10 characterization split when it is odd. Its conductance adds
    each kind's count/ohms, looked up in a table of one division per count,
    in kind order from 0.0: the same float sum as
    ``network.bank_conductance``.
    """
    check_domain_count(domains)
    # (shift, count/ohms for every count a field holds) per kind, in kind order
    quotients = [
        (_FIELD * kind, [count / r for count in range(_FIELD_MASK + 1)])
        for kind, r in enumerate(_kind_ohms(char.table))
    ]
    full, mid, short = (_FIELD * kind for kind in DOMAIN[1])
    low_wall, high_wall = (_FIELD * kind for kind in WALL)
    # adding this moves one count from the low wall field to the high one
    swap = (1 << high_wall) - (1 << low_wall)
    by_weight_count = [0] * (domains + 1)
    g_low = [math.inf] * (domains + 1)
    g_high = [0.0] * (domains + 1)
    # class key -> [multiplicity, weight, lex-smallest member, its conductance]
    folded: dict[int, list] = {}
    for bank, (patterns, first) in _list_banks(domains, borders).items():
        weight = (
            (bank >> full & _FIELD_MASK) + (bank >> mid & _FIELD_MASK)
            + (bank >> short & _FIELD_MASK)
        )
        g = 0.0
        for shift, quotient in quotients:
            g += quotient[bank >> shift & _FIELD_MASK]
        by_weight_count[weight] += patterns
        if g < g_low[weight]:
            g_low[weight] = g
        if g > g_high[weight]:
            g_high[weight] = g
        excess = (bank >> low_wall & _FIELD_MASK) - (bank >> high_wall & _FIELD_MASK)
        key = bank + excess * swap if excess > 0 else bank
        entry = folded.get(key)
        if entry is None:  # banks come lex-smallest member first
            folded[key] = [patterns, weight, first, g]
        else:
            entry[0] += patterns
    _check_population(domains, by_weight_count)

    # (resistance, representative, multiplicity) per weight: representatives
    # are unique, and at equal length integer order is lex order, so the
    # plain tuple sort is the order by resistance, then representative
    listings: list[list] = [[] for _ in range(domains + 1)]
    for mult, weight, first, g in folded.values():
        listings[weight].append((1.0 / g, first, mult))
    current = char.drive.read_current(domains, char.geometry)
    width = f"0{domains}b"
    classes_by_weight = []
    for listing in listings:
        listing.sort()
        classes_by_weight.append([
            ClassEntry(format(first, width), mult, resistance, current * resistance)
            for resistance, first, mult in listing
        ])
    return _report(domains, borders, char, by_weight_count, g_low, g_high, classes_by_weight)


def _report(
    domains: int,
    borders: BorderCondition | None,
    char: Characterization,
    by_weight_count: Sequence[int],
    g_low: Sequence[float],
    g_high: Sequence[float],
    classes_by_weight: Sequence[Sequence[ClassEntry]] | None = None,
) -> MarginReport:
    """The report from per-weight pattern counts and extreme conductances,
    with each cluster's class listing when there is one.

    Rounded 1/g is monotone, so a cluster's extreme resistances are the
    reciprocals of its extreme conductances, bit for bit.
    """
    current = char.drive.read_current(domains, char.geometry)
    clusters = []
    for weight, count in enumerate(by_weight_count):
        low, high = 1.0 / g_high[weight], 1.0 / g_low[weight]
        # positional arguments: a record binds keywords in Python, and every
        # report builds 2D + 1 of these records
        clusters.append(
            LevelCluster(
                weight, count, low, high, current * low, current * high,
                tuple(classes_by_weight[weight]) if classes_by_weight else (),
            )
        )
    margins = [
        AdjacentMargin(
            low.weight, high.weight, low.max_resistance, high.min_resistance,
            high.min_voltage - low.max_voltage,
        )
        for low, high in zip(clusters, clusters[1:])
    ]
    best = min(margins, key=lambda entry: entry.margin)  # ties keep the lower weight pair
    return MarginReport(
        domains=domains,
        borders=borders,
        read_current=current,
        clusters=tuple(clusters),
        adjacent_margins=tuple(margins),
        min_margin=best.margin,
        min_margin_pair=(best.weight_low, best.weight_high),
        distinguishable_levels=1 + sum(1 for entry in margins if entry.margin > 0.0),
    )


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
    extremes, _ = _scan(lengths, lefts, rights, _kind_ohms(char.table))
    return [
        _report(domains, borders, char, *result) for domains, result in zip(lengths, extremes)
    ]


def cluster_extremes(
    domains: int, borders: BorderCondition, char: Characterization
) -> MarginReport:
    """``enumerate_levels`` without the class listing: the same cluster
    extremes and margins, with empty ``classes``.

    Reports that need only the margins (``margin``) take this path: one
    pruned bit scan, which lists no class and builds no representative
    pattern. A misalignment study reads its nominal margin off the same
    scan that groups its edge structures (``_side_scan``).
    """
    check_domain_count(domains)
    return _scan_reports(range(domains, domains + 1), borders, char)[0]


def worst_case_levels(domains: int, char: Characterization) -> MarginReport:
    """Weight clusters with extremes mixed over all four border conditions.

    This is the convention behind the closed-form first-gap margin: each
    cluster's spread is widened to the worst any border assumption allows.
    Class listings are omitted (they are per-convention objects). One bit
    scan starts from both left borders and completes under both right
    borders, so it covers all four conditions.
    """
    check_domain_count(domains)
    return _scan_reports(range(domains, domains + 1), None, char)[0]


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
    check_domain_count(domains, 2)
    one = decompose(
        BitPattern((0,) * (domains - 1) + (1,)), BorderCondition(Border.SAME, Border.DIFFER)
    )
    zero = decompose(BitPattern((0,) * domains), BorderCondition(Border.DIFFER, Border.DIFFER))
    return 1.0 / bank_conductance(one, table), 1.0 / bank_conductance(zero, table)


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


class SweepRow(_Record):
    """One domain count's minimum margins in volts; ``enumerated_margin`` is
    None above the enumeration limit."""

    __slots__ = _fields = ("domains", "closed_form_margin", "enumerated_margin")


class SweepReport(_Record):
    """Sweep rows over [``d_min``, ``d_max``] against ``threshold`` (volts)."""

    __slots__ = _fields = (
        "d_min", "d_max", "threshold", "borders", "rows", "max_scalable_domains"
    )


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
    check_domain_count(d_min, 2)
    check_domain_count(d_max, 2)
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
