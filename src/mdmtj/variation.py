"""Stack-to-notch misalignment and its effect on sense margins.

A lateral offset between the MgO/fixed stack and the free-layer notches only
touches the window ends: the edge structures on the trailing side lose
coverage (conductance falls with covered length, a fully uncovered half-wall
stops conducting), and the stack overhangs the neighbor domain on the other
side, adding one parallel segment whose polarity is an assumption, not
stored data. Interior domains never notice.

Deterministic offsets and seeded Monte Carlo share one evaluation engine
that is vectorized over offsets. It walks the run-structure sub-classes of
``margins`` rather than the 2^D patterns, so it covers every window up to
MAX_DOMAINS. Per-sample arithmetic is elementwise, and each sample's offset
depends only on (seed, index), so any slice of a run can be reproduced on
its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .characterization import (
    Characterization,
    DeviceGeometry,
    Polarity,
    SegmentKind,
    SegmentResistanceTable,
    domain_kind,
    scaled_resistance,
)
from .errors import OffsetOutOfRange, UsageError
from .margins import (
    _DOMAIN_AT,
    _KINDS,
    _check_domain_count,
    _condition_counts,
    _kind_ohms,
    _spare_conductances,
    _walk,
    cluster_extremes,
)

# not called here: perfbench/tracer.py rebinds it on every module it may be
# reached through
from .margins import enumerate_levels  # noqa: F401
from .network import BitPattern, BorderCondition, decompose

# characterized misalignment budget: 5.5 nm treated as six standard deviations
SIGMA_DEFAULT = 5.5e-9 / 6.0


class NeighborAssumption(enum.Enum):
    """Assumed bit of the out-of-window domain an overhang exposes."""

    ZERO = "0"
    ONE = "1"
    WORST = "worst"

    @classmethod
    def parse(cls, text: str) -> "NeighborAssumption":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise UsageError(
                f"neighbor assumption must be 0, 1 or worst, got {text!r}"
            ) from None

    @property
    def bits(self) -> tuple[int, ...]:
        if self is NeighborAssumption.ZERO:
            return (0,)
        if self is NeighborAssumption.ONE:
            return (1,)
        return (0, 1)


@dataclass(frozen=True)
class MisalignmentSpec:
    """Signed stack offset (positive = toward +X, the right) plus neighbor
    assumptions for whichever side the overhang exposes."""

    offset: float  # meters
    left_neighbor: NeighborAssumption = NeighborAssumption.WORST
    right_neighbor: NeighborAssumption = NeighborAssumption.WORST


def _check_offset(offset: float, geometry: DeviceGeometry) -> None:
    # written so that NaN fails the test too
    if not (abs(offset) <= geometry.notch_length):
        raise OffsetOutOfRange(
            f"offset {offset * 1e9:.3f} nm exceeds one notch length"
            f" ({geometry.notch_length * 1e9:.3f} nm); the coverage model"
            " is not valid beyond that"
        )


@dataclass(frozen=True)
class PartialSegment:
    kind: SegmentKind
    covered_length: float  # meters


@dataclass(frozen=True)
class PerturbedDecomposition:
    """A decomposition with edge coverage losses and an optional overhang.

    ``full_segments`` keeps canonical kind order with the affected edge
    structures removed; they reappear in ``partial_segments`` (edge domain,
    then edge half-wall if still covered, then overhang). A fully uncovered
    half-wall is simply gone.
    """

    offset: float
    overhang_bit: int | None
    full_segments: tuple[tuple[SegmentKind, int], ...]
    partial_segments: tuple[PartialSegment, ...]


def _concrete_bit(assumption: NeighborAssumption) -> int:
    if assumption is NeighborAssumption.WORST:
        raise ValueError(
            "worst-case neighbors resolve at the report level; pass 0 or 1 here"
        )
    return 0 if assumption is NeighborAssumption.ZERO else 1


def apply_misalignment(
    pattern: BitPattern | str,
    borders: BorderCondition,
    spec: MisalignmentSpec,
    geometry: DeviceGeometry,
) -> PerturbedDecomposition:
    """Shift the stack by ``spec.offset`` over one pattern.

    A positive offset uncovers the left edge structures and overhangs the
    right neighbor; a negative offset mirrors that. Zero offset returns the
    nominal decomposition unchanged.
    """
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    _check_offset(spec.offset, geometry)
    base = decompose(pattern, borders)
    if spec.offset == 0.0:
        return PerturbedDecomposition(0.0, None, base.segments, ())

    magnitude = abs(spec.offset)
    if spec.offset > 0:
        edge_domain = base.domain_kinds[0]
        edge_half = base.left_half_wall
        neighbor = _concrete_bit(spec.right_neighbor)
    else:
        edge_domain = base.domain_kinds[-1]
        edge_half = base.right_half_wall
        neighbor = _concrete_bit(spec.left_neighbor)

    removed = {edge_domain: 1}
    if edge_half is not None:
        removed[edge_half] = removed.get(edge_half, 0) + 1
    full = tuple(
        (kind, count - removed.get(kind, 0))
        for kind, count in base.segments
        if count - removed.get(kind, 0) > 0
    )

    partials = [PartialSegment(edge_domain, geometry.nominal_length(edge_domain) - magnitude)]
    if edge_half is not None:
        covered = geometry.nominal_length(edge_half) - magnitude
        if covered > 0:
            partials.append(PartialSegment(edge_half, covered))
    partials.append(
        PartialSegment(domain_kind(Polarity.from_bit(neighbor), 0), magnitude)
    )
    return PerturbedDecomposition(
        offset=spec.offset,
        overhang_bit=neighbor,
        full_segments=full,
        partial_segments=tuple(partials),
    )


def perturbed_resistance(
    perturbed: PerturbedDecomposition,
    table: SegmentResistanceTable,
    geometry: DeviceGeometry,
) -> float:
    """Parallel resistance of a perturbed bank; full segments first in kind
    order, then partials in their listed order."""
    g = 0.0
    for kind, count in perturbed.full_segments:
        g += count / table.ohms(kind)
    for seg in perturbed.partial_segments:
        g += 1.0 / scaled_resistance(seg.kind, seg.covered_length, table, geometry)
    return 1.0 / g


# --- vectorized margin engine ------------------------------------------------


# (weight, edge domain kind index, half-wall kind index or None) -> the
# smallest and largest conductance of the bank left once those two segments
# lose their nominal coverage
_EdgeGroups = dict[tuple[int, int, int | None], list[float]]


def _edge_groups(
    domains: int, borders: BorderCondition, ohms: list[float], lefts: tuple[bool, ...]
) -> list[_EdgeGroups]:
    """One walk over the run-structure sub-classes, grouped per uncovered
    side (``True`` for the left edge)."""
    sides = [({}, left) for left in lefts]
    for family in _walk(domains):
        counts, left_edge, right_edge = _condition_counts(family, borders)
        for groups, left in sides:
            edge, half = left_edge if left else right_edge
            adjusted = counts.copy()
            adjusted[edge] -= 1
            if half is not None:
                adjusted[half] -= 1
            gs = _spare_conductances(adjusted, family.subclasses, ohms)
            for (weight, _, _, _), g in zip(family.subclasses, gs):
                key = (weight, edge, half)
                extremes = groups.get(key)
                if extremes is None:
                    groups[key] = [g, g]
                elif g < extremes[0]:
                    extremes[0] = g
                elif g > extremes[1]:
                    extremes[1] = g
    return [groups for groups, _ in sides]


def _side_min_margins(
    domains: int,
    groups: _EdgeGroups,
    magnitudes: np.ndarray,
    neighbor_bits: tuple[int, ...],
    char: Characterization,
    ohms: list[float],
) -> np.ndarray:
    """Min margin per offset magnitude, one uncovered side.

    Per-element arithmetic mirrors perturbed_resistance exactly: the
    conductance g of the bank minus the uncovered edge domain and half-wall,
    summed in kind order, then ((g + edge) + half) + overhang, where the
    three partial terms depend only on the edge structure, the neighbor bit
    and the offset. Round-to-nearest addition is monotone and so is 1/g, so
    within one (weight, edge domain, half-wall) group the extreme resistances
    come from the extreme g: the group's two conductances give, bit for bit,
    the cluster extremes of evaluating every pattern. That is one offset
    vector per distinct conductance, never a rows x offsets matrix.

    An offset that leaves the edge domain of any group no covered length
    raises OffsetOutOfRange.
    """
    geometry = char.geometry
    nominal = [geometry.nominal_length(kind) for kind in SegmentKind]
    shortest = min({edge for _, edge, _ in groups}, key=nominal.__getitem__)
    reach = float(np.max(magnitudes))
    if not nominal[shortest] - reach > 0.0:
        raise OffsetOutOfRange(
            f"an offset of {reach * 1e9:.3f} nm uncovers the whole"
            f" {nominal[shortest] * 1e9:.3f} nm {_KINDS[shortest].name} edge domain;"
            " the coverage model is not valid beyond that"
        )

    def partial(kind: int, covered: np.ndarray) -> np.ndarray:
        return 1.0 / (ohms[kind] * (nominal[kind] / covered))

    edge_terms = {
        edge: partial(edge, nominal[edge] - magnitudes) for _, edge, _ in groups
    }
    half_terms = {}
    for half in {half for _, _, half in groups if half is not None}:
        covered = nominal[half] - magnitudes
        mask = covered > 0.0  # a fully uncovered half-wall stops conducting
        term = np.zeros(magnitudes.shape)
        term[mask] = partial(half, covered[mask])
        half_terms[half] = term  # adding 0.0 leaves g unchanged
    overhang_terms = [partial(_DOMAIN_AT[bit, 0], magnitudes) for bit in neighbor_bits]

    by_weight: list[list[tuple[int, int | None, float, float]]] = [
        [] for _ in range(domains + 1)
    ]
    for (weight, edge, half), (g_low, g_high) in groups.items():
        by_weight[weight].append((edge, half, g_low, g_high))

    current = char.drive.read_current(domains, geometry)
    best = previous_high = None
    for entries in by_weight:
        low = high = None
        for edge, half, g_low, g_high in entries:
            for overhang in overhang_terms:
                for g in {g_low, g_high}:  # once when they are equal
                    total = g + edge_terms[edge]
                    if half is not None:
                        total += half_terms[half]
                    total += overhang
                    resistance = 1.0 / total
                    if low is None:
                        low, high = resistance, resistance.copy()
                    else:
                        np.minimum(low, resistance, out=low)
                        np.maximum(high, resistance, out=high)
        if previous_high is not None:
            margin = current * low - current * previous_high
            best = margin if best is None else np.minimum(best, margin, out=best)
        previous_high = high
    return best


def min_margins_for_offsets(
    domains: int,
    borders: BorderCondition,
    offsets: np.ndarray,
    left_neighbor: NeighborAssumption,
    right_neighbor: NeighborAssumption,
    char: Characterization,
) -> np.ndarray:
    """Minimum sense margin (volts) for each signed offset (meters).

    A positive offset uncovers the left edge and overhangs the right
    neighbor; a negative one mirrors that.
    """
    _check_domain_count(domains)
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size and not (float(np.max(np.abs(offsets))) <= char.geometry.notch_length):
        worst = float(offsets[np.argmax(np.abs(offsets))])  # the first NaN, if any
        _check_offset(worst, char.geometry)
    out = np.empty(offsets.shape)
    zero = offsets == 0.0
    if zero.any():
        out[zero] = cluster_extremes(domains, borders, char).min_margin
    sides = [
        (selected, left, neighbor)
        for selected, left, neighbor in (
            (offsets > 0.0, True, right_neighbor),
            (offsets < 0.0, False, left_neighbor),
        )
        if selected.any()
    ]
    if sides:
        ohms = _kind_ohms(char.table)
        groups = _edge_groups(domains, borders, ohms, tuple(left for _, left, _ in sides))
        for (selected, _, neighbor), side_groups in zip(sides, groups):
            out[selected] = _side_min_margins(
                domains, side_groups, np.abs(offsets[selected]), neighbor.bits, char, ohms
            )
    return out


@dataclass(frozen=True)
class OffsetReport:
    """Fixed-offset margin report; voltages in volts.

    The stack is shifted by ``offset`` both ways. ``sign_min_margins`` holds
    the minimum margin at +offset and at -offset, and ``perturbed_min_margin``
    is the worse of the two (the + sign on a tie).
    """

    domains: int
    borders: BorderCondition
    offset: float  # meters, a magnitude
    left_neighbor: NeighborAssumption
    right_neighbor: NeighborAssumption
    nominal_min_margin: float
    sign_min_margins: tuple[float, float]
    perturbed_min_margin: float
    margin_deviation: float


def offset_margin_report(
    domains: int,
    borders: BorderCondition,
    spec: MisalignmentSpec,
    char: Characterization,
) -> OffsetReport:
    """Every pattern re-evaluated with the stack shifted by |``spec.offset``|
    to either side; the sign of ``spec.offset`` does not matter."""
    magnitude = abs(spec.offset)
    nominal, plus, minus = min_margins_for_offsets(
        domains,
        borders,
        np.array([0.0, magnitude, -magnitude]),
        spec.left_neighbor,
        spec.right_neighbor,
        char,
    ).tolist()
    perturbed = min(plus, minus)
    return OffsetReport(
        domains=domains,
        borders=borders,
        offset=magnitude,
        left_neighbor=spec.left_neighbor,
        right_neighbor=spec.right_neighbor,
        nominal_min_margin=nominal,
        sign_min_margins=(plus, minus),
        perturbed_min_margin=perturbed,
        margin_deviation=nominal - perturbed,
    )


# --- Monte Carlo --------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloSpec:
    samples: int
    seed: int
    sigma: float = SIGMA_DEFAULT  # meters
    truncation: float = 6.0  # in sigmas

    def validate(self) -> None:
        if self.samples < 1:
            raise UsageError(f"sample count must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed}")
        if self.sigma <= 0:
            raise UsageError(f"sigma must be positive, got {self.sigma}")
        if self.truncation <= 0:
            raise UsageError(f"truncation must be positive, got {self.truncation}")


def _sample_offset(seed: int, index: int, sigma: float, truncation: float) -> float:
    # one generator per sample, derived from (seed, index), so any slice of
    # the run sees the same stream
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))
    z = rng.standard_normal()
    while abs(z) > truncation:
        z = rng.standard_normal()
    return float(z * sigma)


def sample_offsets(spec: MonteCarloSpec, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Truncated-normal offsets for sample indices [start, stop)."""
    if stop is None:
        stop = spec.samples
    return np.array(
        [
            _sample_offset(spec.seed, i, spec.sigma, spec.truncation)
            for i in range(start, stop)
        ]
    )


@dataclass(frozen=True)
class MonteCarloReport:
    """Margin distribution under random misalignment; volts and meters."""

    domains: int
    borders: BorderCondition
    spec: MonteCarloSpec
    left_neighbor: NeighborAssumption
    right_neighbor: NeighborAssumption
    nominal_min_margin: float
    mean_margin: float
    stddev_margin: float
    min_margin: float
    p01_margin: float
    offsets: tuple[float, ...] = field(repr=False)
    margins: tuple[float, ...] = field(repr=False)


def monte_carlo_margins(
    domains: int,
    borders: BorderCondition,
    spec: MonteCarloSpec,
    char: Characterization,
    left_neighbor: NeighborAssumption = NeighborAssumption.WORST,
    right_neighbor: NeighborAssumption = NeighborAssumption.WORST,
) -> MonteCarloReport:
    """Seeded margin distribution; the same seed gives the same bits."""
    _check_domain_count(domains)
    spec.validate()
    offsets = sample_offsets(spec)
    margins = min_margins_for_offsets(
        domains, borders, offsets, left_neighbor, right_neighbor, char
    )
    nominal = cluster_extremes(domains, borders, char).min_margin
    stddev = float(np.std(margins, ddof=1)) if spec.samples > 1 else 0.0
    return MonteCarloReport(
        domains=domains,
        borders=borders,
        spec=spec,
        left_neighbor=left_neighbor,
        right_neighbor=right_neighbor,
        nominal_min_margin=nominal,
        mean_margin=float(np.mean(margins)),
        stddev_margin=stddev,
        min_margin=float(np.min(margins)),
        p01_margin=float(np.percentile(margins, 1.0)),
        offsets=tuple(float(x) for x in offsets),
        margins=tuple(float(x) for x in margins),
    )
