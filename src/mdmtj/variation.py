"""Stack-to-notch misalignment and its effect on sense margins.

A lateral offset between the MgO/fixed stack and the free-layer notches only
touches the window ends: the edge structures on the trailing side lose
coverage (conductance falls with covered length, a fully uncovered half-wall
stops conducting), and the stack overhangs the neighbor domain on the other
side, adding one parallel segment whose polarity is an assumption, not
stored data. Interior domains never notice.

Deterministic offsets and seeded Monte Carlo share one evaluation engine
that is vectorized over offsets. It reads the run-structure sub-classes
grouped by edge structure from the one fold of ``margins`` rather than the
2^D patterns, so it covers every window up to MAX_DOMAINS. The same fold
gives the nominal margin (offset 0), so a study walks once. Per-sample
arithmetic is elementwise.

Each Monte Carlo sample's offset depends only on (seed, index), so any slice
of a run can be reproduced on its own. Sample i is the first normal within
the truncation drawn from ``Generator(PCG64(SeedSequence((seed, i))))``, the
same stream as in every earlier version. numpy's SeedSequence hash, PCG64's
seed step and its first XSL-RR output (O'Neill 2014) are recomputed over
arrays of indices, and the fast path of numpy's ziggurat (Marsaglia and
Tsang 2000; tables in ``_ziggurat``) turns that word into the normal. A row
the fast path does not settle (the base layer's tail, a wedge, a value past
the truncation) falls back to numpy's own ``standard_normal()`` from the
same seeded state. ``oracle.reference_sample_offsets`` builds the three
objects per sample and must agree bit for bit; ``variation --monte-carlo
--oracle`` redraws every sample that way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .characterization import (
    DOMAIN,
    KINDS,
    Characterization,
    DeviceGeometry,
    SegmentResistanceTable,
    scaled_resistance,
)
from .errors import OffsetOutOfRange, UsageError
from .margins import _EdgeGroups, _check_domain_count, _fold, _kind_ohms

# not called here: perfbench/tracer.py rebinds it on every module it may be
# reached through
from .margins import enumerate_levels  # noqa: F401
from .network import BitPattern, BorderCondition, bank_conductance, decompose

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
class PerturbedDecomposition:
    """A bank with edge coverage losses and an overhang.

    ``counts`` is the nominal bank, indexed like ``KINDS``, less the edge
    domain and half-wall that the offset uncovers. They reappear in
    ``partials`` as (kind index, covered length in meters) pairs: the edge
    domain, then the half-wall while it is still covered, then the overhang.
    A fully uncovered half-wall is simply gone. At zero offset ``counts`` is
    the nominal bank and ``partials`` is empty.
    """

    counts: tuple[int, ...]
    partials: tuple[tuple[int, float], ...]


def apply_misalignment(
    pattern: BitPattern | str,
    borders: BorderCondition,
    spec: MisalignmentSpec,
    geometry: DeviceGeometry,
) -> PerturbedDecomposition:
    """Shift the stack by ``spec.offset`` over one pattern.

    A positive offset uncovers the left edge structures and overhangs the
    right neighbor; a negative offset mirrors that. Zero offset returns the
    nominal bank unchanged. An offset that leaves the edge domain no covered
    length raises OffsetOutOfRange.
    """
    if isinstance(pattern, str):
        pattern = BitPattern.parse(pattern)
    _check_offset(spec.offset, geometry)
    base = decompose(pattern, borders)
    if spec.offset == 0.0:
        return PerturbedDecomposition(base.counts, ())

    magnitude = abs(spec.offset)
    if spec.offset > 0:
        edge, half = base.left
        neighbor = spec.right_neighbor
    else:
        edge, half = base.right
        neighbor = spec.left_neighbor
    if neighbor is NeighborAssumption.WORST:
        raise ValueError(
            "worst-case neighbors resolve at the report level; pass 0 or 1 here"
        )
    covered = geometry.nominal_length(KINDS[edge]) - magnitude
    if not covered > 0.0:
        raise OffsetOutOfRange(
            f"an offset of {magnitude * 1e9:.3f} nm uncovers the whole {KINDS[edge].name}"
            " edge domain; the coverage model is not valid beyond that"
        )

    counts = list(base.counts)
    counts[edge] -= 1
    partials = [(edge, covered)]
    if half is not None:
        counts[half] -= 1
        covered = geometry.nominal_length(KINDS[half]) - magnitude
        if covered > 0:
            partials.append((half, covered))
    partials.append((DOMAIN[neighbor.bits[0]][0], magnitude))
    return PerturbedDecomposition(tuple(counts), tuple(partials))


def perturbed_resistance(
    perturbed: PerturbedDecomposition,
    table: SegmentResistanceTable,
    geometry: DeviceGeometry,
) -> float:
    """Parallel resistance of a perturbed bank: the counts in kind order,
    then the partials in their listed order."""
    g = bank_conductance(perturbed.counts, table)
    for index, covered in perturbed.partials:
        g += 1.0 / scaled_resistance(KINDS[index], covered, table, geometry)
    return 1.0 / g


# --- vectorized margin engine ------------------------------------------------


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
    nominal = [geometry.nominal_length(kind) for kind in KINDS]
    shortest = min({edge for _, edge, _ in groups}, key=nominal.__getitem__)
    reach = float(np.max(magnitudes))
    if not nominal[shortest] - reach > 0.0:
        raise OffsetOutOfRange(
            f"an offset of {reach * 1e9:.3f} nm uncovers the whole"
            f" {nominal[shortest] * 1e9:.3f} nm {KINDS[shortest].name} edge domain;"
            " the coverage model is not valid beyond that"
        )

    def partial(kind: int, covered: np.ndarray) -> np.ndarray:
        # a vanishing coverage overflows the resistance to inf, and 1/inf
        # is the right conductance: 0.0
        with np.errstate(over="ignore", divide="ignore"):
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
    overhang_terms = [partial(DOMAIN[bit][0], magnitudes) for bit in neighbor_bits]

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
    sides = [
        (selected, left, neighbor)
        for selected, left, neighbor in (
            (offsets > 0.0, True, right_neighbor),
            (offsets < 0.0, False, left_neighbor),
        )
        if selected.any()
    ]
    report, groups = _fold(domains, borders, char, sides=[left for _, left, _ in sides])
    out = np.empty(offsets.shape)
    out[offsets == 0.0] = report.min_margin
    ohms = _kind_ohms(char.table)
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
        # written so that NaN fails the tests too
        if not (self.sigma > 0):
            raise UsageError(f"sigma must be positive, got {self.sigma}")
        if not (self.truncation > 0):
            raise UsageError(f"truncation must be positive, got {self.truncation}")


# numpy's SeedSequence: O'Neill's seed_seq hash over a pool of four uint32
# words. The constants step as Python ints masked to 32 bits; every word is a
# uint32 array over a chunk of indices, whose arithmetic wraps silently.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# numpy's PCG64: the 128-bit LCG multiplier of pcg_setseq_128_srandom_r, as
# (high, low) uint64 limbs, and the low limb's 32-bit halves for mulhi
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_MULT_LO_HALVES = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
# the ziggurat's 52-bit magnitude field
_MASK52 = (1 << 52) - 1
# indices seeded per vectorized pass; bounds the word arrays' memory
_CHUNK = 8192

_Limbs = tuple[np.ndarray, np.ndarray]  # (high, low) uint64 words of 128-bit values


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's words of a non-negative int: little-endian, [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The (constant, next constant) pair each hashmix of one pass uses."""
    constant = init
    while True:
        following = constant * mult & _MASK32
        yield constant, following
        constant = following


def _hashmix(value: np.ndarray, constants: Iterator[tuple[int, int]]) -> np.ndarray:
    constant, following = next(constants)
    value = (value ^ constant) * following
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _add128(a: _Limbs, b: _Limbs) -> _Limbs:
    """a + b mod 2^128 over uint64 limb arrays that wrap; a low sum that
    wrapped is smaller than either term and carries one."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _pcg_step(state: _Limbs, inc: _Limbs) -> _Limbs:
    """state * _PCG_MULT + inc mod 2^128.

    The low limbs' product carries a high word into the high limb; a 32-bit
    split gives it from four partial products that each fit 64 bits.
    """
    high, low = state
    low0, low1 = low & _MASK32, low >> 32
    mult0, mult1 = _MULT_LO_HALVES
    cross0, cross1 = low0 * mult1, low1 * mult0
    middle = (low0 * mult0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carried = low1 * mult1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)
    product = (carried + low * _MULT_HI + high * _MULT_LO, low * _MULT_LO)
    return _add128(product, inc)


def _pcg_seeds(seed_words: list[int], start: int, count: int) -> tuple[_Limbs, _Limbs]:
    """(state, inc) of ``PCG64(SeedSequence((seed, i)))`` for each index i
    in [start, start + count), which must not cross a multiple of 2^32:
    only the lowest index word then varies."""
    low = start & _MASK32
    entropy = [np.full(count, word, dtype=np.uint32) for word in seed_words]
    entropy.append(np.arange(low, low + count, dtype=np.uint32))
    if start >> 32:
        entropy += [np.full(count, word, dtype=np.uint32) for word in _uint32_words(start >> 32)]
    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix in the words past the pool
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(count, dtype=np.uint32)
    pool = [
        _hashmix(entropy[i] if i < len(entropy) else zero, constants) for i in range(_POOL_SIZE)
    ]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = _mix(pool[target], _hashmix(pool[source], constants))
    for word in entropy[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = _mix(pool[target], _hashmix(word, constants))
    # generate_state(4, np.uint64): eight words cycled from the pool, paired
    # little-endian into (state high, state low, seq high, seq low)
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    state_high, state_low, seq_high, seq_low = (
        words[2 * i] | words[2 * i + 1] << 32 for i in range(4)
    )
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1, then
    # state = (inc + initial state) * _PCG_MULT + inc
    inc = (seq_high << 1 | seq_low >> 63, seq_low << 1 | 1)
    return _pcg_step(_add128((state_high, state_low), inc), inc), inc


def _first_words(
    seed_words: list[int], start: int, count: int
) -> tuple[_Limbs, _Limbs, np.ndarray]:
    """(seeded state, inc, first 64-bit output) per index, as ``_pcg_seeds``.

    PCG64 steps, then outputs XSL-RR: the high and low halves xor-folded and
    rotated right by the top six bits of the state.
    """
    state, inc = _pcg_seeds(seed_words, start, count)
    high, low = _pcg_step(state, inc)
    folded, rotation = high ^ low, high >> 58
    return state, inc, folded >> rotation | folded << (-rotation & 63)


def sample_offsets(spec: MonteCarloSpec, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Truncated-normal offsets for sample indices [start, stop).

    Sample i redraws ``Generator(PCG64(SeedSequence((spec.seed, i))))
    .standard_normal()`` until it lies within the truncation, bit for bit.
    Seeding and the first draw run over chunks of indices: a row whose first
    word takes the ziggurat's fast path to a value within the truncation is
    done in arrays. Every other row (the base layer's tail, a wedge, a value
    past the truncation) sets one numpy generator to its seeded state and
    draws with numpy, as a fresh generator would.
    """
    from ._ziggurat import KI, WI  # only a Monte Carlo run pays for the tables

    if stop is None:
        stop = spec.samples
    if spec.seed < 0 or start < 0:
        raise ValueError(
            f"seed and sample indices must be non-negative, got seed {spec.seed}, start {start}"
        )
    seed_words = _uint32_words(spec.seed)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    z = np.empty(max(stop - start, 0))
    row = 0
    while start < stop:
        end = min(stop, start + _CHUNK, ((start >> 32) + 1) << 32)
        (state_high, state_low), (inc_high, inc_low), word = _first_words(
            seed_words, start, end - start
        )
        # numpy's random_standard_normal: layer, sign and magnitude of one word
        layer = (word & 0xFF).astype(np.intp)
        magnitude = word >> 9 & _MASK52
        x = magnitude.astype(np.float64) * WI[layer]
        np.negative(x, out=x, where=(word >> 8 & 1).astype(bool))
        missed = np.flatnonzero(~((magnitude < KI[layer]) & (np.abs(x) <= spec.truncation)))
        for index, high, low, inc_hi, inc_lo in zip(
            missed.tolist(),
            state_high[missed].tolist(),
            state_low[missed].tolist(),
            inc_high[missed].tolist(),
            inc_low[missed].tolist(),
        ):
            pcg["state"], pcg["inc"] = high << 64 | low, inc_hi << 64 | inc_lo
            bit_generator.state = state
            value = generator.standard_normal()
            while abs(value) > spec.truncation:
                value = generator.standard_normal()
            x[index] = value
        z[row : row + x.size] = x
        row += x.size
        start = end
    return z * spec.sigma


@dataclass(frozen=True)
class MonteCarloReport:
    """Margin distribution under random misalignment; volts and meters.

    ``offsets`` and ``margins`` are read-only float64 arrays, one entry per
    sample. Two reports are equal when every field is, the arrays bit for
    bit.
    """

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
    offsets: np.ndarray = field(repr=False, compare=False)
    margins: np.ndarray = field(repr=False, compare=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonteCarloReport):
            return NotImplemented
        return all(
            getattr(self, f.name) == getattr(other, f.name) for f in fields(self) if f.compare
        ) and all(
            getattr(self, name).tobytes() == getattr(other, name).tobytes()
            for name in ("offsets", "margins")
        )


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
    # offset 0 first: the nominal margin comes from the same engine call
    evaluated = min_margins_for_offsets(
        domains, borders, np.concatenate(([0.0], offsets)), left_neighbor, right_neighbor, char
    )
    nominal, margins = float(evaluated[0]), evaluated[1:]
    offsets.flags.writeable = margins.flags.writeable = False
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
        offsets=offsets,
        margins=margins,
    )
