"""Stack-to-notch misalignment and its effect on sense margins.

A lateral offset between the MgO/fixed stack and the free-layer notches only
touches the window ends: the edge structures on the trailing side lose
coverage (a partial segment conducts 1 / (ohms x nominal / covered), in
``_partial_conductance``; a fully uncovered half-wall stops conducting), and
the stack overhangs the neighbor domain on the other side, adding one
parallel segment whose polarity is an assumption, not stored data. Interior
domains never notice. An offset that leaves an edge domain no covered
length is refused. ``oracle.perturbed_resistance`` states the same model
once more, pattern by pattern, as the engine's reference.

Deterministic offsets and seeded Monte Carlo share one evaluation engine.
``min_margins_for_offsets`` reads its input's kind once: a list runs on one
float offset magnitude at a time, an ndarray vectorized, ``_CHUNK`` offsets
at a time, with the same steps and the same bits. Both first take one
refusal-and-scan step (``_sides``), which reads the patterns' banks grouped
by edge structure from the bit scan of ``margins`` (``_side_scan``, one scan
per uncovered side) rather than the 2^D patterns, so it covers every window
up to MAX_DOMAINS; the same scan gives the nominal margin (offset 0). Each
(weight, edge domain, half-wall) group evaluates two candidates, exact
because rounded arithmetic is monotone and the table enforces r_minus_80 <
r_plus_80 (see ``_side_min_margins``).

Each Monte Carlo sample's offset depends only on (seed, index), so any slice
of a run can be reproduced on its own. Sample i is the first normal within
the truncation drawn from ``Generator(PCG64(SeedSequence((seed, i))))``, the
same stream as in every earlier version. ``_sampler`` recomputes that stream
without numpy.random: numpy's SeedSequence hash, PCG64 and the fast path of
its ziggurat (tables in ``_ziggurat``) in arrays, and the ziggurat's slow
path on Python ints for the rows the fast path does not settle.
``oracle.reference_sample_offsets`` builds the three numpy objects per
sample and must agree bit for bit; ``variation --monte-carlo --oracle``
redraws every sample that way.

numpy is imported by the functions that build arrays, when they are called:
the engine on an ndarray, the Monte Carlo study and ``_sampler`` on the first
draw. Loading this module, as every ``mdmtj`` process does, does not load
numpy, and neither does a fixed-offset study: ``offset_margin_report`` passes
its three offsets as a list, which ``min_margins_for_offsets`` evaluates on
floats and returns as a list.
"""

from __future__ import annotations

import contextlib
import enum
import math
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, Any

from .characterization import (
    DOMAIN,
    KINDS,
    Characterization,
    _meters_as_nm_text,
    _Record,
    check_domain_count,
)
from .errors import OffsetOutOfRange, UsageError
from .margins import (
    _EdgeGroups,
    _kind_ohms,
    _side_scan,
    cluster_extremes,
)

# not called here: perfbench/tracer.py rebinds it on every module it may be
# reached through
from .margins import enumerate_levels  # noqa: F401
from .network import BorderCondition

if TYPE_CHECKING:
    import numpy as np

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


class MisalignmentSpec(_Record):
    """Signed stack offset in meters (positive = toward +X, the right) plus
    neighbor assumptions for whichever side the overhang exposes."""

    __slots__ = _fields = ("offset", "left_neighbor", "right_neighbor")
    _defaults = {
        "left_neighbor": NeighborAssumption.WORST,
        "right_neighbor": NeighborAssumption.WORST,
    }


def _partial_conductance(
    ohms: float, nominal: float, covered: float | np.ndarray
) -> float | np.ndarray:
    """Conductance of a segment of characterized resistance ``ohms`` over
    ``nominal`` meters, ``covered`` of them under the stack: resistance grows
    as nominal/covered, so full coverage conducts exactly 1/ohms. Floats or
    arrays."""
    return 1.0 / (ohms * (nominal / covered))


# --- margin engine -------------------------------------------------------------

# offsets per engine pass and samples per draw: about 1.3 MB of temporaries
# at any D; 8192 ran 15-20 % slower at D = 4 and 12, 32768 added peak RSS
_CHUNK = 16384


def _candidate_resistance(
    g: float,
    edge_term: float | np.ndarray,
    half_term: float | np.ndarray | None,
    overhang: float | np.ndarray,
) -> float | np.ndarray:
    """1 / (((g + edge) + half) + overhang): a float, or per offset in a new
    vector."""
    total = g + edge_term
    if half_term is not None:
        total += half_term
    total += overhang
    if isinstance(total, float):
        return 1.0 / total
    import numpy as np

    return np.divide(1.0, total, out=total)


def _elementwise(magnitudes: float | np.ndarray) -> tuple[Any, Callable, Callable, Callable]:
    """The steps of ``_side_min_margins`` that depend on the type of its
    magnitudes: (error state, covered-only conductance, running minimum,
    running maximum).

    ``covered_only(conductance, kind, covered)`` is ``conductance(kind,
    covered)`` where ``covered`` is positive and 0.0 elsewhere. On an ndarray
    the steps are numpy's: overflow and a zero coverage are quiet, and the
    running extremes update their first argument in place. On one float
    nothing warns, and a zero coverage is never divided by.
    """
    if isinstance(magnitudes, float):
        def covered_only(conductance: Callable, kind: int, covered: float) -> float:
            return conductance(kind, covered) if covered > 0.0 else 0.0

        return contextlib.nullcontext(), covered_only, min, max
    import numpy as np

    def covered_only(conductance: Callable, kind: int, covered: np.ndarray) -> np.ndarray:
        return np.where(covered > 0.0, conductance(kind, covered), 0.0)

    return (
        np.errstate(over="ignore", divide="ignore"),
        covered_only,
        lambda running, new: np.minimum(running, new, out=running),
        lambda running, new: np.maximum(running, new, out=running),
    )


def _side_min_margins(
    domains: int,
    groups: _EdgeGroups,
    magnitudes: float | np.ndarray,
    neighbor_bits: tuple[int, ...],
    char: Characterization,
    ohms: list[float],
) -> float | np.ndarray:
    """Min margin per offset magnitude, one uncovered side: for one float
    magnitude a float, for an ndarray of them an ndarray.

    Per-element arithmetic is the documented float order, which
    ``oracle.perturbed_resistance`` replays pattern by pattern: the
    conductance g of the bank minus the uncovered edge domain and half-wall,
    summed in kind order, then ((g + edge) + half) + overhang, where the
    three partial terms depend only on the edge structure, the neighbor bit
    and the offset. Round-to-nearest addition is monotone and so is 1/x, so
    each (weight, edge domain, half-wall) group needs two candidates, bit for
    bit: its lowest resistance is g_high with the strongest overhang, its
    highest g_low with the weakest. A bit-0 overhang is the stronger one:
    both polarities' full-length domains have the same nominal length, and
    the table enforces r_minus_80 < r_plus_80. That is two offset vectors per
    group, never a rows x offsets matrix, and weights stream one at a time.
    Floats and arrays run the same steps (``_elementwise``), so they agree
    bit for bit. Every step is elementwise, so how the offsets are split
    into chunks changes no bit, and a temporary is as long as one chunk.

    The caller has checked that no magnitude uncovers an edge domain.
    """
    errstate, covered_only, minimum, maximum = _elementwise(magnitudes)
    nominal = [char.geometry.nominal_length(kind) for kind in KINDS]
    edges = {edge for _, edge, _ in groups}
    halves = {half for _, _, half in groups if half is not None}

    def partial(kind: int, covered: float | np.ndarray) -> float | np.ndarray:
        return _partial_conductance(ohms[kind], nominal[kind], covered)

    # a vanishing coverage overflows the resistance to inf, and 1/inf is the
    # right conductance: 0.0
    with errstate:
        edge_terms = {edge: partial(edge, nominal[edge] - magnitudes) for edge in edges}
        # a fully uncovered half-wall stops conducting: adding 0.0 leaves g unchanged
        half_terms = {
            half: covered_only(partial, half, nominal[half] - magnitudes) for half in halves
        }
        overhangs = [partial(DOMAIN[bit][0], magnitudes) for bit in neighbor_bits]
    strongest, weakest = overhangs[0], overhangs[-1]  # bits are listed 0 first

    by_weight: list[list[tuple[int, int | None, float, float]]] = [
        [] for _ in range(domains + 1)
    ]
    for (weight, edge, half), (g_low, g_high) in groups.items():
        by_weight[weight].append((edge, half, g_low, g_high))

    current = char.drive.read_current(domains, char.geometry)
    best = previous_high = None
    for entries in by_weight:
        low = high = None
        for edge, half, g_low, g_high in entries:
            terms = edge_terms[edge], half_terms.get(half)
            group_low = _candidate_resistance(g_high, *terms, strongest)
            group_high = _candidate_resistance(g_low, *terms, weakest)
            if low is None:  # each candidate is a new buffer, updated in place from here
                low, high = group_low, group_high
            else:
                low = minimum(low, group_low)
                high = maximum(high, group_high)
        if previous_high is not None:
            margin = current * low - current * previous_high
            best = margin if best is None else minimum(best, margin)
        previous_high = high
    return best


def _sides(
    domains: int,
    borders: BorderCondition,
    worst: float,
    high: float,
    low: float,
    left_neighbor: NeighborAssumption,
    right_neighbor: NeighborAssumption,
    char: Characterization,
) -> tuple[float, list]:
    """The refusal-and-scan step of ``min_margins_for_offsets``, on three
    floats of its offsets: ``worst`` (the first NaN, else the largest
    magnitude, first of equals), the largest and the smallest. In order: the
    notch refusal, one ``_side_scan`` per side with offsets (else
    ``cluster_extremes``), the nominal margin, the uncovered-edge refusal
    side by side. Returns the nominal margin and (left, neighbor bits, edge
    groups) per side with offsets."""
    geometry = char.geometry
    # written so that NaN fails the test too
    if not (abs(worst) <= geometry.notch_length):
        raise OffsetOutOfRange(
            f"offset {_meters_as_nm_text(worst)} nm exceeds one notch length"
            f" ({_meters_as_nm_text(geometry.notch_length)} nm); the coverage model"
            " is not valid beyond that"
        )
    sides = [
        (left, neighbor, magnitude)
        for left, neighbor, magnitude in ((True, right_neighbor, high), (False, left_neighbor, -low))
        if magnitude > 0.0
    ]
    scans = [_side_scan(domains, borders, char, left) for left, _, _ in sides]
    nominal = (scans[0][0] if scans else cluster_extremes(domains, borders, char)).min_margin
    for (_, _, magnitude), (_, groups) in zip(sides, scans):
        shortest = min(geometry.nominal_length(KINDS[edge]) for _, edge, _ in groups)
        if not shortest - magnitude > 0.0:
            raise OffsetOutOfRange(
                f"an offset of {_meters_as_nm_text(magnitude)} nm uncovers the whole"
                f" {_meters_as_nm_text(shortest)} nm edge domain; the coverage model is not"
                " valid beyond that"
            )
    return nominal, [
        (left, neighbor.bits, groups) for (left, neighbor, _), (_, groups) in zip(sides, scans)
    ]


def min_margins_for_offsets(
    domains: int,
    borders: BorderCondition,
    offsets: Sequence[float] | np.ndarray,
    left_neighbor: NeighborAssumption,
    right_neighbor: NeighborAssumption,
    char: Characterization,
) -> list[float] | np.ndarray:
    """Minimum sense margin (volts) for each signed offset (meters).

    A positive offset uncovers the left edge and overhangs the right
    neighbor; a negative one mirrors that. Each uncovered side is scanned
    once. Refusals are decided over the whole input: first the first NaN,
    else the largest magnitude beyond one notch length; then, after the
    scans and side by side, the largest magnitude that leaves an edge
    domain no covered length. The input's kind is read once, here; each
    branch reduces its offsets to the three floats ``_sides`` takes. A
    sequence of floats gives a list of floats and loads no numpy: one float
    pass of the engine per nonzero offset. An ndarray gives an ndarray,
    filled ``_CHUNK`` offsets at a time (one vectorized pass per side of a
    chunk), so the engine's temporaries do not grow with the input. Both
    give the same bits and the same refusals.
    """
    check_domain_count(domains)
    ohms = _kind_ohms(char.table)
    if isinstance(offsets, Sequence):
        offsets = [float(x) for x in offsets]
        worst = next((x for x in offsets if x != x), max(offsets, key=abs, default=0.0))
        extremes = worst, max(offsets, default=0.0), min(offsets, default=0.0)
        nominal, sides = _sides(domains, borders, *extremes, left_neighbor, right_neighbor, char)
        out = [nominal] * len(offsets)
        for left, bits, groups in sides:
            for i, x in enumerate(offsets):
                if x > 0.0 if left else x < 0.0:
                    out[i] = _side_min_margins(domains, groups, abs(x), bits, char, ohms)
        return out

    import numpy as np

    offsets = np.asarray(offsets, dtype=float)
    flat = offsets.reshape(-1)
    extremes = (flat[np.argmax(np.abs(flat))], flat.max(), flat.min()) if flat.size else (0.0,) * 3
    extremes = tuple(map(float, extremes))
    nominal, sides = _sides(domains, borders, *extremes, left_neighbor, right_neighbor, char)
    out = np.full(offsets.shape, nominal)
    flat_out = out.reshape(-1)
    for start in range(0, flat.size, _CHUNK):
        chunk, into = flat[start : start + _CHUNK], flat_out[start : start + _CHUNK]
        for left, bits, groups in sides:
            selected = chunk > 0.0 if left else chunk < 0.0
            if selected.any():
                into[selected] = _side_min_margins(
                    domains, groups, np.abs(chunk[selected]), bits, char, ohms
                )
    return out


class OffsetReport(_Record):
    """Fixed-offset margin report; voltages in volts.

    The stack is shifted by ``offset`` (meters, a magnitude) both ways.
    ``sign_min_margins`` holds the minimum margin at +offset and at -offset,
    and ``perturbed_min_margin`` is the worse of the two (the + sign on a tie).
    """

    __slots__ = _fields = (
        "domains", "borders", "offset", "left_neighbor", "right_neighbor", "nominal_min_margin",
        "sign_min_margins", "perturbed_min_margin", "margin_deviation",
    )


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
        [0.0, magnitude, -magnitude],
        spec.left_neighbor,
        spec.right_neighbor,
        char,
    )
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


class MonteCarloSpec(_Record):
    """Sample count and seed of a Monte Carlo run, and its offset
    distribution: ``sigma`` in meters, ``truncation`` in sigmas."""

    __slots__ = _fields = ("samples", "seed", "sigma", "truncation")
    _defaults = {"sigma": SIGMA_DEFAULT, "truncation": 6.0}

    def validate(self) -> None:
        if self.samples < 1:
            raise UsageError(f"sample count must be >= 1, got {self.samples}")
        # numpy refuses the run's buffer of samples + 1 float64 values when its
        # size in bytes does not fit an index
        if self.samples >= sys.maxsize // 8:
            raise UsageError(
                f"sample count must be < {sys.maxsize // 8}, got {self.samples}:"
                " no float64 array holds that many"
            )
        if self.seed < 0:
            raise UsageError(f"seed must be a non-negative integer, got {self.seed}")
        # written so that NaN fails the tests too
        if not (self.sigma > 0):
            raise UsageError(f"sigma must be positive, got {self.sigma}")
        if not (self.truncation > 0):
            raise UsageError(f"truncation must be positive, got {self.truncation}")


def sample_offsets(spec: MonteCarloSpec, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Truncated-normal offsets for sample indices [start, stop).

    Sample i redraws ``Generator(PCG64(SeedSequence((spec.seed, i))))
    .standard_normal()`` until it lies within the truncation, bit for bit;
    ``_sampler`` draws the rows in arrays.
    """
    from ._sampler import truncated_normals  # the first draw loads numpy and the tables

    if stop is None:
        stop = spec.samples
    if spec.seed < 0 or start < 0:
        raise ValueError(
            f"seed and sample indices must be non-negative, got seed {spec.seed}, start {start}"
        )
    return truncated_normals(spec.seed, spec.truncation, start, stop) * spec.sigma


class MonteCarloReport(_Record):
    """Margin distribution under random misalignment; volts and meters.

    ``offsets`` and ``margins`` are read-only float64 arrays, one entry per
    sample. Two reports are equal when every field is, the arrays bit for
    bit; the hash and the repr leave the arrays out.
    """

    __slots__ = _fields = (
        "domains", "borders", "spec", "left_neighbor", "right_neighbor", "nominal_min_margin",
        "mean_margin", "stddev_margin", "min_margin", "p01_margin", "offsets", "margins",
    )
    _scalars = _fields[:-2]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._scalars) and all(
            getattr(self, name).tobytes() == getattr(other, name).tobytes()
            for name in ("offsets", "margins")
        )

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, name) for name in self._scalars))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._scalars)
        return f"{self.__class__.__qualname__}({pairs})"


def monte_carlo_margins(
    domains: int,
    borders: BorderCondition,
    spec: MonteCarloSpec,
    char: Characterization,
    left_neighbor: NeighborAssumption = NeighborAssumption.WORST,
    right_neighbor: NeighborAssumption = NeighborAssumption.WORST,
) -> MonteCarloReport:
    """Seeded margin distribution; the same seed gives the same bits.

    Samples are drawn ``_CHUNK`` at a time into one buffer behind offset 0,
    whose margin is the nominal one, from the same engine call. A run holds
    16 bytes per sample, the two arrays: the statistics take no whole-length
    temporary (``_stddev``, ``_p01``).
    """
    import numpy as np

    check_domain_count(domains)
    spec.validate()
    drawn = sample_offsets(spec, 0, min(_CHUNK, spec.samples))
    buffer = np.empty(spec.samples + 1)
    buffer[0] = 0.0
    for start in range(0, spec.samples, _CHUNK):
        if start:
            drawn = sample_offsets(spec, start, min(start + _CHUNK, spec.samples))
        buffer[1 + start : 1 + start + drawn.size] = drawn
    evaluated = min_margins_for_offsets(
        domains, borders, buffer, left_neighbor, right_neighbor, char
    )
    buffer.flags.writeable = evaluated.flags.writeable = False
    offsets, nominal, margins = buffer[1:], float(evaluated[0]), evaluated[1:]
    mean = np.mean(margins)
    stddev = _stddev(margins, mean) if spec.samples > 1 else 0.0
    return MonteCarloReport(
        domains=domains,
        borders=borders,
        spec=spec,
        left_neighbor=left_neighbor,
        right_neighbor=right_neighbor,
        nominal_min_margin=nominal,
        mean_margin=float(mean),
        stddev_margin=stddev,
        min_margin=float(np.min(margins)),
        p01_margin=_p01(margins),
        offsets=offsets,
        margins=margins,
    )


def _stddev(margins: np.ndarray, mean: float) -> float:
    """``np.std(margins, ddof=1)`` to the bit, given ``np.mean(margins)``,
    without numpy's whole-length array of deviations. numpy sums a contiguous
    float64 array pairwise: it halves ``n`` at ``n // 2 - (n // 2) % 8``
    until a block of at most 128 is summed with eight accumulators. This
    halves the same way down to blocks of at most ``max(_CHUNK, 128)``,
    which numpy sums on the same tree, and adds the halves as numpy does."""
    import numpy as np

    block = max(_CHUNK, 128)

    def total(start: int, size: int) -> float:
        if size > block:
            half = size // 2
            half -= half % 8
            return total(start, half) + total(start + half, size - half)
        deviations = margins[start : start + size] - mean
        return np.add.reduce(np.square(deviations, out=deviations))

    return math.sqrt(total(0, margins.size) / (margins.size - 1))


def _p01(margins: np.ndarray) -> float:
    """``np.percentile(margins, 1.0)`` to the bit, NaN included, without a
    whole-length copy and without the ``numpy.ma`` import inside
    ``np.percentile`` (about 12 ms a process): numpy's linear rule and its
    ``_lerp`` on the two order statistics at the 1 % rank.

    A running selection keeps the ``high + 1`` smallest values, scanning
    chunks of ``max(_CHUNK, 4 * (high + 1))``; once it holds them, only a
    value below the largest kept one can enter. Equal values have equal bits
    but for ``-0.0`` and ``0.0``, which numpy's partition leaves in no
    defined order: where an order statistic is a zero, it takes the sign it
    has when ``-0.0`` sorts before ``0.0``.
    """
    import numpy as np

    last = margins.size - 1
    virtual = last * (1.0 / 100)
    low = math.floor(virtual)
    high = min(low + 1, last)
    if math.isnan(margins.max()):  # numpy returns NaN
        return math.nan
    keep = high + 1
    step = max(_CHUNK, 4 * keep)
    pool = np.empty(keep + step)
    held = 0
    for start in range(0, margins.size, step):
        chunk = margins[start : start + step]
        if held:  # only a value below the largest kept one changes the kept set
            chunk = chunk[chunk < pool[high]]
        if chunk.size:  # the first chunk holds at least ``keep`` values
            pool[held : held + chunk.size] = chunk
            pool[: held + chunk.size].partition(high)
            held = keep
    kept = pool[:keep]
    kept.partition((low, high))
    a, b = float(kept[low]), float(kept[high])
    if a == 0.0 or b == 0.0:
        # ranks below ``below`` hold -0.0 once it sorts first: every negative
        # value is kept, and every -0.0 is counted
        below = int(np.count_nonzero(kept < 0.0)) + sum(
            int(np.count_nonzero(np.signbit(chunk) & (chunk == 0.0)))
            for chunk in (margins[start : start + step] for start in range(0, margins.size, step))
        )
        a, b = (
            x if x != 0.0 else -0.0 if rank < below else 0.0 for x, rank in ((a, low), (b, high))
        )
    gamma = virtual - low
    return a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)


# perfbench/checker.py imports these two from here until ROADMAP item 3 repoints it
def __getattr__(name: str) -> object:
    if name not in ("apply_misalignment", "perturbed_resistance"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
