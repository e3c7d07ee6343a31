"""Compact resistance and sense-margin model for multi-domain MTJs.

A read port spanning D nanowire domains behaves as a parallel bank of
characterized mini-resistors: one per domain (polarity and coverage class),
one per internal domain wall, plus border half-walls. This package builds
those banks from bit patterns, clusters the 2^D patterns into Hamming-weight
levels, reports sense margins (enumerated and closed form), and studies how
stack-to-notch misalignment erodes them.
"""

__version__ = "0.1.0"

from . import errors
from .characterization import (
    Characterization,
    CharacterizationMetadata,
    DeviceGeometry,
    DriveParams,
    Polarity,
    SegmentKind,
    SegmentResistanceTable,
    default_characterization,
    dump_config,
    load_config,
    parse_config,
    scaled_resistance,
)
from .margins import (
    AdjacentMargin,
    ClassEntry,
    LevelCluster,
    MarginReport,
    SweepReport,
    SweepRow,
    closed_form_min_margin,
    closed_form_resistances,
    cluster_extremes,
    enumerate_levels,
    sweep_domains,
    worst_case_levels,
)
from .network import (
    BitPattern,
    Border,
    BorderCondition,
    Decomposition,
    decompose,
    equivalent_resistance,
    pattern_resistance,
    pattern_voltage,
)
from .variation import (
    MisalignmentSpec,
    MonteCarloReport,
    MonteCarloSpec,
    NeighborAssumption,
    OffsetReport,
    apply_misalignment,
    min_margins_for_offsets,
    monte_carlo_margins,
    offset_margin_report,
    perturbed_resistance,
)

__all__ = [
    "__version__",
    "errors",
    "Characterization",
    "CharacterizationMetadata",
    "DeviceGeometry",
    "DriveParams",
    "Polarity",
    "SegmentKind",
    "SegmentResistanceTable",
    "default_characterization",
    "dump_config",
    "load_config",
    "parse_config",
    "scaled_resistance",
    "AdjacentMargin",
    "ClassEntry",
    "LevelCluster",
    "MarginReport",
    "SweepReport",
    "SweepRow",
    "closed_form_min_margin",
    "closed_form_resistances",
    "cluster_extremes",
    "enumerate_levels",
    "sweep_domains",
    "worst_case_levels",
    "BitPattern",
    "Border",
    "BorderCondition",
    "Decomposition",
    "decompose",
    "equivalent_resistance",
    "pattern_resistance",
    "pattern_voltage",
    "MisalignmentSpec",
    "MonteCarloReport",
    "MonteCarloSpec",
    "NeighborAssumption",
    "OffsetReport",
    "apply_misalignment",
    "min_margins_for_offsets",
    "monte_carlo_margins",
    "offset_margin_report",
    "perturbed_resistance",
]
