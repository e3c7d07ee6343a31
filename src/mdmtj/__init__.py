"""Compact resistance and sense-margin model for multi-domain MTJs.

A read port spanning D nanowire domains behaves as a parallel bank of
characterized mini-resistors: one per domain (polarity and coverage class),
one per internal domain wall, plus border half-walls. This package builds
those banks from bit patterns, clusters the 2^D patterns into Hamming-weight
levels, reports sense margins (enumerated and closed form), and studies how
stack-to-notch misalignment erodes them.
"""

import importlib as _importlib

__version__ = "0.1.0"

# every exported name -> the submodule that defines it. A name is imported
# from its home on first access (PEP 562), so a process compiles only the
# modules it uses: ``mdmtj resistance`` never loads ``margins`` or
# ``variation``.
_HOME: dict[str, str] = {
    "errors": "errors",
    **dict.fromkeys(
        (
            "Characterization",
            "CharacterizationMetadata",
            "DeviceGeometry",
            "DriveParams",
            "SegmentKind",
            "SegmentResistanceTable",
            "default_characterization",
            "load_config",
            "parse_config",
        ),
        "characterization",
    ),
    **dict.fromkeys(
        (
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
        ),
        "margins",
    ),
    **dict.fromkeys(
        (
            "BitPattern",
            "Border",
            "BorderCondition",
            "bank_conductance",
            "decompose",
            "pattern_resistance",
            "pattern_voltage",
        ),
        "network",
    ),
    **dict.fromkeys(
        (
            "MisalignmentSpec",
            "MonteCarloReport",
            "MonteCarloSpec",
            "NeighborAssumption",
            "OffsetReport",
            "min_margins_for_offsets",
            "monte_carlo_margins",
            "offset_margin_report",
        ),
        "variation",
    ),
}
_SUBMODULES = frozenset(_HOME.values())

__all__ = ["__version__", *_HOME]


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:  # importing a submodule binds it here
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
