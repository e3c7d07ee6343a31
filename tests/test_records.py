"""The value classes, written without ``dataclasses``.

Every value class is a ``characterization._Record`` and keeps what its
dataclass version offered: the same constructor arguments and defaults, the
same repr, equality only within one class, a hash over the fields, frozen
fields, copies and pickles, and a ``replace`` method in place of
``dataclasses.replace``. A ``MonteCarloReport`` compares its arrays bit for
bit and leaves them out of its hash and repr. The repr literals were
printed by the dataclass versions.
"""

import copy
import pickle

import numpy as np
import pytest

from mdmtj import cli
from mdmtj.characterization import (
    Characterization,
    CharacterizationMetadata,
    DeviceGeometry,
    DriveParams,
    default_characterization,
)
from mdmtj.errors import PatternError
from mdmtj.margins import (
    AdjacentMargin,
    ClassEntry,
    LevelCluster,
    MarginReport,
    SweepReport,
    SweepRow,
)
from mdmtj.network import ALL_CONDITIONS, BitPattern, Border, BorderCondition
from mdmtj.oracle import PerturbedDecomposition, SymmetryResult
from mdmtj.variation import (
    MisalignmentSpec,
    MonteCarloReport,
    MonteCarloSpec,
    NeighborAssumption,
    OffsetReport,
)

_TABLE = (
    "SegmentResistanceTable(r_minus_80=1911.0, r_minus_74=2048.0, r_minus_68=2228.0,"
    " r_plus_80=4324.0, r_plus_74=4730.0, r_plus_68=5143.0, r_dw_01=20053.0,"
    " r_dw_10=20063.0, r_hdw_minus=35061.0, r_hdw_plus=46196.0)"
)
_GEOMETRY = (
    "DeviceGeometry(domain_length=8e-08, track_width=4e-08, notch_length=1.2e-08,"
    " free_layer_thickness=2e-09, mgo_thickness=1e-09)"
)
_DRIVE = "DriveParams(current_density=32100000000.0)"
_METADATA = (
    "CharacterizationMetadata(material='CoFeB', k_u=99999.0, m_s=1200.0,"
    " exchange_stiffness=2.2, amr_ratio=0.014, tmr_ratio=0.8, resistivity=15.0)"
)

_SAME_DIFFER = "BorderCondition(left=<Border.SAME: 'same'>, right=<Border.DIFFER: 'differ'>)"
_ENTRY = "ClassEntry(representative='0011', multiplicity=2, resistance=1234.5, voltage=0.0625)"
_WORST = "<NeighborAssumption.WORST: 'worst'>"
_BORDERS = BorderCondition(Border.SAME, Border.DIFFER)  # its repr is _SAME_DIFFER
_ONE, _WORST_NEIGHBOR = NeighborAssumption.ONE, NeighborAssumption.WORST

# (record, its repr, a field and another value for it)
RECORDS = {
    "geometry": (DeviceGeometry(), _GEOMETRY, "domain_length", 60e-9),
    "drive": (DriveParams(), _DRIVE, "current_density", 1e10),
    "metadata": (CharacterizationMetadata(), _METADATA, "material", "NiFe"),
    "characterization": (
        default_characterization(),
        f"Characterization(table={_TABLE}, geometry={_GEOMETRY}, drive={_DRIVE},"
        f" metadata={_METADATA})",
        "drive", DriveParams(1e10),
    ),
    "pattern": (BitPattern((0, 1, 1)), "BitPattern(bits=(0, 1, 1))", "bits", (1, 0)),
    "borders": (_BORDERS, _SAME_DIFFER, "right", Border.SAME),
    "result": (
        cli._Result("resistance", {}, str),
        "_Result(command='resistance', arguments={}, table=<class 'str'>, head={},"
        " rows_key=None, columns=(), values=(), tail={}, seed=None)",
        "seed", 7,
    ),
    "class entry": (ClassEntry("0011", 2, 1234.5, 0.0625), _ENTRY, "multiplicity", 3),
    "level cluster": (
        LevelCluster(2, 6, 500.0, 510.25, 0.05, 0.051, (ClassEntry("0011", 2, 1234.5, 0.0625),)),
        "LevelCluster(weight=2, pattern_count=6, min_resistance=500.0, max_resistance=510.25,"
        f" min_voltage=0.05, max_voltage=0.051, classes=({_ENTRY},))",
        "classes", (),
    ),
    "adjacent margin": (
        AdjacentMargin(1, 2, 450.5, 470.0, 0.0021),
        "AdjacentMargin(weight_low=1, weight_high=2, r_low_max=450.5, r_high_min=470.0,"
        " margin=0.0021)",
        "margin", 0.0022,
    ),
    "margin report": (
        MarginReport(2, None, 1e-6, (), (), 0.0021, (1, 2), 3),
        "MarginReport(domains=2, borders=None, read_current=1e-06, clusters=(),"
        " adjacent_margins=(), min_margin=0.0021, min_margin_pair=(1, 2),"
        " distinguishable_levels=3)",
        "borders", _BORDERS,
    ),
    "sweep row": (
        SweepRow(5, 0.003, None),
        "SweepRow(domains=5, closed_form_margin=0.003, enumerated_margin=None)",
        "enumerated_margin", 0.003,
    ),
    "sweep report": (
        SweepReport(2, 3, 0.0042, _BORDERS, (SweepRow(2, 0.01, 0.01),), None),
        f"SweepReport(d_min=2, d_max=3, threshold=0.0042, borders={_SAME_DIFFER},"
        " rows=(SweepRow(domains=2, closed_form_margin=0.01, enumerated_margin=0.01),),"
        " max_scalable_domains=None)",
        "max_scalable_domains", 3,
    ),
    "misalignment spec": (
        MisalignmentSpec(5.5e-9),
        f"MisalignmentSpec(offset=5.5e-09, left_neighbor={_WORST}, right_neighbor={_WORST})",
        "offset", -5.5e-9,
    ),
    "offset report": (
        OffsetReport(4, _BORDERS, 3e-9, NeighborAssumption.ZERO, _WORST_NEIGHBOR,
                     0.02, (0.019, 0.0185), 0.0185, 0.0015),
        f"OffsetReport(domains=4, borders={_SAME_DIFFER}, offset=3e-09,"
        f" left_neighbor=<NeighborAssumption.ZERO: '0'>, right_neighbor={_WORST},"
        " nominal_min_margin=0.02, sign_min_margins=(0.019, 0.0185),"
        " perturbed_min_margin=0.0185, margin_deviation=0.0015)",
        "left_neighbor", _ONE,
    ),
    "monte carlo spec": (
        MonteCarloSpec(100, 1),
        "MonteCarloSpec(samples=100, seed=1, sigma=9.166666666666666e-10, truncation=6.0)",
        "seed", 2,
    ),
    "monte carlo report": (
        MonteCarloReport(4, _BORDERS, MonteCarloSpec(2, 1), _ONE, _WORST_NEIGHBOR,
                         0.02, 0.0195, 0.0002, 0.019, 0.0191,
                         np.array([0.0, -0.0]), np.array([0.02, np.nan])),
        f"MonteCarloReport(domains=4, borders={_SAME_DIFFER}, spec=MonteCarloSpec(samples=2,"
        " seed=1, sigma=9.166666666666666e-10, truncation=6.0),"
        f" left_neighbor=<NeighborAssumption.ONE: '1'>, right_neighbor={_WORST},"
        " nominal_min_margin=0.02, mean_margin=0.0195, stddev_margin=0.0002, min_margin=0.019,"
        " p01_margin=0.0191)",
        "p01_margin", 0.0192,
    ),
    "perturbed decomposition": (
        PerturbedDecomposition((1, 0, 0, 0, 0, 0, 0, 0, 0, 0), ((0, 7.4e-08), (8, 3e-09))),
        "PerturbedDecomposition(counts=(1, 0, 0, 0, 0, 0, 0, 0, 0, 0),"
        " partials=((0, 7.4e-08), (8, 3e-09)))",
        "partials", (),
    ),
    "symmetry result": (
        SymmetryResult(False, ("mirror", "0011", "same/differ"), 17),
        "SymmetryResult(passed=False, counterexample=('mirror', '0011', 'same/differ'),"
        " checks_run=17)",
        "passed", True,
    ),
}
FROZEN = list(RECORDS)
# a Characterization holds a table, which defines == and so no hash; a
# result holds dicts; a Monte Carlo report hashes without its arrays
HASHABLE = [
    name for name in FROZEN if name not in ("characterization", "result", "monte carlo report")
]


@pytest.mark.parametrize("name", RECORDS)
def test_repr_reads_as_the_dataclass_printed_it(name):
    record, text, _, _ = RECORDS[name]
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_within_a_class_and_not_implemented_across(name):
    record, _, field, value = RECORDS[name]
    assert record == copy.copy(record)
    assert record != record.replace(**{field: value})
    for other_name, (other, *_) in RECORDS.items():
        if other_name != name:
            assert record.__eq__(other) is NotImplemented
            assert record != other
    assert record.__eq__(record._values()) is NotImplemented


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_records_hash_equal(name):
    record, _, field, value = RECORDS[name]
    twin = pickle.loads(pickle.dumps(record))
    assert twin is not record
    assert hash(twin) == hash(record) == hash(record._values())
    assert {record: name}[twin] == name
    assert hash(record.replace(**{field: value})) != hash(record)


def test_border_conditions_work_as_dict_keys():
    index = {condition: i for i, condition in enumerate(ALL_CONDITIONS)}
    for i, text in enumerate(("same/same", "same,differ", "differ/same", "DIFFER, differ")):
        assert index[BorderCondition.parse(text)] == i
    assert BorderCondition.parse("same,differ") in ALL_CONDITIONS


@pytest.mark.parametrize("name", ["characterization", "result"])
def test_a_record_of_unhashable_values_is_unhashable(name):
    with pytest.raises(TypeError, match="unhashable"):
        hash(RECORDS[name][0])


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, _, field, value = RECORDS[name]
    before = repr(record)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = value
    assert repr(record) == before


@pytest.mark.parametrize("name", RECORDS)
def test_replace_returns_a_changed_copy(name):
    record, text, field, value = RECORDS[name]
    changed = record.replace(**{field: value})
    assert changed is not record and type(changed) is type(record)
    assert getattr(changed, field) == value
    assert changed.replace(**{field: getattr(record, field)}) == record
    assert repr(record) == text  # the original is untouched
    assert record.replace() == record and record.replace() is not record
    with pytest.raises(TypeError):
        record.replace(not_a_field=1)


def test_replace_builds_through_the_constructor():
    char = default_characterization()
    shorter = char.replace(geometry=char.geometry.replace(domain_length=20e-9))
    assert shorter.geometry.domain_length == 20e-9
    assert shorter.table is char.table and shorter.drive is char.drive
    assert char.geometry.domain_length == 80e-9
    with pytest.raises(PatternError, match="pattern bits must be 0 or 1"):
        BitPattern((0, 1)).replace(bits=(0, 2))
    assert Characterization(*char._values()) == char


def test_the_constructor_binds_arguments_as_the_dataclass_did():
    worst = NeighborAssumption.WORST
    assert (
        MisalignmentSpec(1e-9)
        == MisalignmentSpec(1e-9, right_neighbor=worst)
        == MisalignmentSpec(offset=1e-9, left_neighbor=worst, right_neighbor=worst)
    )
    assert DeviceGeometry(60e-9, notch_length=10e-9) == DeviceGeometry(60e-9, 40e-9, 10e-9, 2e-9, 1e-9)
    assert MonteCarloSpec(seed=3, samples=9).sigma == MonteCarloSpec(9, 3).sigma
    for args, kwargs, message in [
        ((), {}, "MisalignmentSpec() missing required argument 'offset'"),
        ((), {"left_neighbor": worst}, "missing required argument 'offset'"),
        ((1e-9,), {"offset": 2e-9}, "got multiple values for argument 'offset'"),
        ((1e-9,), {"sign": 1}, "got an unexpected keyword argument 'sign'"),
        ((1e-9, worst, worst, worst), {}, "takes 3 positional arguments but 4 were given"),
    ]:
        with pytest.raises(TypeError) as raised:
            MisalignmentSpec(*args, **kwargs)
        assert message in str(raised.value)
    with pytest.raises(TypeError, match="missing required argument 'margin'"):
        AdjacentMargin(1, 2, 450.5, 470.0)


def test_a_monte_carlo_report_compares_its_arrays_bit_for_bit():
    report = RECORDS["monte carlo report"][0]
    # a NaN margin matches itself; -0.0 and 0.0 differ
    assert report == report.replace(offsets=report.offsets.copy(), margins=report.margins.copy())
    moved = report.replace(offsets=np.array([0.0, 0.0]))
    assert report != moved
    assert hash(report) == hash(moved) == hash(report._values()[:-2])
    assert "offsets" not in repr(report) and "margins" not in repr(report)


@pytest.mark.parametrize(
    "bits, message",
    [
        ((), "pattern must contain at least one bit"),
        ((0,) * 31, "pattern length 31 exceeds the supported maximum of 30 domains"),
        ((0, 2), "pattern bits must be 0 or 1, got (0, 2)"),
        ((1, True, 0.0), None),  # equal to 0 and 1, as the dataclass allowed
    ],
)
def test_bit_pattern_validates_in_its_constructor(bits, message):
    if message is None:
        assert BitPattern(bits).bits == bits
        return
    with pytest.raises(PatternError) as raised:
        BitPattern(bits)
    assert str(raised.value) == message
