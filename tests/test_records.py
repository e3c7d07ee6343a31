"""The value classes every query builds, written without ``dataclasses``.

``DeviceGeometry``, ``DriveParams``, ``CharacterizationMetadata``,
``Characterization``, ``BitPattern``, ``BorderCondition`` and ``cli._Result``
keep what their dataclass versions offered: the same repr, equality only
within one class, a hash over the fields, frozen fields (``_Result`` stays
mutable), copies and pickles, and a ``replace`` method in place of
``dataclasses.replace``. The repr literals were printed by the dataclass
versions.
"""

import copy
import pickle

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
from mdmtj.network import ALL_CONDITIONS, BitPattern, Border, BorderCondition

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
    "borders": (
        BorderCondition(Border.SAME, Border.DIFFER),
        "BorderCondition(left=<Border.SAME: 'same'>, right=<Border.DIFFER: 'differ'>)",
        "right", Border.SAME,
    ),
    "result": (
        cli._Result("resistance", {}, str),
        "_Result(command='resistance', arguments={}, table=<class 'str'>, head={},"
        " rows_key=None, columns=(), values=(), tail={}, seed=None)",
        "seed", 7,
    ),
}
FROZEN = [name for name in RECORDS if name != "result"]
# a Characterization holds a table, which defines == and so no hash
HASHABLE = [name for name in FROZEN if name != "characterization"]


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


def test_a_result_is_mutable_and_owns_its_defaults():
    first, second = cli._Result("a", {}, str), cli._Result("b", {}, str)
    assert first.head == first.tail == {}
    assert first.head is not second.head and first.tail is not second.tail
    assert first.head is not first.tail
    first.seed = 3
    first.head["key"] = 1
    assert (first.seed, first.head, second.head) == (3, {"key": 1}, {})
    with pytest.raises(AttributeError):
        first.not_a_field = 1


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
