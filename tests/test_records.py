"""The value types: construction, immutability, equality, hashing, repr
and validation of every `model.Record` subclass."""

import copy
import pickle
from fractions import Fraction

import pytest

from clustercap.capacity import (
    ComparisonVerdict,
    Outcome,
    TradeoffPoint,
    TradeoffResult,
    Variant,
    WeightSequence,
)
from clustercap.codes import CodeInstance, NodeContents, RepairPlan
from clustercap.mincut import CutReport
from clustercap.model import (
    BandwidthOrder,
    ClusterOrder,
    ConfigError,
    DCRange,
    DInvalid,
    KRange,
    NodeCount,
    NodeParams,
    Record,
    RepairParams,
    SelectedNodeDistribution,
    SystemConfig,
)
from clustercap.oracle import (
    BruteForceResult,
    FlowGraph,
    VerificationFamily,
    VerificationReport,
)
from clustercap.sequencing import SeparatePositions

F = Fraction
NODES = (5, 3, 2, 2, 1)
REPAIR = (F(2), 1, F(2), 3, F(1))
CONFIG = SystemConfig(NodeParams(*NODES), RepairParams(*REPAIR))
PLAN = RepairPlan(3, None, (1, 2, 4, 5), {1: (1, 0), 2: (0, 1)}, ((1, 0), (0, 1)))

# one valid sample per record class, as positional field values
SAMPLES = {
    NodeParams: NODES,
    RepairParams: REPAIR,
    SystemConfig: (NodeParams(*NODES), RepairParams(*REPAIR)),
    SelectedNodeDistribution: (1, (2, 0)),
    ClusterOrder: ((1, 1, 0),),
    WeightSequence: ((F(1), F(3, 2), F(2)), Variant.CSN_ONE_SEPARATE),
    TradeoffPoint: (F(1), F(5, 2), F(6)),
    TradeoffResult: ((TradeoffPoint(F(1), F(5, 2), F(6)),), (F(1, 8),), Variant.CLUSTER_DSS, 3),
    ComparisonVerdict: (Outcome.REDUCED, F(7), F(6)),
    CutReport: (F(6), (F(2), F(3), F(4)), (True, False, False)),
    SeparatePositions: ((2, 5),),
    BruteForceResult: (F(6), SelectedNodeDistribution(1, (2, 0)), ClusterOrder((1, 1, 0))),
    FlowGraph: (4, ((0, 1, 3), (1, 2, 2), (2, 3, 9)), 0, 3, 1, 9),
    VerificationReport: ("n=5", "thm3-capacity", False, "order (1, 1, 0) gives 5 < 6"),
    VerificationFamily: ("tiny", (CONFIG,), ("thm3-capacity",)),
    NodeContents: (4, 11, 2),
    RepairPlan: (1, 2, (3, 4), {3: (1, 2), 4: (5, 6)}, ((1, 0, 0, 0),)),
    CodeInstance: (13, ((1, 2), (3, 4), (5, 6)), ((6, 5), (4, 3), (2, 1)), {3: PLAN}),
}
UNHASHABLE = {RepairPlan, CodeInstance}  # their dict fields have no hash


def test_every_record_class_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)
    assert len(SAMPLES) == 18


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    args = SAMPLES[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(cls.__slots__, args)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(getattr(by_keyword, name) for name in cls.__slots__) == args
    if cls not in UNHASHABLE:
        assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    record = cls(*SAMPLES[cls])
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in cls.__slots__) == SAMPLES[cls]


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls):
    args = SAMPLES[cls]
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__slots__, args))
    assert repr(cls(*args)) == f"{cls.__name__}({fields})"


def test_repr_examples():
    assert repr(NodeParams(*NODES)) == "NodeParams(n=5, k=3, L=2, R=2, E=1)"
    assert repr(ClusterOrder((1, 0))) == "ClusterOrder(labels=(1, 0))"
    assert repr(VerificationReport("i", "c", True)) == (
        "VerificationReport(instance='i', claim='c', passed=True, counterexample=None)"
    )


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_copy_and_pickle_round_trip(cls):
    record = cls(*SAMPLES[cls])
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        assert clone == record


def test_different_record_types_with_equal_fields_are_unequal():
    pairs = [
        (ClusterOrder((1, 2)), SeparatePositions((1, 2))),
        (NodeContents(1, 2, 3), TradeoffPoint(1, 2, 3)),
    ]
    for a, b in pairs:
        assert tuple(getattr(a, n) for n in a.__slots__) == tuple(
            getattr(b, n) for n in b.__slots__
        )
        assert a != b and b != a
        assert not a == b
    assert ClusterOrder((1, 2)) != (1, 2)
    assert NodeParams(*NODES) != NODES


def test_equality_and_hash_follow_every_field():
    base = NodeParams(*NODES)
    assert base != NodeParams(6, 3, 2, 2, 2)
    assert len({base, NodeParams(*NODES), NodeParams(6, 3, 2, 2, 2)}) == 2
    assert CutReport(F(1), (), ()) != CutReport(F(2), (), ())


def test_defaults():
    assert VerificationReport("i", "c", True).counterexample is None


@pytest.mark.parametrize("cls", sorted(UNHASHABLE, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_records_with_dict_fields_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(cls(*SAMPLES[cls]))


def test_separate_positions_are_sorted():
    assert SeparatePositions((5, 2, 3)).positions == (2, 3, 5)
    assert SeparatePositions(positions=[4, 1]).positions == (1, 4)
    assert SeparatePositions((5, 2)) == SeparatePositions((2, 5))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: NodeParams(1, 1, 0, 1, 0), KRange),
        (lambda: NodeParams(1, 1, 1, 0, 0), KRange),
        (lambda: NodeParams(3, 1, 1, 2, -1), KRange),
        (lambda: NodeParams(6, 3, 2, 2, 1), NodeCount),
        (lambda: NodeParams(5, 5, 2, 2, 1), KRange),
        (lambda: NodeParams(5, 0, 2, 2, 1), KRange),
        (lambda: RepairParams(F(-1), 1, F(2), 3, F(1)), ConfigError),
        (lambda: RepairParams(F(2), 1, F(2), 3, F(-1)), BandwidthOrder),
        (lambda: RepairParams(F(2), 1, F(1), 3, F(2)), BandwidthOrder),
        (lambda: SystemConfig(NodeParams(*NODES), RepairParams(F(2), 2, F(2), 3, F(1))),
         DInvalid),
        (lambda: SystemConfig(NodeParams(*NODES), RepairParams(F(2), 1, F(2), 1, F(1))),
         DCRange),
        (lambda: SystemConfig(NodeParams(*NODES), RepairParams(F(2), 1, F(2), 4, F(1))),
         DCRange),
        (lambda: SelectedNodeDistribution(-1, (2, 0)), ConfigError),
        (lambda: SelectedNodeDistribution(0, (2, -1)), ConfigError),
        (lambda: SelectedNodeDistribution(0, (1, 2)), ConfigError),
        (lambda: ClusterOrder((1, -1)), ConfigError),
        (lambda: SeparatePositions((2, 1, 2)), ConfigError),
    ],
)
def test_validation_raises_named_error(build, error):
    with pytest.raises(ConfigError) as raised:
        build()
    assert type(raised.value) is error
