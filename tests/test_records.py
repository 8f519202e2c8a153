"""The public records keep their contract: repr, equality, hashing,
immutability, validation and pickling."""

import pickle

import pytest

from ballseq.core import Constraint, FeasibilityReport, SequenceClass
from ballseq.oracle import ClassStats, Coloring, VerificationReport, classify, verify
from ballseq.problems import DistributionTable, distribution_table

# Each record with its repr as printed before the records became named tuples.
RECORDS = [
    (SequenceClass(5, 3, 4, 2), "SequenceClass(k=5, n=3, m=4, lam=2)"),
    (
        FeasibilityReport(False, (Constraint.EXACTLY_ONE_MATCH, Constraint.LAMBDA_VS_HALF_M)),
        "FeasibilityReport(feasible=False, violated_constraints=("
        "<Constraint.EXACTLY_ONE_MATCH: 'ExactlyOneMatch'>, "
        "<Constraint.LAMBDA_VS_HALF_M: 'LambdaVsHalfM'>))",
    ),
    (FeasibilityReport(True, ()), "FeasibilityReport(feasible=True, violated_constraints=())"),
    (
        distribution_table(2, 2),
        "DistributionTable(k=2, n=2, by_match_cell={(0, 0): 2, (2, 1): 2},"
        " by_repeat_count={0: 2, 1: 2})",
    ),
    (Coloring([0, 1, 0], 2), "Coloring(colors=(0, 1, 0), n=2)"),
    (classify(Coloring((0, 0, 1, 1, 2, 2, 3, 3, 3, 3), 4)), "ClassStats(m=10, lam=4, mu=6, distinct=4)"),
    (verify(2, 2), "VerificationReport(k=2, n=2, cells_checked=6, mismatches=(), passed=True)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_equality_hashing_and_unpacking(record, text):
    twin = type(record)(*record)
    assert twin == record and not twin != record
    assert twin == tuple(record)
    if isinstance(record, DistributionTable):
        with pytest.raises(TypeError):  # it holds two dicts
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(record))


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, text):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_pickle_round_trip(record, text):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record
    assert repr(copy) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SequenceClass(-1, 2, 0, 0), "k must be a non-negative integer, got -1"),
        (lambda: SequenceClass(2, 2, 2, True), "lam must be a non-negative integer, got True"),
        (lambda: SequenceClass(2, "3", 0, 0), "n must be a non-negative integer, got '3'"),
        (lambda: FeasibilityReport(True, (Constraint.MATCH_FLOOR,)),
         "feasible must mean exactly zero violations"),
        (lambda: FeasibilityReport(False, ()), "feasible must mean exactly zero violations"),
        (lambda: Coloring((0, 3), 3), "color index 3 outside palette [0, 3)"),
        (lambda: Coloring((True,), 2), "color index True outside palette [0, 2)"),
        (lambda: Coloring((0,), True), "n must be a non-negative integer, got True"),
        (lambda: VerificationReport(2, 2, 4, (), False), "passed must mean exactly zero mismatches"),
        # A copy made by _replace is checked like a new record.
        (lambda: SequenceClass(2, 2, 2, 1)._replace(m=-1), "m must be a non-negative integer, got -1"),
        (lambda: Coloring((0, 1), 2)._replace(n=1), "color index 1 outside palette [0, 1)"),
    ],
)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_coloring_stores_its_colors_as_a_tuple():
    assert Coloring(iter([1, 0]), 2).colors == (1, 0)
    assert Coloring([1, 0], 2) == Coloring((1, 0), 2)


def test_records_take_keyword_arguments():
    assert SequenceClass(k=5, n=3, m=4, lam=2) == SequenceClass(5, 3, 4, 2)
    assert ClassStats(m=0, lam=0, mu=0, distinct=0) == (0, 0, 0, 0)
