"""Unit and property tests for the single-cell counting primitives."""

import itertools
import math
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballseq.core import (
    Constraint,
    FeasibilityReport,
    SequenceClass,
    doubly_surjective_count,
    feasibility,
    z_count,
)

small = st.integers(min_value=0, max_value=30)


# ---------------------------------------------- doubly-surjective counting

def _brute_force_assignments(m, lam):
    """Count functions [m] -> [lam] hitting every image point twice or more,
    by enumerating all lam^m of them."""
    total = 0
    for f in itertools.product(range(lam), repeat=m):
        hits = [0] * lam
        for v in f:
            hits[v] += 1
        if all(h >= 2 for h in hits):
            total += 1
    return total


def test_doubly_surjective_known_values():
    assert doubly_surjective_count(0, 0) == 1
    assert doubly_surjective_count(2, 1) == 1
    assert doubly_surjective_count(4, 2) == 6
    assert doubly_surjective_count(5, 2) == 20
    assert doubly_surjective_count(3, 2) == 0


def test_doubly_surjective_rejects_negatives():
    with pytest.raises(ValueError):
        doubly_surjective_count(-1, 0)
    with pytest.raises(ValueError):
        doubly_surjective_count(0, -1)
    with pytest.raises(ValueError):
        doubly_surjective_count(True, 0)
    # A bool must not be served from the cached entry for the int it equals.
    assert doubly_surjective_count(2, 1) == 1
    with pytest.raises(ValueError):
        doubly_surjective_count(2, True)
    with pytest.raises(ValueError):
        doubly_surjective_count(4, 2.0)


def test_doubly_surjective_matches_brute_force_small():
    for m in range(8):
        for lam in range(4):
            assert doubly_surjective_count(m, lam) == _brute_force_assignments(m, lam), (m, lam)


@given(m=st.integers(min_value=1, max_value=40))
def test_doubly_surjective_zero_colors(m):
    assert doubly_surjective_count(m, 0) == 0


@given(m=st.integers(min_value=2, max_value=40))
def test_doubly_surjective_one_color(m):
    assert doubly_surjective_count(m, 1) == 1


@given(m=st.integers(min_value=0, max_value=40), lam=st.integers(min_value=0, max_value=40))
def test_doubly_surjective_vanishes_when_colors_outnumber_pairs(m, lam):
    if 2 * lam > m:
        assert doubly_surjective_count(m, lam) == 0


@given(m=st.integers(min_value=0, max_value=60), lam=st.integers(min_value=0, max_value=30))
def test_doubly_surjective_never_negative(m, lam):
    assert doubly_surjective_count(m, lam) >= 0


def test_doubly_surjective_splits_off_last_color():
    # Classify by the size j >= 2 of the last color's preimage:
    # s(m, lam) = sum_j C(m, j) * s(m - j, lam - 1).
    for m in range(2, 16):
        for lam in range(1, m // 2 + 1):
            recursed = sum(
                math.comb(m, j) * doubly_surjective_count(m - j, lam - 1)
                for j in range(2, m + 1)
            )
            assert doubly_surjective_count(m, lam) == recursed


def _inclusion_exclusion(m, lam):
    """S(m, lam) by inclusion-exclusion over the colors left underfilled:
    sum_j (-1)^j C(lam, j) sum_i C(j, i) m!/(m-i)! (lam - j)^(m - i),
    with 0^0 = 1.  Signed terms, so it shares no step with the recurrence."""
    total = 0
    for j in range(lam + 1):
        inner = 0
        for i in range(min(j, m) + 1):
            inner += math.comb(j, i) * math.perm(m, i) * (lam - j) ** (m - i)
        total += (-1) ** j * math.comb(lam, j) * inner
    return total


def test_doubly_surjective_matches_inclusion_exclusion():
    for m in range(81):
        for lam in range(m // 2 + 1):
            assert doubly_surjective_count(m, lam) == _inclusion_exclusion(m, lam), (m, lam)


def _slack_diagonals(m_max, lam_max):
    """Walk the S(m, lam) grid for m <= m_max and lam <= lam_max one
    diagonal of constant slack s = m - 2*lam at a time, yielding
    [S(2*l + s, l) for l in 0..min(lam_max, (m_max - s) // 2)] for each s.
    Each entry is one step of the recurrence
    S(m, lam) = lam * (S(m - 1, lam) + (m - 1) * S(m - 2, lam - 1)) on S
    itself, whose inputs sit on the previous diagonal and earlier on this
    one: the other traversal of the recurrence that the package walks by
    columns of S/lam!."""
    prev = [0] * (lam_max + 1)  # diagonal s = -1: S(2l - 1, l) = 0
    for s in range(m_max + 1):
        row = [int(s == 0)]
        for lam in range(1, min(lam_max, (m_max - s) // 2) + 1):
            row.append(lam * (prev[lam] + (2 * lam + s - 1) * row[-1]))
        yield row
        prev = row


def _walked(m, lam):
    """S(m, lam) read straight off the diagonal walk, whichever way
    doubly_surjective_count would evaluate the cell."""
    for s, row in enumerate(_slack_diagonals(m, lam)):
        if s == m - 2 * lam:
            return row[lam]


def test_doubly_surjective_matches_walk_around_the_rule():
    # m below 2.8 * lam walks the recurrence; from there on the count comes
    # from the alternating sum, which shares no step with it.  The points
    # around 3 * lam sit where the rule stood before; they stay.
    for lam in range(121):
        rule = 14 * lam // 5
        for m in (rule - 1, rule, rule + 1, 3 * lam - 1, 3 * lam, 3 * lam + 1):
            if m >= 2 * lam:
                assert doubly_surjective_count(m, lam) == _walked(m, lam), (m, lam)


@pytest.mark.parametrize(
    "m, lam",
    [(2755, 97), (804, 194), (263, 81), (104, 31)] + [(m, 0) for m in (1, 2, 3, 50)],
)
def test_doubly_surjective_matches_walk_at_large_and_edge_shapes(m, lam):
    assert doubly_surjective_count(m, lam) == _walked(m, lam)


def test_doubly_surjective_large_slack_is_fast():
    # The walk takes 263 k big-int steps here (about 0.45 s on a 2-vCPU
    # VM); the sum takes 100 powers and about 5 k small steps (11 ms).
    doubly_surjective_count.cache_clear()
    start = time.perf_counter()
    doubly_surjective_count(2800, 100)
    assert time.perf_counter() - start < 0.25


# ------------------------------------------------------------- SequenceClass

def test_sequence_class_rejects_negative_fields():
    with pytest.raises(ValueError):
        SequenceClass(-1, 2, 0, 0)
    with pytest.raises(ValueError):
        SequenceClass(2, -1, 0, 0)
    with pytest.raises(ValueError):
        SequenceClass(2, 2, -1, 0)
    with pytest.raises(ValueError):
        SequenceClass(2, 2, 0, -1)


def test_sequence_class_rejects_non_integers():
    with pytest.raises(ValueError):
        SequenceClass(2.0, 2, 0, 0)
    with pytest.raises(ValueError):
        SequenceClass(2, "3", 0, 0)


def test_sequence_class_rejects_bools():
    with pytest.raises(ValueError):
        SequenceClass(True, 2, 0, False)
    with pytest.raises(ValueError):
        SequenceClass(2, 2, 2, True)


def test_sequence_class_is_frozen():
    cell = SequenceClass(2, 2, 2, 1)
    with pytest.raises(AttributeError):
        cell.k = 3


# --------------------------------------------------------------- feasibility

def test_feasible_worked_example_cell():
    report = feasibility(SequenceClass(5, 3, 4, 2))
    assert report.feasible
    assert report.violated_constraints == ()


def test_single_match_is_infeasible():
    report = feasibility(SequenceClass(5, 3, 1, 0))
    assert not report.feasible
    # m = 1 is impossible outright, and 1 < k - n + 1 = 3 matches too few.
    assert Constraint.EXACTLY_ONE_MATCH in report.violated_constraints
    assert Constraint.MATCH_FLOOR in report.violated_constraints
    # The slack bound 0 > n - k + m = -1 fires here as well; every violated
    # constraint is reported, not a curated subset.
    assert set(report.violated_constraints) == {
        Constraint.MATCH_FLOOR,
        Constraint.LAMBDA_VS_SLACK,
        Constraint.EXACTLY_ONE_MATCH,
    }


def test_too_many_repeated_colors_is_infeasible():
    report = feasibility(SequenceClass(4, 10, 4, 3))
    assert not report.feasible
    assert report.violated_constraints == (Constraint.LAMBDA_VS_HALF_M,)


def test_constraints_fire_alone_where_possible():
    cases = {
        Constraint.MATCH_FLOOR: SequenceClass(5, 3, 2, 0),
        Constraint.LAMBDA_VS_HALF_M: SequenceClass(4, 10, 4, 3),
        Constraint.LAMBDA_VS_SLACK: SequenceClass(5, 2, 4, 2),
        Constraint.EXACTLY_ONE_MATCH: SequenceClass(1, 3, 1, 0),
    }
    for constraint, cell in cases.items():
        report = feasibility(cell)
        assert report.violated_constraints == (constraint,), constraint


def test_zero_match_shape_always_has_company():
    # m = 0 with lam != 0 also breaks the half-m bound, and m = 0 with
    # k > n also breaks the match floor, so this constraint never fires
    # alone; check both branches fire it at all.
    for cell in (SequenceClass(2, 5, 0, 1), SequenceClass(6, 3, 0, 0)):
        report = feasibility(cell)
        assert Constraint.ZERO_MATCH_SHAPE in report.violated_constraints
        assert len(report.violated_constraints) >= 2


def test_report_consistency_is_enforced():
    with pytest.raises(ValueError):
        FeasibilityReport(True, (Constraint.EXACTLY_ONE_MATCH,))
    with pytest.raises(ValueError):
        FeasibilityReport(False, ())


@given(k=small, n=small, m=small, lam=small)
def test_feasible_iff_no_violations(k, n, m, lam):
    report = feasibility(SequenceClass(k, n, m, lam))
    assert report.feasible == (len(report.violated_constraints) == 0)


# ------------------------------------------------------------------- z_count

def test_z_count_known_values():
    assert z_count(SequenceClass(5, 3, 4, 1)) == 30
    assert z_count(SequenceClass(5, 3, 4, 2)) == 90
    assert z_count(SequenceClass(2, 2, 2, 1)) == 2
    assert z_count(SequenceClass(3, 5, 0, 0)) == 60
    assert z_count(SequenceClass(7, 2, 1, 0)) == 0


def test_z_count_empty_sequence():
    for n in range(6):
        assert z_count(SequenceClass(0, n, 0, 0)) == 1


def test_z_count_no_matches_counts_injections():
    # The m = 0 column is the injective colorings: n falling k of them.
    for n in range(8):
        for k in range(8):
            expected = math.perm(n, k) if k <= n else 0
            assert z_count(SequenceClass(k, n, 0, 0)) == expected


@given(k=small, n=small, m=small, lam=small)
def test_z_count_zero_on_infeasible(k, n, m, lam):
    cell = SequenceClass(k, n, m, lam)
    if not feasibility(cell).feasible:
        assert z_count(cell) == 0


@given(k=small, n=small, m=small, lam=small)
def test_z_count_never_negative(k, n, m, lam):
    assert z_count(SequenceClass(k, n, m, lam)) >= 0


def test_total_mass_small_grid():
    for k in range(11):
        for n in range(11):
            total = sum(
                z_count(SequenceClass(k, n, m, lam))
                for m in range(k + 1)
                for lam in range(m // 2 + 1)
            )
            assert total == n**k, (k, n)


def test_z_count_pure_across_repeats_and_threads():
    cells = [
        SequenceClass(k, n, m, lam)
        for k in range(9)
        for n in range(9)
        for m in range(k + 1)
        for lam in range(m // 2 + 1)
    ]
    sequential = [z_count(c) for c in cells]
    assert sequential == [z_count(c) for c in cells]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(z_count, cells))
    assert threaded == sequential
