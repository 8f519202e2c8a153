"""Tests for the brute-force enumeration oracle."""

import functools
import itertools
import os
import time
import tracemalloc
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballseq import core, oracle
from ballseq.core import SequenceClass
from ballseq.oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    ClassStats,
    Coloring,
    VerificationReport,
    classify,
    enumerate_counts,
    verify,
)
from ballseq.problems import distribution_table


def _coloring(letters, n):
    return Coloring(tuple(ord(ch) - ord("A") for ch in letters), n)


@st.composite
def colorings(draw, max_k=10, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    colors = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=max_k))
    return Coloring(tuple(colors), n)


# ------------------------------------------------------------------ Coloring

def test_coloring_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        Coloring((0, 3), 3)
    with pytest.raises(ValueError):
        Coloring((-1,), 3)
    with pytest.raises(ValueError):
        Coloring((0,), 0)


def test_coloring_rejects_bools():
    with pytest.raises(ValueError):
        Coloring((True,), 2)
    with pytest.raises(ValueError):
        Coloring((0,), True)


def test_coloring_accepts_any_iterable_of_indices():
    assert Coloring([0, 1, 0], 2).colors == (0, 1, 0)


class _Shade(IntEnum):
    LIGHT = 0
    DARK = 1


def test_coloring_accepts_int_subclasses_but_not_bools_floats_or_strings():
    assert Coloring((_Shade.DARK, 0), 2).colors == (_Shade.DARK, 0)
    for c in (1.0, "1", True):
        with pytest.raises(ValueError, match="outside palette"):
            Coloring((0, c), 2)


# ------------------------------------------------------------------ classify

def test_classify_ten_ball_example():
    stats = classify(_coloring("AABBCCDDDD", 4))
    assert stats == ClassStats(m=10, lam=4, mu=6, distinct=4)


def test_classify_all_distinct():
    stats = classify(_coloring("ABC", 3))
    assert stats == ClassStats(m=0, lam=0, mu=0, distinct=3)


def test_classify_single_heavy_color():
    stats = classify(_coloring("AAAAB", 2))
    assert stats == ClassStats(m=4, lam=1, mu=3, distinct=2)


def test_classify_empty_sequence():
    stats = classify(Coloring((), 3))
    assert stats == ClassStats(m=0, lam=0, mu=0, distinct=0)


@given(colorings())
def test_classify_statistics_interlock(coloring):
    stats = classify(coloring)
    k = len(coloring.colors)
    assert stats.m == stats.mu + stats.lam
    assert stats.mu == k - stats.distinct
    assert stats.lam <= stats.m // 2
    assert 0 <= stats.m <= k
    assert stats.m != 1


@given(colorings(), st.randoms())
def test_classify_is_palette_permutation_covariant(coloring, rng):
    relabel = list(range(coloring.n))
    rng.shuffle(relabel)
    shuffled = Coloring(tuple(relabel[c] for c in coloring.colors), coloring.n)
    assert classify(shuffled) == classify(coloring)


@given(colorings())
def test_classify_is_reversal_invariant(coloring):
    reversed_coloring = Coloring(coloring.colors[::-1], coloring.n)
    assert classify(reversed_coloring) == classify(coloring)


# --------------------------------------------------------------- enumeration

def test_enumerate_two_by_two():
    table = enumerate_counts(2, 2)
    assert table.by_match_cell == {(0, 0): 2, (2, 1): 2}
    assert table.by_repeat_count == {0: 2, 1: 2}


def test_enumerate_empty_sequence():
    table = enumerate_counts(0, 3)
    assert table.by_match_cell == {(0, 0): 1}
    assert table.by_repeat_count == {}


def test_enumerate_worked_example_cells():
    table = enumerate_counts(5, 3)
    assert table.by_match_cell[4, 1] == 30
    assert table.by_match_cell[4, 2] == 90


def test_enumerate_totals_are_exact():
    for k in range(7):
        for n in range(5):
            table = enumerate_counts(k, n)
            assert sum(table.by_match_cell.values()) == n**k, (k, n)
            if k:
                assert sum(table.by_repeat_count.values()) == n**k, (k, n)


def test_enumerate_agrees_with_formula_tables():
    # From (8, 5) a prefix can hold four colors once and another twice,
    # which no shape small enough to classify literally reaches.
    for k, n in [(0, 0), (1, 4), (4, 2), (5, 3), (6, 4), (8, 5), (9, 5)]:
        assert enumerate_counts(k, n) == distribution_table(k, n), (k, n)


def test_enumerate_refuses_over_budget():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_counts(10, 10, budget=100)
    assert exc.value.k == 10
    assert exc.value.n == 10
    assert exc.value.budget == 100


def test_enumerate_budget_is_inclusive():
    # 2^10 = 1024 exactly at the cap must run, one above must not.
    table = enumerate_counts(10, 2, budget=1024)
    assert sum(table.by_match_cell.values()) == 1024
    with pytest.raises(BudgetExceeded):
        enumerate_counts(10, 2, budget=1023)


def test_enumerate_refuses_huge_shapes_cheaply():
    # n^k here has 4.8 million digits; the refusal must not build it.
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        enumerate_counts(10**7, 3, budget=10)
    assert time.perf_counter() - start < 0.5


def test_enumerate_budget_on_degenerate_palettes():
    # 1^k = n^0 = 1 colorings, so a zero budget refuses them however large
    # the other parameter is; 0^k = 0 for k >= 1 fits any budget.
    for k, n in [(10**7, 1), (0, 10**7), (0, 0)]:
        with pytest.raises(BudgetExceeded):
            enumerate_counts(k, n, budget=0)
    assert enumerate_counts(3, 0, budget=0).by_match_cell == {}


def test_enumerate_refuses_long_one_color_walks_cheaply():
    # A one-color palette has one coloring, but walking it visits k balls.
    for k in (10**20, 2 * 10**7, 10**7 + 1):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            enumerate_counts(k, 1)
        assert time.perf_counter() - start < 0.5
        assert str(exc.value) == f"walking one coloring of {k} balls exceeds the budget of 10000000"
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_counts(3 * 10**7, 1, budget=2 * 10**7)
    assert exc.value.budget == 2 * 10**7
    # A budget of exactly the one coloring still walks a short one.
    assert enumerate_counts(6, 1, budget=1).by_match_cell == {(6, 1): 1}


def test_enumerate_empty_palette_walks_nothing():
    # No color for the first ball means no coloring, however many balls.
    start = time.perf_counter()
    table = enumerate_counts(10**20, 0)
    assert time.perf_counter() - start < 0.5
    assert table.by_match_cell == {} and table.by_repeat_count == {}


def test_enumerate_rejects_negative_shape():
    with pytest.raises(ValueError):
        enumerate_counts(-1, 3)
    with pytest.raises(ValueError):
        enumerate_counts(3, -1)


def test_enumerate_rejects_bool_shape():
    with pytest.raises(ValueError):
        enumerate_counts(True, 3)


def test_default_budget_value():
    assert DEFAULT_BUDGET == 10**7


# ------------------------------------------------------- the enumeration walk

# Covers n = 0 with k >= 1, k = 0, shapes with no walk (k <= 3), and walks
# that place one ball (k = 5) or seven (k = 11) one at a time.
SPLIT_SHAPES = [
    (k, n) for k in (0, 1, 2, 5, 11) for n in (0, 1, 2, 3, 4, 7) if n**k <= 2 * 10**5
]


@functools.lru_cache(maxsize=None)
def _literal_census(k, n):
    """Both views of the (k, n) census, built from classify() one coloring
    at a time, independently of enumerate_counts."""
    by_match_cell, by_repeat_count = Counter(), Counter()
    for colors in itertools.product(range(n), repeat=k):
        stats = classify(Coloring(colors, n))
        by_match_cell[stats.m, stats.lam] += 1
        if k:
            by_repeat_count[stats.mu] += 1
    return dict(by_match_cell), dict(by_repeat_count)


# Each case takes a run of SPLIT_SHAPES in a different order, so the census
# of a shape does not hang on which shapes were walked before it.
@pytest.mark.parametrize("stride", [1, 2, 3, 5])
def test_split_enumeration_matches_literal_census(stride):
    order = [SPLIT_SHAPES[i::stride] for i in range(stride)]
    shapes = [shape for run in reversed(order) for shape in run]
    assert sorted(shapes) == sorted(SPLIT_SHAPES)
    for k, n in shapes:
        table = enumerate_counts(k, n)
        assert (table.by_match_cell, table.by_repeat_count) == _literal_census(k, n), (k, n)


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the enumeration walk forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


def test_small_shapes_never_fork(monkeypatch):
    _forbid_fork(monkeypatch)
    # Few colorings make few walk leaves: (5, 9) has 729 and (10, 3) 6,561.
    shapes = [(0, 5000), (5000, 1), (11, 2), (7, 3), (3, 15), (2, 63), (5, 9), (10, 3)]
    for k, n in shapes:
        table = enumerate_counts(k, n)
        assert sum(table.by_match_cell.values()) == n**k, (k, n)


def test_walks_of_few_leaves_never_fork(monkeypatch):
    _forbid_fork(monkeypatch)
    # Each has 65,536 colorings or more but few walk leaves of k - 2 balls:
    # (2, 3162) has 10^7 colorings and one leaf, (3, 215) 9.9 M colorings
    # and 215 leaves, and (9, 4) and (16, 2) 16,384 leaves.
    shapes = [(2, 256), (2, 1000), (2, 3162), (3, 60), (3, 127), (3, 215), (4, 25), (5, 19)]
    shapes += [(7, 6), (9, 4), (16, 2)]
    for k, n in shapes:
        table = enumerate_counts(k, n)
        assert sum(table.by_match_cell.values()) == n**k, (k, n)


# Every k <= 7 and n <= 6 small enough to classify literally, k = 0 and
# n = 0 included, then wide palettes, where the walk loops over hundreds of
# colors for balls k - 3 and k - 2, or writes down the first ball's colors
# when k <= 3; and deep narrow ones, where the walk places and takes off
# balls on many levels above them and a color's count reaches k - 2.
TALLY_SHAPES = [(k, n) for k in range(8) for n in range(7) if n**k <= 2 * 10**5]
TALLY_SHAPES += [(1, 500), (2, 300), (3, 45), (4, 14), (12, 2), (9, 3), (15, 2)]
TALLY_SHAPES += [(3, 150), (8, 4), (3, 31), (4, 11), (17, 2)]


def _literal_tally(k, n):
    """(m, lam, mu) of every coloring, each from classify()."""
    tally = Counter()
    for colors in itertools.product(range(n), repeat=k):
        stats = classify(Coloring(colors, n))
        tally[stats.m, stats.lam, stats.mu] += 1
    return dict(tally)


@pytest.mark.parametrize("k, n", TALLY_SHAPES)
def test_tally_matches_literal_classification(k, n):
    assert oracle._tally(k, n) == _literal_tally(k, n)


# (4, 128) walks a wide palette with k >= 4, as no TALLY_SHAPES entry does;
# its leaf keys, unseen + 129 * once, reach 384.  The walk loops balls k - 4,
# k - 3 and k - 2 inline: at (4, 56) there is no ball k - 4, so ball k - 3 is
# the first ball; at (5, 30) ball k - 4 is the first ball; and at (6, 20) the
# walk places one ball one at a time above the three, on a wide palette.
@pytest.mark.parametrize("k, n", [(3, 215), (21, 2), (4, 128), (4, 56), (5, 30), (6, 20)])
def test_tally_matches_the_closed_forms_past_literal_reach(k, n):
    expected = distribution_table(k, n)
    by_match_cell, by_repeat_count = Counter(), Counter()
    for (m, lam, mu), count in oracle._tally(k, n).items():
        by_match_cell[m, lam] += count
        by_repeat_count[mu] += count
    assert dict(by_match_cell) == expected.by_match_cell
    assert dict(by_repeat_count) == expected.by_repeat_count


def test_one_color_walk_holds_one_small_int_per_ball():
    tracemalloc.start()
    try:
        table = enumerate_counts(10**5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.by_match_cell == {(10**5, 1): 1}
    assert peak <= 2 * 10**6


# -------------------------------------------------------------- verification

def test_verify_worked_example():
    report = verify(5, 3)
    assert report.passed
    assert report.mismatches == ()


def test_verify_empty_case():
    report = verify(0, 0)
    assert report.passed
    assert report.cells_checked == 1  # the single cell (0, 0)


def test_verify_medium_case():
    assert verify(6, 4).passed


def test_verify_is_deterministic():
    assert verify(4, 3) == verify(4, 3)


def test_verify_counts_both_views():
    report = verify(5, 3)
    match_cells = sum(m // 2 + 1 for m in range(6))
    repeat_buckets = 5
    assert report.cells_checked == match_cells + repeat_buckets


def test_verify_propagates_budget_refusal():
    with pytest.raises(BudgetExceeded):
        verify(12, 12, budget=1000)


def test_verify_refuses_more_cells_than_the_budget_cheaply():
    # k = 6 has 16 (m, lambda) cells and 6 mu buckets.
    assert verify(6, 1, budget=22).cells_checked == 22
    with pytest.raises(BudgetExceeded) as exc:
        verify(6, 1, budget=21)
    assert str(exc.value) == "checking 22 cells exceeds the budget of 21"
    for k, n in [(10**20, 0), (20000, 1), (20000, 0)]:
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            verify(k, n)
        assert time.perf_counter() - start < 0.5


def test_verify_keeps_the_enumeration_refusal_first():
    with pytest.raises(BudgetExceeded) as exc:
        verify(7, 1, budget=0)
    assert str(exc.value) == "enumerating 1^7 colorings exceeds the budget of 0"


def test_verify_reports_planted_mismatch(monkeypatch):
    real = core.z_count

    def skewed(cell):
        value = real(cell)
        if (cell.k, cell.n, cell.m, cell.lam) == (2, 2, 2, 1):
            return value + 1
        return value

    monkeypatch.setattr(core, "z_count", skewed)
    report = verify(2, 2)
    assert not report.passed
    assert ("m=2,lambda=1", 3, 2) in report.mismatches
    # The skew also throws the formula-side total off n^k.
    assert any(cell.startswith("total") for cell, _, _ in report.mismatches)


def test_report_consistency_is_enforced():
    with pytest.raises(ValueError):
        VerificationReport(2, 2, 4, (), False)
    with pytest.raises(ValueError):
        VerificationReport(2, 2, 4, (("m=0,lambda=0", 1, 2),), True)
