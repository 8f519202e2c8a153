"""Tests for the aggregate problems and distribution tables."""

import functools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ballseq.core import SequenceClass, doubly_surjective_count, z_count
from ballseq import problems
from ballseq.problems import (
    distribution_table,
    problem1_matches_fixed_length,
    problem2_matches_any_length,
    problem3_repeats_fixed_length,
    problem4_repeats_any_length,
)

small = st.integers(min_value=0, max_value=25)


# ------------------------------------------------------------ known values

def test_problem1_known_values():
    assert problem1_matches_fixed_length(5, 3, 4) == 120
    assert problem1_matches_fixed_length(3, 2, 2) == 6


def test_problem2_known_values():
    assert problem2_matches_any_length(2, 2) == 8
    assert problem2_matches_any_length(2, 1) == 0


def test_problem3_known_values():
    assert problem3_repeats_fixed_length(3, 2, 1) == 6


def test_problem4_known_values():
    assert problem4_repeats_any_length(2, 1) == 8
    assert problem4_repeats_any_length(1, 1) == 1
    assert problem4_repeats_any_length(3, 0) == 15


# ------------------------------------------------------------- totalization

def test_problem1_single_match_is_zero():
    for k in range(8):
        for n in range(8):
            assert problem1_matches_fixed_length(k, n, 1) == 0


def test_problem1_no_matches_counts_injections():
    for k in range(8):
        for n in range(8):
            expected = z_count(SequenceClass(k, n, 0, 0))
            assert problem1_matches_fixed_length(k, n, 0) == expected


def test_problem3_no_repeats_counts_injections():
    for k in range(8):
        for n in range(8):
            expected = z_count(SequenceClass(k, n, 0, 0))
            assert problem3_repeats_fixed_length(k, n, 0) == expected


def test_problem4_zero_repeats_excludes_empty_sequence():
    # Lengths 1..n of injective sequences; the k = 0 term is not summed.
    for n in range(1, 7):
        expected = sum(math.perm(n, k) for k in range(1, n + 1))
        assert problem4_repeats_any_length(n, 0) == expected


def test_negative_arguments_raise():
    with pytest.raises(ValueError):
        problem1_matches_fixed_length(-1, 2, 2)
    with pytest.raises(ValueError):
        problem2_matches_any_length(2, -2)
    with pytest.raises(ValueError):
        problem3_repeats_fixed_length(3, -1, 1)
    with pytest.raises(ValueError):
        problem4_repeats_any_length(-2, 0)


# -------------------------------------------------------- support of problem3

@given(k=st.integers(min_value=1, max_value=25), n=small, mu=small)
def test_problem3_vanishes_outside_support(k, n, mu):
    if mu > k - 1 or k > n + mu:
        assert problem3_repeats_fixed_length(k, n, mu) == 0


def test_problem3_empty_sequence_bucket():
    # The one exception to the mu <= k - 1 support rule: the empty sequence
    # has zero repeats, and the total over mu must reach n^0 = 1.
    for n in range(5):
        assert problem3_repeats_fixed_length(0, n, 0) == 1
        assert problem3_repeats_fixed_length(0, n, 1) == 0


# -------------------------------------------------------- oracle equivalence

def test_problem1_matches_oracle_everywhere_small(oracle_tables):
    for k in range(9):
        for n in range(9):
            table = oracle_tables(k, n)
            for m in range(k + 1):
                expected = sum(
                    count
                    for (cell_m, _), count in table.by_match_cell.items()
                    if cell_m == m
                )
                assert problem1_matches_fixed_length(k, n, m) == expected, (k, n, m)


def test_problem3_matches_oracle_everywhere_small(oracle_tables):
    for k in range(9):
        for n in range(9):
            table = oracle_tables(k, n)
            for mu in range(k):
                expected = table.by_repeat_count.get(mu, 0)
                assert problem3_repeats_fixed_length(k, n, mu) == expected, (k, n, mu)


def test_problem2_matches_oracle_aggregation_small(oracle_tables):
    # Acceptance covers the full n <= 5, m <= 6 scope; this is a fast slice.
    for n in range(4):
        for m in range(5):
            expected = 0
            for k in range(m, m + n):
                table = oracle_tables(k, n)
                expected += sum(
                    count
                    for (cell_m, _), count in table.by_match_cell.items()
                    if cell_m == m
                )
            assert problem2_matches_any_length(n, m) == expected, (n, m)


def test_problem4_matches_oracle_aggregation_small(oracle_tables):
    for n in range(4):
        for mu in range(4):
            expected = 0
            for k in range(mu + 1, n + mu + 1):
                table = oracle_tables(k, n)
                expected += table.by_repeat_count.get(mu, 0)
            assert problem4_repeats_any_length(n, mu) == expected, (n, mu)


def test_table_matches_oracle_everywhere_small(oracle_tables):
    # The same (k, n) scope as the problem1/problem3 sweeps above, so every
    # table here is one the session fixture enumerates for them anyway.
    for k in range(9):
        for n in range(9):
            assert distribution_table(k, n) == oracle_tables(k, n), (k, n)


# ------------------------------------------------------ cross-problem identity

def test_problem_sums_recover_total_mass():
    # Formula side only, no enumeration: summing either statistic over its
    # whole range must count every one of the n^k colorings once.
    for k in range(13):
        for n in range(13):
            by_match = sum(
                problem1_matches_fixed_length(k, n, m) for m in range(k + 1)
            )
            by_repeat = sum(
                problem3_repeats_fixed_length(k, n, mu)
                for mu in range(max(k, 1))
            )
            assert by_match == n**k, (k, n)
            assert by_repeat == n**k, (k, n)


# --------------------------------------------------------- distribution table

def test_table_small_census():
    table = distribution_table(2, 2)
    assert table.by_match_cell == {(0, 0): 2, (2, 1): 2}
    assert table.by_repeat_count == {0: 2, 1: 2}


def test_table_empty_sequence():
    table = distribution_table(0, 5)
    assert table.by_match_cell == {(0, 0): 1}
    assert table.by_repeat_count == {}


def test_table_worked_example_cells():
    table = distribution_table(5, 3)
    assert table.by_match_cell[4, 1] == 30
    assert table.by_match_cell[4, 2] == 90


def test_table_omits_zero_cells():
    table = distribution_table(5, 3)
    assert all(count > 0 for count in table.by_match_cell.values())
    assert all(count > 0 for count in table.by_repeat_count.values())
    # m = 1 cells and the infeasible m = 0 tail must not appear.
    assert (1, 0) not in table.by_match_cell
    assert (0, 0) not in table.by_match_cell  # k = 5 > n = 3: no injections


def test_table_iterates_in_lexicographic_order():
    table = distribution_table(6, 4)
    assert list(table.by_match_cell) == sorted(table.by_match_cell)
    assert list(table.by_repeat_count) == sorted(table.by_repeat_count)


def test_table_views_are_consistent():
    # Each repeat bucket regroups the match cells along m = mu + lam.
    for k in range(8):
        for n in range(8):
            table = distribution_table(k, n)
            for mu in range(k):
                regrouped = sum(
                    table.by_match_cell.get((mu + lam, lam), 0)
                    for lam in range(mu + 1)
                )
                assert table.by_repeat_count.get(mu, 0) == regrouped, (k, n, mu)


@given(k=st.integers(min_value=0, max_value=12), n=st.integers(min_value=0, max_value=12))
def test_table_total_mass(k, n):
    table = distribution_table(k, n)
    assert sum(table.by_match_cell.values()) == n**k
    if k > 0:
        assert sum(table.by_repeat_count.values()) == n**k


def test_table_matches_single_cell_and_problem3():
    # The table's one recurrence walk against the cached per-cell path.
    for k in range(41):
        for n in range(41):
            table = distribution_table(k, n)
            for m in range(k + 1):
                for lam in range(m // 2 + 1):
                    cell = z_count(SequenceClass(k, n, m, lam))
                    assert table.by_match_cell.get((m, lam), 0) == cell, (k, n, m, lam)
            for mu in range(k):
                bucket = problem3_repeats_fixed_length(k, n, mu)
                assert table.by_repeat_count.get(mu, 0) == bucket, (k, n, mu)


def test_census_streams_the_table_and_its_buckets():
    cells, by_repeat = problems._census(7, 5)
    assert by_repeat == [0] * 8  # nothing summed before the walk runs
    table = distribution_table(7, 5)
    assert [((m, lam), count) for m, lam, count in cells] == list(table.by_match_cell.items())
    assert {mu: count for mu, count in enumerate(by_repeat) if count} == table.by_repeat_count
    assert len(by_repeat) == 7
    cells, by_repeat = problems._census(0, 3)
    assert list(cells) == [(0, 0, 1)]
    assert by_repeat == []  # the empty sequence has no repeat bucket


def test_table_total_mass_large():
    table = distribution_table(150, 150)
    assert sum(table.by_match_cell.values()) == 150**150
    assert sum(table.by_repeat_count.values()) == 150**150


# ------------------------------------------ cell-by-cell reference definition

# The aggregates as plain sums of single-cell counts, one z_count per
# (k, lam) cell, each with its own S from the per-cell path.  The library
# takes every S from one walk and folds the length sums; these must agree.

def reference_problem1(k, n, m):
    top = min(m // 2, n - k + m)
    return sum(z_count(SequenceClass(k, n, m, lam)) for lam in range(top + 1))


def reference_problem2(n, m):
    return sum(reference_problem1(k, n, m) for k in range(m, m + n))


def reference_problem3(k, n, mu):
    return sum(z_count(SequenceClass(k, n, mu + lam, lam)) for lam in range(mu + 1))


def reference_problem4(n, mu):
    return sum(reference_problem3(k, n, mu) for k in range(mu + 1, n + mu + 1))


def test_fixed_length_problems_match_reference():
    # m = k + 1 and mu = k sit just past each support.
    for k in range(41):
        for n in range(41):
            for m in range(k + 2):
                expected = reference_problem1(k, n, m)
                assert problem1_matches_fixed_length(k, n, m) == expected, (k, n, m)
            for mu in range(k + 1):
                expected = reference_problem3(k, n, mu)
                assert problem3_repeats_fixed_length(k, n, mu) == expected, (k, n, mu)


def test_any_length_problems_match_reference():
    for n in range(41):
        for m in range(41):
            assert problem2_matches_any_length(n, m) == reference_problem2(n, m), (n, m)
        for mu in range(41):
            assert problem4_repeats_any_length(n, mu) == reference_problem4(n, mu), (n, mu)


REFERENCES = {
    problem1_matches_fixed_length: reference_problem1,
    problem2_matches_any_length: reference_problem2,
    problem3_repeats_fixed_length: reference_problem3,
    problem4_repeats_any_length: reference_problem4,
}


@pytest.mark.parametrize(
    "problem, args",
    [
        # k = 0 and n = 0
        (problem1_matches_fixed_length, (0, 0, 0)),
        (problem1_matches_fixed_length, (0, 5, 0)),
        (problem1_matches_fixed_length, (5, 0, 4)),
        (problem2_matches_any_length, (0, 0)),
        (problem2_matches_any_length, (0, 7)),
        (problem3_repeats_fixed_length, (0, 0, 0)),
        (problem3_repeats_fixed_length, (0, 4, 2)),
        (problem3_repeats_fixed_length, (6, 0, 3)),
        (problem4_repeats_any_length, (0, 0)),
        (problem4_repeats_any_length, (0, 6)),
        # m in {0, 1}
        (problem1_matches_fixed_length, (60, 70, 0)),
        (problem1_matches_fixed_length, (60, 70, 1)),
        (problem2_matches_any_length, (60, 0)),
        (problem2_matches_any_length, (60, 1)),
        # mu = 0
        (problem3_repeats_fixed_length, (50, 60, 0)),
        (problem4_repeats_any_length, (60, 0)),
        # n - k + m < 0: the unmatched balls outnumber the colors
        (problem1_matches_fixed_length, (60, 10, 40)),
        (problem1_matches_fixed_length, (60, 10, 49)),
        (problem3_repeats_fixed_length, (60, 10, 40)),
        # lam > n in the summed range
        (problem1_matches_fixed_length, (6, 2, 9)),
        (problem2_matches_any_length, (3, 50)),
        (problem3_repeats_fixed_length, (60, 5, 56)),
        (problem4_repeats_any_length, (4, 50)),
        # the point-query shapes of perfbench's cli-point workload
        (problem1_matches_fixed_length, (304, 313, 244)),
        (problem2_matches_any_length, (74, 151)),
        (problem3_repeats_fixed_length, (301, 294, 78)),
        (problem4_repeats_any_length, (67, 78)),
    ],
    ids=lambda value: value.__name__[:8] if callable(value) else ",".join(map(str, value)),
)
def test_problems_match_reference_at_edges_and_large(problem, args):
    assert problem(*args) == REFERENCES[problem](*args)


# ------------------------------------- folds over the number of colors used

def _clear_aggregate_caches():
    with problems._grow_lock:
        problems._store.clear()
        problems._stored_bytes = 0


def _stirling2(total, d):
    """S2(total, d) from the explicit alternating sum over the colors left
    out, sharing nothing with the walk."""
    surjections = sum(
        (-1) ** j * math.comb(d, j) * (d - j) ** total for j in range(d + 1)
    )
    return surjections // math.factorial(d)


def test_s2_diagonal_matches_explicit_sum():
    for mu in range(41):
        diagonal = problems._s2_diagonal(mu, 60)
        for d in range(61):
            assert diagonal[d] == _stirling2(d + mu, d), (mu, d)
    assert problems._s2_diagonal(80, 220)[220] == _stirling2(300, 220)


def _count_calls(monkeypatch, name):
    calls = []
    walk = getattr(problems, name)
    # Under the walk's name, which the store keys its entries by.
    counted = functools.wraps(walk)(lambda *args: calls.append(args) or walk(*args))
    monkeypatch.setattr(problems, name, counted)
    return calls


def test_shorter_requests_reuse_the_cached_prefix(monkeypatch):
    _clear_aggregate_caches()
    s2_walks = _count_calls(monkeypatch, "_s2_walk")
    match_walks = _count_calls(monkeypatch, "_match_walk")
    for key in (0, 1, 7, 30):
        problem4_repeats_any_length(60, key)
        problem2_matches_any_length(60, key)
    assert len(s2_walks) == 4
    assert len(match_walks) == 4
    for key in (0, 1, 7, 30):
        for n in range(60):
            assert problem4_repeats_any_length(n, key) == reference_problem4(n, key)
            assert problem2_matches_any_length(n, key) == reference_problem2(n, key)
        for k in range(key, key + 61):
            for n in (k - key, 60):
                expected = reference_problem3(k, n, key)
                assert problem3_repeats_fixed_length(k, n, key) == expected
    assert len(s2_walks) == 4
    assert len(match_walks) == 4


def _associated_stirling(m, lam):
    """a(m, lam) = S(m, lam)/lam!, the partitions of m labeled balls into
    lam blocks of two or more, by inclusion-exclusion over the balls left
    alone in a block, from the explicit S2 sum."""
    return sum((-1) ** j * math.comb(m, j) * _stirling2(m - j, lam - j) for j in range(lam + 1))


def test_associated_stirling_matches_the_single_cell():
    for m in range(30):
        for lam in range(m // 2 + 1):
            expected = doubly_surjective_count(m, lam) // math.factorial(lam)
            assert _associated_stirling(m, lam) == expected, (m, lam)


@pytest.mark.parametrize("key", [0, 1, 2, 7, 40, 90])
def test_slots_grown_in_steps_match_one_walk_and_the_references(monkeypatch, key):
    # Each stored sequence is asked for top 0, 3, 10 and 40 in turn.  Every
    # top its snapshot does not yet hold must be one walk resumed from that
    # snapshot, and the steps must end where one walk from the empty
    # snapshot ends.  The a_lam column stops at lam = key // 2.
    readers = {
        "_s2_walk": (problems._s2_diagonal, 40),
        "_column_walk": (problems._partition_column, key // 2),
        "_match_walk": (lambda m, top: problems._grown(problems._match_walk, m, top), 40),
    }
    grown = {}
    for name, (read, cap) in readers.items():
        _clear_aggregate_caches()
        walk = getattr(problems, name)

        def held():
            return problems._store.get((name, key), problems._EMPTY)

        empty = held()
        calls = _count_calls(monkeypatch, name)
        snapshots = []
        for top in (0, 3, 10, 40):
            snapshots.append(held())
            read(key, top)
        tops = sorted({min(top, cap) for top in (0, 3, 10, 40)} - set(range(len(empty[0]))))
        assert [args[2] for args in calls] == tops, name
        assert all(args[1] in snapshots for args in calls), name
        assert held() == (walk(key, empty, tops[-1]) if tops else empty), name
        grown[name] = held()[0]
    column = tuple(_associated_stirling(key, lam) for lam in range(min(key // 2, 40) + 1))
    assert grown["_s2_walk"] == tuple(_stirling2(d + key, d) for d in range(41))
    assert grown["_column_walk"] == column
    assert grown["_match_walk"] == tuple(
        sum(a * math.comb(key + d - lam, key) for lam, a in enumerate(column[: d + 1]))
        for d in range(41)
    )


def test_problem1_resumes_the_column_it_walked(monkeypatch):
    # n - k + m = n caps lam at n here, so n = 400 walks the column of
    # a(1200, lam) to lam = 400, and n = 405 resumes it for five columns
    # where a walk from empty would build 405.
    _clear_aggregate_caches()
    problem1_matches_fixed_length(1200, 400, 1200)
    columns = _count_calls(monkeypatch, "_next_column")
    count = problem1_matches_fixed_length(1200, 405, 1200)
    assert len(columns) == 5
    _clear_aggregate_caches()
    assert count == problem1_matches_fixed_length(1200, 405, 1200)
    assert len(columns) == 5 + 405


def _problem4_by_lengths(n, mu):
    """problem4 in the associated-Stirling form, as reference_problem4 has
    it, but with each length sum stepped term by term: C(n, lam) *
    S(mu + lam, lam) times the sum over t unmatched balls of
    C(mu + lam + t, t) * (n - lam)!/(n - lam - t)!.  The cell-by-cell
    reference takes seconds at n = 3000."""
    total = 0
    for lam in range(min(mu, n) + 1):
        m, free = mu + lam, n - lam
        term = lengths = 1
        for t in range(free):
            term = term * (m + t + 1) * (free - t) // (t + 1)
            lengths += term
        total += math.comb(n, lam) * doubly_surjective_count(m, lam) * lengths
    return total - (mu == 0)


def test_problem4_by_lengths_matches_reference():
    for n in range(25):
        for mu in range(25):
            assert _problem4_by_lengths(n, mu) == reference_problem4(n, mu), (n, mu)


def test_threads_extending_one_cache_agree_with_the_reference(monkeypatch):
    # Eight threads step n up together on one mu and m, with a barrier
    # before each step, so all of them ask for the same longer prefix at
    # once.  A column of S2(d + 1500, d) and a B_1500 take long enough for
    # their walks to overlap.
    mu = m = 1500
    top = 16
    expected = [(_problem4_by_lengths(n, mu), reference_problem2(n, m)) for n in range(top)]
    _clear_aggregate_caches()
    s2_walks = _count_calls(monkeypatch, "_s2_walk")
    match_walks = _count_calls(monkeypatch, "_match_walk")
    barrier = threading.Barrier(8)

    def work():
        got = []
        for n in range(top):
            barrier.wait(timeout=60)
            got.append((problem4_repeats_any_length(n, mu), problem2_matches_any_length(n, m)))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(work) for _ in range(8)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 8
    # Each longer prefix was built once, however many threads asked for it.
    assert len(s2_walks) == top - 1
    assert len(match_walks) == top


def test_threads_missing_one_slot_at_once_walk_it_once(monkeypatch):
    # Eight fresh threads behind a barrier ask for B_40 and then
    # S2(d + 40, d) on cleared caches, so they miss _match_slot and
    # _s2_slot together.  Each key must still be walked once: a thread
    # that got a slot of its own from the factory would walk it from
    # empty.  The race is narrow, so it is tried many times with a short
    # switch interval.
    trials = 1000
    expected = (reference_problem2(2, 40), reference_problem4(2, 40))
    match_walks = _count_calls(monkeypatch, "_match_walk")
    s2_walks = _count_calls(monkeypatch, "_s2_walk")
    walked_twice = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(trials):
            _clear_aggregate_caches()
            match_walks.clear()
            s2_walks.clear()
            barrier = threading.Barrier(8)
            results = []

            def work():
                barrier.wait(timeout=60)
                results.append(
                    (problem2_matches_any_length(2, 40), problem4_repeats_any_length(2, 40))
                )

            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert results == [expected] * 8
            if (len(match_walks), len(s2_walks)) != (1, 1):
                walked_twice.append((trial, len(match_walks), len(s2_walks)))
    finally:
        sys.setswitchinterval(interval)
    assert walked_twice == []


@pytest.mark.parametrize(
    "problem, args, reference",
    [
        (problem2_matches_any_length, (10, 3000), reference_problem2),
        (problem4_repeats_any_length, (10, 3000), reference_problem4),
        (problem4_repeats_any_length, (3000, 10), _problem4_by_lengths),
        (problem3_repeats_fixed_length, (3000, 10, 2995), reference_problem3),
    ],
    ids=["problem2-10,3000", "problem4-10,3000", "problem4-3000,10", "problem3-3000,10,2995"],
)
def test_lopsided_shapes_are_fast_from_cold(problem, args, reference):
    # Each coefficient walk must stop at the d and lam the query can use:
    # a B_m built from the whole S(3000, lam) column took seconds.
    _clear_aggregate_caches()
    start = time.perf_counter()
    count = problem(*args)
    assert time.perf_counter() - start < 1.0
    assert count == reference(*args)


def test_problem1_walk_stops_at_the_lambda_it_needs():
    # n - k + m = 5 caps lam at 5; a walk down the whole S(2995, lam)
    # column would take seconds.
    _clear_aggregate_caches()
    start = time.perf_counter()
    count = problem1_matches_fixed_length(3000, 10, 2995)
    assert time.perf_counter() - start < 1.0
    assert count == reference_problem1(3000, 10, 2995)
    assert len(problems._partition_column(2995, 0)) == 6


def test_problem1_reads_the_columns_problem2_walked(monkeypatch):
    # problem2(60, m) walks the whole column of every m <= 60, as the
    # lib-warm benchmark's warm-up does; problem1 on any k, n <= 60 then
    # reads a prefix of one of them and walks nothing.
    _clear_aggregate_caches()
    for m in range(61):
        problem2_matches_any_length(60, m)
    column_walks = _count_calls(monkeypatch, "_column_walk")
    for k in range(61):
        for n in range(61):
            for m in range(k + 1):
                expected = reference_problem1(k, n, m)
                assert problem1_matches_fixed_length(k, n, m) == expected, (k, n, m)
    assert column_walks == []


def _entry_bytes(snapshot):
    """What one stored snapshot holds by sys.getsizeof, the pair and every
    tuple and int in it, counted apart from the store's own estimate."""
    return sys.getsizeof(snapshot) + sum(
        sys.getsizeof(item) for part in snapshot for item in (part, *part)
    )


def _assert_within_budget():
    held = [_entry_bytes(snapshot) for snapshot in problems._store.values()]
    assert sum(held) <= problems._STORE_BUDGET + max(held)
    # The running estimate is the sum of its entries', and bounds what they hold.
    estimates = [problems._size(snapshot) for snapshot in problems._store.values()]
    assert problems._stored_bytes == sum(estimates)
    assert all(bytes_held <= estimate for bytes_held, estimate in zip(held, estimates))
    assert problems._stored_bytes <= max(problems._STORE_BUDGET, max(estimates))


def test_aggregate_caches_are_bounded(monkeypatch):
    # More distinct keys than the 4,096 entries a kind once kept, each read
    # to its first term only, which holds O(1): a smaller budget, which
    # their fixed overhead passes, must still bound them.
    monkeypatch.setattr(problems, "_STORE_BUDGET", 1 << 20)
    _clear_aggregate_caches()
    for key in range(4200):
        problems._s2_diagonal(key, 0)
        problems._partition_column(key, 0)
        problems._grown(problems._match_walk, key, 0)
    _assert_within_budget()
    assert len(problems._store) < 3 * 4200


def _sweep_within_budget(name, keys, count, reference):
    _clear_aggregate_caches()
    for key in keys:
        count(key)
    _assert_within_budget()
    evicted = [key for key in keys if (name, key) not in problems._store]
    assert evicted, name
    for key in (evicted[0], evicted[len(evicted) // 2], evicted[-1]):
        assert count(key) == reference(key), (name, key)


def test_sweeps_hold_no_more_than_the_store_budget():
    # Kept whole, the problem2 sweep held 59 MiB of columns and the
    # problem3 sweep 46 MiB of S2 entries.  Each must end within the budget
    # and one entry, and the keys it evicted must still count right.
    _sweep_within_budget(
        "_match_walk",
        range(601),
        lambda m: problem2_matches_any_length(10, m),
        lambda m: reference_problem2(10, m),
    )
    _sweep_within_budget(
        "_s2_walk",
        range(801),
        lambda mu: problem3_repeats_fixed_length(mu + 10, 10, mu),
        lambda mu: reference_problem3(mu + 10, 10, mu),
    )
    # The lib-warm benchmark's warm-up keeps all it walks.
    _clear_aggregate_caches()
    for key in range(61):
        problem2_matches_any_length(60, key)
        problem4_repeats_any_length(60, key)
    assert len(problems._store) == 3 * 61
    assert problems._stored_bytes <= problems._STORE_BUDGET


def test_single_cell_cache_is_bounded():
    assert doubly_surjective_count.cache_info().maxsize is not None


def test_problems_reject_bools():
    with pytest.raises(ValueError):
        problem1_matches_fixed_length(True, 3, 0)
    with pytest.raises(ValueError):
        problem2_matches_any_length(3, False)
    with pytest.raises(ValueError):
        problem3_repeats_fixed_length(2, True, 0)
    with pytest.raises(ValueError):
        problem4_repeats_any_length(3, True)
    with pytest.raises(ValueError):
        distribution_table(True, 2)


@pytest.mark.parametrize("k, n", [(True, 2), (2, -1), (2.0, 2), (3, None)])
def test_census_refuses_on_the_call_not_on_the_first_cell(k, n):
    # The CLI writes the table's header only after _census returns, so a
    # bad argument must raise before any cell is asked for.
    with pytest.raises(ValueError):
        problems._census(k, n)
