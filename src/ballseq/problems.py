"""Aggregate counts over whole statistic ranges, and full census tables.

Four aggregation flavors: fix the sequence length and count by matched
balls (problem1) or by repeats-after-first-occurrence (problem3), or sum
each of those over every length that can realize the statistic (problem2,
problem4).

problem1 sums the cells of :mod:`ballseq.core` over lam,

    C(n, lam) * C(k, m) * (n - lam)!/(n - lam - k + m)! * S(m, lam),

which, with N = n - k + m colors left for the matched balls, is
C(k, m) * n!/N! times the sum over lam of a_lam * N!/(N - lam)!, where
a_lam = S(m, lam)/lam!.  The other three fold over d, the number of
distinct colors a sequence uses, against the falling factorial
n!/(n - d)!: the d colors in order of first use are an injection into the
palette, and what is left of the count does not depend on n.  Those
coefficients are the ordinary Stirling numbers S2(d + mu, d) for problem3
and problem4, and a sequence B_m(d) built from the column a_lam for
problem2.  Each sequence is kept by mu or m alone with the last column of
the walk that built it, resumed on demand and folded by Horner's rule, so
a call with a new n or k reads or extends what an earlier call built, in
one store of 32 MiB that evicts the sequences written longest ago.

The census of distribution_table streams from one walk of a = S/lam! by
rows m = 0..k, holding two rows and k + 1 running sums for the repeat
buckets, so ``ballseq table`` can write each cell as it is computed.
"""

from __future__ import annotations

import math
import threading
from itertools import accumulate
from sys import getsizeof

from .core import Count, _next_column, _record, _require_nonneg


class DistributionTable(_record("DistributionTable", "k n by_match_cell by_repeat_count")):
    """Sparse census of all n^k colorings of k positions.

    ``by_match_cell`` maps (m, lam) to the number of colorings with exactly
    m matched balls and lam repeated colors; ``by_repeat_count`` maps mu to
    the number of colorings with exactly mu repeats after first occurrence.
    Cells counting zero are omitted.  The repeat view has no bucket for the
    empty sequence, so it is {} when k = 0.  The fields cannot be
    reassigned, but the two dicts are plain dicts; the table is unhashable.
    """

    __slots__ = ()


# One store keeps every coefficient sequence a walk has built, keyed by the
# walk's name and the mu or m it is for, as an immutable snapshot: the
# sequence so far and the walk's last column.  Readers take a snapshot with
# one dict lookup and no lock; a writer re-reads it under the lock, resumes
# the walk and stores the longer snapshot whole, so no thread sees a
# half-extended sequence and two threads asking for the same terms extend it
# once.  The lock is reentrant: extending B_m reads the column of a_lam =
# S(m, lam)/lam!, which may need extending in turn.  A write moves its entry
# to the end; then, while the bytes held pass the budget, the oldest entries
# go, whole, since a sequence without its column could not be resumed, but
# never the entry just written.
_grow_lock = threading.RLock()
_store: dict[tuple[str, int], tuple] = {}
_stored_bytes = 0
_STORE_BUDGET = 32 << 20
_ENTRY_BYTES = 256  # an entry's key, its snapshot pair and its slot in the store
_EMPTY = ((), ())


def _size(snapshot: tuple) -> int:
    """The bytes an entry holds, from above: an int held twice counts twice."""
    diagonal, column = snapshot
    return _ENTRY_BYTES + sum(map(getsizeof, (diagonal, column, *diagonal, *column)))


def _grown(walk, key: int, top: int) -> tuple[Count, ...]:
    """The sequence ``walk`` builds for ``key``, with at least top + 1 terms.

    A shorter snapshot, or none, is replaced by ``walk(key, snapshot, top)``.
    Entries are keyed by the walk's ``__name__``, so a wrapper made with
    :func:`functools.wraps` shares them.
    """
    global _stored_bytes
    name = walk.__name__, key
    snapshot = _store.get(name, _EMPTY)
    if len(snapshot[0]) <= top:
        with _grow_lock:
            snapshot = _store.get(name, _EMPTY)
            if len(snapshot[0]) <= top:
                grown = walk(key, snapshot, top)
                # The walk's own writes may have evicted the entry meanwhile.
                if name in _store:
                    _stored_bytes -= _size(_store.pop(name))
                snapshot = _store[name] = grown
                _stored_bytes += _size(snapshot)
                while _stored_bytes > _STORE_BUDGET and len(_store) > 1:
                    _stored_bytes -= _size(_store.pop(next(iter(_store))))
    return snapshot[0]


def _resume(snapshot: tuple, top: int, first: tuple[Count, ...], step) -> tuple:
    """Resume the walk of ``snapshot`` = (the last entries of columns
    0..d - 1, column d - 1) up to column top, where column 0 is ``first``
    and column d is ``step(d, column d - 1)``; only the last column is
    kept, and column 0, which is ``first`` again, as ()."""
    diagonal, column = list(snapshot[0]), snapshot[1] or first
    for d in range(len(diagonal), top + 1):
        column = step(d, column) if d else first
        diagonal.append(column[-1])
    return tuple(diagonal), column if top else ()


def _s2_walk(mu: int, snapshot: tuple, top: int) -> tuple:
    """Resume the walk of ``snapshot`` up to column top, where column d is
    S2(d + e, d) for e = 0..mu.

    Classifying by the last ball, which either joins one of the d blocks
    of the others or starts a block alone, gives
    S2(d + e, d) = d * S2(d + e - 1, d) + S2(d + e - 1, d - 1): each of
    the mu steps of column d reads the entry above it and its left
    neighbour in column d - 1.
    """
    return _resume(
        snapshot, top, (1,) + (0,) * mu,  # S2(e, 0) = [e = 0]
        lambda d, column: tuple(accumulate(column, lambda above, left: d * above + left)),
    )


def _s2_diagonal(mu: int, top: int) -> tuple[Count, ...]:
    """S2(d + mu, d), the Stirling numbers of the second kind (OEIS A008277),
    for d = 0..top at least: set partitions of d + mu labeled balls into
    d blocks."""
    return _grown(_s2_walk, mu, top)


def _column_walk(m: int, snapshot: tuple, top: int) -> tuple:
    """Resume the walk of ``snapshot`` up to a_top, where top <= m // 2:
    the partitions of m labeled balls into lam blocks of two or more.

    Column lam is a(2*lam + e, lam) for e = 0..m - 2*lam, ending in a_lam
    (:func:`ballseq.core._next_column`).  A walk to top costs about
    (top + 1) * (m - top + 1) steps, the whole column about m^2 / 4.
    """
    return _resume(
        snapshot, top, (1,) + (0,) * m,  # a(e, 0) = [e = 0]
        lambda lam, column: _next_column(lam, column, m - 2 * lam + 1),
    )


def _partition_column(m: int, top: int) -> tuple[Count, ...]:
    """a_lam = S(m, lam)/lam! for lam = 0..min(m // 2, top) at least; the
    column has no more nonzero terms."""
    return _grown(_column_walk, m, min(m // 2, top))


def _match_walk(m: int, snapshot: tuple, top: int) -> tuple:
    """Resume the walk of ``snapshot`` up to B_m(top): B_m(d) is the number
    of sequences, of any length, that use d given colors with their first
    uses in a given order and have exactly m matched balls.

    B_m(d) = sum over lam of a_lam * C(m + d - lam, m): the coefficients
    of a(y) / (1 - y)^(m + 1), so m + 1 running sums of a give them.
    Column d holds a_d and those sums at d, each the one before it plus
    itself at d - 1, so B_m(d) is its last entry.  Terms with lam > d
    vanish, so a column read up to lam = top serves.
    """
    a = _partition_column(m, top) + (0,) * top  # a_lam = 0 past m // 2
    return _resume(
        snapshot, top, (a[0],) * (m + 2),  # every sum at d = 0 is a_0
        lambda d, column: tuple(accumulate(column[1:], initial=a[d])),
    )


def _falling_fold(coefficients: tuple[Count, ...], n: int) -> Count:
    """Sum over d = 0..n of coefficients[d] * n!/(n - d)!, by Horner's rule,
    where the terms past the end of ``coefficients`` are zero."""
    total = 0
    for d in range(min(n, len(coefficients) - 1), -1, -1):
        total = coefficients[d] + (n - d) * total
    return total


def problem1_matches_fixed_length(k: int, n: int, m: int) -> Count:
    """Sequences of length k over n colors with exactly m matched balls,
    summed over every possible number of repeated colors.

    With t = k - m unmatched balls and N = n - t colors left for the
    matched ones, the cell count C(n, lam) * C(k, m) * (n - lam)!/(N - lam)!
    * S(m, lam) is C(k, m) * n!/N! * a_lam * N!/(N - lam)!, where
    a_lam = S(m, lam)/lam!: the unmatched balls take t colors in order, and
    the lam repeated colors come from the N left.  So the count is
    C(k, m) * n!/N! times a fold over lam of the column a, cached by m
    alone.  The repeated-color count lam never exceeds m // 2 (two balls
    minimum per repeated color) nor N, so the column is read, and walked,
    only that far.
    """
    _require_nonneg(k=k, n=n, m=m)
    free = n - k + m
    if m > k or free < 0:
        return 0
    column = _partition_column(m, free)
    return math.comb(k, m) * math.perm(n, k - m) * _falling_fold(column, free)


def problem2_matches_any_length(n: int, m: int) -> Count:
    """Sequences of any length over n colors with exactly m matched balls.

    Lengths k in [m, m + n - 1] are summed.  For m >= 2 those are exactly
    the realizable lengths: every ball matched at the low end, and at most
    n - 1 unmatched colors alongside at the high end.  The m = 0 extension
    keeps the same index pattern, counting injective sequences of lengths
    0 through n - 1.

    A sequence with lam repeated colors and t unmatched balls uses
    d = lam + t colors.  Given those colors in order of first use, the
    cell count C(n, lam) * C(k, m) * (n - lam)!/(n - lam - t)! * S(m, lam)
    leaves S(m, lam)/lam! * C(m + t, m) ways, and summed over lam that is
    B_m(d).  So the count is the sum over d = 0..n of
    B_m(d) * n!/(n - d)!, less the one term with t = n, which has m = 0
    and lam = 0 and counts the n! injective sequences of length n.  B_m is
    cached by m alone.
    """
    _require_nonneg(n=n, m=m)
    total = _falling_fold(_grown(_match_walk, m, n), n)
    return total - math.factorial(n) if m == 0 else total


def problem3_repeats_fixed_length(k: int, n: int, mu: int) -> Count:
    """Sequences of length k over n colors in which exactly mu balls repeat
    a color already seen at an earlier position.

    Such a sequence uses exactly d = k - mu colors.  Its blocks of equal
    color partition the k positions into d blocks, and the colors, in
    order of first use, are an injection into the palette, so the count is
    S2(k, d) * n!/(n - d)!: zero when d < 0 or d > n.  S2 is read from the
    diagonal S2(d + mu, d), cached by mu alone.
    """
    _require_nonneg(k=k, n=n, mu=mu)
    d = k - mu
    if d < 0 or d > n:
        return 0
    return _s2_diagonal(mu, d)[d] * math.perm(n, d)


def problem4_repeats_any_length(n: int, mu: int) -> Count:
    """Sequences of any length over n colors with exactly mu repeats.

    Realizable lengths run from mu + 1 (one first occurrence, all later
    balls repeats) through n + mu (every color introduced once).  For
    mu = 0 this counts the injective sequences of lengths 1 through n; the
    empty sequence is excluded by convention.

    The length d + mu holds S2(d + mu, d) * n!/(n - d)! such sequences, as
    in problem3, so the count is one fold over d = 1..n of the diagonal
    cached for mu.  The fold starts at d = 0, whose term S2(mu, 0) is 1
    for the empty sequence alone, and takes that term off at the end; with
    n = 0 that is all there is, so nothing is read.
    """
    _require_nonneg(n=n, mu=mu)
    if not n:
        return 0
    diagonal = _s2_diagonal(mu, n)
    return _falling_fold(diagonal, n) - diagonal[0]


def _census(k: int, n: int) -> tuple:
    """The nonzero cells of the (k, n) census, and their repeat buckets.

    The iterator yields (m, lam, count) in lexicographic (m, lam) order and
    adds each count into its bucket of mu = m - lam repeats in the list,
    whose k running sums are whole once the iterator is exhausted.  k and
    n are checked here, on the call, before the first cell is asked for.

    Rows m = 0..k of a(m, lam) = S(m, lam)/lam! are walked with
    a(m, lam) = lam * a(m - 1, lam) + (m - 1) * a(m - 2, lam - 1), the
    recurrence of :func:`ballseq.core._next_column` read along rows, so
    only two rows are held; a row stops at lam = n, past which no later
    row reads it.  With t = k - m unmatched balls the cell count is
    C(n, lam) * C(k, m) * (n - lam)!/(n - lam - t)! * lam! * a(m, lam)
    = C(k, m) * n!/(n - lam - t)! * a(m, lam), and along a row
    n!/(n - lam - t)! steps by one product per lam, up to lam + t = n.
    """
    _require_nonneg(k=k, n=n)
    # One bucket more, for mu = k: it counts only the empty sequence, which
    # the repeat view leaves out, and is dropped once the walk is done.
    by_repeat = [0] * (k + 1)

    def cells():
        row, previous = [1], []  # rows m = 0 and m = -1
        for m in range(k + 1):
            if m:  # a(m, 0) = 0, and a(m - 1, m / 2) = 0 for even m
                row, previous = [0] + [
                    lam * a1 + (m - 1) * a2
                    for lam, a1, a2 in zip(range(1, min(m // 2, n) + 1), row[1:] + [0], previous)
                ], row
            t = k - m
            if t > n:
                continue
            placements = math.comb(k, m) * math.perm(n, t)
            for lam in range(min(m // 2, n - t) + 1):
                if lam:
                    placements *= n - lam - t + 1
                count = placements * row[lam]
                if count:
                    by_repeat[m - lam] += count
                    yield m, lam, count
        by_repeat.pop()

    return cells(), by_repeat


def distribution_table(k: int, n: int) -> DistributionTable:
    """Complete census for fixed (k, n), computed from the closed forms.

    One row walk of a = S(m, lam)/lam!, O(k^2) steps holding two rows,
    streams the cells in lexicographic (m, lam) order and sums the repeat
    buckets as it goes (:func:`_census`, which ``ballseq table`` writes
    from directly).  Emits only nonzero cells, in that order, and the
    buckets in ascending mu order (dicts preserve insertion order, so
    iteration is deterministic).
    """
    cells, by_repeat = _census(k, n)
    by_match_cell = {(m, lam): count for m, lam, count in cells}
    by_repeat_count = {mu: count for mu, count in enumerate(by_repeat) if count}
    return DistributionTable(k, n, by_match_cell, by_repeat_count)
