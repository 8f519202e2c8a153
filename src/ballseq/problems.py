"""Aggregate counts over whole statistic ranges, and full census tables.

Four aggregation flavors: fix the sequence length and count by matched
balls (problem1) or by repeats-after-first-occurrence (problem3), or sum
each of those over every length that can realize the statistic (problem2,
problem4).  Each is a sum over lam of the cells of :mod:`ballseq.core`,

    C(n, lam) * C(k, m) * (n - lam)!/(n - lam - k + m)! * S(m, lam),

with every S(m, lam) it needs read from one cached walk of the
recurrence: the column S(m, lam) for problem1 and problem2, the diagonal
S(mu + lam, lam) for problem3 and problem4.  The any-length sums also fold
the sum over lengths into one polynomial per lam.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

from .core import Count, _placements, _record, _require_nonneg, _slack_diagonals


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


# Each cache entry holds at most top + 1 integers; the bound keeps a
# long-running process from holding every line it has ever walked.
@lru_cache(maxsize=4096)
def _s_column(m: int, top: int) -> tuple[Count, ...]:
    """S(m, lam) for lam = 0..top, where top <= m // 2.

    S(m, lam) sits at index lam of the diagonal of slack m - 2*lam, so one
    walk bounded by lam <= top holds the whole column: about
    (top + 1) * (m - top + 1) steps, where the full column would take
    about m^2 / 4.
    """
    column = [0] * (top + 1)
    for s, row in enumerate(_slack_diagonals(m, top)):
        lam, odd = divmod(m - s, 2)
        if not odd and lam <= top:
            column[lam] = row[lam]
    return tuple(column)


@lru_cache(maxsize=4096)
def _s_repeats(mu: int, top: int) -> tuple[Count, ...]:
    """S(mu + lam, lam) for lam = 0..top, where top <= mu.

    S(mu + lam, lam) sits at index lam of the diagonal of slack mu - lam,
    so the first mu + 1 diagonals of one walk bounded by lam <= top hold
    them all.
    """
    diagonals = islice(_slack_diagonals(mu + top, top), mu + 1)
    return tuple(row[mu - s] for s, row in enumerate(diagonals) if mu - s <= top)[::-1]


def _lengths(m: int, free: int, top: int) -> Count:
    """Sum over t = 0..top of C(m + t, t) * free!/(free - t)!, top <= free.

    Term t counts the ways to add t unmatched balls to m matched ones in a
    sequence of m + t positions, coloring them injectively from ``free``
    colors: the factors of a cell that depend on its length.  Evaluated by
    Horner's rule in the falling factorial of ``free``, stepping
    C(m + t, t) down to C(m + t - 1, t - 1) along the way.
    """
    if top < 0:
        return 0
    binom = math.comb(m + top, top)
    total = binom
    for t in range(top, 0, -1):
        binom = binom * t // (m + t)
        total = binom + (free - t + 1) * total
    return total


def problem1_matches_fixed_length(k: int, n: int, m: int) -> Count:
    """Sequences of length k over n colors with exactly m matched balls,
    summed over every possible number of repeated colors.

    The repeated-color count lam never exceeds m // 2 (two balls minimum
    per repeated color) nor n - k + m (the unmatched balls need distinct
    colors of their own), so the sum is clipped to the smaller bound, and
    S(m, lam) comes from one walk that stops there.
    """
    _require_nonneg(k=k, n=n, m=m)
    top = min(m // 2, n - k + m)
    if m > k or top < 0:
        return 0
    column = _s_column(m, top)
    return sum(_placements(k, n, m, lam) * column[lam] for lam in range(top + 1))


def problem2_matches_any_length(n: int, m: int) -> Count:
    """Sequences of any length over n colors with exactly m matched balls.

    Lengths k in [m, m + n - 1] are summed.  For m >= 2 those are exactly
    the realizable lengths: every ball matched at the low end, and at most
    n - 1 unmatched colors alongside at the high end.  The m = 0 extension
    keeps the same index pattern, counting injective sequences of lengths
    0 through n - 1.

    For each lam, the length sum runs over the t = k - m unmatched balls,
    up to n - 1 and up to the n - lam colors left for them; its terms share
    the factor C(n, lam) * S(m, lam), which is taken out once.
    """
    _require_nonneg(n=n, m=m)
    top = min(m // 2, n)
    column = _s_column(m, top)
    return sum(
        math.comb(n, lam) * column[lam] * _lengths(m, n - lam, min(n - 1, n - lam))
        for lam in range(top + 1)
    )


def problem3_repeats_fixed_length(k: int, n: int, mu: int) -> Count:
    """Sequences of length k over n colors in which exactly mu balls repeat
    a color already seen at an earlier position.

    A sequence with mu repeats spread over lam repeated colors has
    mu + lam matched balls in total, so the cells (m, lam) = (mu + lam, lam)
    for lam in [0, mu] partition exactly these sequences.  A cell is empty
    when mu + lam > k or lam > n, and all are when k - mu > n (the k - mu
    first occurrences need distinct colors), so the S values come from one
    walk that stops at the largest lam that can count.
    """
    _require_nonneg(k=k, n=n, mu=mu)
    top = min(mu, k - mu, n)
    if top < 0 or k - mu > n:
        return 0
    diagonal = _s_repeats(mu, top)
    return sum(
        _placements(k, n, mu + lam, lam) * diagonal[lam] for lam in range(top + 1)
    )


def problem4_repeats_any_length(n: int, mu: int) -> Count:
    """Sequences of any length over n colors with exactly mu repeats.

    Realizable lengths run from mu + 1 (one first occurrence, all later
    balls repeats) through n + mu (every color introduced once).  For
    mu = 0 this counts the injective sequences of lengths 1 through n; the
    empty sequence is excluded by convention.

    For each lam <= min(mu, n), the length sum runs over every number of
    unmatched balls the n - lam colors left can take, with the factor
    C(n, lam) * S(mu + lam, lam) taken out once.  That sum also reaches
    length mu at lam = 0, which holds a sequence only when mu = 0: the
    empty one, taken off at the end.
    """
    _require_nonneg(n=n, mu=mu)
    top = min(mu, n)
    diagonal = _s_repeats(mu, top)
    total = sum(
        math.comb(n, lam) * diagonal[lam] * _lengths(mu + lam, n - lam, n - lam)
        for lam in range(top + 1)
    )
    return total - (mu == 0)


def distribution_table(k: int, n: int) -> DistributionTable:
    """Complete census for fixed (k, n), computed from the closed forms.

    One walk of the S(m, lam) recurrence over every m <= k supplies the
    whole table, O(k^2) steps in all; each repeat bucket mu then sums its
    cells (mu + lam, lam).  Emits only nonzero cells, in lexicographic
    (m, lam) order and ascending mu order (dicts preserve insertion order,
    so iteration is deterministic).
    """
    _require_nonneg(k=k, n=n)
    cells: dict[tuple[int, int], Count] = {}
    for s, row in enumerate(_slack_diagonals(k, k // 2)):
        for lam, assignments in enumerate(row):
            m = 2 * lam + s
            count = _placements(k, n, m, lam) * assignments
            if count:
                cells[m, lam] = count
    by_match_cell = dict(sorted(cells.items()))
    by_repeat_count: dict[int, Count] = {}
    for mu in range(k):
        count = sum(by_match_cell.get((mu + lam, lam), 0) for lam in range(mu + 1))
        if count:
            by_repeat_count[mu] = count
    return DistributionTable(k, n, by_match_cell, by_repeat_count)
