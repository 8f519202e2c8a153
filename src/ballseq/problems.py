"""Aggregate counts over whole statistic ranges, and full census tables.

Four aggregation flavors: fix the sequence length and count by matched
balls (problem1) or by repeats-after-first-occurrence (problem3), or sum
each of those over every length that can realize the statistic (problem2,
problem4).  All are finite sums of single-cell counts from
:mod:`ballseq.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Count, SequenceClass, _placements, _slack_diagonals, z_count


@dataclass
class DistributionTable:
    """Sparse census of all n^k colorings of k positions.

    ``by_match_cell`` maps (m, lam) to the number of colorings with exactly
    m matched balls and lam repeated colors; ``by_repeat_count`` maps mu to
    the number of colorings with exactly mu repeats after first occurrence.
    Cells counting zero are omitted.  The repeat view has no bucket for the
    empty sequence, so it is {} when k = 0.
    """

    k: int
    n: int
    by_match_cell: dict[tuple[int, int], Count]
    by_repeat_count: dict[int, Count]


def _require_nonneg(**params: int) -> None:
    for name, value in params.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def problem1_matches_fixed_length(k: int, n: int, m: int) -> Count:
    """Sequences of length k over n colors with exactly m matched balls,
    summed over every possible number of repeated colors.

    The repeated-color count lam never exceeds m // 2 (two balls minimum
    per repeated color) nor n - k + m (the unmatched balls need distinct
    colors of their own), so the sum is clipped to the smaller bound.
    """
    _require_nonneg(k=k, n=n, m=m)
    top = min(m // 2, n - k + m)
    return sum(z_count(SequenceClass(k, n, m, lam)) for lam in range(top + 1))


def problem2_matches_any_length(n: int, m: int) -> Count:
    """Sequences of any length over n colors with exactly m matched balls.

    Lengths k in [m, m + n - 1] are summed.  For m >= 2 those are exactly
    the realizable lengths: every ball matched at the low end, and at most
    n - 1 unmatched colors alongside at the high end.  The m = 0 extension
    keeps the same index pattern, counting injective sequences of lengths
    0 through n - 1.
    """
    _require_nonneg(n=n, m=m)
    return sum(problem1_matches_fixed_length(k, n, m) for k in range(m, m + n))


def problem3_repeats_fixed_length(k: int, n: int, mu: int) -> Count:
    """Sequences of length k over n colors in which exactly mu balls repeat
    a color already seen at an earlier position.

    A sequence with mu repeats spread over lam repeated colors has
    mu + lam matched balls in total, so the cells (m, lam) = (mu + lam, lam)
    for lam in [0, mu] partition exactly these sequences.
    """
    _require_nonneg(k=k, n=n, mu=mu)
    return sum(z_count(SequenceClass(k, n, mu + lam, lam)) for lam in range(mu + 1))


def problem4_repeats_any_length(n: int, mu: int) -> Count:
    """Sequences of any length over n colors with exactly mu repeats.

    Realizable lengths run from mu + 1 (one first occurrence, all later
    balls repeats) through n + mu (every color introduced once).  For
    mu = 0 this counts the injective sequences of lengths 1 through n; the
    empty sequence is excluded by convention.
    """
    _require_nonneg(n=n, mu=mu)
    return sum(
        problem3_repeats_fixed_length(k, n, mu) for k in range(mu + 1, n + mu + 1)
    )


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
