"""Exhaustive ground truth for the closed-form counts.

Everything here works by brute force, in one process: a depth-first walk
places the balls one at a time and reaches each prefix of k - 2 balls on its
own.  The statistics of a prefix are carried ball by ball as two counts, how
many colors it holds zero times and how many exactly once, each ball
updating them from the count its own color had, in O(1) per ball; a table
keeps, for each color, how far the next ball on it would move them.  The
walk places k - 5 balls and loops over the colors of balls k - 4, k - 3 and
k - 2 inline, each inline ball stepping only its color's move, and back, and
each color of ball k - 2 ending one leaf, a prefix of k - 2 balls, tallied
by those two counts in a flat table.  Then the same update by one ball, from
the empty prefix when k <= 3 leaves nothing to walk, turns each leaf into
its prefixes of k - 1 balls and each of those into its colorings.  Each
coloring's (m, lam, mu) is read off its two counts by the definition of
each.  No closed form, no symmetry shortcut, no sampling.  That independence
is the point; :func:`verify` compares these tallies against the formula side
cell by cell.  Requests too large to enumerate are refused before any work,
never truncated.

``BudgetExceeded`` and ``DEFAULT_BUDGET`` are defined in
:mod:`ballseq.core` and re-exported here.  ``import ballseq`` does not
load this module; it is loaded on first use of one of its names.
"""

from __future__ import annotations

from . import core, problems
from .core import DEFAULT_BUDGET, BudgetExceeded, Count, SequenceClass, _record
from .problems import DistributionTable


class Coloring(_record("Coloring", "colors n")):
    """A concrete sequence of palette indices, each in [0, n).  ``colors``
    may be any iterable; it is stored as a tuple."""

    __slots__ = ()

    def __new__(cls, colors: tuple[int, ...], n: int) -> Coloring:
        colors = tuple(colors)
        core._require_nonneg(n=n)
        for c in colors:
            # An exact int passes the type test at once; anything else must
            # be an int subclass other than bool.
            if (
                c.__class__ is not int and (isinstance(c, bool) or not isinstance(c, int))
            ) or not 0 <= c < n:
                raise ValueError(f"color index {c!r} outside palette [0, {n})")
        return tuple.__new__(cls, (colors, n))


class ClassStats(_record("ClassStats", "m lam mu distinct")):
    """Repetition statistics of a single coloring.

    m counts balls whose color appears on some other ball, lam counts
    colors used at least twice, mu counts balls repeating a color already
    seen at an earlier position, distinct counts colors used at all.
    Always m = mu + lam and mu = k - distinct.
    """

    __slots__ = ()


def classify(coloring: Coloring) -> ClassStats:
    """Statistics of one coloring, each read off its plain definition, in
    O(k): only the colors the coloring uses are counted."""
    counts: dict[int, int] = {}
    mu = 0
    for c in coloring.colors:
        if c in counts:
            mu += 1
        counts[c] = counts.get(c, 0) + 1
    m = 0
    lam = 0
    for c in counts.values():
        if c >= 2:
            m += c
            lam += 1
    return ClassStats(m, lam, mu, len(counts))


def _placed(prefixes: dict, n: int) -> dict:
    """The prefixes one ball longer than ``prefixes``, counted by (unseen,
    once) as they are: of the n colors the new ball can take, unseen become
    seen once, once become held twice, and the rest leave both counts as
    they were."""
    after: dict[tuple[int, int], int] = {}
    for (unseen, once), times in prefixes.items():
        for prefix, colors in (
            ((unseen - 1, once + 1), unseen),
            ((unseen, once - 1), once),
            ((unseen, once), n - unseen - once),
        ):
            if colors:
                after[prefix] = after.get(prefix, 0) + colors * times
    return after


def _tally(k: int, n: int) -> dict[tuple[int, int, int], int]:
    """Count the n^k colorings by their (m, lam, mu), walking their prefixes
    of k - 2 balls depth first without recursion.

    The walk carries the count of each color and one key, unseen + (n + 1)
    * once, where unseen is the number of colors the prefix placed so far
    holds zero times and once the number it holds exactly once.  Each ball
    moves the key by the count its color had before it, in O(1): an unseen
    color becomes seen once (+n), a color held once becomes held twice
    (-(n + 1)), and a color held twice or more leaves the key alone.
    Taking a ball off undoes its move.  A move table of n entries holds
    each color's move for the next ball, set from those three whenever the
    color's count crosses 0, 1 or 2.

    The walk places k - 5 balls one at a time, then loops over the colors
    of ball k - 4 inline, inside that over those of ball k - 3, and inside
    that over the move table for ball k - 2.  At k = 4 there is no ball
    k - 4, and its loop runs once with no ball placed.  An inline ball steps
    only the move table, by ``after``, which gives a color's next move from
    its current one, and puts the old move back when the loops inside it
    end; only the balls placed one at a time keep ``counts``, since a count
    falling from 3 to 2 leaves its move at 0, and only the count tells that
    from a fall from 2 to 1.  Each color of ball k - 2 ends one walk leaf, a
    prefix of k - 2 balls, and adds 1 to the leaf table's entry for its key:
    one increment per leaf, with no shortcut by classes of colors.  Since
    balls k - 1 and k can each take any color, :func:`_placed` then turns
    the leaves into the prefixes of k - 1 balls that end them, and those
    into their colorings, each group counted times the leaves or prefixes it
    ends.  With k <= 3 there is no walk, and :func:`_placed` runs k times
    from the empty prefix.  Beyond ``counts``, the move table and the leaf
    table, the walk holds one color per ball.

    Each of m, lam and mu is then read off a coloring's (unseen, once) by
    its own definition: a ball is matched unless its color is held once,
    so m = k - once; a color repeats when it is held twice or more, so
    lam = n - unseen - once; and a ball repeats unless it is its color's
    first, so mu = k - (n - unseen).  No relation between them, such as
    m = lam + mu, and no closed form is used.  At a fixed k each (unseen,
    once) gives its own (m, lam, mu), so no two groups meet in the tally.
    """
    if k <= 3:  # no walk: the one empty prefix, all n colors unseen
        prefixes, length = {(n, 0): 1}, 0
    elif not n:
        return {}  # no color for the first ball: no coloring, however long
    else:
        # The key's move when a ball takes a color held 0, 1, or 2 or more
        # times before it.
        steps = (n, -n - 1, 0)
        # A color's move for the next ball from its move for this one.
        after = {n: -n - 1, -n - 1: 0, 0: 0}
        base = n + 1  # unseen <= n, so once = key // base and unseen = key % base
        # walk leaf key -> how many leaves have it; a leaf holds at most
        # min(k - 2, n) colors once
        leaves = [0] * (base * (min(k - 2, n) + 1))
        counts = [0] * n
        # move[c] = steps[min(counts[c], 2)], set whenever counts[c] crosses
        # 0, 1 or 2: one entry per color, not one per count, since a count
        # reaches k - 2 and n = 1 walks 10^5 balls.
        move = [n] * n
        walked = k - 5  # balls the walk places before ball k - 4
        placed = [0] * max(walked, 0)  # the color of each of them
        # At k = 4 there is no ball k - 4: its loop runs once, placing nothing.
        fourth = range(n) if k > 4 else (None,)
        key = n  # no ball placed: all n colors unseen
        depth = 0
        c = 0
        while True:
            # Place color c, then color 0 on every ball up to ball k - 5.
            while depth < walked:
                key += move[c]
                cnt = counts[c] + 1
                counts[c] = cnt
                if cnt < 3:
                    move[c] = steps[cnt]
                placed[depth] = c
                depth += 1
                c = 0
            # Ball k - 4 in each color, inside it ball k - 3 in each color,
            # and inside that ball k - 2 in each color, each a leaf.
            for d in fourth:
                fourth_key = key
                if d is not None:
                    fourth_step = move[d]
                    fourth_key += fourth_step
                    move[d] = after[fourth_step]
                for c in range(n):
                    step = move[c]
                    third = fourth_key + step
                    move[c] = after[step]
                    for last in move:
                        leaves[third + last] += 1
                    move[c] = step
                if d is not None:
                    move[d] = fourth_step
            # Take balls off until one can move on to its next color.
            while depth:
                depth -= 1
                c = placed[depth]
                cnt = counts[c] - 1
                counts[c] = cnt
                if cnt < 3:
                    move[c] = steps[cnt]
                key -= move[c]
                c += 1
                if c < n:
                    break
            else:
                break
        prefixes = {
            (leaf % base, leaf // base): times for leaf, times in enumerate(leaves) if times
        }
        length = k - 2
    for _ in range(length, k):  # each later ball takes any of the n colors
        prefixes = _placed(prefixes, n)
    return {
        (k - once, n - unseen - once, k - (n - unseen)): colorings
        for (unseen, once), colorings in prefixes.items()
    }


def _refuse_over_budget(k: int, n: int, budget: int) -> None:
    """Raise BudgetExceeded, building nothing, when the walk would pass the
    budget.  The budget counts colorings, but a one-color palette has one
    coloring however many balls it holds, and the walk places each one; so
    that coloring is held to max(budget, DEFAULT_BUDGET) balls, which lets
    a budget of exactly the n^k colorings still walk a short one."""
    core._require_nonneg(k=k, n=n)
    # n^k, built no further than the budget: for n >= 2 the running product
    # passes any budget within about log2(budget) steps; 0^k = 0 for k >= 1,
    # while 1^k and n^0 are 1.
    size = 1
    if n > 1:
        for _ in range(k):
            size *= n
            if size > budget:
                break
    elif k:
        size = n
    if size > budget:
        raise BudgetExceeded(k, n, budget)
    limit = max(budget, DEFAULT_BUDGET)
    if n == 1 and k > limit:
        raise BudgetExceeded(k, n, limit, f"walking one coloring of {k} balls")


def enumerate_counts(k: int, n: int, budget: int = DEFAULT_BUDGET) -> DistributionTable:
    """Ground-truth census of the n^k colorings, each classified from its
    own prefix, whose statistics are carried ball by ball by their literal
    definitions, in one process that reaches its walk leaves one by one.

    Deliberately ignorant of every closed form it is used to check.
    Raises BudgetExceeded when n^k > budget, or when n = 1 and k exceeds
    both the budget and DEFAULT_BUDGET, rather than truncating.
    """
    _refuse_over_budget(k, n, budget)
    tally = _tally(k, n)
    by_match_cell: dict[tuple[int, int], Count] = {}
    by_repeat_count: dict[int, Count] = {}
    for (m, lam, mu), count in tally.items():
        by_match_cell[m, lam] = by_match_cell.get((m, lam), 0) + count
        if k:
            by_repeat_count[mu] = by_repeat_count.get(mu, 0) + count
    return DistributionTable(k, n, by_match_cell, by_repeat_count)


class VerificationReport(_record("VerificationReport", "k n cells_checked mismatches passed")):
    """Outcome of one formula-versus-enumeration comparison.

    Each mismatch is a (cell identifier, formula value, oracle value)
    triple; passed is true exactly when there are none.
    """

    __slots__ = ()

    def __new__(
        cls,
        k: int,
        n: int,
        cells_checked: int,
        mismatches: tuple[tuple[str, Count, Count], ...],
        passed: bool,
    ) -> VerificationReport:
        if passed != (len(mismatches) == 0):
            raise ValueError("passed must mean exactly zero mismatches")
        return super().__new__(cls, k, n, cells_checked, mismatches, passed)


def verify(k: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Compare every closed-form count for one (k, n) against enumeration.

    Covers each (m, lam) cell with m in [0, k] and lam in [0, m // 2], each
    repeat bucket mu in [0, k - 1], and the n^k grand total on both sides.
    Beyond the enumeration's own refusals, raises BudgetExceeded before any
    work when those cells and buckets number more than ``budget``.
    """
    _refuse_over_budget(k, n, budget)
    # sum(m // 2 + 1 for m in 0..k) = k + 1 + k*k // 4 cells, and k buckets
    cells_checked = 2 * k + 1 + k * k // 4
    if cells_checked > budget:
        raise BudgetExceeded(k, n, budget, f"checking {cells_checked} cells")
    _, _, by_match_cell, by_repeat_count = enumerate_counts(k, n, budget)
    mismatches: list[tuple[str, Count, Count]] = []
    formula_total = 0
    for m in range(k + 1):
        for lam in range(m // 2 + 1):
            formula = core.z_count(SequenceClass(k, n, m, lam))
            formula_total += formula
            enumerated = by_match_cell.get((m, lam), 0)
            if formula != enumerated:
                mismatches.append((f"m={m},lambda={lam}", formula, enumerated))
    for mu in range(k):
        formula = problems.problem3_repeats_fixed_length(k, n, mu)
        enumerated = by_repeat_count.get(mu, 0)
        if formula != enumerated:
            mismatches.append((f"mu={mu}", formula, enumerated))
    total = n**k
    if formula_total != total:
        mismatches.append(("total:formula", formula_total, total))
    enumerated_total = sum(by_match_cell.values())
    if enumerated_total != total:
        mismatches.append(("total:oracle", total, enumerated_total))
    return VerificationReport(k, n, cells_checked, tuple(mismatches), not mismatches)
