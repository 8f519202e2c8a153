"""Exhaustive ground truth for the closed-form counts.

Everything here works by brute force: enumerate all n^k colorings, read
each one's statistics off its literal definition, and tally.  No closed
form, no symmetry shortcut, no sampling.  That independence is the point;
:func:`verify` compares these tallies against the formula side cell by
cell.  Requests too large to enumerate are refused, never truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import core, problems
from .core import Count, SequenceClass
from .problems import DistributionTable

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed the coloring budget."""

    def __init__(self, k: int, n: int, budget: int) -> None:
        self.k = k
        self.n = n
        self.budget = budget
        super().__init__(
            f"enumerating {n}^{k} colorings exceeds the budget of {budget}"
        )


@dataclass(frozen=True)
class Coloring:
    """A concrete sequence of palette indices, each in [0, n)."""

    colors: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        core._require_nonneg(n=self.n)
        for c in self.colors:
            if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < self.n:
                raise ValueError(f"color index {c!r} outside palette [0, {self.n})")


@dataclass(frozen=True)
class ClassStats:
    """Repetition statistics of a single coloring.

    m counts balls whose color appears on some other ball, lam counts
    colors used at least twice, mu counts balls repeating a color already
    seen at an earlier position, distinct counts colors used at all.
    Always m = mu + lam and mu = k - distinct.
    """

    m: int
    lam: int
    mu: int
    distinct: int


def classify(coloring: Coloring) -> ClassStats:
    """Statistics of one coloring, each read off its plain definition."""
    counts = [0] * coloring.n
    mu = 0
    for c in coloring.colors:
        if counts[c]:
            mu += 1
        counts[c] += 1
    m = 0
    lam = 0
    distinct = 0
    for c in counts:
        if c:
            distinct += 1
            if c >= 2:
                m += c
                lam += 1
    return ClassStats(m, lam, mu, distinct)


def _exceeds_budget(k: int, n: int, budget: int) -> bool:
    """Whether n^k > budget, found without building n^k: for n >= 2 the
    running product passes any budget within about log2(budget) steps."""
    if n <= 1:
        return (n if k else 1) > budget  # 0^k = 0 for k >= 1; 1^k = x^0 = 1
    size = 1
    for _ in range(k):
        size *= n
        if size > budget:
            return True
    return size > budget


def enumerate_counts(k: int, n: int, budget: int = DEFAULT_BUDGET) -> DistributionTable:
    """Ground-truth census built by classifying every one of the n^k
    colorings, walked as a mixed-radix counter in constant memory.

    Deliberately ignorant of every closed form it is used to check.
    Raises BudgetExceeded when n^k > budget rather than truncating.
    """
    core._require_nonneg(k=k, n=n)
    if _exceeds_budget(k, n, budget):
        raise BudgetExceeded(k, n, budget)
    by_match_cell: dict[tuple[int, int], Count] = {}
    by_repeat_count: dict[int, Count] = {}
    counts = [0] * n
    for colors in itertools.product(range(n), repeat=k):
        mu = 0
        for c in colors:
            if counts[c]:
                mu += 1
            counts[c] += 1
        m = 0
        lam = 0
        for c in colors:
            # First visit of each color reads its full tally and resets it,
            # leaving counts all-zero for the next coloring.
            cnt = counts[c]
            if cnt:
                counts[c] = 0
                if cnt >= 2:
                    m += cnt
                    lam += 1
        cell = (m, lam)
        if cell in by_match_cell:
            by_match_cell[cell] += 1
        else:
            by_match_cell[cell] = 1
        if k:
            if mu in by_repeat_count:
                by_repeat_count[mu] += 1
            else:
                by_repeat_count[mu] = 1
    return DistributionTable(k, n, by_match_cell, by_repeat_count)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one formula-versus-enumeration comparison.

    Each mismatch is a (cell identifier, formula value, oracle value)
    triple; passed is true exactly when there are none.
    """

    k: int
    n: int
    cells_checked: int
    mismatches: tuple[tuple[str, Count, Count], ...]
    passed: bool

    def __post_init__(self) -> None:
        if self.passed != (len(self.mismatches) == 0):
            raise ValueError("passed must mean exactly zero mismatches")


def verify(k: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Compare every closed-form count for one (k, n) against enumeration.

    Covers each (m, lam) cell with m in [0, k] and lam in [0, m // 2], each
    repeat bucket mu in [0, k - 1], and the n^k grand total on both sides.
    """
    observed = enumerate_counts(k, n, budget)
    mismatches: list[tuple[str, Count, Count]] = []
    cells_checked = 0
    formula_total = 0
    for m in range(k + 1):
        for lam in range(m // 2 + 1):
            cells_checked += 1
            formula = core.z_count(SequenceClass(k, n, m, lam))
            formula_total += formula
            enumerated = observed.by_match_cell.get((m, lam), 0)
            if formula != enumerated:
                mismatches.append((f"m={m},lambda={lam}", formula, enumerated))
    for mu in range(k):
        cells_checked += 1
        formula = problems.problem3_repeats_fixed_length(k, n, mu)
        enumerated = observed.by_repeat_count.get(mu, 0)
        if formula != enumerated:
            mismatches.append((f"mu={mu}", formula, enumerated))
    total = n**k
    if formula_total != total:
        mismatches.append(("total:formula", formula_total, total))
    enumerated_total = sum(observed.by_match_cell.values())
    if enumerated_total != total:
        mismatches.append(("total:oracle", total, enumerated_total))
    return VerificationReport(k, n, cells_checked, tuple(mismatches), not mismatches)
