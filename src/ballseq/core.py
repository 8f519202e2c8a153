"""Exact counting of colored-ball sequences by repetition pattern.

A sequence of k balls is colored from a palette of n labeled colors.  Two
statistics summarize how much repetition it contains: m, the number of
balls whose color appears on at least one other ball, and lam, the number
of distinct colors that are used two or more times.  This module evaluates
the closed-form count of sequences in each (k, n, m, lam) cell.

All arithmetic is exact.  Counts are plain Python ints and no float enters
any computation, so results are correct at any magnitude.

The records of the package are immutable named tuples built by
:func:`_record`.  ``BudgetExceeded`` and ``DEFAULT_BUDGET`` live here, not
in :mod:`ballseq.oracle`, so that the CLI can name them without loading
the oracle; the oracle re-exports the same objects.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

Count = int

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """Raised when a request would take more work than its budget allows:
    by default, enumerating more than ``budget`` colorings."""

    def __init__(self, k: int, n: int, budget: int, work: str | None = None) -> None:
        self.k = k
        self.n = n
        self.budget = budget
        work = work or f"enumerating {n}^{k} colorings"
        super().__init__(f"{work} exceeds the budget of {budget}")


def _record(typename: str, field_names: str) -> type:
    """A named-tuple base for one of the package's records.  Its ``_make``,
    and so ``_replace``, builds through the subclass's ``__new__``, so no
    copy skips the checks made there."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class Constraint(Enum):
    """Structural reasons a (k, n, m, lam) cell must be empty."""

    MATCH_FLOOR = "MatchFloor"
    LAMBDA_VS_HALF_M = "LambdaVsHalfM"
    LAMBDA_VS_SLACK = "LambdaVsSlack"
    EXACTLY_ONE_MATCH = "ExactlyOneMatch"
    ZERO_MATCH_SHAPE = "ZeroMatchShape"


def _require_nonneg(**params: int) -> None:
    """Raise ValueError unless every value is a non-negative int.  A bool
    is an int to Python but not a count, so it is refused too."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


class SequenceClass(_record("SequenceClass", "k n m lam")):
    """One counting cell: sequences of ``k`` balls over ``n`` labeled colors
    with exactly ``m`` matched balls and exactly ``lam`` repeated colors.

    A ball is *matched* when some other ball carries the same color; a color
    is *repeated* when it colors at least two balls.
    """

    __slots__ = ()

    def __new__(cls, k: int, n: int, m: int, lam: int) -> SequenceClass:
        _require_nonneg(k=k, n=n, m=m, lam=lam)
        return super().__new__(cls, k, n, m, lam)


class FeasibilityReport(_record("FeasibilityReport", "feasible violated_constraints")):
    """Outcome of the structural constraint checks for one cell:
    ``feasible`` (bool) and ``violated_constraints``, a tuple of
    :class:`Constraint`."""

    __slots__ = ()

    def __new__(cls, feasible: bool, violated_constraints: tuple[Constraint, ...]) -> FeasibilityReport:
        if feasible != (len(violated_constraints) == 0):
            raise ValueError("feasible must mean exactly zero violations")
        return super().__new__(cls, feasible, violated_constraints)


def _next_column(lam: int, column: tuple[Count, ...], width: int) -> tuple[Count, ...]:
    """Column lam of a(m, lam) = S(m, lam)/lam! (OEIS A008299), entry e at
    m = 2*lam + e for e < width, from column lam - 1, which is at least as
    long; column 0 is [e = 0].  S's recurrence below, divided by lam!, is
    a(m, lam) = lam * a(m - 1, lam) + (m - 1) * a(m - 2, lam - 1), so entry
    e comes from entry e - 1 above it (0 at e = 0) and entry e beside it."""
    entries, entry = [], 0
    for e in range(width):
        entry = lam * entry + (2 * lam + e - 1) * column[e]
        entries.append(entry)
    return tuple(entries)


# typed, so that a bool reaches the argument check rather than the entry
# cached for 0 or 1.
@lru_cache(maxsize=4096, typed=True)
def doubly_surjective_count(m: int, lam: int) -> Count:
    """Number of ways to assign m labeled balls to lam labeled colors so
    that every color receives at least two balls.

    These are lam! times the associated Stirling numbers of the second
    kind (OEIS A008299; Comtet, *Advanced Combinatorics*, 1974), zero
    whenever 2 * lam > m.  A cell is evaluated one of two ways, chosen by
    the ratio of m to lam alone.

    m below 2.8 * lam: the recurrence.  Classify by the ball of highest
    label: either it joins one of lam colors that already hold two or more
    of the other balls, or it shares a color with exactly one of the other
    m - 1 balls.  Hence

        S(m, lam) = lam * (S(m - 1, lam) + (m - 1) * S(m - 2, lam - 1))

    with S(0, 0) = 1.  Every term is non-negative.  The walk builds lam
    columns of m - 2*lam + 1 entries of S/lam! (:func:`_next_column`), on
    numbers lam! smaller than S, and holds one column at a time.

    m of 2.8 * lam or more: the exponential generating function.
    S(m, lam) is m! [x^m] (e^x - 1 - x)^lam; expanding the power by the
    binomial theorem gives, with r = lam - i,

        S(m, lam) = sum_{i=1..lam} (-1)^r C(lam, i) i^(m - r)
                    * sum_{j=0..r} C(r, j) m!/(m - j)! i^(r - j).

    The i = 0 term vanishes for m > lam, so S(m, 0) = [m = 0] is taken
    apart.  The inner sum is a Horner loop in i, so the sum costs lam big
    powers plus about lam^2/2 steps on numbers far shorter than the
    result, and its cost does not grow with the slack.  Timed on both
    sides, the walk wins near m = 2*lam, where it is short (S(1000, 500):
    0.6 ms against 0.24 s), the two cross near m = 2.6 * lam, and the sum
    wins from there on, more as m grows (best of 3 at m = 2.8 * lam on a
    2-vCPU VM: lam = 30, 0.18 ms against 0.20 ms; lam = 100, 2.4 ms
    against 3.1 ms; S(2800, 100), 11 ms against 0.45 s).  The rule sits at
    m = 2.8 * lam, compared in integers as 5*m against 14*lam.
    """
    _require_nonneg(m=m, lam=lam)
    if 2 * lam > m:
        return 0
    if 5 * m < 14 * lam:
        column = (1,) + (0,) * (m - 2 * lam)
        for i in range(1, lam + 1):
            column = _next_column(i, column, len(column))
        return math.factorial(lam) * column[-1]
    if lam == 0:
        return int(m == 0)
    total = 0
    for i in range(1, lam + 1):
        r = lam - i
        c = inner = 1  # c = C(r, j) * m!/(m - j)!, from j = 0
        for j in range(r):
            c = c * (r - j) * (m - j) // (j + 1)
            inner = inner * i + c
        term = math.comb(lam, i) * i ** (m - r) * inner
        total += -term if r & 1 else term
    return total


def feasibility(cell: SequenceClass) -> FeasibilityReport:
    """Check every structural constraint on a cell and report all failures.

    Violation of any constraint forces the cell count to zero.  The
    converse is weaker: a cell can pass every check here and still count
    zero through the arithmetic (m exceeding k, say).
    """
    k, n, m, lam = cell
    violated: list[Constraint] = []
    if k > n and m < k - n + 1:
        # Only n balls can avoid matching, so overflow forces k - n + 1 matches.
        violated.append(Constraint.MATCH_FLOOR)
    if lam > m // 2:
        # Each repeated color consumes at least two matched balls.
        violated.append(Constraint.LAMBDA_VS_HALF_M)
    if lam > n - k + m:
        # k - m unmatched balls need distinct colors outside the lam repeated ones.
        violated.append(Constraint.LAMBDA_VS_SLACK)
    if m == 1:
        # A matched ball needs a partner sharing its color.
        violated.append(Constraint.EXACTLY_ONE_MATCH)
    if m == 0 and (lam != 0 or k > n):
        # No matches means no repeated colors and an injective coloring.
        violated.append(Constraint.ZERO_MATCH_SHAPE)
    return FeasibilityReport(not violated, tuple(violated))


def _placements(k: int, n: int, m: int, lam: int) -> Count:
    """Every factor of the (k, n, m, lam) cell count except S(m, lam):
    C(n, lam) * C(k, m) * (n - lam)!/(n - lam - k + m)!.

    Zero when m > k, lam > n or k - m > n - lam, since no coloring then
    fits the cell.
    """
    if m > k or lam > n or k - m > n - lam:
        return 0
    return math.comb(n, lam) * math.comb(k, m) * math.perm(n - lam, k - m)


def z_count(cell: SequenceClass) -> Count:
    """Exact number of sequences in one (k, n, m, lam) cell.

    The count factors into independent choices: which lam colors repeat,
    which m positions hold matched balls, an injective coloring of the
    remaining k - m positions from the remaining n - lam colors, and an
    assignment of the matched positions onto the repeated colors giving
    each at least two.  Every infeasible cell comes out zero through these
    factors, so no separate feasibility check runs.
    """
    k, n, m, lam = cell
    placements = _placements(k, n, m, lam)
    return placements * doubly_surjective_count(m, lam) if placements else 0
