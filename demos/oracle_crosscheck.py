#!/usr/bin/env python3
"""
Cross-check the closed forms against exhaustive enumeration.

The oracle tallies the colorings by brute force, with no knowledge of the
formulas: a depth-first walk places their first k - 2 balls one color at a
time, carrying each prefix's statistics by their definitions, and the last
two balls, which can take any color, are added to the tallied prefixes one
ball at a time.  verify() then compares the two sides cell by cell;
verify-range in the CLI does the same over a whole grid.
"""

from ballseq import BudgetExceeded, verify

# One (k, n) pair: 3^5 = 243 colorings, every cell and bucket compared.
report = verify(5, 3)
print(f"verify(5, 3): passed={report.passed}, "
      f"{report.cells_checked} cells checked, "
      f"{len(report.mismatches)} mismatches")

# A bigger pair still fits the default budget of 10^7 colorings.
report = verify(7, 6)
print(f"verify(7, 6): passed={report.passed}, "
      f"{report.cells_checked} cells checked "
      f"({6**7} colorings enumerated)")

# Past the budget the oracle refuses outright rather than sampling; an
# explicit budget raises the cap when you really want the big run.
try:
    verify(10, 10)
except BudgetExceeded as err:
    print(f"verify(10, 10): refused, {err}")

report = verify(8, 6, budget=2 * 10**7)
print(f"verify(8, 6, budget=2e7): passed={report.passed}")
