"""Reference counts for checking ballseq's outputs, sharing no code with it.

Two independent constructions:

* ``Walk``: a position-by-position dynamic programme.  Balls are placed
  left to right; the state (a, b) is the number of colours used exactly
  once and the number used twice or more.  Colours are labelled in order
  of first appearance, so a fresh colour has one way to appear and the
  labels are chosen at the end, n * (n - 1) * ... over the a + b colours
  used.  After k balls the statistics are m = k - a, lambda = b and
  mu = k - a - b.  One walk serves every palette size and every length up
  to its own, so census tables and the any-length sums all read off it.
* ``stirling`` and ``cell``: the associated-Stirling recurrence
  S(m, lam) = lam * (S(m-1, lam) + (m-1) * S(m-2, lam-1)), S(0, 0) = 1,
  times the choices of repeated colours, matched positions and an
  injective colouring of the rest.  Its cost grows as m * lam, so it
  serves point queries far beyond the walk's reach.

Both are anchored to brute-force enumeration by the benchmark's
self-test.
"""

from __future__ import annotations

from math import comb, perm


class Walk:
    """State counts of the canonical-labelling walk, extended on demand."""

    def __init__(self) -> None:
        self.states: list[dict[tuple[int, int], int]] = [{(0, 0): 1}]
        self.indexed: list[tuple[dict, dict]] = []

    def at(self, k: int) -> dict[tuple[int, int], int]:
        while len(self.states) <= k:
            nxt: dict[tuple[int, int], int] = {}
            for (a, b), c in self.states[-1].items():
                nxt[a + 1, b] = nxt.get((a + 1, b), 0) + c
                if a:
                    nxt[a - 1, b + 1] = nxt.get((a - 1, b + 1), 0) + a * c
                if b:
                    nxt[a, b] = nxt.get((a, b), 0) + b * c
            self.states.append(nxt)
        return self.states[k]

    def census(self, k: int, n: int) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
        """Nonzero counts of all n^k colourings by (m, lambda) and by mu."""
        by_cell: dict[tuple[int, int], int] = {}
        by_mu: dict[int, int] = {}
        for (a, b), c in sorted(self.at(k).items(), key=lambda item: (k - item[0][0], item[0][1])):
            count = c * perm(n, a + b)
            if count:
                by_cell[k - a, b] = count
                if k:
                    by_mu[k - a - b] = by_mu.get(k - a - b, 0) + count
        return by_cell, dict(sorted(by_mu.items()))

    def z(self, k: int, n: int, m: int, lam: int) -> int:
        if m > k:
            return 0
        return self.at(k).get((k - m, lam), 0) * perm(n, k - m + lam)

    def problem1(self, k: int, n: int, m: int) -> int:
        """Colourings of length k with exactly m matched balls."""
        a = k - m
        if a < 0:
            return 0
        return sum(c * perm(n, a + b) for b, c in self._index(k)[0].get(a, ()))

    def problem3(self, k: int, n: int, mu: int) -> int:
        """Colourings of length k with exactly mu repeats of an earlier colour."""
        used = k - mu
        if used < 0:
            return 0
        return perm(n, used) * self._index(k)[1].get(used, 0)

    def _index(self, k: int):
        """States of length k grouped by a, and state counts summed by a + b."""
        while len(self.indexed) <= k:
            by_a: dict[int, list[tuple[int, int]]] = {}
            by_used: dict[int, int] = {}
            for (a, b), c in self.at(len(self.indexed)).items():
                by_a.setdefault(a, []).append((b, c))
                by_used[a + b] = by_used.get(a + b, 0) + c
            self.indexed.append((by_a, by_used))
        return self.indexed[k]


def stirling(needed) -> dict[tuple[int, int], int]:
    """S(m, lam) for each requested (m, lam), by one sweep of the recurrence
    over rows m = 0..max m, keeping two rows and lam <= max requested lam."""
    needed = set(needed)
    if not needed:
        return {}
    top_m = max(m for m, _ in needed)
    top_lam = max(lam for _, lam in needed)
    found: dict[tuple[int, int], int] = {}
    older: list[int] = []
    old: list[int] = []
    for m in range(top_m + 1):
        width = min(m // 2, top_lam) + 1
        row = [0] * width
        if m == 0:
            row[0] = 1
        for lam in range(1, width):
            above = old[lam] if lam < len(old) else 0
            diagonal = older[lam - 1] if lam - 1 < len(older) else 0
            row[lam] = lam * (above + (m - 1) * diagonal)
        for lam in range(width):
            if (m, lam) in needed:
                found[m, lam] = row[lam]
        older, old = old, row
    for cell in needed - found.keys():
        found[cell] = 0
    return found


def cell(k: int, n: int, m: int, lam: int, s: dict[tuple[int, int], int]) -> int:
    """Sequences in one cell: lam repeated colours, m matched positions,
    an injective colouring of the k - m others from the n - lam remaining
    colours, and S(m, lam) ways to cover the repeated colours twice each."""
    if m > k or lam > n or k - m > n - lam:
        return 0
    return comb(n, lam) * comb(k, m) * perm(n - lam, k - m) * s.get((m, lam), 0)
