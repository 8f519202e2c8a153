"""Acceptance gate: one test per shipped criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one [PASS]/[FAIL] line
per criterion (without -s the lines surface only for failing tests).
"""

import random
import time
from contextlib import contextmanager

from ballseq import cli
from ballseq.core import SequenceClass, doubly_surjective_count, feasibility, z_count
from ballseq.oracle import ClassStats, Coloring, classify
from ballseq.problems import (
    problem1_matches_fixed_length,
    problem2_matches_any_length,
    problem3_repeats_fixed_length,
    problem4_repeats_any_length,
)


@contextmanager
def criterion(label):
    info = {}
    try:
        yield info
    except BaseException:
        detail = f" ({info['detail']})" if "detail" in info else ""
        print(f"[FAIL] criterion {label}{detail}")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"[PASS] criterion {label}{detail}")


def test_criterion_1_worked_five_ball_example(capsys):
    with criterion("1: five balls, three colors, four matched -> 30 + 90 = 120") as info:
        start = time.perf_counter()
        code = cli.run(["problem1", "--k", "5", "--n", "3", "--m", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "120\n"
        assert z_count(SequenceClass(5, 3, 4, 1)) == 30
        assert z_count(SequenceClass(5, 3, 4, 2)) == 90
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        info["detail"] = f"{elapsed:.3f}s < 1s"


def test_criterion_2_ten_ball_classification():
    with criterion("2: AABBCCDDDD classifies as m=10, lambda=4, mu=6"):
        colors = tuple(ord(ch) - ord("A") for ch in "AABBCCDDDD")
        stats = classify(Coloring(colors, 4))
        assert stats == ClassStats(m=10, lam=4, mu=6, distinct=4)


def test_criterion_3_oracle_equivalence_range(capsys):
    with criterion("3: verify-range up to k=n=7, 64 pairs, zero mismatches") as info:
        # Everything under cli/oracle runs on one thread; the bound below
        # is the single-threaded one.
        start = time.perf_counter()
        code = cli.run(["verify-range", "--max-k", "7", "--max-n", "7"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        assert "checked 64 pairs: 64 passed, 0 failed, 0 skipped" in out
        assert elapsed < 60.0
        info["detail"] = f"{elapsed:.1f}s < 60s"


def test_criterion_4_total_mass_identities():
    with criterion("4: both statistics sum to n^k for all k, n <= 25") as info:
        start = time.perf_counter()
        for k in range(26):
            for n in range(26):
                by_cell = sum(
                    z_count(SequenceClass(k, n, m, lam))
                    for m in range(k + 1)
                    for lam in range(m // 2 + 1)
                )
                assert by_cell == n**k, (k, n)
                by_repeat = sum(
                    problem3_repeats_fixed_length(k, n, mu)
                    for mu in range(max(k, 1))
                )
                assert by_repeat == n**k, (k, n)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        info["detail"] = f"{elapsed:.1f}s < 10s"


def _functions_hitting_every_color_twice(m, lam):
    """Count the functions [m] -> [lam] that hit every color at least
    twice, visiting all lam^m of them depth first.

    hits[c] counts the balls placed so far with color c, and short counts
    the colors hit fewer than twice; both change as a ball is placed and
    change back as it is taken off.  The last ball's loop tries each color
    in turn and tallies the function when no color is left short."""
    if m == 0:
        # The empty function hits every color twice only on an empty palette.
        return int(lam == 0)
    hits = [0] * lam
    short = lam
    total = 0

    def place(ball):
        nonlocal short, total
        if ball == m - 1:
            for c in range(lam):
                # No color short, or only c, and this ball is its second.
                if short == 0 or (short == 1 and hits[c] == 1):
                    total += 1
            return
        for c in range(lam):
            hits[c] += 1
            if hits[c] == 2:
                short -= 1
            place(ball + 1)
            if hits[c] == 2:
                short += 1
            hits[c] -= 1

    place(0)
    return total


def test_criterion_5_assignment_count_brute_force():
    with criterion("5: doubly-surjective counts match brute force, lam^m <= 10^6") as info:
        checked = 0
        # lam <= 1 and m <= 1 make lam^m <= 10^6 hold for arbitrarily large
        # values of the other parameter; 20 caps both axes well past every
        # boundary the budget itself can reach (2^20 > 10^6).
        for m in range(21):
            for lam in range(21):
                if lam**m > 10**6:
                    continue
                brute = _functions_hitting_every_color_twice(m, lam)
                assert doubly_surjective_count(m, lam) == brute, (m, lam)
                checked += 1
        info["detail"] = f"{checked} (m, lam) pairs"


def test_criterion_6_aggregate_problems_vs_oracle(oracle_tables):
    with criterion("6: any-length aggregates match oracle sums (n <= 5)") as info:
        checked = 0
        for n in range(6):
            for m in range(7):
                expected = 0
                for k in range(m, m + n):
                    table = oracle_tables(k, n)
                    expected += sum(
                        count
                        for (cell_m, _), count in table.by_match_cell.items()
                        if cell_m == m
                    )
                assert problem2_matches_any_length(n, m) == expected, (n, m)
                checked += 1
            for mu in range(6):
                expected = 0
                for k in range(mu + 1, n + mu + 1):
                    table = oracle_tables(k, n)
                    expected += table.by_repeat_count.get(mu, 0)
                assert problem4_repeats_any_length(n, mu) == expected, (n, mu)
                checked += 1
        info["detail"] = f"{checked} aggregate values"


def test_criterion_7_constraint_violations_count_zero():
    with criterion("7: 10,000+ random constraint-violating cells count zero") as info:
        rng = random.Random(20260814)
        top = 50

        def match_floor():
            k = rng.randint(1, top)
            n = rng.randint(0, k - 1)
            m = rng.randint(0, k - n)
            return SequenceClass(k, n, m, rng.randint(0, top))

        def half_m():
            m = rng.randint(0, top)
            lam = rng.randint(m // 2 + 1, top)
            return SequenceClass(rng.randint(0, top), rng.randint(0, top), m, lam)

        def slack():
            while True:
                k = rng.randint(0, top)
                n = rng.randint(0, top)
                m = rng.randint(0, top)
                if n - k + m < top:
                    lam = rng.randint(max(n - k + m + 1, 0), top)
                    return SequenceClass(k, n, m, lam)

        def one_match():
            return SequenceClass(rng.randint(0, top), rng.randint(0, top), 1,
                                 rng.randint(0, top))

        families = [match_floor, half_m, slack, one_match]
        samples = 0
        for family in families:
            for _ in range(2600):
                cell = family()
                assert not feasibility(cell).feasible, cell
                assert z_count(cell) == 0, cell
                samples += 1
        assert samples >= 10_000
        info["detail"] = f"{samples} cells across 4 constraint families"
