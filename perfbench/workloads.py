"""Seeded request streams for the benchmark workloads.

A request is a ``(command, params)`` pair, where ``command`` is a ballseq
CLI subcommand name and ``params`` maps its flag names to ints.  The same
seed always yields the same stream.  The CLI and oracle workloads come in
rounds of fixed composition: the seed moves each request's parameters
inside a narrow band, but every round holds the same kinds of request in
the same size bands, so whole-run throughput does not depend on which
seed drew the parameters.

This module imports nothing from ballseq; both the benchmark process and
the child processes that call ballseq use it.
"""

from __future__ import annotations

import random
from itertools import chain, count

CLI = ("cli-census", "cli-point")
IN_PROCESS = ("lib-warm", "oracle-verify")
WORKLOADS = CLI + IN_PROCESS

# Flags of each subcommand, in the order they are passed.
FLAGS = {
    "z": ("k", "n", "m", "lambda"),
    "s": ("m", "lambda"),
    "problem1": ("k", "n", "m"),
    "problem2": ("n", "m"),
    "problem3": ("k", "n", "mu"),
    "problem4": ("n", "mu"),
    "table": ("k", "n"),
}

# A traced run replays one round of a round-based workload, or this many
# lib-warm operations after the warm-up.
LIB_TRACE_OPS = 3000
# lib-warm shapes: k, n, m and mu up to this size.
LIB_MAX = 60
# Throughput is the median over groups of requests: a round for the
# round-based workloads, this many operations for lib-warm.  Every run
# completes at least one group, so the outputs of the first group are
# hashed, to compare across runs and commits.
LIB_GROUP_OPS = 1000
# Every run lasts at least this many groups.  The tail percentile is the
# one with ten samples beyond it in that many groups, taken over all the
# groups a run completes: rounds have a fixed make-up, so the percentile
# lands on the same request band however many groups fit in the run.
MIN_GROUPS = {"cli-census": 4, "cli-point": 4, "lib-warm": 10, "oracle-verify": 4}


def argv(request: tuple[str, dict]) -> list[str]:
    """CLI arguments for one request, after ``python -m ballseq.cli``."""
    command, params = request
    args = [command]
    for flag in FLAGS[command]:
        args += [f"--{flag}", str(params[flag])]
    if command == "table":
        args += ["--format", "json"]
    return args


def _census_round(rng: random.Random) -> list[tuple[str, dict]]:
    # Nine sizes spanning k = 20..100; the inclusion-exclusion grid grows
    # roughly as k^4, so the top strata carry most of the round's time.
    round_ = []
    for k0 in range(20, 101, 10):
        k = k0 + rng.randint(-1, 1)
        n = k + rng.randint(-k // 10, k // 10)
        round_.append(("table", {"k": k, "n": n}))
    return round_


def _point_round(rng: random.Random) -> list[tuple[str, dict]]:
    # Two requests per round print more than 4,300 digits (the s and z
    # "over" bands); every band keeps a wide margin on its side of that
    # limit, so the share of such requests is the same for every seed.
    # Bands are a few percent wide: S by inclusion-exclusion costs about
    # lambda^2 big-int terms, so wider bands would let the seed, not the
    # program, set a round's time.
    r = rng.randint
    k_z = r(580, 620)
    m_z = r(k_z * 2 // 5, k_z * 9 // 20)
    k_big = r(2150, 2250)
    m_big = r(95, 105)
    k1 = r(290, 310)
    k3 = r(290, 310)
    return [
        ("s", {"m": r(780, 820), "lambda": r(190, 210)}),
        ("s", {"m": r(2750, 2850), "lambda": r(95, 105)}),
        ("z", {"k": k_z, "n": k_z + r(0, 40), "m": m_z, "lambda": r(m_z * 3 // 10, m_z // 3)}),
        ("z", {"k": k_big, "n": k_big + r(0, 40), "m": m_big, "lambda": r(m_big // 4, m_big // 3)}),
        ("problem1", {"k": k1, "n": k1 + r(-10, 10), "m": r(k1 * 39 // 50, k1 * 41 // 50)}),
        ("problem2", {"n": r(70, 80), "m": r(145, 155)}),
        ("problem3", {"k": k3, "n": k3 + r(-10, 10), "mu": r(77, 83)}),
        ("problem4", {"n": r(62, 68), "mu": r(72, 78)}),
    ]


# One verify per band, as (k, lowest n, highest n).  Enumeration cost per
# colouring grows with k, so each band keeps its k and lets the seed move
# only n, within a few percent of colourings where k leaves room to.  The
# bands span 10^4 to 10^6 colourings and mix k from 3 to 11.
_ORACLE_BANDS = (
    (3, 21, 23), (4, 13, 14), (5, 9, 9), (3, 46, 48), (11, 3, 3),
    (4, 20, 21), (9, 4, 4), (7, 6, 6), (3, 78, 82), (3, 100, 104),
)


def _oracle_round(rng: random.Random) -> list[tuple[str, dict]]:
    return [("verify", {"k": k, "n": rng.randint(lo, hi)}) for k, lo, hi in _ORACLE_BANDS]


_ROUNDS = {"cli-census": _census_round, "cli-point": _point_round, "oracle-verify": _oracle_round}


def group_size(workload: str) -> int:
    """Requests per throughput group of a workload."""
    if workload == "lib-warm":
        return LIB_GROUP_OPS
    return len(_ROUNDS[workload](random.Random(0)))


def rounds(workload: str, seed: int):
    """Endless stream of rounds (lists of requests) for a round-based workload."""
    rng = random.Random(f"{workload}/{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


def requests(workload: str, seed: int):
    """Endless stream of single requests for any workload, lib-warm's
    warm-up first."""
    if workload == "lib-warm":
        return chain(lib_warmup(), lib_requests(seed))
    return (request for round_ in rounds(workload, seed) for request in round_)


def warmup_count(workload: str) -> int:
    """Leading requests of ``requests`` that run untimed."""
    return len(lib_warmup()) if workload == "lib-warm" else 0


def lib_warmup() -> list[tuple[str, dict]]:
    """The largest any-length sums: between them they need every S cell
    that a lib-warm request can, so the timed calls find S warm."""
    return ([("problem2", {"n": LIB_MAX, "m": m}) for m in range(LIB_MAX + 1)]
            + [("problem4", {"n": LIB_MAX, "mu": mu}) for mu in range(LIB_MAX + 1)])


# lib-warm cycles through these kinds; z and the fixed-length problems are
# the bulk, the any-length problems (hundreds of cells each) form the tail.
_LIB_KINDS = ("z", "problem1", "z", "problem3", "z", "problem1", "problem2", "problem4")


def lib_requests(seed: int):
    """Endless stream of small library calls sharing S cells."""
    rng = random.Random(f"lib-warm/{seed}")
    r = rng.randint
    for i in count():
        kind = _LIB_KINDS[i % len(_LIB_KINDS)]
        k, n = r(2, LIB_MAX), r(2, LIB_MAX)
        if kind == "z":
            m = r(0, k)
            yield kind, {"k": k, "n": n, "m": m, "lambda": r(0, m // 2)}
        elif kind == "problem1":
            yield kind, {"k": k, "n": n, "m": r(0, k)}
        elif kind == "problem2":
            yield kind, {"n": n, "m": r(0, LIB_MAX)}
        elif kind == "problem3":
            yield kind, {"k": k, "n": n, "mu": r(0, k - 1)}
        else:
            yield kind, {"n": n, "mu": r(0, LIB_MAX)}


def cells(request: tuple[str, dict]) -> list[tuple[int, int, int, int]]:
    """Distinct (k, n, m, lambda) cells whose counts make up the request's
    result, in the order the documented sums visit them.  Empty for ``s``,
    which needs no cell."""
    command, p = request
    if command == "z":
        return [(p["k"], p["n"], p["m"], p["lambda"])]
    if command == "problem1":
        return _p1_cells(p["k"], p["n"], p["m"])
    if command == "problem2":
        n, m = p["n"], p["m"]
        return [c for k in range(m, m + n) for c in _p1_cells(k, n, m)]
    if command == "problem3":
        return _p3_cells(p["k"], p["n"], p["mu"])
    if command == "problem4":
        n, mu = p["n"], p["mu"]
        return [c for k in range(mu + 1, n + mu + 1) for c in _p3_cells(k, n, mu)]
    if command in ("table", "verify"):
        k, n = p["k"], p["n"]
        return [(k, n, m, lam) for m in range(k + 1) for lam in range(m // 2 + 1)]
    return []


def _p1_cells(k, n, m):
    return [(k, n, m, lam) for lam in range(min(m // 2, n - k + m) + 1)]


def _p3_cells(k, n, mu):
    return [(k, n, mu + lam, lam) for lam in range(mu + 1)]


def nonzero(k: int, n: int, m: int, lam: int) -> bool:
    """Whether a cell counts any sequence: lam colours to repeat, k - m
    unmatched balls coloured injectively from the other n - lam colours,
    and m matched balls covering each repeated colour at least twice."""
    if m > k or lam > n or k - m > n - lam:
        return False
    return (m == 0 and lam == 0) or (lam >= 1 and 2 * lam <= m)


def s_cells(request: tuple[str, dict]) -> list[tuple[int, int]]:
    """Distinct (m, lambda) assignment factors the request needs."""
    command, p = request
    if command == "s":
        return [(p["m"], p["lambda"])]
    return list(dict.fromkeys((m, lam) for k, n, m, lam in cells(request) if nonzero(k, n, m, lam)))
