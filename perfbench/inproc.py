"""Child process of the benchmark: calls ballseq in-process and times it.

Run with ``src`` on PYTHONPATH, from the root of a checkout:

    python perfbench/inproc.py loop <lib-warm|oracle-verify> <seed> <seconds>
    python perfbench/inproc.py trace <lib-warm|oracle-verify> <seed>
    python perfbench/inproc.py cli-trace '<request as JSON>'

Each mode prints one JSON object on stdout.  ``loop`` is the untimed
warm-up plus the timed closed loop of an in-process workload.  ``trace``
replays a fixed prefix of that workload twice, plain and then stage by
stage.  ``cli-trace`` replays one CLI request bottom-up in this fresh
process: import, the request's S cells, its z cells, its library call,
then ``cli.run`` with stdout captured.  Each stage finds the layers below
it warm, so a layer's self time is its stage time minus the stage below.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from itertools import islice

import workloads

perf = time.perf_counter


def _library():
    from ballseq import core, oracle, problems
    from ballseq.core import SequenceClass

    return core, oracle, {
        "z": lambda p: core.z_count(SequenceClass(p["k"], p["n"], p["m"], p["lambda"])),
        "s": lambda p: core.doubly_surjective_count(p["m"], p["lambda"]),
        "problem1": lambda p: problems.problem1_matches_fixed_length(p["k"], p["n"], p["m"]),
        "problem2": lambda p: problems.problem2_matches_any_length(p["n"], p["m"]),
        "problem3": lambda p: problems.problem3_repeats_fixed_length(p["k"], p["n"], p["mu"]),
        "problem4": lambda p: problems.problem4_repeats_any_length(p["n"], p["mu"]),
        "table": lambda p: problems.distribution_table(p["k"], p["n"]),
        "verify": lambda p: oracle.verify(p["k"], p["n"]),
    }


def _encode(command, value):
    """Text form of a library result, for checking and digests."""
    if command == "verify":
        return f"{value.passed} {value.cells_checked} {len(value.mismatches)}"
    return str(value)


def _cache_info(core):
    info = core.doubly_surjective_count.cache_info()
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}


def _tables(oracle, requests):
    """enumerate_counts's tables for the verify requests among ``requests``,
    as JSON, for the benchmark to check against its own walk."""
    tables = []
    for command, p in requests:
        if command == "verify":
            table = oracle.enumerate_counts(p["k"], p["n"])
            tables.append([[[m, lam, str(c)] for (m, lam), c in table.by_match_cell.items()],
                           [[mu, str(c)] for mu, c in table.by_repeat_count.items()]])
    return tables


def _peak_rss_kb():
    """This process's peak resident set.  ru_maxrss would include the
    parent's size at fork; VmHWM covers only this program's memory."""
    with open("/proc/self/status") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM")))


def _call(calls, request):
    """(text result or None, error or None, seconds) of one library call;
    the seconds cover the call alone, not the encoding of its result."""
    command, params = request
    t0 = perf()
    try:
        value = calls[command](params)
    except Exception as err:  # a failed operation is counted, not fatal
        return None, f"{type(err).__name__}: {err}", perf() - t0
    seconds = perf() - t0
    return _encode(command, value), None, seconds


def loop(workload, seed, seconds):
    """Warm-up (lib-warm only), then a closed loop until ``seconds`` have
    passed and at least the minimum groups are done, stopping at the end of
    a throughput group.  The first group's enumeration tables are computed
    after the loop, untimed."""
    _, oracle, calls = _library()
    warm, group = workloads.warmup_count(workload), workloads.group_size(workload)
    least = group * workloads.MIN_GROUPS[workload]
    first_group = list(islice(workloads.requests(workload, seed), warm, warm + group))
    stream = workloads.requests(workload, seed)
    results, errors = [], []
    for request in islice(stream, warm):
        value, error, _ = _call(calls, request)
        results.append(value)
        errors.append(error)
    latencies = []
    start = perf()
    deadline = start + seconds
    peak_kb = 0
    for i, request in enumerate(stream, 1):
        value, error, took = _call(calls, request)
        latencies.append(took)
        results.append(value)
        errors.append(error)
        if i == group:
            # Read before this loop's own record of results grows with the
            # run's length; the warm-up has already made S as large as the
            # workload needs.
            peak_kb = _peak_rss_kb()
        if i % group == 0 and i >= least and perf() >= deadline:
            break
    elapsed = perf() - start
    return {
        "tables": _tables(oracle, first_group),
        "warmup": warm,
        "latencies": latencies,
        "elapsed": elapsed,
        "results": results,
        "errors": errors,
        "peak_rss_kb": peak_kb,
    }


def _replay_count(workload):
    if workload == "lib-warm":
        return workloads.LIB_TRACE_OPS
    return workloads.group_size(workload)


def trace(workload, seed):
    """Plain replay of a fixed prefix, then the same prefix stage by stage."""
    core, oracle, calls = _library()
    from ballseq.core import SequenceClass

    warm, count = workloads.warmup_count(workload), _replay_count(workload)
    requests = list(islice(workloads.requests(workload, seed), warm + count))
    warmup, replay = requests[:warm], requests[warm:]

    for request in warmup:
        _call(calls, request)
    results, errors = [], []
    start = perf()
    for request in replay:
        value, error, _ = _call(calls, request)
        results.append(value)
        errors.append(error)
    plain_s = perf() - start
    cache = _cache_info(core)

    core.doubly_surjective_count.cache_clear()
    for request in warmup:
        _call(calls, request)
    t = dict.fromkeys(("s_s", "cell_s", "aggregate_s", "enumerate_s", "formula_s"), 0.0)
    n = dict.fromkeys(("s_calls", "cells", "nonzero", "problem_calls", "problem_cells", "colorings"), 0)
    start = perf()
    for request in replay:
        command, p = request
        s_cells, cells = workloads.s_cells(request), workloads.cells(request)
        t0 = perf()
        for m, lam in s_cells:
            core.doubly_surjective_count(m, lam)
        t1 = perf()
        nonzero = sum(1 for c in cells if core.z_count(SequenceClass(*c)))
        t2 = perf()
        t["s_s"] += t1 - t0
        t["cell_s"] += t2 - t1
        n["s_calls"] += len(s_cells)
        n["cells"] += len(cells)
        n["nonzero"] += nonzero
        if command == "verify":
            # verify's formula side is its cells plus one problem3 per mu;
            # timed directly, as it is too small to read off verify's total
            # minus the enumeration.
            for mu in range(p["k"]):
                calls["problem3"]({"k": p["k"], "n": p["n"], "mu": mu})
            t3 = perf()
            oracle.enumerate_counts(p["k"], p["n"])
            t["enumerate_s"] += perf() - t3
            t["formula_s"] += t3 - t0
            n["colorings"] += p["n"] ** p["k"]
        elif command != "z":
            calls[command](p)
            t["aggregate_s"] += (perf() - t2) - (t2 - t1)
            n["problem_calls"] += 1
            n["problem_cells"] += len(cells)
    traced_s = perf() - start
    return {"warmup": warm, "results": results, "errors": errors, "plain_s": plain_s, "traced_s": traced_s,
            "cache": cache, "times": t, "counts": n, "tables": _tables(oracle, replay)}


def cli_trace(request):
    """Bottom-up replay of one CLI request in this fresh process."""
    command, p = request
    t0 = perf()
    from ballseq import cli, core

    import_s = perf() - t0
    _, _, calls = _library()
    from ballseq.core import SequenceClass

    # The request as the CLI computes it from a cold cache, for cache counts.
    calls[command](p)
    cache = _cache_info(core)
    core.doubly_surjective_count.cache_clear()

    s_cells, cells = workloads.s_cells(request), workloads.cells(request)
    t1 = perf()
    for m, lam in s_cells:
        core.doubly_surjective_count(m, lam)
    t2 = perf()
    nonzero = sum(1 for c in cells if core.z_count(SequenceClass(*c)))
    t3 = perf()
    calls[command](p)
    t4 = perf()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.run(workloads.argv(request))
        except Exception:  # a crash still took this long; the plain run counts it
            pass
    t5 = perf()
    s_s, cell_s, call_s = t2 - t1, t3 - t2, t4 - t3
    return {
        "import_s": import_s,
        "cache": cache,
        "s_s": s_s,
        "s_calls": len(s_cells),
        "cell_s": cell_s,
        "cells": len(cells),
        "nonzero": nonzero,
        # For problem commands and tables the call is the problems layer,
        # whose self time excludes its cells; z and s calls are core's own.
        "aggregate_s": call_s - cell_s if command.startswith(("problem", "table")) else None,
        "encode_s": (t5 - t4) - call_s,
    }


def main(argv):
    mode = argv[0]
    if mode == "loop":
        result = loop(argv[1], int(argv[2]), float(argv[3]))
    elif mode == "trace":
        result = trace(argv[1], int(argv[2]))
    elif mode == "cli-trace":
        command, params = json.loads(argv[1])
        result = cli_trace((command, params))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
