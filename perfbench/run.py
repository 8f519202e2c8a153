"""Benchmark for ballseq: seeded workloads, checked outputs, one JSON result.

Run from the root of a checkout (no install needed; ``src`` is put on
PYTHONPATH for every child process):

    python3 perfbench/run.py --workload cli-census --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one request in flight):

* ``cli-census``: ``ballseq table --format json`` for k = 20..100, one
  fresh process per request, so every request fills S from cold.
* ``cli-point``: ``z``, ``s`` and ``problem1``-``4`` with large m and
  lambda, one fresh process per request.  Two requests in every round of
  eight print more than 4,300 digits, past CPython's int-to-str limit.
* ``lib-warm``: one process calls ``z_count`` and ``problem1``-``4`` on
  small shapes after a fixed warm-up, so S comes from the cache.
* ``oracle-verify``: one process calls ``oracle.verify`` on pairs with
  10^4 to 2 * 10^6 colourings.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays a fixed
prefix of the workload, plain and then layer by layer (see inproc.py), and
prints per-layer metrics.  Every output is checked against
``reference.py``, which shares no code with ballseq and is itself checked
against brute-force enumeration at the start of every run.  Metric names
and units come from ``BENCHMARK.json`` at the root of the checkout.  The
last line of stdout is the JSON result; the lines before it say what was
measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import count, islice
from pathlib import Path

import reference
import workloads

perf = time.perf_counter
HERE = Path(__file__).resolve().parent
REQUEST_TIMEOUT_S = 120
# Set-up probes per run: half before the timed loop, half after it.
PROBES = 12
SELF_TEST_K, SELF_TEST_N = 6, 5


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # ballseq runs with CPython's default int-to-str limit.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_child(args: list[str], env: dict, timeout: float,
              pass_fds=()) -> tuple[float, int | None, bytes, bytes]:
    """Wall time, exit code (None on timeout), stdout and stderr of one child."""
    t0 = perf()
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=timeout,
                              pass_fds=pass_fds)
    except subprocess.TimeoutExpired as err:
        return perf() - t0, None, err.stdout or b"", err.stderr or b""
    return perf() - t0, proc.returncode, proc.stdout, proc.stderr


# Runs ballseq.cli as ``python -m`` does, then writes the process's peak
# resident set to the given fd.  VmHWM is used because a child's ru_maxrss
# starts from this process's own size at fork.
CLI_MAIN = """\
import atexit, os, runpy
def _peak():
    with open("/proc/self/status") as f:
        os.write({fd}, next(line.split()[1] for line in f if line.startswith("VmHWM")).encode())
atexit.register(_peak)
runpy.run_module("ballseq.cli", run_name="__main__", alter_sys=True)
"""


def cli_request(request, env: dict) -> tuple[float, int | None, bytes, bytes, int]:
    """One CLI request: wall time, exit code, stdout, stderr, peak RSS in KiB."""
    read, write = os.pipe()
    try:
        wall, code, out, err = run_child(["-c", CLI_MAIN.format(fd=write), *workloads.argv(request)], env,
                                         REQUEST_TIMEOUT_S, pass_fds=(write,))
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as f:
        peak = f.read()
    return wall, code, out, err, int(peak or 0)


# --- environment, floor and set-up ------------------------------------------


def environment(root: Path, args) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                    cwd=root, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }


FLOOR = {"bare": "pass", "ballseq": "import ballseq", "ballseq.cli": "import ballseq.cli"}


def probe_floor(env: dict, rounds: int, times: dict[str, list[float]]) -> None:
    """Wall times of fresh processes, appended to ``times``: bare start,
    +import ballseq, +import ballseq.cli.  Interleaved so drift hits all three."""
    for _ in range(rounds):
        for name, code in FLOOR.items():
            wall, exit_code, _, err = run_child(["-c", code], env, REQUEST_TIMEOUT_S)
            if exit_code != 0:
                raise SystemExit(f"set-up probe {code!r} failed: {err.decode(errors='replace')}")
            times.setdefault(name, []).append(wall)


def self_test(src: Path) -> list[str]:
    """Both references against ballseq's brute-force enumeration on a small
    grid.  Returns the disagreements; an empty list means both hold."""
    sys.path.insert(0, str(src))
    try:
        from ballseq.oracle import enumerate_counts
    finally:
        sys.path.remove(str(src))
    walk = reference.Walk()
    problems = []
    for k in range(SELF_TEST_K + 1):
        for n in range(SELF_TEST_N + 1):
            truth = enumerate_counts(k, n, budget=n**k)
            observed = (dict(truth.by_match_cell), dict(truth.by_repeat_count))
            s = reference.stirling((m, lam) for m in range(k + 1) for lam in range(m // 2 + 1))
            by_cell = {(m, lam): reference.cell(k, n, m, lam, s)
                       for m in range(k + 1) for lam in range(m // 2 + 1)}
            by_mu = {mu: sum(reference.cell(k, n, mu + lam, lam, s) for lam in range(mu + 1))
                     for mu in range(k)}
            recurrence = ({c: v for c, v in by_cell.items() if v}, {mu: v for mu, v in by_mu.items() if v})
            if walk.census(k, n) != observed:
                problems.append(f"walk != enumeration at k={k} n={n}")
            if recurrence != observed:
                problems.append(f"recurrence != enumeration at k={k} n={n}")
    return problems


# --- checking ---------------------------------------------------------------


def check_cli(requests, outputs) -> list[str | None]:
    """Verdict per CLI request: None when correct, else why it failed."""
    verdicts = []
    for code, out, err in outputs:
        if b"Traceback" in err:
            last = err.decode(errors="replace").strip().splitlines()[-1]
            verdicts.append("traceback: " + ("int-to-str digit limit" if "Exceeds the limit" in last else last))
        elif code != 0:
            verdicts.append(f"exit {code}")
        else:
            verdicts.append(None)
    ok = [i for i, v in enumerate(verdicts) if v is None]
    walk = reference.Walk()
    s = reference.stirling(cell for i in ok if requests[i][0] != "table"
                           for cell in workloads.s_cells(requests[i]))
    for i in ok:
        command, p = request = requests[i]
        out = outputs[i][1]
        try:
            if command == "table":
                good = _table_ok(json.loads(out), p, walk)
            else:
                good = int(out.strip()) == _point_reference(request, s)
        except (ValueError, KeyError, TypeError):
            good = False
        if not good:
            verdicts[i] = "wrong output"
    return verdicts


def _table_ok(record: dict, p: dict, walk: reference.Walk) -> bool:
    by_cell, by_mu = walk.census(p["k"], p["n"])
    result = record["result"]
    return (
        record["query"] == {"command": "table", "k": p["k"], "n": p["n"]}
        and (result["k"], result["n"]) == (p["k"], p["n"])
        and [(e["m"], e["lambda"], int(e["count"])) for e in result["by_match_cell"]]
        == [(m, lam, c) for (m, lam), c in by_cell.items()]
        and [(e["mu"], int(e["count"])) for e in result["by_repeat_count"]] == list(by_mu.items())
    )


def _point_reference(request, s) -> int:
    command, p = request
    if command == "s":
        return s[p["m"], p["lambda"]]
    return sum(reference.cell(*c, s) for c in workloads.cells(request))


class LibReference:
    """Memoized reference results for in-process requests, as text."""

    def __init__(self) -> None:
        self.walk = reference.Walk()
        self.memo: dict = {}

    def __call__(self, request) -> str:
        command, p = request
        key = (command, tuple(p.values()))
        if key not in self.memo:
            self.memo[key] = self._compute(command, p)
        return self.memo[key]

    def _compute(self, command, p) -> str:
        w = self.walk
        if command == "z":
            return str(w.z(p["k"], p["n"], p["m"], p["lambda"]))
        if command == "problem1":
            return str(w.problem1(p["k"], p["n"], p["m"]))
        if command == "problem2":
            return str(sum(w.problem1(k, p["n"], p["m"]) for k in range(p["m"], p["m"] + p["n"])))
        if command == "problem3":
            return str(w.problem3(p["k"], p["n"], p["mu"]))
        if command == "problem4":
            return str(sum(w.problem3(k, p["n"], p["mu"]) for k in range(p["mu"] + 1, p["n"] + p["mu"] + 1)))
        # verify: the formulas agree with enumeration on every cell it checks.
        k = p["k"]
        return f"True {sum(m // 2 + 1 for m in range(k + 1)) + k} 0"


def check_inproc(requests, results, errors) -> list[str | None]:
    expected = LibReference()
    return [f"error: {err}" if err else (None if value == expected(req) else "wrong output")
            for req, value, err in zip(requests, results, errors)]


def check_tables(requests, tables, verdicts) -> None:
    """Marks a verify request wrong when the enumerate_counts table that the
    child computed for it disagrees with the walk.  ``tables`` covers the
    verify requests of a leading part of ``requests``, in order."""
    walk = reference.Walk()
    verifies = [i for i, (command, _) in enumerate(requests) if command == "verify"]
    for i, (cells, buckets) in zip(verifies, tables):
        p = requests[i][1]
        observed = ({(m, lam): int(c) for m, lam, c in cells}, {mu: int(c) for mu, c in buckets})
        if observed != walk.census(p["k"], p["n"]):
            verdicts[i] = "wrong output: enumerate_counts disagrees with the walk"


# --- workloads --------------------------------------------------------------


def cli_loop(workload, seed, seconds, env):
    """Whole rounds of CLI requests until ``seconds`` have passed and at
    least the minimum rounds are done."""
    stream = workloads.rounds(workload, seed)
    requests, latencies, outputs, peak_kb = [], [], [], 0
    start = perf()
    for done in count(1):
        for request in next(stream):
            wall, code, out, err, peak = cli_request(request, env)
            requests.append(request)
            latencies.append(wall)
            outputs.append((code, out, err))
            peak_kb = max(peak_kb, peak)
        if done >= workloads.MIN_GROUPS[workload] and perf() - start >= seconds:
            break
    return requests, latencies, outputs, perf() - start, peak_kb


def inproc(args: list[str], env: dict, timeout: float) -> dict:
    wall, code, out, err = run_child([str(HERE / "inproc.py"), *args], env, timeout)
    if code != 0:
        raise SystemExit(f"inproc.py {args[0]} failed (exit {code}):\n{err.decode(errors='replace')}")
    return json.loads(out)


def measure(workload, seed, seconds, env):
    """Untraced run: latencies, verdicts, elapsed, peak RSS in KiB, digest text."""
    if workload in workloads.CLI:
        requests, latencies, outputs, elapsed, peak_kb = cli_loop(workload, seed, seconds, env)
        verdicts = check_cli(requests, outputs)
        digest_bytes = b"".join(out for _, out, _ in outputs[: workloads.group_size(workload)])
        return latencies, verdicts, elapsed, peak_kb, digest_bytes
    run = inproc(["loop", workload, str(seed), str(seconds)], env, seconds + REQUEST_TIMEOUT_S)
    requests = list(islice(workloads.requests(workload, seed), run["warmup"] + len(run["latencies"])))
    verdicts = check_inproc(requests, run["results"], run["errors"])
    check_tables(requests, run["tables"], verdicts)
    digest_bytes = "".join(f"{v}\n" for v in run["results"][: workloads.group_size(workload)]).encode()
    return run["latencies"], verdicts, run["elapsed"], run["peak_rss_kb"], digest_bytes


def tail(workload, latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the latency tail: the highest
    percentile with ten samples beyond it in the fewest samples a run takes,
    at nearest rank.  Fixed per workload, so that it lands on the same
    request band however many rounds a run completes."""
    least = workloads.group_size(workload) * workloads.MIN_GROUPS[workload]
    ordered = sorted(latencies)
    rank = -(-len(ordered) * (least - 10) // least)
    return ordered[rank - 1], 100 * (least - 10) / least, len(ordered) - rank


def end_to_end(workload, seed, seconds, env, report):
    """End-to-end metrics but ``setup_s``, and the verdicts."""
    latencies, verdicts, elapsed, peak_kb, digest_bytes = measure(workload, seed, seconds, env)
    failed = sum(1 for v in verdicts if v)
    size = workloads.group_size(workload)
    groups = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    tail_s, tail_pct, beyond = tail(workload, latencies)
    metrics = {
        "ops_per_s": statistics.median(size / sum(g) for g in groups),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_kb / 1024,
        "ok_ratio": (len(verdicts) - failed) / len(verdicts),
    }
    report["timed_requests"] = f"{len(latencies)} in {elapsed:.3f} s ({len(latencies) / elapsed:.4g}/s overall);" \
        f" ops_per_s is the median over {len(groups)} groups of {size}"
    report["checked_requests"] = len(verdicts)
    report["latency_tail"] = f"latency_tail_s is p{tail_pct:.2f} of {len(latencies)} samples ({beyond} beyond it)"
    report["digest"] = _digest(workload, digest_bytes)
    return metrics, verdicts


def _digest(workload, data: bytes) -> str:
    size = workloads.group_size(workload)
    what = "stdout" if workload in workloads.CLI else "result lines"
    return f"sha256 of {what} of the first {size} requests: {hashlib.sha256(data).hexdigest()}"


def per_layer(workload, seed, env, report):
    """Traced run: a fixed prefix replayed plain, then layer by layer."""
    m = dict.fromkeys(SHOULD_MOVE, 0)
    if workload in workloads.CLI:
        requests = next(workloads.rounds(workload, seed))
        outputs, plain_s = [], 0.0
        for request in requests:
            wall, code, out, err, _ = cli_request(request, env)
            plain_s += wall
            outputs.append((code, out, err))
        verdicts = check_cli(requests, outputs)
        traced_s, imports, hits, misses, problem_calls = 0.0, [], 0, 0, 0
        for request in requests:
            t0 = perf()
            stages = inproc(["cli-trace", json.dumps(request)], env, REQUEST_TIMEOUT_S)
            traced_s += perf() - t0
            imports.append(stages["import_s"])
            hits += stages["cache"]["hits"]
            misses += stages["cache"]["misses"]
            m["core.s_cache_entries"] = max(m["core.s_cache_entries"], stages["cache"]["entries"])
            m["core.s_s"] += stages["s_s"]
            m["core.s_calls"] += stages["s_calls"]
            m["core.cell_s"] += stages["cell_s"]
            m["core.cells"] += stages["cells"]
            m["core.cell_nonzero_ratio"] += stages["nonzero"]
            if stages["aggregate_s"] is not None:
                m["problems.aggregate_s"] += stages["aggregate_s"]
                m["problems.cells_per_call"] += stages["cells"]
                problem_calls += 1
            m["cli.encode_s"] += stages["encode_s"]
        m["core.s_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
        m["cli.import_s"] = statistics.median(imports)
        for code, out, err in outputs:
            m["cli.output_bytes"] += len(out)
            key = f"cli.exit_{code}" if code in (0, 1, 2, 3) else "cli.exit_other"
            m[key] += 1
            m["cli.tracebacks"] += b"Traceback" in err
        m["cli.digits_max"] = max((_digits(req, out) for req, (code, out, _), v
                                   in zip(requests, outputs, verdicts) if v is None), default=0)
    else:
        run = inproc(["trace", workload, str(seed)], env, 170)
        requests = list(islice(workloads.requests(workload, seed), run["warmup"] + len(run["results"])))
        requests = requests[run["warmup"]:]
        verdicts = check_inproc(requests, run["results"], run["errors"])
        check_tables(requests, run["tables"], verdicts)
        t, n, cache = run["times"], run["counts"], run["cache"]
        m["core.s_s"], m["core.s_calls"] = t["s_s"], n["s_calls"]
        looked_up = cache["hits"] + cache["misses"]
        m["core.s_cache_hit_ratio"] = cache["hits"] / looked_up if looked_up else 0
        m["core.s_cache_entries"] = cache["entries"]
        m["core.cell_s"], m["core.cells"] = t["cell_s"], n["cells"]
        m["core.cell_nonzero_ratio"] = n["nonzero"]
        m["problems.aggregate_s"], m["problems.cells_per_call"] = t["aggregate_s"], n["problem_cells"]
        problem_calls = n["problem_calls"]
        m["oracle.enumerate_s"], m["oracle.colorings"] = t["enumerate_s"], n["colorings"]
        m["oracle.colorings_per_s"] = n["colorings"] / t["enumerate_s"] if t["enumerate_s"] else 0
        m["oracle.formula_s"] = t["formula_s"]
        plain_s, traced_s = run["plain_s"], run["traced_s"]
    m["core.cell_nonzero_ratio"] = m["core.cell_nonzero_ratio"] / m["core.cells"] if m["core.cells"] else 0
    m["problems.cells_per_call"] = m["problems.cells_per_call"] / problem_calls if problem_calls else 0
    m["trace.overhead_ratio"] = traced_s / plain_s
    report["traced_requests"] = len(requests)
    report["trace"] = f"replayed {len(requests)} requests: {plain_s:.4f} s plain, {traced_s:.4f} s traced"
    layers = {name.split(".")[0] for name in m} - {"trace"}
    report["layers_reading_zero"] = sorted(
        layer for layer in layers if all(m[name] == 0 for name in m if name.startswith(layer + ".")))
    return m, verdicts


def _digits(request, out: bytes) -> int:
    if request[0] == "table":
        result = json.loads(out)["result"]
        return max(len(e["count"]) for e in result["by_match_cell"] + result["by_repeat_count"])
    return len(out.strip())


_S = "latency_p50_s on cli-census and cli-point; nothing on lib-warm or oracle-verify"
_CACHE = "ops_per_s and peak_rss_mb on lib-warm"
_CELL = "ops_per_s on lib-warm; latency_p50_s on cli-census once S is cheap"
_AGGREGATE = "latency_tail_s on lib-warm, where problem2 and problem4 form the tail"
_ENCODE = "latency_p50_s on cli-census"
_EXIT = "ok_ratio on cli-point"
_ORACLE = "ops_per_s and latency on oracle-verify only"
# The end-to-end metric and workload each per-layer metric should move;
# units are in BENCHMARK.json.
SHOULD_MOVE = {
    "core.s_s": _S,
    "core.s_calls": _S,
    "core.s_cache_hit_ratio": _CACHE,
    "core.s_cache_entries": _CACHE,
    "core.cell_s": _CELL,
    "core.cells": _CELL,
    "core.cell_nonzero_ratio": _CELL,
    "problems.aggregate_s": _AGGREGATE,
    "problems.cells_per_call": _AGGREGATE,
    "cli.import_s": "setup_s on cli-census and cli-point",
    "cli.encode_s": _ENCODE,
    "cli.output_bytes": _ENCODE,
    "cli.digits_max": _ENCODE,
    "cli.exit_0": _EXIT,
    "cli.exit_1": _EXIT,
    "cli.exit_2": _EXIT,
    "cli.exit_3": _EXIT,
    "cli.exit_other": _EXIT,
    "cli.tracebacks": _EXIT,
    "oracle.enumerate_s": _ORACLE,
    "oracle.colorings": _ORACLE,
    "oracle.colorings_per_s": _ORACLE,
    "oracle.formula_s": _ORACLE,
    "trace.overhead_ratio": "nothing: traced wall time over plain wall time of the same requests",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "ballseq" / "__init__.py").is_file():
        print(f"error: no ballseq sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # Large outputs are parsed here; ballseq's own processes keep the limit.
    sys.set_int_max_str_digits(0)
    env = child_env(src)
    report = {"env": environment(root, args)}

    self_test_problems = self_test(src)
    probes: dict[str, list[float]] = {}
    probe_floor(env, PROBES // 2, probes)
    if args.trace:
        metrics, verdicts = per_layer(args.workload, args.seed, env, report)
    else:
        metrics, verdicts = end_to_end(args.workload, args.seed, args.seconds, env, report)
    probe_floor(env, PROBES - PROBES // 2, probes)
    costs = {name: statistics.median(times) for name, times in probes.items()}
    if not args.trace:
        metrics["setup_s"] = costs["ballseq.cli" if args.workload in workloads.CLI else "ballseq"]
    report["floor"] = (
        f"per-process floor (median of {PROBES}, half before and half after the requests):"
        f" interpreter start {costs['bare']:.4f} s,"
        f" import ballseq +{costs['ballseq'] - costs['bare']:.4f} s,"
        f" import ballseq.cli +{costs['ballseq.cli'] - costs['ballseq']:.4f} s"
    )
    if metrics.keys() != units.keys():
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    failures = Counter(v for v in verdicts if v)
    report["failures"] = dict(failures)
    report["self_test"] = self_test_problems or (
        f"both references match enumerate_counts for k <= {SELF_TEST_K}, n <= {SELF_TEST_N}")
    report["env"]["loadavg_end"] = os.getloadavg()

    for key, value in report.items():
        print(f"# {key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    for name, unit in units.items():
        moves = f"  (should move {SHOULD_MOVE[name]})" if name in SHOULD_MOVE else ""
        print(f"{name} {metrics[name]:.6g} {unit}{moves}")
    wrong = any(v and v.startswith("wrong") for v in verdicts)
    print(json.dumps({
        "correct": not wrong and not self_test_problems,
        "attempted": len(verdicts),
        "failed": failures.total(),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
