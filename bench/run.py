"""Benchmark for the repvar CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sends a closed-loop stream of requests from
one client: each request is its own ``repvar`` process, started only
after the previous one has exited, as a user at a shell would run it.
Requests come in rounds of a fixed mix (see workloads.py); the run
starts rounds until S seconds of requests have been measured and then
finishes the round in progress, so every figure covers whole rounds.
Timing metrics are scaled for the host's speed (see REF_NOMINAL_S).

With ``--trace 1`` the first round runs in this process instead, each
request once untraced and once under the tracer, and the pass repeats
until S seconds have gone.  Per-layer times are seconds per pass
(median over passes); counts come from the first pass.

Every answer is checked by an oracle in workloads.py.  Each run writes
a per-request log (and, traced, the spans) under bench/out/.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# What the installed `repvar` console script runs.
ENTRY = "import sys; from repvar.cli import main; sys.exit(main())"
# setup_s is the median of fresh interpreters that only import repvar.cli,
# one before every SETUP_EVERY-th request, so that it samples the whole run.
SETUP = [sys.executable, "-c", "import repvar.cli"]
SETUP_EVERY = 5
# On a shared host this process and its children speed up and slow down
# together: at any moment the machine runs at one of two speeds almost a
# factor 2 apart, and the share of time at the slow one drifts over
# minutes.  Before each request the client times a fixed pure-Python loop
# (reference_seconds), and the timing metrics are scaled by
# REF_NOMINAL_S / (the run's mean loop time), so they read as if the
# machine ran that loop in REF_NOMINAL_S.  Raw times stay in the log.
REF_NOMINAL_S = 0.010
# No request starts after this many seconds, and one still running then
# is killed, so a run always ends well inside three minutes.
RUN_LIMIT_S = 150

# per-layer metric: (name, unit, better)
PER_LAYER = [
    ("finite_group.ingest_s", "s", "lower"),
    ("finite_group.from_cayley_table_s", "s", "lower"),
    ("finite_group.classes_s", "s", "lower"),
    ("finite_group.closure_s", "s", "lower"),
    ("finite_group.genus_matrix_s", "s", "lower"),
    ("finite_group.puncture_matrix_s", "s", "lower"),
    ("finite_group.tube_matrix_P_s", "s", "lower"),
    ("finite_group.lift_s", "s", "lower"),
    ("finite_group.class_reduce_s", "s", "lower"),
    ("finite_group.entries_built", "count", "lower"),
    ("finite_group.class_space_ratio", "fraction", "higher"),
    ("finite_group.brute_force_s", "s", "lower"),
    ("finite_group.brute_force_tuples", "count", "lower"),
    ("tqft.datum_validate_s", "s", "lower"),
    ("tqft.evaluate_raw_s", "s", "lower"),
    ("tqft.mat_pow_s", "s", "lower"),
    ("tqft.mat_vec_s", "s", "lower"),
    ("tqft.mat_mul_calls", "count", "lower"),
    ("tqft.mat_vec_calls", "count", "lower"),
    ("tqft.rank_max", "count", "lower"),
    ("tqft.tubes", "count", "lower"),
    ("tqft.useful_mult_ratio", "fraction", "higher"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.add_calls", "count", "lower"),
    ("poly.pow_s", "s", "lower"),
    ("poly.exact_div_s", "s", "lower"),
    ("poly.exact_div_calls", "count", "lower"),
    ("poly.coeff_bits_max", "bits", "lower"),
    ("poly.format_s", "s", "lower"),
    ("affc.datum_s", "s", "lower"),
    ("cli.request_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.verify_checks", "count", "higher"),
    ("cli.verify_skips", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]


class LayoutError(Exception):
    """The checkout does not hold the repvar sources this benchmark runs."""


@dataclass
class Child:
    exit: int
    out: str
    err: str
    seconds: float
    cpu_seconds: float
    maxrss_kb: int


def child_env() -> dict:
    """The environment of every child: repvar from this checkout, and stdout
    buffering and bytecode caching as an installed CLI has them, whatever
    the calling shell sets."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list, env: dict, errfile, deadline: float) -> Child:
    """Run one process to its exit; wall time from spawn to exit, peak RSS
    from wait4.  Killed if it is still running at ``deadline``."""
    errfile.seek(0)
    errfile.truncate()
    start = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errfile, env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - start), _kill, (proc.pid,))
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
    seconds = perf_counter() - start
    errfile.seek(0)
    err = errfile.read().decode(errors="replace")
    return Child(proc.returncode, out.decode(errors="replace"), err, seconds,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def reference_seconds() -> float:
    start = perf_counter()
    table: dict = {}
    for i in range(40_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
    return perf_counter() - start


def check_layout() -> None:
    if not (SRC / "repvar" / "cli.py").is_file():
        raise LayoutError(f"no repvar sources at {SRC}; run from a checkout of the repository")


def probe_repvar(env: dict, errfile, deadline: float) -> None:
    """Check that children import this checkout's repvar; the spawn also
    leaves the bytecode cache warm, as an installed CLI has it."""
    probe = spawn([sys.executable, "-c", "import repvar.cli; print(repvar.cli.__file__)"], env, errfile, deadline)
    found = Path(probe.out.strip()) if probe.exit == 0 else None
    if found is None or found.resolve() != (SRC / "repvar" / "cli.py").resolve():
        raise LayoutError(f"repvar.cli resolves to {found or probe.err.strip()!r}, not {SRC}")


def write_inputs(reqs: list, directory: Path, r: int) -> list:
    """Write each request's group file; return its argument lists."""
    directory.mkdir(parents=True, exist_ok=True)
    arg_lists = []
    for i, req in enumerate(reqs):
        path = directory / f"r{r}-{i}.json"
        if req.group_file is not None:
            path.write_text(json.dumps(req.group_file))
        arg_lists.append([str(path) if a == workloads.GROUP else a for a in req.args])
    return arg_lists


def quantile(sorted_values: list, p: float) -> float:
    """Bernstein-smoothed p-quantile: the order statistics weighted by the
    binomial(n - 1, p) probabilities, which averages the few samples
    around rank p*n instead of taking one."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for k, value in enumerate(sorted_values):
        log_weight = (math.lgamma(n) - math.lgamma(k + 1) - math.lgamma(n - k)
                      + k * log_p + (n - 1 - k) * log_q)
        total += value * math.exp(log_weight)
    return total


def _log_line(r: int, i: int, args: list, req, seconds: float, exit_code: int, out: str,
              verdict, **extra) -> str:
    record = {
        "round": r,
        "index": i,
        "argv": ["repvar"] + [os.path.relpath(a, ROOT) if a.endswith(".json") else a for a in args],
        "request": req.meta,
        "latency_ms": round(seconds * 1000, 3),
        "exit": exit_code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "verdict": verdict or "ok",
        **extra,
    }
    return json.dumps(record) + "\n"


def timed_run(workload: str, seed: int, seconds: int, out_dir: Path = OUT) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    env = child_env()
    inputs = out_dir / f"inputs-{workload}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    latencies, setups, refs, failed, peak_kb, busy, r = [], [], [], 0, 0, 0.0, 0
    try:
        with open(out_dir / f"{workload}-seed{seed}.stderr", "w+b") as errfile, \
                open(out_dir / f"{workload}-seed{seed}-trace0.requests.jsonl", "w") as log:
            probe_repvar(env, errfile, deadline)
            while r == 0 or (busy < seconds and perf_counter() < deadline):
                reqs = workloads.round_requests(workload, seed, r)
                arg_lists = write_inputs(reqs, inputs, r)
                start = perf_counter()
                for i, (req, args) in enumerate(zip(reqs, arg_lists)):
                    if perf_counter() >= deadline:
                        break
                    if len(latencies) % SETUP_EVERY == 0:
                        setups.append(spawn(SETUP, env, errfile, deadline).seconds)
                        start += setups[-1]
                    refs.append(reference_seconds())
                    start += refs[-1]
                    child = spawn([sys.executable, "-c", ENTRY] + args, env, errfile, deadline)
                    verdict = workloads.check(req, child.exit, child.out)
                    if verdict:
                        failed += 1
                        verdict += f"; stderr: {child.err.strip()[-200:]}"
                    latencies.append(child.seconds)
                    peak_kb = max(peak_kb, child.maxrss_kb)
                    log.write(_log_line(r, i, args, req, child.seconds, child.exit, child.out,
                                        verdict, cpu_ms=round(child.cpu_seconds * 1000, 3),
                                        ref_ms=round(refs[-1] * 1000, 4), maxrss_kb=child.maxrss_kb))
                busy += perf_counter() - start
                r += 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    latencies.sort()
    attempted = len(latencies)
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    p50, p90 = quantile(latencies, 0.5), quantile(latencies, 0.9)
    print(f"{workload} seed {seed}: closed loop, 1 client, {attempted} requests in {r} rounds "
          f"of {len(workloads.round_requests(workload, seed, 0))}, {busy:.2f} s measured; "
          f"raw p50 {p50 * 1000:.1f} ms, p90 {p90 * 1000:.1f} ms, speed scale {scale:.4f}")
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "request_p50_ms": (p50 * scale * 1000, "ms"),
        "request_p90_ms": (p90 * scale * 1000, "ms"),
        "requests_per_s": (attempted / (busy * scale), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_inprocess(cli, args: list) -> tuple:
    """(exit code, stdout, seconds) of ``repvar.cli.main(args)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repvar.cli as cli

    if Path(cli.__file__).resolve() != (SRC / "repvar" / "cli.py").resolve():
        raise LayoutError(f"repvar.cli resolves to {cli.__file__}, not {SRC}")
    return cli


def _layer_times(tracer: Tracer, first: int) -> dict:
    """Seconds per span name, as ``<span>_s``; the lift and cli self times
    replace the inclusive ones."""
    seconds = tracer.totals(first)
    times = {f"{name}_s": value for name, value in seconds.items()}
    times["finite_group.lift_s"] = seconds["finite_group.lift.self"]
    times["cli.self_s"] = seconds["cli.request.self"]
    return times


def _layer_counts(tracer: Tracer, outputs: list) -> dict:
    c, m = tracer.counts, tracer.maxima
    rows = [line for out in outputs for line in out.splitlines() if line.startswith("CHECK ")]
    return {
        "finite_group.entries_built": c["finite_group.entries_built"],
        "finite_group.class_space_ratio": c["finite_group.class_entries"] / c["finite_group.entries_built"]
        if c["finite_group.entries_built"] else 0.0,
        "finite_group.brute_force_tuples": c["finite_group.brute_force_tuples"],
        "tqft.mat_mul_calls": c["tqft.mat_mul_calls"],
        "tqft.mat_vec_calls": c["tqft.mat_vec_calls"],
        "tqft.rank_max": m["tqft.rank_max"],
        "tqft.tubes": c["tqft.tubes"],
        "tqft.useful_mult_ratio": c["tqft.useful_mults"] / c["tqft.evaluate_muls"]
        if c["tqft.evaluate_muls"] else 0.0,
        "poly.mul_calls": c["poly.mul_calls"],
        "poly.add_calls": c["poly.add_calls"],
        "poly.exact_div_calls": c["poly.exact_div_calls"],
        "poly.coeff_bits_max": m["poly.coeff_bits_max"],
        "cli.verify_checks": len(rows),
        "cli.verify_skips": sum(row.endswith(" ... SKIP") for row in rows),
    }


def traced_pass(cli, tracer: Tracer, reqs: list, arg_lists: list, p: int, log) -> tuple:
    """Run every request untraced, then traced; return (failures, untraced
    seconds, traced seconds, traced outputs)."""
    failed, untraced, traced, outputs = 0, 0.0, 0.0, []
    for i, (req, args) in enumerate(zip(reqs, arg_lists)):
        plain = run_inprocess(cli, args)
        tracer.request_id = f"{p}:{i}"
        tracer.class_count = req.class_count
        tracer.install()
        try:
            seen = run_inprocess(cli, args)
        finally:
            tracer.uninstall()
        verdict = workloads.check(req, seen[0], seen[1])
        if verdict is None and seen[:2] != plain[:2]:
            verdict = "traced output differs from the untraced twin"
        failed += verdict is not None
        untraced += plain[2]
        traced += seen[2]
        outputs.append(seen[1])
        log.write(_log_line(p, i, args, req, seen[2], seen[0], seen[1], verdict,
                            untraced_ms=round(plain[2] * 1000, 3)))
    return failed, untraced, traced, outputs


def traced_run(workload: str, seed: int, seconds: int, out_dir: Path = OUT) -> dict:
    cli = import_cli()
    deadline = perf_counter() + RUN_LIMIT_S
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = out_dir / f"inputs-{workload}-{seed}-traced"
    reqs = workloads.round_requests(workload, seed, 0)
    tracer = Tracer()
    if tracer.missing:
        print(f"not traced (absent in this repvar): {', '.join(tracer.missing)}", file=sys.stderr)
    passes, counts, failed, attempted, busy = [], None, 0, 0, 0.0
    try:
        arg_lists = write_inputs(reqs, inputs, 0)
        with open(out_dir / f"{workload}-seed{seed}-trace1.requests.jsonl", "w") as log:
            while not passes or (busy < seconds and perf_counter() < deadline):
                first = len(tracer.spans)
                tracer.counts.clear()
                tracer.maxima.clear()
                start = perf_counter()
                bad, untraced, traced, outputs = traced_pass(cli, tracer, reqs, arg_lists, len(passes), log)
                busy += perf_counter() - start
                failed += bad
                attempted += len(reqs)
                times = _layer_times(tracer, first)
                times["trace.overhead_frac"] = traced / untraced - 1
                passes.append(times)
                if counts is None:
                    counts = _layer_counts(tracer, outputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    with open(out_dir / f"{workload}-seed{seed}.spans.jsonl", "w") as spans:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        for name, start, end, parent, rid in tracer.spans:
            spans.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "request": rid}) + "\n")
    print(f"{workload} seed {seed}: traced in process, {len(passes)} passes of {len(reqs)} requests, "
          f"{busy:.2f} s")
    values = {name: statistics.median(p.get(name, 0.0) for p in passes) for name, _, _ in PER_LAYER}
    values.update(counts)
    return _result(attempted, failed, {name: (values[name], unit) for name, unit, _ in PER_LAYER})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_layout()
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seed, args.seconds)
    except LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
