"""Benchmark for dp4sieve: one workload per invocation, each iteration a fresh
child process (one child at a time).

    python3 bench/run.py --workload manin-q3 --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is used from source (src/ on the
child's PYTHONPATH); nothing is installed.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 runs the workload once untraced, then once under traced.py, and
reports the per-layer metrics.  bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYER_UNITS, layer_metrics, read_jsonl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170          # every child is killed by then; the run exits by 180 s
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# a fresh interpreter pays the import and the surface construction, nothing else
SETUP_PROBE = ("import dp4sieve.cli\n"
               "from dp4sieve.harness import RunConfig\n"
               "RunConfig({config}).surface()\n")


@dataclass(frozen=True)
class Workload:
    program: tuple      # child argv after the interpreter; "{out}" is the output dir
    config: str         # RunConfig keyword arguments of the same run, for setup_s
    q: int
    expected: tuple     # (file the child writes, reference file under ROOT)


WORKLOADS = {
    "manin-q3": Workload(
        ("-m", "dp4sieve.cli", "--config", "configs/q3.cfg", "--out-dir", "{out}", "manin"),
        "p=3, n=1, d_max=4", 3,
        (("manin_q3_d4.csv", "reports/manin_q3_d4.csv"),
         ("manin_q3_d4.json", "reports/manin_q3_d4.json"))),
    # flags, not --config configs/q4.cfg: that config crashes in RunConfig.as_dict;
    # the default q = 4 surface has the same points
    "count-q4": Workload(
        ("-m", "dp4sieve.cli", "--field-p", "2", "--field-n", "2", "--d-max", "4",
         "--out-dir", "{out}", "count"),
        "p=2, n=2, d_max=4", 4,
        (("count_q4_d4.csv", "bench/reference/count_q4_d4.csv"),
         ("count_q4_d4.json", "bench/reference/count_q4_d4.json"))),
    "ledger-q3": Workload(
        ("bench/ledger.py", "--config", "configs/q3.cfg", "--out-dir", "{out}"),
        "p=3, n=1, d_max=4", 3,
        (("ledger_q3_d4.json", "bench/reference/ledger_q3_d4.json"),)),
}
GOLDEN_CSV = "reports/manin_q3_d4.csv"


# ---------------------------------------------------------------------------
# child processes

@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float       # spawn to exit
    rss_mb: float       # this child's own peak RSS


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("DP4SIEVE_CACHE", None)     # the CLI default: no count cache
    return env


def run_child(argv, env: dict, log_path: Path, timeout: float) -> ChildResult:
    """Run argv from ROOT to completion, killing it after timeout seconds.

    Peak RSS comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which keeps the maximum over every child so far.
    """
    lock = threading.Lock()
    exited = False

    def expire():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        try:
            # wait without reaping: until wait4 below the pid cannot be reused,
            # so a kill can only reach this child
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            with lock:
                exited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# output checks

def _rows_from_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [int(r["N"]) for r in rows], [int(r["N_eps"]) for r in rows]


def _rows_from_ledger(path: Path):
    ledger = json.loads(path.read_text())
    classes, d_max = ledger["rows"], ledger["d_max"]
    N = [sum(r["count"] for r in classes if r["h"] <= d) for d in range(d_max + 1)]
    N_eps = [sum(r["count"] for r in classes if r["h"] <= d and r["in_shrunken_cone"])
             for d in range(d_max + 1)]
    return N, N_eps


def invariant_problems(q: int, N: list, N_eps: list) -> list:
    """Checks that hold whatever the reference says."""
    problems = []
    if not N or N[0] != (q + 1) ** 2:
        problems.append(f"N(0) = {N[:1]} is not (q+1)^2 = {(q + 1) ** 2}")
    for name, col in (("N", N), ("N_eps", N_eps)):
        if any(b < a for a, b in zip(col, col[1:])):
            problems.append(f"{name} decreases in d: {col}")
    if len(N) != len(N_eps) or any(e > n for n, e in zip(N, N_eps)):
        problems.append(f"N_eps exceeds N: {N_eps} vs {N}")
    return problems


def check_outputs(workload: Workload, out_dir: Path) -> list:
    """Problems with one iteration's outputs; empty when they are correct."""
    problems = []
    for produced, reference in workload.expected:
        path = out_dir / produced
        if not path.is_file():
            problems.append(f"{produced} was not written")
        elif path.read_bytes() != (ROOT / reference).read_bytes():
            problems.append(f"{produced} differs from {reference}")
    if problems:
        return problems
    first = out_dir / workload.expected[0][0]
    try:
        if first.suffix == ".csv":
            N, N_eps = _rows_from_csv(first)
        else:
            # the ledger's per-class counts must add up to the golden report
            N, N_eps = _rows_from_ledger(first)
            if (N, N_eps) != _rows_from_csv(ROOT / GOLDEN_CSV):
                problems.append(f"ledger sums {N}, {N_eps} differ from {GOLDEN_CSV}")
    except (KeyError, ValueError, TypeError) as exc:
        return problems + [f"{first.name} unreadable: {exc!r}"]
    return problems + invariant_problems(workload.q, N, N_eps)


# ---------------------------------------------------------------------------
# measurement

@dataclass(frozen=True)
class Iteration:
    child: ChildResult
    problems: list


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, sorted(values)[max(0, -(-p * n // 100) - 1)]


def run_iteration(workload, env, work: Path, tag: str, deadline: float,
                  wrapper=()) -> Iteration:
    out = work / tag
    argv = [sys.executable, *wrapper,
            *(a.replace("{out}", str(out)) for a in workload.program)]
    child = run_child(argv, env, work / f"{tag}.log", deadline - time.perf_counter())
    problems = [] if child.returncode == 0 else [f"exit code {child.returncode}"]
    problems += check_outputs(workload, out)
    if problems:
        log = (work / f"{tag}.log").read_text(errors="replace")[-2000:]
        print(f"[bench] {tag} failed: {problems}\n{log}", file=sys.stderr)
    return Iteration(child, problems)


def measure_setup(workload, env, work: Path, samples: int, deadline: float):
    """Median wall of `samples` fresh-interpreter probes after one unmeasured
    warm-up probe (0.0 for none), or None if the program cannot be imported."""
    argv = [sys.executable, "-c", SETUP_PROBE.format(config=workload.config)]
    walls = []
    for i in range(samples + 1):
        res = run_child(argv, env, work / f"setup{i}.log", deadline - time.perf_counter())
        if res.returncode != 0:
            print((work / f"setup{i}.log").read_text(errors="replace"), file=sys.stderr)
            return None
        walls.append(res.wall_s)
    return statistics.median(walls[1:]) if samples else 0.0


def measure(args, work: Path):
    workload = WORKLOADS[args.workload]
    env = child_env(args.seed)
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup_s = measure_setup(workload, env, work, 0 if args.trace else SETUP_SAMPLES, deadline)
    if setup_s is None:
        return None
    # a traced run makes one untraced iteration as the base of trace.overhead_s
    window = 0 if args.trace else args.seconds
    start = time.perf_counter()
    iterations = []
    while True:
        iterations.append(run_iteration(workload, env, work, f"iter{len(iterations)}", deadline))
        typical = statistics.median(it.child.wall_s for it in iterations)
        now = time.perf_counter()
        # start another iteration only if it should end inside the window
        if now - start + typical > window or now + typical > deadline:
            break
    walls = [it.child.wall_s for it in iterations]
    lines = [f"workload {args.workload}  seed {args.seed}  PYTHONHASHSEED {env['PYTHONHASHSEED']}",
             "iteration walls: " + " ".join(f"{w:.3f}" for w in walls)]
    if not args.trace:
        failed = sum(1 for it in iterations if it.problems)
        tail = tail_percentile(walls)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(it.child.rss_mb for it in iterations), "MB"),
            "setup_s": (setup_s, "s"),
            "ok_frac": ((len(iterations) - failed) / len(iterations), "frac"),
        }
        lines.append(f"wall_s p50 over {len(iterations)} iterations; " + (
            f"p{tail[0]} = {tail[1]:.4f} s" if tail else
            "fewer than 20, so no tail percentile has ten samples beyond it"))
        lines.append(f"setup_s median of {SETUP_SAMPLES}; "
                     f"failed_frac = {failed / len(iterations):g} ({failed} of {len(iterations)})")
        return lines, iterations, metrics

    traced = run_iteration(workload, env, work, "traced", deadline,
                           wrapper=(str(BENCH / "traced.py"), str(work / "spans.jsonl"),
                                    f"{args.workload}/seed{args.seed}"))
    iterations.append(traced)
    spans_path = work / "spans.jsonl"
    values = layer_metrics(read_jsonl(spans_path)) if spans_path.is_file() else {}
    values["trace.wall_s"] = traced.child.wall_s
    values["trace.overhead_s"] = traced.child.wall_s - statistics.median(walls)
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in LAYER_UNITS.items()}
    for name in ("secenum.count_s", "nslattice.cone_volume_s", "sieve.prediction_s"):
        lines.append(f"{name} share of traced wall: {values.get(name, 0) / traced.child.wall_s:.1%}")
    return lines, iterations, metrics


def missing_inputs() -> list:
    needed = ["src/dp4sieve/cli.py", "configs/q3.cfg", GOLDEN_CSV]
    needed += [ref for w in WORKLOADS.values() for _, ref in w.expected]
    return [p for p in dict.fromkeys(needed) if not (ROOT / p).is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"[bench] not a dp4sieve checkout, missing: {missing}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        measured = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if measured is None:
        print("[bench] the program does not import; no result", file=sys.stderr)
        return 2
    lines, iterations, metrics = measured
    failed = sum(1 for it in iterations if it.problems)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:28s} {value:14.6f} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
