"""Benchmark of hitchinflow: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deg-rk45 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, tracing off

``--trace 0`` reports the end-to-end metrics (setup_s, wall_s,
point_s.p50, peak_rss_mb); ``--trace 1`` runs the list once untraced and
once under the span tracer and reports ``<span>.{calls,self_s,total_s,
errors}`` for every span plus ``trace_overhead``.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("deg-rk45", "deg-rk4", "generic-rk45", "exact-identities")
SETUP_REPEATS = 5
# A run must end within 180 s.  A point still running at the deadline is
# stopped and counted as failed, and later points are not started.
RUN_DEADLINE_S = 150
START = time.monotonic()


class Deadline(BaseException):
    """Raised in the running point when the run's deadline passes."""


def _raise_deadline(signum, frame):
    raise Deadline()


def use_checkout_source():
    """Import hitchinflow from this checkout's src/ and nowhere else."""
    if not (SRC / "hitchinflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no hitchinflow sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import hitchinflow

    if Path(hitchinflow.__file__).resolve().parent != SRC / "hitchinflow":
        raise SystemExit(f"error: hitchinflow imported from {hitchinflow.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "hitchinflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    nproc = len(os.sched_getaffinity(0))
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas": blas,
        "blas_threads": threads,
    }


def setup_seconds(workload: str, point: dict) -> list[float]:
    """Set-up times of SETUP_REPEATS fresh interpreters."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, json.dumps(point)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, START + RUN_DEADLINE_S - time.monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_list(workload: str, pts: list[dict], tracer=None) -> dict:
    """Run every point once; time each and the whole list."""
    from workloads import Outcome, execute

    times, outcomes = [], []
    start = time.perf_counter()
    for i, point in enumerate(pts):
        if tracer is not None:
            tracer.point = i
        left = START + RUN_DEADLINE_S - time.monotonic()
        t0 = time.perf_counter()
        if left <= 0:
            outcome = Outcome(1, 1, None, ["not started: the run's deadline had passed"])
        else:
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                with tempfile.TemporaryDirectory(dir=RESULTS) as scratch:
                    outcome = execute(workload, point, Path(scratch))
            except Deadline:
                outcome = Outcome(1, 1, None, ["stopped at the run's deadline"])
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return {"wall_s": time.perf_counter() - start, "point_s": times, "outcomes": outcomes}


def hot_spans(workload: str) -> list[str]:
    """Spans the predictions name as hot on ``workload``."""
    preds = json.loads((BENCH / "predictions.json").read_text())
    return sorted({s for p in preds if workload in p["on"] for s in p["spans"]})


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    import workloads
    from tracer import FIELDS, Tracer

    n = workloads.list_size(workload, seconds / 2 if trace else seconds)
    pts = workloads.points(workload, seed, n)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "points": pts, "environment": environment()}
    setup = None if trace else setup_seconds(workload, pts[0])
    workloads.prepare(workload, pts[0])  # warm this process as a user's first point would
    lists = [run_list(workload, pts)]
    problems = []
    if trace:
        tracer = Tracer()
        with tracer:
            lists.append(run_list(workload, pts, tracer))
        totals = tracer.totals()
        metrics = {
            f"{span}.{field}": {"value": rec[field], "unit": "s" if field.endswith("_s") else "count"}
            for span, rec in totals.items() for field in FIELDS
        }
        metrics["trace_overhead"] = {
            "value": lists[1]["wall_s"] / lists[0]["wall_s"], "unit": "ratio",
        }
        record["spans"] = tracer.records()
        problems += [f"span {s} predicted hot on {workload} recorded no calls"
                     for s in hot_spans(workload) if totals[s]["calls"] == 0]
    else:
        main = lists[0]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": main["wall_s"], "unit": "s"},
            "point_s.p50": {"value": statistics.median(main["point_s"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB",
            },
        }
        record["setup_s"] = setup
    attempted = sum(o.attempted for lst in lists for o in lst["outcomes"])
    failed = sum(o.failed for lst in lists for o in lst["outcomes"])
    for lst in lists:
        for i, o in enumerate(lst["outcomes"]):
            problems += [f"point {i}: {p}" for p in o.problems]
    digests = [[o.digest for o in lst["outcomes"]] for lst in lists]
    if trace and digests[0] != digests[1]:
        problems.append("traced and untraced outputs differ")
    record.update(
        point_s=[lst["point_s"] for lst in lists],
        digests=digests,
        problems=problems,
        digest=hashlib.sha256(json.dumps(digests[0]).encode()).hexdigest(),
    )
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record["result"] = result
    return result, record


def run_all(args) -> int:
    """Run each workload in its own interpreter and print one table."""
    rows, attempted, failed, correct = {}, 0, 0, True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        rows[workload] = res
        for name, m in res["metrics"].items():
            print(f"{workload:17s} {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"{workload:17s} {'fail_frac':40s} {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']}/{res['attempted']})")
    metrics = {f"{w}/{k}": m for w, res in rows.items() for k, m in res["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be at least 1 and --seed at least 0")
    use_checkout_source()
    if args.workload == "all":
        return run_all(args)
    RESULTS.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _raise_deadline)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for p in record["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} points {len(record['points'])} "
          f"trace {args.trace} record {out.relative_to(ROOT)}")
    print("environment " + json.dumps(record["environment"]))
    print(f"digest {record['digest']}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
