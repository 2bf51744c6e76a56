"""haarwords benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: exact-expect, exact-interp, norms, sampling (see bench/README.md).

A run is a closed loop with one client: passes run back to back until
--seconds have gone by, each pass in a fresh Python process (bench/worker.py)
that imports haarwords from the checkout's src/ and runs every case of the
workload once, so caches are cold at the start of every pass, as for a CLI
user.  `wall_s` and `quick_s` sum each case's median time over the passes of
the run; set-up time and memory are medians over the passes.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead against the untraced ones.

Every case's output is checked.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines above it
name each metric with its unit, the per-case times and the provenance of
the run.  The exit code is 1 when a case failed and 2 when the checkout
holds no haarwords sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import cases

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165                 # no pass starts that could end past this
CALIBRATION_ITERATIONS = 2_000_000

END_TO_END = {"wall_s": "s", "quick_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
QUALITY = {"error_rate": "ratio", "bracket_width": "1", "reference_gap": "1"}


def layer_unit(name):
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def calibration_seconds():
    """A fixed pure-Python loop; recorded so that noisy-neighbour runs are
    visible, and never used to rescale a result."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_pass(workload, seed, traced):
    """One worker process; returns its parsed result, or a failure record."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--src", str(SRC)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"pass exceeded {PASS_TIMEOUT_S} s",
                "duration": time.monotonic() - start}
    duration = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "duration": duration,
                "crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result.update(traced=traced, duration=duration, setup_s=result["setup_mark"] - start)
    return result


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_facts():
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()[:16]}


def case_medians(passes):
    """(case id, quick) -> the case's median time over the passes.  Times
    are summed from these: pass times on a shared host swing by a quarter
    within seconds, and a median per case keeps one slow stretch from
    moving the whole pass."""
    times = {}
    for p in passes:
        for c in p["cases"]:
            times.setdefault((c["id"], c["quick"]), []).append(c["seconds"])
    return {key: median(values) for key, values in times.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "haarwords" / "__init__.py").is_file():
        print(f"error: no haarwords sources under {SRC}", file=sys.stderr)
        return 2

    calibration_start = calibration_seconds()
    passes = []
    began = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, args.seed, traced))
        elapsed = time.monotonic() - began
        kinds = {p["traced"] for p in passes}
        enough = elapsed >= args.seconds and (not args.trace or len(kinds) == 2)
        longest = max(p["duration"] for p in passes)
        if enough or elapsed + longest > RUN_LIMIT_S:
            break
    calibration_end = calibration_seconds()

    attempted = failed = 0
    failures = []
    for p in passes:
        if "crashed" in p:
            attempted += 1
            failed += 1
            failures.append(p["crashed"])
            continue
        for c in p["cases"]:
            attempted += 1
            if not c["ok"]:
                failed += 1
                failures.append(f"{c['id']}: {c['error']}")
    good = [p for p in passes if "crashed" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]

    first = good[0] if good else {}
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "nproc": os.cpu_count(),
        "blas_threads": first.get("blas_threads"), **first.get("provenance", {}),
        "git_commit": git_commit(), **source_facts(),
        "calibration_iterations": CALIBRATION_ITERATIONS,
        "calibration_start_s": calibration_start, "calibration_end_s": calibration_end,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for message in failures:
        print(f"FAILED {message}")

    per_case = case_medians(plain)
    for (case_id, quick), seconds in per_case.items():
        print(f"case {case_id} median_s={seconds:.4f}{' quick' if quick else ''}")

    quality = {"error_rate": failed / attempted if attempted else 1.0}
    for name in ("bracket_width", "reference_gap"):
        values = [c["quality"][name] for p in good for c in p["cases"] if name in c["quality"]]
        if values:
            quality[name] = median(values)

    metrics = {}
    if not args.trace:
        if plain:
            values = {"wall_s": sum(per_case.values()),
                      "quick_s": sum(t for (_, quick), t in per_case.items() if quick),
                      "setup_s": median([p["setup_s"] for p in plain]),
                      "peak_rss_mb": median([p["peak_rss_mb"] for p in plain])}
            for name, unit in END_TO_END.items():
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"metric {name} = {values[name]!r} {unit} (over {len(plain)} passes)")
        for name, value in quality.items():
            print(f"metric {name} = {value!r} {QUALITY[name]}")
    else:
        names = sorted({n for p in traced for n in p["layers"]})
        for name in names:
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            metrics[name] = {"value": median(values), "unit": layer_unit(name)}
        if plain:
            metrics["process.cpu_s"] = {"value": median([p["cpu_s"] for p in plain]),
                                        "unit": "s"}
        if plain and traced:
            overhead = sum(case_medians(traced).values()) / sum(per_case.values())
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        for name in sorted(metrics):
            print(f"layer {name} = {metrics[name]['value']!r} {metrics[name]['unit']}")
        if traced:
            spans = traced[-1]["spans"]
            wall = sum(c["seconds"] for c in traced[-1]["cases"])
            for name, stats in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
                print(f"span {name} calls={stats['calls']} s={stats['s']:.4f} "
                      f"self_s={stats['self_s']:.4f} self_share={stats['self_s'] / wall:.3f}")
            inside = sum(s["self_s"] for n, s in spans.items() if n != "cli.run")
            print(f"span layers_self_share={inside / wall:.3f} (all spans but cli.run, "
                  f"over traced wall_s {wall:.4f})")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
