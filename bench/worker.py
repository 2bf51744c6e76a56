"""One benchmark pass: a fresh process that imports haarwords, builds the
workload's cases, runs them once in order and prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --src DIR

`run.py` starts it with PYTHONPATH set to the checkout's `src/` and reads
the JSON line from stdout.  The setup mark is taken on the monotonic clock
just before the first timed call, so the parent can measure setup from the
moment it started the process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import cases
import tracing


def _import_haarwords(src, names):
    """Import the package and the named submodules, those the workload's
    cases are built from.  The CLI imports the rest lazily inside the case
    that needs them, as for a CLI user."""
    import haarwords

    location = Path(haarwords.__file__).resolve().parent
    if location != (Path(src) / "haarwords").resolve():
        raise SystemExit(f"haarwords imported from {location}, not from {src}")
    return haarwords, {name: importlib.import_module(f"haarwords.{name}") for name in names}


def _provenance():
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()

    package, modules = _import_haarwords(args.src, cases.MODULES[args.workload])
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(package)
    workload = cases.build(args.workload, args.seed, modules)

    results = []
    setup_mark = time.monotonic()
    for case in workload:
        if tracer is not None:
            tracer.case = case.id
        record = {"id": case.id, "quick": case.quick, "ok": False, "quality": {}}
        start = time.perf_counter()
        try:
            output = case.run()
            record["seconds"] = time.perf_counter() - start
            record["quality"] = case.check(output) or {}
            record["ok"] = True
        except cases.CaseFailure as exc:
            record["error"] = str(exc)
        except Exception:   # a crash in one case must not hide the others
            record.setdefault("seconds", time.perf_counter() - start)
            record["error"] = traceback.format_exc(limit=-3)
        results.append(record)

    if tracer is not None:
        tracer.load_rest()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "setup_mark": setup_mark,
        "cases": results,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "provenance": _provenance(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["spans"] = tracer.span_stats()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
