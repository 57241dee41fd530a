"""One benchmark process, started by run.py with BLAS threads pinned in its
environment: either a set-up probe (import ``rara``, build the workload's
inputs, print when it was ready and how slow the host runs now, exit) or one
measured run of a workload, which prints its result as one JSON line.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


# A reading of the reference mix after an iteration lasts at least this
# share of the iteration.
PROBE_SHARE = 0.2


def _blas() -> dict:
    """The BLAS numpy links and the thread count it actually uses."""
    import numpy as np

    info = {"env": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["config"] = blas.get("openblas configuration")
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = get()
    return info


def _measure(workload, seconds, min_iters, recorder=None, targets=()):
    """Iterate until the next iteration would overrun ``seconds`` (at least
    ``min_iters`` times).  Returns wall times, wall times corrected for host
    contention, digests, checks and, when a recorder wraps ``targets``, the
    per-iteration span summaries.

    The correction divides each iteration's time by the mean of the
    contention factors (``reference.slowdown``) read just before and just
    after it.  A long iteration gets longer readings, because a short one
    swings with bursts of contention that the iteration averages out."""
    import reference

    deadline = time.perf_counter() + seconds
    times, corrected, digests, checks, summaries = [], [], [], [], []
    gc.collect()
    before = reference.slowdown(workload.name, PROBE_SHARE * seconds / min_iters)
    while True:
        if recorder is not None:
            mark = recorder.mark()
            recorder.install(targets)
        start = time.perf_counter()
        try:
            out = workload.iterate()
        finally:
            if recorder is not None:
                recorder.restore()
        times.append(time.perf_counter() - start)
        after = reference.slowdown(workload.name, PROBE_SHARE * times[-1])
        corrected.append(times[-1] * 2 / (before + after))
        before = after
        if recorder is not None:
            summaries.append(recorder.summarize(mark))
        digest, its_checks = workload.finish(out)
        digests.append(digest)
        checks += its_checks
        gc.collect()
        if (len(times) >= min_iters
                and time.perf_counter() + statistics.median(times) > deadline):
            return times, corrected, digests, checks, summaries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy
    import rara

    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(rara.__file__).resolve().parents:
        print(f"error: imported rara from {rara.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        ready = time.monotonic()
        import reference

        print(json.dumps({"ready": ready, "slowdown": reference.slowdown(args.workload)}))
        return 0

    trace = bool(args.trace)
    if trace:
        from layers import TARGETS, UNITS, iteration_metrics
        from spans import SpanRecorder

        # half the run untraced, half traced; the difference is the overhead
        times, corrected, digests, checks, _ = _measure(workload, args.seconds / 2, 1)
        recorder = SpanRecorder()
        traced, traced_corrected, more, more_checks, summaries = _measure(
            workload, args.seconds / 2, 1, recorder, TARGETS)
        digests += more
        checks += more_checks
        overhead = statistics.median(traced_corrected) - statistics.median(corrected)
        per_iter = [iteration_metrics(s) for s in summaries]
        for m in per_iter:
            m["trace.overhead_s"] = overhead
        metrics = {name: {"value": statistics.median(m[name] for m in per_iter),
                          "unit": unit} for name, unit in UNITS.items()}
        recorder.save(workdir / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        times, corrected, digests, checks, _ = _measure(workload, args.seconds, 2)
        traced, metrics = [], {}

    checks = [dataclasses.asdict(c) for c in checks]
    checks += [{"name": f"determinism.iteration_{i}_identical", "ok": d == digests[0],
                "detail": d} for i, d in enumerate(digests[1:], 1)]
    digits = workloads.tail_digits()
    result = {
        "times_s": times,
        "corrected_times_s": corrected,
        "traced_times_s": traced,
        "work_per_iteration": workload.work,
        "work_item": workload.item,
        "checks": checks,
        "tail_digits": digits,
        "layer_metrics": metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "rara": rara.__version__,
            "rara_path": rara.__file__,
            "blas": _blas(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
