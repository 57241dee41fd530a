"""Benchmark of the ``rara`` package: one workload per call.

    python3 perfbench/run.py --workload theory_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ``rara`` is imported from its ``src/``.
Each workload runs in a fresh interpreter with BLAS and OpenMP pinned to one
thread.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (correctness checks)
and ``metrics``.  Details of the run go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("theory_grid", "sim_threshold", "sim_phy", "phy_ser")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _git_sha() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _child(args, extra, deadline) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(OUT / args.workload)] + extra
    return subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def _setup_seconds(args, deadline) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter until it has imported rara and
    built the workload's inputs, raw and corrected for host contention by
    the probe's own reading of the workload's reference mix, taken right
    after.  The first probe, which may compile bytecode, is discarded."""
    raw, corrected = [], []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = _child(args, ["--setup-only"], deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["ready"] - start)
        corrected.append(raw[-1] / probe["slowdown"])
    return raw[1:], corrected[1:]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "rara" / "__init__.py").is_file():
        print(f"error: no rara sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (OUT / args.workload).mkdir(parents=True, exist_ok=True)

    try:
        setup_raw, setup = ([], []) if args.trace else _setup_seconds(args, deadline)
        proc = _child(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      deadline)
    except subprocess.TimeoutExpired:
        print("error: benchmark run exceeded its deadline", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    checks = res["checks"]
    failed = [c for c in checks if not c["ok"]]
    times = res["corrected_times_s"]
    wall = statistics.median(times)
    if args.trace:
        metrics = res["layer_metrics"]
        samples = {"traced_iterations": len(res["traced_times_s"]),
                   "untraced_iterations": len(times)}
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "work_per_s": _metric(res["work_per_iteration"] / wall, "items/s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "pass_ratio": _metric((len(checks) - len(failed)) / len(checks), "1"),
            "outage_tail_digits": _metric(statistics.fmean(res["tail_digits"]), "digits"),
        }
        samples = {"wall_s": len(times), "work_per_s": len(times), "setup_s": len(setup),
                   "peak_rss_mb": 1, "pass_ratio": len(checks),
                   "outage_tail_digits": len(res["tail_digits"])}
    provenance = dict(res["provenance"], git_sha=_git_sha(), seed=args.seed,
                      workload=args.workload, seconds=args.seconds, trace=args.trace,
                      work_item=res["work_item"],
                      work_per_iteration=res["work_per_iteration"], samples=samples)
    record = {"provenance": provenance, "metrics": metrics, "checks": checks,
              "raw_wall_s": statistics.median(res["times_s"]),
              "times_s": res["times_s"], "corrected_times_s": times,
              "traced_times_s": res["traced_times_s"],
              "setup_times_s": setup_raw, "corrected_setup_times_s": setup,
              "tail_digits": res["tail_digits"]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for c in failed:
        print(f"FAILED {c['name']}: {c['detail']}")
    for name, m in metrics.items():
        n = samples.get(name, len(res["traced_times_s"]))
        print(f"{name:45s} {m['value']:.6g} {m['unit']}  (n={n})")
    for name, values in (("wall_s", res["times_s"]), ("setup_s", setup_raw)):
        if values:
            print(f"{name + ', uncorrected':45s} {statistics.median(values):.6g} s")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
