"""Run the benchmark over a fixed seed set and write its medians and
quartiles to one JSON file, optionally beside a parent checkout.

    python3 tools/bench.py --out BENCH_21.json --parent ../parent-checkout

Each side runs its own ``perfbench/run.py`` (the command, the workloads and
the run length are read from this checkout's ``BENCHMARK.json``) with
``--trace 0``, from the root of its checkout, once per workload and seed of
``SEEDS``.  With a parent, each seed is one pair of runs,
and the side that runs first alternates from pair to pair.  For every
workload and side the file holds the median and quartiles of each
end-to-end metric, the number of runs and of samples behind them, each
run's provenance line, and how many runs reported ``correct`` false or did
not finish; with a parent, also how much worse the change's median is than
the parent's.  Each side is identified by a sha256 over the files under
``src/`` and ``perfbench/`` and by ``git describe --always --dirty``.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seeds no change was tuned on; a change tuned on them replaces them and says so
SEEDS = tuple(range(2101, 2111))


def _tree_hash(root: Path) -> str:
    """sha256 over the relative path, the size and the bytes of every file
    under ``src/`` and ``perfbench/``, in path order, skipping
    ``__pycache__/`` and ``perfbench/out/``: what a run builds from, not
    what it leaves behind."""
    files = {}
    for top in ("src", "perfbench"):
        for path in (root / top).rglob("*"):
            rel = path.relative_to(root)
            if path.is_file() and "__pycache__" not in rel.parts \
                    and rel.parts[:2] != ("perfbench", "out"):
                files[rel.as_posix()] = path
    digest = hashlib.sha256()
    for rel in sorted(files):
        data = files[rel].read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _describe(root: Path):
    """``git describe --always --dirty`` of a checkout with its own
    ``.git``, or None (no repository there, or no git)."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(root: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One ``run.py`` call: its metrics and provenance, or why it failed."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"seed": seed, "finished": False, "exit": proc.returncode,
                "stderr": proc.stderr[-2000:]}
    provenance, result = json.loads(lines[-2])["provenance"], json.loads(lines[-1])
    # where rara was imported from, relative to the side's own checkout
    path = Path(provenance["rara_path"])
    if path.is_relative_to(root):
        provenance["rara_path"] = str(path.relative_to(root))
    return {"seed": seed, "finished": True, "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "provenance": provenance}


def _summary(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Median and quartiles of each end-to-end metric over the finished
    runs.  The per-run lists hold one entry per seed, in seed order and
    null for a run that did not finish, so two sides' lists pair by index."""
    done = [r for r in runs if r["finished"]]
    metrics = {}
    for spec in end_to_end if done else ():
        name = spec["name"]
        values = [r["metrics"][name] for r in done]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "runs": len(values),
            "samples": sum(r["provenance"]["samples"][name] for r in done),
            "median": median, "q1": q1, "q3": q3,
            "values": [r["metrics"][name] if r["finished"] else None for r in runs]}
    return {"runs": len(runs), "not_finished": len(runs) - len(done),
            "correct_false": sum(not r["correct"] for r in done),
            "metrics": metrics, "provenance": [r.get("provenance") for r in runs],
            "failures": [r for r in runs if not r["finished"]]}


def _versus(change: dict, parent: dict, end_to_end: list[dict]) -> dict:
    """How much worse the change's median is than the parent's, as a share
    of the parent's, beside the bound ``BENCHMARK.json`` allows.  A metric
    is within its bound only if, besides, every run on both sides finished
    and reported ``correct`` true."""
    clean = all(side["not_finished"] == side["correct_false"] == 0 for side in (change, parent))
    out = {}
    for spec in end_to_end:
        if not (change["metrics"] and parent["metrics"]):  # a side with no finished run
            out[spec["name"]] = {"worse_by": None, "bound": spec["bound"], "within_bound": False}
            continue
        new, old = (side["metrics"][spec["name"]] for side in (change, parent))
        worse = (new["median"] - old["median"]) * (1 if spec["better"] == "lower" else -1)
        share = worse / abs(old["median"]) if old["median"] else \
            (0.0 if worse == 0 else float("inf"))
        out[spec["name"]] = {"worse_by": share, "bound": spec["bound"],
                             "within_bound": clean and share <= spec["bound"],
                             "parent_iqr": old["q3"] - old["q1"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--parent", type=Path, help="root of the parent checkout")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {args.parent}")
        sides["parent"] = args.parent.resolve()

    report = {"note": "medians compare only within one file: its sides ran on one "
                      "machine in alternating pairs, while two files may differ in "
                      "machine, load and software",
              "command": bench["command"], "run_seconds": bench["run_seconds"],
              "trace": 0, "seeds": list(SEEDS), "quartiles": "statistics.quantiles, inclusive",
              "sides": {side: {"tree_sha256": _tree_hash(root), "git_describe": _describe(root)}
                        for side, root in sides.items()},
              "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, first = {side: [] for side in sides}, []
        for i, seed in enumerate(SEEDS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            first.append(order[0])
            for side in order:
                runs[side].append(_run(sides[side], bench["command"], workload, seed,
                                       bench["run_seconds"]))
                wall = runs[side][-1].get("metrics", {}).get("wall_s")
                print(f"{workload} seed {seed} {side}: wall_s {wall}", file=sys.stderr)
        entry = {side: _summary(r, bench["end_to_end"]) for side, r in runs.items()}
        entry["first_side"] = first
        if "parent" in sides:
            entry["change_vs_parent"] = _versus(entry["change"], entry["parent"],
                                                bench["end_to_end"])
        report["workloads"][workload] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
