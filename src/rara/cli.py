"""Experiment runner: theory grids, Monte-Carlo sweeps, theory-vs-simulation
comparisons, and PHY detector error rates, written as CSV or JSON tables.

Subcommands ``theory | sim | compare | phy`` take the flags of the
:class:`ExperimentSpec` fields that :data:`MODES` says they read; a config
file is one JSON object keyed by those field names, and flags win.  Both go
through one conversion.  Grids are comma lists (``0.4,0.8``) or inclusive
ranges (``start:stop:step``).  Any other key, a ``mode`` key, a file that is
not an object, and an ``snr_db`` whose noise variance is not finite are
validation errors.

Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import analytic, mpr, sim

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3

# The flag and help text of each ExperimentSpec field a flag sets.
FLAGS = {"lambda_grid": ("--lambda", "traffic intensities: comma list or start:stop:step"),
         "m_grid": ("--m", "relay counts: comma list or start:stop:step"),
         "epsilon": ("--epsilon", "idle-session length"), "seed": ("--seed", "root seed"),
         "n_sessions": ("--sessions", "sessions per simulation run (phy: trials)"),
         "snr_db": ("--snr-db", "receive SNR in dB"), "output_path": ("--out", "output file"),
         "format": ("--format", "csv (default) or json")}
# The fields each mode reads, the one place this is decided; any other is refused.
_OUT = ("output_path", "format")
_SIM = ("lambda_grid", "m_grid", "epsilon", "n_sessions", "seed", *_OUT)
MODES = {"theory": ("lambda_grid", "m_grid", "epsilon", *_OUT), "sim": _SIM, "compare": _SIM,
         "phy": ("m_grid", "n_sessions", "seed", "snr_db", *_OUT)}

THEORY_COLUMNS = [
    "lambda", "m", "epsilon",
    "throughput_exact", "throughput_approx",
    "outage_exact", "outage_approx",
    "asymptotic_throughput",
    "pi_0", "pi_1", "pi_S", "pi_U",
    "mean_session_length",
    "u_discontinuity",
]
SIM_COLUMNS = ["throughput_hat", "stderr", "outage_hat", "sessions", "seed"]
ERROR_COLUMNS = ["abs_err_throughput", "abs_err_outage"]
PHY_COLUMNS = ["k", "m", "snr_db", "ser", "trials", "seed"]

# Most values a start:stop:step range may expand to.
MAX_RANGE_VALUES = 100_000


class SpecValidationError(ValueError):
    """All validation failures of an experiment spec, reported at once."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    lambda_grid: tuple[float, ...]
    m_grid: tuple[int, ...]
    epsilon: float
    n_sessions: int
    seed: int
    snr_db: float | None
    output_path: str
    format: str


def _as_kind(value, kind):
    """``value`` as ``kind``; an int refuses values with a fractional part."""
    if kind is int and isinstance(value, (int, str)):
        with contextlib.suppress(ValueError):
            return int(value)  # exact past 2**53, where float() would round
    value = float(value)
    if kind is int and not value.is_integer():
        raise ValueError(f"values must be integers, got {value!r}")
    return kind(value)


def parse_grid(text: str, kind=float) -> tuple:
    """Parse ``a,b,c`` or an inclusive ``start:stop:step`` range."""
    text = str(text).strip()
    if ":" not in text:
        return tuple(_as_kind(p, kind) for p in text.split(",") if p.strip())
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"range bounds and step must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"range step must be > 0, got {step}")
    # counted before any value is built, so a huge range costs no memory
    count = math.floor((stop - start) / step + 1e-9) + 1
    if count > MAX_RANGE_VALUES:
        raise ValueError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    # each value from its index, so float error does not accumulate
    return tuple(_as_kind(round(start + i * step, 12), kind) for i in range(count))


def validate_spec(raw: dict) -> ExperimentSpec:
    """Fill defaults and check the fields the mode reads, collecting all
    failures; a field it does not read is an unknown key."""
    mode = raw.get("mode")
    keys = MODES.get(mode, tuple(FLAGS))  # an unknown mode has every field checked
    problems = [f"{key}: unknown key; {mode} mode takes {', '.join(keys)}"
                for key in raw if key not in ("mode", *keys)]
    if mode not in MODES:
        problems.append(f"mode: must be one of {'/'.join(MODES)}, got {mode!r}")
    given = {key: raw[key] for key in keys if key in raw}

    def grid(name, kind, minimum):
        value = given.get(name) or ""
        try:
            vals = parse_grid(value, kind) if isinstance(value, str) \
                else tuple(_as_kind(v, kind) for v in value)
        except (ValueError, TypeError) as exc:
            problems.append(f"{name}: {exc}")
            return ()
        if not vals:
            problems.append(f"{name}: grid must be non-empty")
        for v in vals:
            if not (math.isfinite(v) and v >= minimum):
                problems.append(f"{name}: values must be finite and >= {minimum}, got {v}")
                break
        return vals

    lambda_grid = grid("lambda_grid", float, 0.0) if "lambda_grid" in keys else ()
    m_grid = grid("m_grid", int, 1)

    def scalar(name, kind, default):
        try:
            return _as_kind(given.get(name, default), kind)
        except (ValueError, TypeError) as exc:
            problems.append(f"{name}: {exc}")
            return default

    epsilon = scalar("epsilon", float, analytic.DEFAULT_EPSILON)
    if not (0 < epsilon <= 1):
        problems.append(f"epsilon: must be in (0, 1], got {epsilon}")

    n_sessions = scalar("n_sessions", int, 10**6)
    if n_sessions < 1:
        problems.append(f"n_sessions: must be >= 1, got {n_sessions}")

    seed = scalar("seed", int, 0)
    if seed < 0:
        problems.append(f"seed: must be >= 0, got {seed}")

    snr_db = given.get("snr_db")
    if snr_db is not None:
        try:
            snr_db = _as_kind(snr_db, float)
            mpr.noise_variance(snr_db)
        except (ValueError, TypeError) as exc:
            problems.append(f"snr_db: {exc}")
    elif "snr_db" in keys:
        problems.append(f"snr_db: required for {mode} mode")

    output_path = given.get("output_path") or ""
    if not output_path:
        problems.append("output_path: required")

    fmt = given.get("format", "csv")
    if fmt not in ("csv", "json"):
        problems.append(f"format: must be csv or json, got {fmt!r}")

    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(mode=mode, lambda_grid=lambda_grid, m_grid=m_grid,
                          epsilon=epsilon, n_sessions=n_sessions, seed=seed,
                          snr_db=snr_db, output_path=output_path, format=fmt)


def _theory_rows(grid: list[tuple[float, int]], epsilon: float) -> list[dict]:
    """One row per (lambda, M) of ``grid``, every column from one broadcast
    call over the whole grid."""
    lams, ms = (np.array(v) for v in zip(*grid))
    sol = analytic.solve_chain(lams, ms, epsilon)
    thr_approx, out_approx = analytic.gaussian_approx(lams, ms)
    columns = (lams, ms, np.full(lams.shape, epsilon),
               sol.throughput, thr_approx, sol.outage, out_approx,
               analytic.asymptotic_throughput(lams), *sol.pi.T,
               sol.mean_session_length, (lams == 1.0).astype(int))
    return [dict(zip(THEORY_COLUMNS, values))
            for values in zip(*(c.tolist() for c in columns))]


def build_rows(spec: ExperimentSpec) -> tuple[list[str], list[dict]]:
    """Evaluate the experiment grid; rows follow grid order (lambda outer).
    Every cell is a Python scalar."""
    if spec.mode == "phy":
        grid = [(k, m) for m in spec.m_grid for k in range(1, m + 2)]
        rows = []
        for (k, m), row_seed in zip(grid, sim.derive_seeds(spec.seed, len(grid))):
            ser = mpr.symbol_error_rate(k, m, spec.snr_db, spec.n_sessions, row_seed)
            rows.append(dict(zip(PHY_COLUMNS, (k, m, spec.snr_db, ser,
                                               spec.n_sessions, row_seed))))
        return PHY_COLUMNS, rows

    grid = [(lam, m) for lam in spec.lambda_grid for m in spec.m_grid]
    rows = _theory_rows(grid, spec.epsilon)
    if spec.mode == "theory":
        return THEORY_COLUMNS, rows
    extra = SIM_COLUMNS + (ERROR_COLUMNS if spec.mode == "compare" else [])
    for row, (lam, m), run_seed in zip(rows, grid, sim.derive_seeds(spec.seed, len(grid))):
        rep = sim.run(sim.SimConfig(analytic.SystemParams(lam, m, spec.epsilon),
                                    sim.PoissonProcess(lam), spec.n_sessions, run_seed))
        # sim mode keeps the first len(SIM_COLUMNS) values
        row.update(zip(extra, (
            rep.throughput_hat, rep.stderr_throughput, rep.outage_hat,
            spec.n_sessions, run_seed,
            abs(rep.throughput_hat - row["throughput_exact"]),
            abs(rep.outage_hat - row["outage_exact"]))))
    return THEORY_COLUMNS + extra, rows


def render(columns: list[str], rows: list[dict], fmt: str) -> str:
    """CSV or JSON text of ``rows``, whose keys run in ``columns`` order."""
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        # repr round-trips doubles exactly
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in row.values()])
    return buf.getvalue()


def write_output(text: str, path: str) -> None:
    """Atomic write: the target either appears complete or not at all."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rara-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rara",
        description="Relay-aided random access experiments (theory, "
                    "simulation, comparison, PHY detector).")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, keys in MODES.items():
        # values stay strings for validate_spec; an unset flag is absent
        p = sub.add_parser(mode, argument_default=argparse.SUPPRESS)
        for key in keys:
            p.add_argument(FLAGS[key][0], dest=key, help=FLAGS[key][1])
        p.add_argument("--config", help="JSON object keyed by the field names "
                                        f"{mode} reads ({', '.join(keys)})")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    raw, config = {}, args.pop("config", None)
    if config:
        try:
            with open(config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config {config}: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:  # bad JSON or bad UTF-8
            print(f"error: bad config {config}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        if not isinstance(raw, dict):
            print(f"error: bad config {config}: not a JSON object", file=sys.stderr)
            return EXIT_VALIDATION
        if "mode" in raw:  # the subcommand is the one place the mode is given
            print(f"error: bad config {config}: mode: not a config key", file=sys.stderr)
            return EXIT_VALIDATION
    raw.update(args)  # flag dests are ExperimentSpec field names
    try:
        spec = validate_spec(raw)
    except SpecValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    text = render(*build_rows(spec), spec.format)
    try:
        write_output(text, spec.output_path)
    except OSError as exc:
        print(f"error: cannot write {spec.output_path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
