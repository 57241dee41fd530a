"""Experiment runner: theory grids, Monte-Carlo sweeps, theory-vs-simulation
comparisons, and PHY detector error rates, written as CSV or JSON tables.

Subcommands ``theory | sim | compare | phy`` take the flags of the fields
:data:`MODES` says they read; a config file is one JSON object keyed by the
same field names, and flags win.  Grids are comma lists (``0.4,0.8``) or
inclusive ranges (``start:stop:step``).  Every value is converted one way and
checked by the library rule :data:`FIELDS` names for it; the largest
(lambda, M) of a grid is checked by ``analytic.check_grid`` and, when
simulated, by ``sim.check_arrivals``.  This module states no check of its own.

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

# Each ExperimentSpec field a flag sets: its flag, help text, kind (a one-tuple
# for a grid of that type), default (None: required) and the library rule that
# checks the converted value by raising ValueError (``str`` for the two text
# fields, which need none).  This module states no check of its own.
FIELDS = {
    "lambda_grid": ("--lambda", "traffic intensities: comma list or start:stop:step",
                    (float,), None, analytic.check_grid),
    "m_grid": ("--m", "relay counts: comma list or start:stop:step",
               (int,), None, lambda m: analytic.check_grid(0.0, m)),
    "epsilon": ("--epsilon", "idle-session length", float, analytic.DEFAULT_EPSILON,
                lambda eps: analytic.check_grid(0.0, 1, eps)),
    "n_sessions": ("--sessions", "sessions per simulation run (phy: trials)", int, 10**6,
                   lambda n: analytic.check_count("session count", n, 1)),
    "seed": ("--seed", "root seed", int, 0, lambda seed: analytic.check_count("seed", seed, 0)),
    "snr_db": ("--snr-db", "receive SNR in dB", float, None, mpr.noise_variance),
    "output_path": ("--out", "output file", str, None, str),
    "format": ("--format", "csv (default) or json", str, "csv", str),
}
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
    """``value`` as ``kind``, refusing a bool (JSON true would read as 1), a
    non-string for a str kind, and a fractional part for an int."""
    if isinstance(value, bool) or kind is str and not isinstance(value, str):
        raise ValueError(f"values must be of type {kind.__name__}, got {value!r}")
    if kind is str:
        return value
    if kind is int and isinstance(value, (int, str)):
        with contextlib.suppress(ValueError):
            return int(value)  # exact past 2**53, where float() would round
    value = float(value)
    if kind is int and not value.is_integer():
        raise ValueError(f"values must be integers, got {value!r}")
    return kind(value)


def parse_grid(text, kind=float) -> tuple:
    """Parse ``a,b,c``, an inclusive ``start:stop:step`` range, or a list
    (from a config file) into a non-empty tuple of ``kind``."""
    if not isinstance(text, str):
        values = text
    elif ":" not in text:
        values = [p for p in text.split(",") if p.strip()]
    else:
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
        values = [round(start + i * step, 12) for i in range(count)]
        if len(set(values)) < count:
            raise ValueError(f"range {text!r} repeats values once rounded to 12 decimals")
    values = tuple(_as_kind(v, kind) for v in values)
    if not values:
        raise ValueError("grid must be non-empty")
    return values


def validate_spec(raw: dict) -> ExperimentSpec:
    """Convert each field the mode reads and check it with its library rule
    (:data:`FIELDS`), collecting all failures; a field the mode does not
    read is an unknown key."""
    mode = raw.get("mode")
    keys = MODES.get(mode, tuple(FIELDS))  # an unknown mode has every field checked
    problems = [f"{key}: unknown key; {mode} mode takes {', '.join(keys)}"
                for key in raw if key not in ("mode", *keys)]
    if mode not in MODES:
        problems.append(f"mode: must be one of {'/'.join(MODES)}, got {mode!r}")
    spec = {key: field[3] for key, field in FIELDS.items()}  # unread fields keep defaults
    for key in keys:
        value = raw.get(key, spec[key])
        if value is None or value == "":
            problems.append(f"{key}: required for {mode} mode")
            continue
        kind, rule = FIELDS[key][2], FIELDS[key][4]
        try:  # a grid's kind is a one-tuple of its values' kind
            value = parse_grid(value, *kind) if isinstance(kind, tuple) \
                else _as_kind(value, kind)
            rule(value)
            spec[key] = value
        except (ValueError, TypeError, OverflowError) as exc:
            problems.append(f"{key}: {exc}")
    if spec["format"] not in ("csv", "json"):
        problems.append(f"format: must be csv or json, got {spec['format']!r}")
    lams, ms = spec["lambda_grid"], spec["m_grid"]
    if lams and ms:  # the largest lambda*(M+1), then what the walk tabulates
        try:
            analytic.check_grid(max(lams), max(ms))
            if "n_sessions" in keys:
                sim.check_arrivals(sim.PoissonProcess(max(lams)), max(ms))
        except ValueError as exc:
            problems.append(f"lambda_grid: {exc}")
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(mode=mode, **spec)


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
    # csv writes a float with repr, which round-trips doubles exactly
    writer.writerows(row.values() for row in rows)
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


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser and each mode's subparser."""
    parser = argparse.ArgumentParser(
        prog="rara",
        description="Relay-aided random access experiments (theory, "
                    "simulation, comparison, PHY detector).")
    sub = parser.add_subparsers(dest="mode", required=True)
    modes = {}
    for mode, keys in MODES.items():
        # values stay strings for validate_spec; an unset flag is absent
        p = modes[mode] = sub.add_parser(mode, argument_default=argparse.SUPPRESS)
        for key in keys:
            p.add_argument(FIELDS[key][0], dest=key, help=FIELDS[key][1])
        p.add_argument("--config", help="JSON object keyed by the field names "
                                        f"{mode} reads ({', '.join(keys)})")
    return parser, modes


def main(argv=None) -> int:
    parser, modes = _build_parser()
    namespace, extra = parser.parse_known_args(argv)
    args = vars(namespace)
    if extra:  # reported with the usage of the mode that did not read them
        modes[args["mode"]].error(f"unrecognized arguments: {' '.join(extra)}")
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
