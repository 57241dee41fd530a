"""Experiment runner: theory grids, Monte-Carlo sweeps, theory-vs-simulation
comparisons, and PHY detector error rates, written as CSV or JSON tables.

Subcommands ``theory | sim | compare | phy`` take the flags of the fields
:data:`MODES` says they read; a config file is one JSON object keyed by the
same field names, and flags win.  Grids are comma lists (``0.4,0.8``) or
inclusive ranges (``start:stop:step``).  Every value is converted one way and
checked by the one rule :data:`FIELDS` names for it, the library's for every
value the library reads; a grid's largest (lambda, M) point is checked by
building it as its row is built (:func:`_point`), so the check cannot drift
from the rows.
Beyond the format's rule (csv or json), this module states no check of its
own but one size cap, :data:`MAX_RANGE_VALUES`, on the values of a range and
on the rows of a table, both counted before anything is built.

Each table is one ordered mapping of column name to column, built where its
values are computed: the theory columns by one broadcast solve over the
grid, the phy and simulated columns from one pass of seeded rows.  The
names of a table are the keys of that mapping and nowhere else.

Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import make_dataclass

import numpy as np

from . import analytic, mpr, sim

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def _check_format(fmt: str) -> None:
    """The rule of the ``format`` field: one of the two :func:`render` writes."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"must be csv or json, got {fmt!r}")


# Each ExperimentSpec field a flag sets: its flag, help text, kind (a one-tuple
# for a grid of that type), default (None: required) and the rule that checks
# the converted value by raising ValueError: the library's for every value the
# library reads, :func:`_check_format` for the format, and ``str`` for the
# output path, which needs none.  validate_spec states no check of its own.
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
    "format": ("--format", "csv (default) or json", str, "csv", _check_format),
}
# The fields each mode reads, the one place this is decided; any other is refused.
_OUT = ("output_path", "format")
_SIM = ("lambda_grid", "m_grid", "epsilon", "n_sessions", "seed", *_OUT)
MODES = {"theory": ("lambda_grid", "m_grid", "epsilon", *_OUT), "sim": _SIM, "compare": _SIM,
         "phy": ("m_grid", "n_sessions", "seed", "snr_db", *_OUT)}

# Most values a start:stop:step range may expand to, and most rows a table may have.
MAX_RANGE_VALUES = 100_000


class SpecValidationError(ValueError):
    """All validation failures of an experiment spec, reported at once."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


# A checked spec: its mode, then one field per FIELDS key in that order, so a
# setting is declared once.  Python < 3.12 would give the class the module
# ``types``, which pickle cannot find it in.
ExperimentSpec = make_dataclass("ExperimentSpec", ["mode", *FIELDS], frozen=True,
                                namespace={"__module__": __name__})


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
    value = float(value) + 0.0  # -0.0 reads as the 0.0 it equals
    if kind is int and not value.is_integer():
        raise ValueError(f"values must be integers, got {value!r}")
    return kind(value)


def parse_grid(text, kind=float) -> tuple:
    """Parse ``a,b,c``, an inclusive ``start:stop:step`` range, or a list
    (from a config file) into a non-empty tuple of ``kind``."""
    if not isinstance(text, str):
        values = text
    elif ":" not in text:
        values = text.split(",")
        for i, value in enumerate(values, 1):
            if not value.strip():
                raise ValueError(f"entry {i} of comma list {text!r} is empty")
    else:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        # read as kind, so the bounds of an int range stay exact past 2**53; an int
        # is finite, and one past the float range is left to the field's rule
        start, stop, step = (_as_kind(p, kind) for p in parts)
        if kind is float and not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"range step must be > 0, got {step}")
        # counted before any value is built, so a huge range costs no memory; an int
        # range in integers, where a float count's slack would add a value past stop
        count = (stop - start) // step + 1 if kind is int \
            else math.floor((stop - start) / step + 1e-9) + 1
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
    lams, ms = spec["lambda_grid"], spec["m_grid"]
    if ms and (lams or mode == "phy"):  # counted before any row is built
        rows, of = ((sum(m + 1 for m in ms), "M+1 summed over m_grid") if mode == "phy"
                    else (len(lams) * len(ms), "lambda_grid x m_grid"))
        if rows > MAX_RANGE_VALUES:
            problems.append(f"table: {of} gives {rows} rows, more than {MAX_RANGE_VALUES}")
    if lams and ms:  # the largest point, built as its row is; a failed field reads its default
        simulated = (spec["n_sessions"], spec["seed"]) if "n_sessions" in keys else ()
        try:
            _point(max(lams), max(ms), spec["epsilon"], *simulated)
        except ValueError as exc:
            problems.append(f"lambda_grid: {exc}")
    if problems:
        raise SpecValidationError(problems)
    return ExperimentSpec(mode=mode, **spec)


def _point(lam, m, epsilon, n_sessions=None, seed=None):
    """The ``SystemParams`` of one (lambda, M) row or, given a session count
    and a seed, its ``SimConfig``: every row and the spec's check of the
    largest point are built here."""
    params = analytic.SystemParams(lam, m, epsilon)
    if n_sessions is None:
        return params
    return sim.SimConfig(params, sim.PoissonProcess(lam), n_sessions, seed)


def _theory_columns(lams: np.ndarray, ms: np.ndarray, epsilon: float) -> dict:
    """The theory table's columns over the (lambda, M) pairs ``lams``,
    ``ms``, from one broadcast solve over the whole grid."""
    sol = analytic.solve_chain(lams, ms, epsilon)
    throughput_approx, outage_approx = analytic.gaussian_approx(lams, ms)
    return {"lambda": lams, "m": ms, "epsilon": np.full(lams.shape, epsilon),
            "throughput_exact": sol.throughput, "throughput_approx": throughput_approx,
            "outage_exact": sol.outage, "outage_approx": outage_approx,
            "asymptotic_throughput": analytic.asymptotic_throughput(lams),
            **dict(zip(("pi_0", "pi_1", "pi_S", "pi_U"), sol.pi.T)),
            "mean_session_length": sol.mean_session_length,
            "u_discontinuity": (lams == 1.0).astype(int)}


def _table(columns: dict) -> tuple[list[str], list[tuple]]:
    """The names and rows of a table given as name -> column, in order.
    A column is a sequence or a numpy array, of one cell per row; a row is
    a tuple of its cells in name order, each a Python scalar."""
    cells = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    return list(columns), list(zip(*cells, strict=True))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_rows(fn, tasks: list, costs: list) -> list:
    """``[fn(*task) for task in tasks]``, the calls spread over one thread per
    CPU, at most one per task; :func:`build_rows` passes the arguments of phy
    rows, or groups of simulated rows, as tasks.  Tasks are handed to the
    pool heaviest first by ``costs`` (Graham's longest-processing-time rule;
    a stable sort, so tasks of equal cost keep task order), so the costliest
    tasks do not start last.  Results come back in task order, so the list
    does not depend on the thread count or the dispatch order; the first
    task to raise, in task order, raises here, and the tasks not yet started
    are cancelled."""
    order = sorted(range(len(tasks)), key=costs.__getitem__, reverse=True)
    with ThreadPoolExecutor(max(1, min(_cpus(), len(tasks)))) as pool:
        futures = [None] * len(tasks)
        for i in order:
            futures[i] = pool.submit(fn, *tasks[i])
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


def _walk_rows(*rows) -> list:
    """The reports of one group of simulated rows, each given as the
    ``(lambda, M, epsilon, sessions, seed)`` of its :func:`_point`, walked
    together."""
    return sim._run_group([_point(*row) for row in rows])


def build_rows(spec: ExperimentSpec) -> tuple[list[str], list[tuple]]:
    """Evaluate the experiment grid; rows follow grid order (lambda outer).
    Every cell is a Python scalar.

    The table is one ordered mapping of column name to column, turned into
    rows by :func:`_table`.  Each phy or simulated row draws from its own
    seed of ``sim.derive_seeds``, so the rows are evaluated concurrently by
    :func:`_map_rows`, on as many threads as the process has CPUs; the
    output does not depend on the thread count.  A phy row is one task.
    Simulated rows are tasks in groups of consecutive rows whose sessions
    fit ``sim._WALK_BUDGET`` (a larger row is a group of its own), and a
    group is walked together, which saves Python steps.  On a 2-core host
    the pool pays on grouped rows too, at a cost in memory and CPU: the
    ``sim_threshold`` benchmark (30 rows of 40 000 sessions, ten groups of
    three) read 0.060 s against 0.066 s with the groups walked on the
    calling thread, faster in 10 of 10 alternating pairs, but with 67.2 MB
    against 62.0 MB peak RSS, and in process the run took 65 ms of CPU
    against 53 ms.  A group's walk is many small numpy calls, each of which
    hands the GIL over, so the pool pays more on rows that walk alone: six
    rows of 10**6 sessions took 0.20 s on one thread and 0.16 s on two.
    Threads help phy rows only when they are large: two
    rows at (K, M) = (2, 2) took 9.5 ms one after another and 12.2 ms on
    two threads, and at (9, 8) two threads were 1.86 times faster.  A row's
    report is the same in any group, so the output does not depend on the
    grouping either.
    """
    if spec.mode == "phy":
        cells = [(k, m) for m in spec.m_grid for k in range(1, m + 2)]
        seeds = sim.derive_seeds(spec.seed, len(cells))
        tasks = [(k, m, spec.snr_db, spec.n_sessions, seed)
                 for (k, m), seed in zip(cells, seeds)]
        # matrix entries K(M+1) per trial
        ser = _map_rows(mpr.symbol_error_rate, tasks, [k * (m + 1) for k, m in cells])
        k, m, snr_db, trials, seed = zip(*tasks)
        return _table(dict(k=k, m=m, snr_db=snr_db, ser=ser, trials=trials, seed=seed))
    grid = [(lam, m) for lam in spec.lambda_grid for m in spec.m_grid]
    columns = _theory_columns(*(np.array(v) for v in zip(*grid)), spec.epsilon)
    if spec.mode == "theory":
        return _table(columns)
    seeds = sim.derive_seeds(spec.seed, len(grid))
    rows = [(lam, m, spec.epsilon, spec.n_sessions, seed) for (lam, m), seed in zip(grid, seeds)]
    per_group = max(1, sim._WALK_BUDGET // spec.n_sessions)
    groups = [rows[i:i + per_group] for i in range(0, len(rows), per_group)]
    # every row walks the same number of sessions
    reports = [report for group in _map_rows(_walk_rows, groups, list(map(len, groups)))
               for report in group]
    hats = np.array([[rep.throughput_hat, rep.outage_hat] for rep in reports]).T
    columns.update(throughput_hat=hats[0], stderr=[rep.stderr_throughput for rep in reports],
                   outage_hat=hats[1], sessions=[spec.n_sessions] * len(grid), seed=seeds)
    if spec.mode == "compare":
        columns["abs_err_throughput"], columns["abs_err_outage"] = np.abs(
            hats - [columns["throughput_exact"], columns["outage_exact"]])
    return _table(columns)


def render(columns: list[str], rows: list[tuple], fmt: str) -> str:
    """CSV or JSON text of ``rows``, tuples of cells in ``columns`` order.

    Every cell is a Python int or float, so no CSV cell needs quoting: a
    float is written with ``repr``, which round-trips doubles exactly, and an
    int with its digits (its ``repr`` too), the text ``csv.writer`` gives
    them.  The cells are formatted one column at a time.  JSON writes each
    row as one object keyed by ``columns``, and a non-finite float as
    ``null``, since RFC 8259 has no NaN or Infinity.
    """
    if fmt == "json":
        rows = [{key: None if isinstance(value, float) and not math.isfinite(value) else value
                 for key, value in zip(columns, row)} for row in rows]
        return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    cells = [map(repr, column) for column in zip(*rows)]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells)), ""])


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


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The root parser and each mode's subparser, built once per process
    (parsing does not change a parser)."""
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
