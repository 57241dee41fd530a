"""Which ``rara`` functions the traced run wraps, what it counts at each, and
how one traced iteration becomes the per-layer metrics.

Every call between the four modules goes through a module attribute
(``cli`` calls ``sim.run``, ``sim`` calls ``mpr.decorrelate``, and
``throughput_exact`` reaches ``stationary_closed_form`` through the module
globals), so wrapping these attributes sees every crossing.
"""

from __future__ import annotations

import numpy as np

from rara import analytic, cli, mpr, sim

LAYERS = ("analytic", "sim", "mpr", "cli")


def _stationary(counts, args, kwargs, result):
    counts[f"analytic.stationary_closed_form.{result.method}"] += 1


def _power_iteration(counts, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    counts["analytic.stationary_power_iteration.chains"] += int(np.prod(np.shape(p)[:-2]))


def _sim_run(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return {"rule": config.success_rule, "key": (config.params, config.seed),
            "sessions": config.n_sessions + config.warmup_sessions,
            "by_state": result.sessions_by_state}


def _decorrelate(counts, args, kwargs, result):
    counts["mpr.decorrelate.ill_conditioned"] += not result.success


def _symbol_error_rate(counts, args, kwargs, result):
    counts["mpr.symbol_error_rate.trials"] += args[3] if len(args) > 3 else kwargs["trials"]


def _build_rows(counts, args, kwargs, result):
    counts["cli.rows"] += len(result[1])


def _write_output(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["cli.bytes_out"] += len(text.encode())


TARGETS = [
    (analytic, "transition_matrix", None),
    (analytic, "stationary_power_iteration", _power_iteration),
    (analytic, "stationary_closed_form", _stationary),
    (analytic, "throughput_exact", None),
    (analytic, "outage_exact", None),
    (analytic, "throughput_approx", None),
    (analytic, "outage_approx", None),
    (analytic, "asymptotic_throughput", None),
    (sim, "run", _sim_run),
    (sim, "derive_seeds", None),
    (mpr, "generate_channels", None),
    (mpr, "composite_matrix", None),
    (mpr, "simulate_reception", None),
    (mpr, "decorrelate", _decorrelate),
    (mpr, "symbol_error_rate", _symbol_error_rate),
    (cli, "main", None),
    (cli, "validate_spec", None),
    (cli, "build_rows", _build_rows),
    (cli, "render", None),
    (cli, "write_output", _write_output),
]

# name -> unit of every per-layer metric, in report order
UNITS = {
    "analytic.self_s": "s",
    "analytic.stationary_power_iteration.self_s": "s",
    "analytic.stationary_power_iteration.chains": "count",
    "analytic.throughput_exact.calls": "count",
    "analytic.throughput_exact.us_per_call": "us",
    "analytic.stationary_closed_form.calls": "count",
    "analytic.stationary_closed_form.degenerate": "count",
    "analytic.outage_exact.self_s": "s",
    "sim.self_s": "s",
    "sim.run.calls": "count",
    "sim.run.sessions": "count",
    "sim.run.ns_per_session": "ns",
    "sim.phy.us_per_collision": "us",
    "sim.phy.decode_ratio": "1",
    "mpr.self_s": "s",
    "mpr.generate_channels.calls": "count",
    "mpr.generate_channels.self_s": "s",
    "mpr.composite_matrix.self_s": "s",
    "mpr.simulate_reception.self_s": "s",
    "mpr.decorrelate.calls": "count",
    "mpr.decorrelate.self_s": "s",
    "mpr.decorrelate.ill_conditioned": "count",
    "mpr.symbol_error_rate.calls": "count",
    "mpr.symbol_error_rate.us_per_trial": "us",
    "cli.self_s": "s",
    "cli.build_rows.self_s": "s",
    "cli.render.self_s": "s",
    "cli.write_output.self_s": "s",
    "cli.rows": "count",
    "cli.bytes_out": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    # a rate over no calls is reported as 0
    return num / den if den else 0.0


def iteration_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced iteration (all but trace.overhead_s)."""
    fns, counts = summary["functions"], summary["counts"]

    def get(name, key):
        return fns.get(name, {}).get(key, 0)

    out = {f"{layer}.self_s": sum(v["self_s"] for k, v in fns.items()
                                  if k.startswith(layer + "."))
           for layer in LAYERS}
    for name in ("analytic.stationary_power_iteration", "analytic.outage_exact",
                 "mpr.generate_channels", "mpr.composite_matrix",
                 "mpr.simulate_reception", "mpr.decorrelate", "cli.build_rows",
                 "cli.render", "cli.write_output"):
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("analytic.throughput_exact", "analytic.stationary_closed_form",
                 "sim.run", "mpr.generate_channels", "mpr.decorrelate",
                 "mpr.symbol_error_rate"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("analytic.stationary_power_iteration.chains",
                 "analytic.stationary_closed_form.degenerate",
                 "mpr.decorrelate.ill_conditioned", "cli.rows", "cli.bytes_out"):
        out[name] = counts.get(name, 0)
    out["analytic.throughput_exact.us_per_call"] = 1e6 * _ratio(
        get("analytic.throughput_exact", "total_s"), get("analytic.throughput_exact", "calls"))
    out["mpr.symbol_error_rate.us_per_trial"] = 1e6 * _ratio(
        get("mpr.symbol_error_rate", "total_s"), counts.get("mpr.symbol_error_rate.trials", 0))

    runs = [(dur, d) for name, dur, d in summary["calls"] if name == "sim.run"]
    out["sim.run.sessions"] = sum(d["sessions"] for _, d in runs)
    threshold = [(dur, d) for dur, d in runs if d["rule"] == sim.THRESHOLD]
    out["sim.run.ns_per_session"] = 1e9 * _ratio(
        sum(dur for dur, _ in threshold), sum(d["sessions"] for _, d in threshold))
    # PHY-coupled runs against the threshold run on the same params and seed
    paired = {d["key"]: (dur, d) for dur, d in threshold}
    extra_s = collisions = decoded = 0
    for dur, d in runs:
        if d["rule"] == sim.PHY_COUPLED and d["key"] in paired:
            base_dur, base = paired[d["key"]]
            extra_s += dur - base_dur
            collisions += base["by_state"][2]
            decoded += d["by_state"][2]
    out["sim.phy.us_per_collision"] = 1e6 * _ratio(extra_s, collisions)
    out["sim.phy.decode_ratio"] = _ratio(decoded, collisions)
    out["trace.spans"] = sum(v["calls"] for v in fns.values())
    return out
