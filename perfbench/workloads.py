"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed.  ``iterate`` is one
timed iteration: it calls the public entry points of ``rara`` and returns
what they produced.  ``finish`` is untimed: it reads those outputs back,
digests every byte of them (so that iterations on one seed can be compared)
and returns the named correctness checks of the iteration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from rara import analytic, cli, mpr, sim


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def _read_table(path: Path, digest) -> list[dict]:
    data = path.read_bytes()
    digest.update(data)
    return list(csv.DictReader(io.StringIO(data.decode())))


class TheoryGrid:
    """`rara theory` over a (lambda, M, epsilon) grid, the stacked closed
    form vs power iteration cross-check, and a deep-tail outage grid."""

    name = "theory_grid"
    item = "rows"
    epsilons = (0.05, 0.1, 0.5)
    lambda_grid = "0.05:2.0:0.05"
    m_grids = ("1:50:1", "100,200,400,800,1600,3200")
    spot_checks = 20

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.tables = [(eps, workdir / f"theory_eps{eps}_{j}.csv", m_grid)
                       for eps in self.epsilons
                       for j, m_grid in enumerate(self.m_grids)]
        self.theory_rows = len(self.epsilons) * len(cli.parse_grid(self.lambda_grid)) \
            * sum(len(cli.parse_grid(g, int)) for g in self.m_grids)
        # the acceptance grid of the stationary cross-check
        self.xcheck = [analytic.SystemParams(float(lam), m, eps)
                       for lam in np.arange(0.1, 2.01, 0.1)
                       for m in range(1, 51) for eps in self.epsilons]
        self.tail = [analytic.SystemParams(lam, m, TAIL_EPSILON)
                     for lam, m in TAIL_GRID]
        self.work = self.theory_rows + len(self.xcheck)

    def iterate(self):
        codes = [cli.main(["theory", "--lambda", self.lambda_grid, "--m", m_grid,
                           "--epsilon", repr(eps), "--out", str(path)])
                 for eps, path, m_grid in self.tables]
        matrices = np.array([analytic.transition_matrix(p) for p in self.xcheck])
        closed = np.array([analytic.stationary_closed_form(p).pi for p in self.xcheck])
        power = analytic.stationary_power_iteration(matrices, tol=1e-14).pi
        tail = np.array([analytic.outage_exact(p) for p in self.tail])
        return codes, closed, power, tail

    def finish(self, out):
        codes, closed, power, tail = out
        digest = hashlib.sha256()
        tables = [(eps, _read_table(path, digest)) for eps, path, _ in self.tables]
        for arr in (closed, power, tail):
            digest.update(arr.tobytes())
        rows = [(eps, r) for eps, table in tables for r in table]
        main = tables[self.epsilons.index(0.1) * len(self.m_grids)][1]
        by_lambda = {}
        for r in main:
            if r["m"] == "10":
                by_lambda[float(r["lambda"])] = float(r["throughput_exact"])
        peak = max(by_lambda, key=by_lambda.get)
        eta = {int(r["m"]): float(r["throughput_exact"]) for r in main
               if float(r["lambda"]) == 0.8}
        pi_err = max(abs(math.fsum(float(r[c]) for c in ("pi_0", "pi_1", "pi_S", "pi_U")) - 1)
                     for _, r in rows)
        worst = float(np.max(np.abs(closed - power)))
        rng = np.random.default_rng(self.seed)
        mismatched = 0
        for i in rng.choice(len(rows), self.spot_checks, replace=False):
            eps, r = rows[i]
            met = analytic.throughput_exact(
                analytic.SystemParams(float(r["lambda"]), int(r["m"]), eps))
            mismatched += (float(r["throughput_exact"]) != met.throughput
                           or float(r["outage_exact"]) != met.outage)
        checks = [
            Check("theory.exit_codes", codes == [0] * len(codes), f"{codes}"),
            Check("theory.row_count", len(rows) == self.theory_rows,
                  f"{len(rows)} rows, expected {self.theory_rows}"),
            Check("theory.pi_sums_to_one", pi_err < 1e-12, f"worst {pi_err:.2e}"),
            Check("theory.spot_rows_match_throughput_exact", mismatched == 0,
                  f"{mismatched}/{self.spot_checks} differ"),
            Check("theory.closed_form_vs_power_iteration", worst < 1e-10,
                  f"worst {worst:.2e} < 1e-10"),
            Check("theory.peak_lambda_at_m10", 0.6 <= peak <= 0.8, f"peak at {peak}"),
            Check("theory.dip_then_rise_at_lambda_0.8",
                  eta[1] > eta[5] and eta[30] > eta[5],
                  f"eta(1)={eta[1]:.4f} eta(5)={eta[5]:.4f} eta(30)={eta[30]:.4f}"),
        ]
        return digest.hexdigest(), checks


class SimThreshold:
    """`rara compare` over M = 1..30 at lambda = 0.8 under the threshold
    rule, plus one finite-population run."""

    name = "sim_threshold"
    item = "sessions"
    lam = 0.8
    m_grid = "1:30:1"
    sessions = 40_000
    population = 50
    population_m = 10
    # the acceptance test's 3-sigma rule, Bonferroni-widened to 30 rows
    z = float(special.ndtri(1 - 0.0027 / (2 * 30)))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "compare.csv"
        self.rows = len(cli.parse_grid(self.m_grid, int))
        self.finite = sim.SimConfig(
            analytic.SystemParams(self.lam, self.population_m),
            sim.FinitePopulation.from_traffic(self.lam, self.population),
            n_sessions=self.sessions, seed=seed)
        warmup = sim.DEFAULT_WARMUP
        self.work = (self.rows + 1) * (self.sessions + warmup)

    def iterate(self):
        code = cli.main(["compare", "--lambda", repr(self.lam), "--m", self.m_grid,
                         "--sessions", str(self.sessions), "--seed", str(self.seed),
                         "--out", str(self.path)])
        return code, sim.run(self.finite)

    def finish(self, out):
        code, finite = out
        digest = hashlib.sha256()
        rows = _read_table(self.path, digest)
        digest.update(repr(finite).encode())
        z_worst = max(
            float(r["abs_err_throughput"]) / max(self.z * float(r["stderr"]), 0.005)
            for r in rows)
        counts = finite.sessions_by_state
        checks = [
            Check("compare.exit_code", code == 0, f"{code}"),
            Check("compare.row_count", len(rows) == self.rows, f"{len(rows)} rows"),
            Check("compare.sessions_column",
                  all(int(r["sessions"]) == self.sessions for r in rows)),
            Check("compare.sim_vs_theory", z_worst < 1,
                  f"worst |err| / max({self.z:.2f} stderr, 0.005) = {z_worst:.3f}"),
            Check("finite.sessions_counted", sum(counts) == self.sessions, f"{counts}"),
            Check("finite.packets_conserved",
                  finite.packets_arrived == finite.packets_delivered + finite.packets_lost),
            Check("finite.throughput_in_range", 0 < finite.throughput_hat < 1,
                  f"{finite.throughput_hat:.4f}"),
        ]
        return digest.hexdigest(), checks


class SimPhy:
    """PHY-coupled `sim.run` beside a threshold run on the same seed, and
    the noiseless exact-recovery check of the decorrelator."""

    name = "sim_phy"
    item = "sessions"
    lam = 0.8
    m = 10
    snr_db = 40.0
    sessions = 4000
    channels = 1000

    def __init__(self, seed: int, workdir: Path):
        params = analytic.SystemParams(self.lam, self.m)
        common = dict(params=params, arrivals=sim.PoissonProcess(self.lam),
                      n_sessions=self.sessions, seed=seed)
        self.threshold = sim.SimConfig(**common)
        self.phy = sim.SimConfig(**common, success_rule=sim.PHY_COUPLED,
                                 snr_db=self.snr_db)
        rng = np.random.default_rng(seed)
        self.draws = []
        for _ in range(self.channels):
            k = int(rng.integers(1, 9))
            m = int(rng.integers(max(1, k - 1), 9))
            self.draws.append((k, m, int(rng.integers(0, 2**63)),
                               mpr.QPSK[rng.integers(0, 4, k)]))
        self.work = 2 * (self.sessions + sim.DEFAULT_WARMUP)

    def iterate(self):
        thr = sim.run(self.threshold)
        phy = sim.run(self.phy)
        worst = 0.0
        for k, m, chan_seed, symbols in self.draws:
            h = mpr.composite_matrix(mpr.generate_channels(k, m, chan_seed))
            res = mpr.decorrelate(h, h @ symbols)
            if res.success:
                worst = max(worst, float(np.max(np.abs(res.estimates - symbols))))
        try:
            mpr.decorrelate(np.ones((3, 4), dtype=complex), np.ones(3, dtype=complex))
            refused = False
        except mpr.UnderdeterminedError:
            refused = True
        return thr, phy, worst, refused

    def finish(self, out):
        thr, phy, worst, refused = out
        digest = hashlib.sha256()
        digest.update(repr((thr, phy, worst, refused)).encode())
        gap = abs(phy.throughput_hat - thr.throughput_hat)
        t, p = thr.sessions_by_state, phy.sessions_by_state
        checks = [
            Check("phy_sim.throughput_gap", gap < 0.01, f"{gap:.5f} < 0.01"),
            Check("phy_sim.same_session_sequence",
                  t[:2] == p[:2] and t[2] + t[3] == p[2] + p[3], f"{t} vs {p}"),
            Check("phy_sim.noiseless_recovery", worst < 1e-9, f"worst {worst:.1e}"),
            Check("phy_sim.underdetermined_refused", refused),
        ]
        return digest.hexdigest(), checks


class PhySer:
    """`rara phy`: batched symbol error rates for k = 1..M+1."""

    name = "phy_ser"
    item = "trials"
    m_grid = "1,2,4,8"
    snr_db = 20.0
    trials = 4000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "phy.csv"
        self.ms = cli.parse_grid(self.m_grid, int)
        self.rows = sum(m + 1 for m in self.ms)
        self.work = self.rows * self.trials

    def iterate(self):
        return cli.main(["phy", "--m", self.m_grid, "--snr-db", repr(self.snr_db),
                         "--sessions", str(self.trials), "--seed", str(self.seed),
                         "--out", str(self.path)])

    def finish(self, code):
        digest = hashlib.sha256()
        rows = _read_table(self.path, digest)
        ser = {}
        for r in rows:
            ser.setdefault(int(r["m"]), []).append((int(r["k"]), float(r["ser"])))
        # a fall in SER from k to k+1 is a failure only beyond three standard
        # errors of the two estimates (each over trials * k symbols)
        def fall(a, b):
            var = sum(s * (1 - s) / (self.trials * k) for k, s in (a, b))
            return a[1] - b[1] - 3 * math.sqrt(var)
        worst_fall = max(fall(a, b) for m in ser for a, b in zip(ser[m], ser[m][1:]))
        checks = [
            Check("phy.exit_code", code == 0, f"{code}"),
            Check("phy.row_count", len(rows) == self.rows, f"{len(rows)} rows"),
            Check("phy.trials_column", all(int(r["trials"]) == self.trials for r in rows)),
            Check("phy.ser_in_unit_interval",
                  all(0 <= s <= 1 for v in ser.values() for _, s in v)),
            Check("phy.ser_nondecreasing_in_k", worst_fall <= 0,
                  f"largest fall beyond 3 stderr: {worst_fall:.2e}"),
            Check("phy.full_load_row_positive",
                  all(v[-1][0] == m + 1 and v[-1][1] > 0 for m, v in ser.items())),
        ]
        return digest.hexdigest(), checks


WORKLOADS = {w.name: w for w in (TheoryGrid, SimThreshold, SimPhy, PhySer)}


# Deep-tail outage grid at epsilon = 0.1, where outage_exact's complement
# form loses relative precision.
TAIL_EPSILON = 0.1
TAIL_GRID = [(lam, m) for lam in (0.05, 0.1, 0.3, 0.8) for m in (5, 10, 20, 30, 40)]


def _log_pmf(k: int, mu: float) -> float:
    return k * math.log(mu) - mu - math.lgamma(k + 1)


def _upper_tail(n: int, mu: float) -> float:
    """P(X >= n) for X ~ Poisson(mu) with mu < n, summed upward from n.
    The terms fall at least geometrically, so the sum is accurate."""
    if not mu < n:
        raise ValueError(f"oracle needs mu < n, got mu={mu}, n={n}")
    terms = [math.exp(_log_pmf(n, mu))]
    k = n
    while terms[-1] > terms[0] * 1e-20:
        k += 1
        terms.append(terms[-1] * mu / k)
    return math.fsum(terms)


def outage_oracle(lam: float, m: int, epsilon: float) -> float:
    """Outage probability built without any code of ``rara.analytic``:
    transition rows from log-space pmf terms and upward tail sums, the
    stationary vector from a least-squares solve of pi (P - I) = 0, sum 1."""
    rows, tails = [], []
    for t in (epsilon, 1.0, m + 1.0, m + 1.0):
        mu = lam * t
        tail = _upper_tail(m + 2, mu)
        rows.append((math.exp(-mu), mu * math.exp(-mu),
                     math.fsum(math.exp(_log_pmf(k, mu)) for k in range(2, m + 2)),
                     tail))
        tails.append(tail)
    p = np.array(rows)
    a = np.vstack([(p - np.eye(4)).T, np.ones(4)])
    pi = np.linalg.lstsq(a, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    return math.fsum(w * tail for w, tail in zip(pi, tails))


def tail_digits() -> list[float]:
    """Correct decimal digits of ``outage_exact`` against the oracle at each
    deep-tail grid point: -log10(relative error), clipped to [0, 16]."""
    digits = []
    for lam, m in TAIL_GRID:
        exact = analytic.outage_exact(analytic.SystemParams(lam, m, TAIL_EPSILON))
        ref = outage_oracle(lam, m, TAIL_EPSILON)
        rel = abs(exact - ref) / ref
        digits.append(16.0 if rel == 0 else min(16.0, max(0.0, -math.log10(rel))))
    return digits
