import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from rara import analytic as A
from rara import sim

PARAMS_DEFAULT = A.SystemParams(0.8, 10, 0.1)


class TestArrivalModels:
    def test_poisson_rejects_negative(self):
        # NaN and inf as well: their arrival tables would never reach 1.0
        for lam in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.PoissonProcess(lam)

    def test_finite_population_validation(self):
        with pytest.raises(ValueError):
            sim.FinitePopulation(0, 0.1)
        with pytest.raises(ValueError):
            sim.FinitePopulation(10, 1.5)
        # numpy's binomial would silently draw with n = 2
        with pytest.raises(ValueError):
            sim.FinitePopulation(2.5, 0.1)
        # float(n) would overflow in cdf; past 2**63, n - k used to overflow int64
        with pytest.raises(ValueError, match="device count"):
            sim.FinitePopulation(10**400, 0.1)
        sim.check_arrivals(sim.FinitePopulation(10**30, 1e-30), 10)
        durations = A.SystemParams(1.0, 10).durations[:3]
        table = sim._cdf_table(sim.FinitePopulation(10**30, 1e-30), durations)
        k = np.arange(table.shape[1])
        for row, t in zip(table, durations):
            # a binomial of mean t this large is Poisson(t) to within 1e-29
            np.testing.assert_allclose(row, special.pdtr(k, t), rtol=0, atol=1e-15)

    def test_from_traffic_matches_rate(self):
        fp = sim.FinitePopulation.from_traffic(0.8, 400)
        assert fp.n_devices * fp.p_active == pytest.approx(0.8, abs=1e-9)


def _law_pmf(model, duration, k):
    """P(K = k) over ``duration`` from scipy.stats, not from the tables."""
    if isinstance(model, sim.PoissonProcess):
        return stats.poisson.pmf(k, model.lam * duration)
    p = 1.0 - (1.0 - model.p_active) ** duration
    return stats.binom.pmf(k, model.n_devices, p)


LAWS = [sim.PoissonProcess(1.0), sim.FinitePopulation(20, 0.05)]


class TestCdfTable:
    def test_rows_match_scipy(self):
        durations = A.SystemParams(2.0, 3200).durations[:3]
        table = sim._cdf_table(sim.PoissonProcess(2.0), durations)
        k = np.arange(table.shape[1])
        for row, t in zip(table, durations):
            assert np.array_equal(row, special.pdtr(k, 2.0 * t))
        # checked, not assumed: no u < 1 can run off the end
        assert np.all(table[:, -1] == 1.0) and not np.all(table[:, -2] == 1.0)
        assert np.all(np.diff(table, axis=1) >= 0)
        for n, p_a, m in ((400, 0.002, 10), (20, 0.05, 30)):
            durations = A.SystemParams(n * p_a, m).durations[:3]
            table = sim._cdf_table(sim.FinitePopulation(n, p_a), durations)
            assert table.shape[1] <= n + 1
            k = np.arange(table.shape[1])
            for row, t in zip(table, durations):
                p_t = -np.expm1(t * np.log1p(-p_a))
                # stats.binom.cdf is the oracle; bdtr is off by up to 2e-10 at large n
                np.testing.assert_allclose(row, stats.binom.cdf(k, n, p_t), rtol=0, atol=1e-13)
                assert p_t == pytest.approx(1 - (1 - p_a) ** t, rel=1e-12)
            assert np.all(table[:, -1] == 1.0)

    def test_edge_cases(self):
        rng = np.random.default_rng(0)
        durations = A.SystemParams(0.8, 10).durations[:3]
        assert not sim._walk(sim.PoissonProcess(0.0), durations, 1000, rng).any()
        assert not sim._walk(sim.FinitePopulation(30, 0.0), durations, 1000, rng).any()
        assert np.all(sim._walk(sim.FinitePopulation(30, 1.0), durations, 1000, rng) == 30)
        # M + 1 >= n: the table stops at k = n and every draw fits in it
        k = sim._walk(sim.FinitePopulation(5, 0.5), durations, 10_000, rng)
        assert k.max() == 5 and k.min() >= 0
        assert sim._cdf_table(sim.FinitePopulation(5, 0.5), durations).shape[1] == 6

    def test_rejects_untabulable_laws(self):
        # a Poisson table would need ~2e7 entries per row and is refused; a
        # binomial one reaches 1.0 near its mean, so n past the cap still runs
        with pytest.raises(ValueError, match="tabulates"):
            sim.SimConfig(A.SystemParams(1e7, 1), sim.PoissonProcess(1e7), 100)
        sim.SimConfig(A.SystemParams(0.8, 1),
                      sim.FinitePopulation.from_traffic(0.8, sim.MAX_ARRIVALS + 1), 100)

    @pytest.mark.parametrize("model", LAWS, ids=["poisson", "finite"])
    def test_conditional_pmf(self, model):
        # the K histogram after each class matches its table row's pmf
        durations = A.SystemParams(1.0, 3).durations[:3]
        table = sim._cdf_table(model, durations)
        k = sim._walk(model, durations, 200_000, np.random.default_rng(3))
        before = np.minimum(np.concatenate([[1], k[:-1]]), 2)
        for c in range(3):
            after = k[before == c]
            pmf = np.diff(table[c], prepend=0.0)
            counts = np.bincount(after, minlength=len(pmf))
            assert len(counts) == len(pmf)  # every draw fits in the table
            seen = pmf > 1e-6
            expect = len(after) * pmf[seen]
            z = (counts[seen] - expect) / np.sqrt(expect * (1 - pmf[seen]))
            assert np.max(np.abs(z)) < 5
            assert counts[~seen].sum() <= 2


class TestRun:
    def test_zero_rate_all_idle(self):
        cfg = sim.SimConfig(A.SystemParams(0.0, 10, 0.1),
                            sim.PoissonProcess(0.0), 1000, seed=3)
        rep = sim.run(cfg)
        assert rep.sessions_by_state == (1000, 0, 0, 0)
        assert rep.throughput_hat == 0.0
        assert rep.total_time == pytest.approx(1000 * 0.1)

    def test_determinism(self):
        cfg = sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 20_000, seed=42)
        assert sim.run(cfg) == sim.run(cfg)

    def test_agrees_with_theory(self):
        cfg = sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 10**6, seed=42)
        rep = sim.run(cfg)
        met = A.throughput_exact(PARAMS_DEFAULT)
        assert abs(rep.throughput_hat - met.throughput) < max(
            3 * rep.stderr_throughput, 0.005)
        assert abs(rep.outage_hat - met.outage) < 3 * rep.stderr_outage

    def test_phy_rule_requires_snr(self):
        # NaN and -inf would make nearly every collision an outage
        for snr_db in (None, math.nan, -math.inf, -4000.0):
            with pytest.raises(ValueError):
                sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 100,
                              success_rule=sim.PHY_COUPLED, snr_db=snr_db)

    def test_rejects_fractional_counts(self):
        # both would otherwise fail later, inside math.isqrt
        for n, warmup in ((2.5, 10), (100, 10.5), (math.nan, 10)):
            with pytest.raises(ValueError):
                sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n,
                              warmup_sessions=warmup)
        # numpy's SeedSequence would refuse these only inside run
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 100, seed=seed)
        # bools are not counts: True would run one session, False seed 0
        with pytest.raises(ValueError, match="session count"):
            sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n_sessions=True, seed=False)
        with pytest.raises(ValueError, match="seed"):
            sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 100, seed=False)

    def test_rejects_mismatched_rate(self):
        # the walk draws at the process's rate, so params.lam would be ignored
        with pytest.raises(ValueError, match="arrival rate"):
            sim.SimConfig(A.SystemParams(0.8, 10), sim.PoissonProcess(0.5), 100)
        # n * p of a finite population need not equal lambda bit for bit:
        # here it is 0.8999999999999999
        sim.SimConfig(A.SystemParams(0.9, 10), sim.FinitePopulation.from_traffic(0.9, 10), 100)

    def test_block_chaining(self):
        # runs of 100 sessions are cut into 10 blocks, so ~9% of the pooled
        # one-step transitions cross a block boundary; the K after each
        # class must follow that class's arrival law (K >= 5 pooled)
        durations = A.SystemParams(1.0, 1, 0.1).durations[:3]
        # the lumped (Idle, Single, Long) rows of the analytic chain
        lumped = A.transition_matrix(A.SystemParams(1.0, 1, 0.1))[:3]
        for model in LAWS:
            rng = np.random.default_rng(5)
            counts = np.zeros((3, 6))
            for _ in range(2000):
                k = sim._walk(model, durations, 100, rng)
                np.add.at(counts, (np.minimum(k[:-1], 2), np.minimum(k[1:], 5)), 1)
            p = np.array([_law_pmf(model, t, np.arange(6)) for t in durations])
            p[:, 5] = 1 - p[:, :5].sum(axis=1)
            if isinstance(model, sim.PoissonProcess):
                assert np.allclose(p[:, :2], lumped[:, :2], rtol=1e-12)
            visits = counts.sum(axis=1, keepdims=True)
            z = (counts / visits - p) / np.sqrt(p * (1 - p) / visits)
            assert np.max(np.abs(z)) < 5

    @pytest.mark.parametrize("n", [1, 37, 10_007])
    def test_batch_means_match_array_split(self, n):
        # the batches of run are those of np.array_split over the counted
        # sessions, rebuilt here from the walk's own generator
        cfg = sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n, seed=4)
        rep = sim.run(cfg)
        arr_ss, _ = np.random.SeedSequence(4).spawn(2)
        k = sim._walk(cfg.arrivals, PARAMS_DEFAULT.durations[:3],
                      cfg.warmup_sessions + n, np.random.default_rng(arr_ss))
        k = k[cfg.warmup_sessions:]
        states = np.minimum(k, 2)
        states[k > PARAMS_DEFAULT.m_relays + 1] = 3
        delivered = np.where(states == 3, 0, k)
        lengths = np.array(PARAMS_DEFAULT.durations)[states]
        batches = min(100, n)
        d, t, u, m = (np.array([f(b) for b in np.array_split(x, batches)], dtype=float)
                      for f, x in ((np.sum, delivered), (np.sum, lengths),
                                   (lambda b: np.count_nonzero(b == 3), states),
                                   (len, states)))
        oracle = [np.std(v, ddof=1) / math.sqrt(batches) if batches > 1 else math.nan
                  for v in (d / t, u / m, t / m)]
        got = [rep.stderr_throughput, rep.stderr_outage, rep.stderr_mean_length]
        assert got == pytest.approx(oracle, rel=1e-12, nan_ok=True)

    def test_phy_rule_matches_threshold_at_high_snr(self):
        common = dict(params=PARAMS_DEFAULT, arrivals=sim.PoissonProcess(0.8),
                      n_sessions=30_000, seed=11)
        thr = sim.run(sim.SimConfig(**common))
        phy = sim.run(sim.SimConfig(**common, success_rule=sim.PHY_COUPLED,
                                    snr_db=40.0))
        assert abs(phy.throughput_hat - thr.throughput_hat) < 0.01

    def test_finite_population_approaches_poisson(self):
        n = 40 * 10
        common = dict(params=PARAMS_DEFAULT, n_sessions=10**6)
        poisson = sim.run(sim.SimConfig(arrivals=sim.PoissonProcess(0.8),
                                        seed=7, **common))
        finite = sim.run(sim.SimConfig(
            arrivals=sim.FinitePopulation.from_traffic(0.8, n), seed=7, **common))
        assert abs(finite.throughput_hat - poisson.throughput_hat) < 0.01

    @given(lam=st.floats(0.0, 2.0), m=st.integers(1, 20),
           eps=st.floats(0.05, 1.0), n=st.integers(1, 400),
           seed=st.integers(0, 2**31),
           snr_db=st.sampled_from([None, -10.0, 0.0, 10.0, 40.0]))
    @settings(max_examples=60, deadline=None)
    def test_accounting_invariants(self, lam, m, eps, n, seed, snr_db):
        # snr_db None is the threshold rule; low SNRs make PHY decodes fail
        rule = sim.THRESHOLD if snr_db is None else sim.PHY_COUPLED
        cfg = sim.SimConfig(A.SystemParams(lam, m, eps), sim.PoissonProcess(lam),
                            n, seed=seed, success_rule=rule, snr_db=snr_db,
                            warmup_sessions=10)
        rep = sim.run(cfg)
        n0, n1, ns, nu = rep.sessions_by_state
        assert n0 + n1 + ns + nu == n
        assert rep.packets_delivered + rep.packets_lost == rep.packets_arrived
        assert rep.total_time == pytest.approx(
            eps * n0 + n1 + (m + 1) * (ns + nu), abs=1e-9)
        assert rep.outage_hat == nu / n
        if rule == sim.PHY_COUPLED:
            # decoding only turns decodable collisions into outages
            thr = sim.run(dataclasses.replace(cfg, success_rule=sim.THRESHOLD))
            t0, t1, ts, tu = thr.sessions_by_state
            assert (n0, n1, ns + nu) == (t0, t1, ts + tu) and ns <= ts
            assert rep.packets_arrived == thr.packets_arrived

    @pytest.mark.slow
    @pytest.mark.parametrize("lam", [0.4, 0.8, 1.2])
    @pytest.mark.parametrize("m", [1, 5, 10, 30])
    def test_grid_agreement_with_theory(self, lam, m):
        params = A.SystemParams(lam, m, 0.1)
        rep = sim.run(sim.SimConfig(params, sim.PoissonProcess(lam), 10**6,
                                    seed=2024 + m))
        met = A.throughput_exact(params)
        assert abs(rep.throughput_hat - met.throughput) < max(
            3 * rep.stderr_throughput, 0.005)
        assert abs(rep.outage_hat - met.outage) < max(
            3 * rep.stderr_outage, 0.005)
        assert abs(rep.mean_session_length_hat - met.mean_session_length) < max(
            3 * rep.stderr_mean_length, 0.005 * met.mean_session_length)


class TestSweep:
    def test_derive_seeds_deterministic(self):
        assert sim.derive_seeds(0, 5) == sim.derive_seeds(0, 5)
        assert len(set(sim.derive_seeds(0, 100))) == 100

    def test_m_sweep_dips_then_rises(self):
        seeds = sim.derive_seeds(99, 30)
        configs = [sim.SimConfig(A.SystemParams(0.8, m, 0.1),
                                 sim.PoissonProcess(0.8), 200_000, seed=s)
                   for m, s in zip(range(1, 31), seeds)]
        eta = [sim.run(c).throughput_hat for c in configs]
        assert eta[0] > eta[4]       # M=1 above M=5
        assert eta[29] > eta[4]      # M=30 above M=5

    def test_lambda_sweep_peaks_mid_load(self):
        lams = [round(0.1 * i, 1) for i in range(1, 16)]
        seeds = sim.derive_seeds(7, len(lams))
        configs = [sim.SimConfig(A.SystemParams(lam, 10, 0.1),
                                 sim.PoissonProcess(lam), 200_000, seed=s)
                   for lam, s in zip(lams, seeds)]
        eta = [sim.run(c).throughput_hat for c in configs]
        assert 0.6 <= lams[int(np.argmax(eta))] <= 0.8
