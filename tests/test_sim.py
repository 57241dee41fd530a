import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rara import analytic as A
from rara import sim

PARAMS_DEFAULT = A.SystemParams(0.8, 10, 0.1)


class TestArrivalModels:
    def test_poisson_rejects_negative(self):
        # NaN and inf as well: they would fail only later, inside rng.poisson
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

    def test_from_traffic_matches_rate(self):
        fp = sim.FinitePopulation.from_traffic(0.8, 400)
        assert fp.n_devices * fp.p_active == pytest.approx(0.8, abs=1e-9)


class TestSampleArrivals:
    def test_zero_rate(self):
        rng = np.random.default_rng(0)
        assert sim.sample_arrivals(sim.PoissonProcess(0.0), 5.0, rng) == 0

    def test_rejects_nonpositive_duration(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sim.sample_arrivals(sim.PoissonProcess(0.8), 0.0, rng)
        with pytest.raises(ValueError):
            sim.sample_arrivals(sim.FinitePopulation(50, 0.01),
                                np.array([[0.1, 1.0], [-2.0, 2.0]]), rng)

    def test_poisson_moments(self):
        rng = np.random.default_rng(1)
        draws = sim.sample_arrivals(sim.PoissonProcess(0.8), np.ones(10**6), rng)
        # CLT: 3 sigma on the sample mean of Poisson(0.8)
        assert abs(draws.mean() - 0.8) < 3 * math.sqrt(0.8 / 10**6)

    def test_binomial_moments(self):
        model = sim.FinitePopulation(400, 0.002)
        rng = np.random.default_rng(2)
        draws = sim.sample_arrivals(model, np.ones(10**6), rng)
        mean = 400 * 0.002
        assert abs(draws.mean() - mean) < 3 * math.sqrt(mean / 10**6)
        # slightly sub-Poisson: var = n p (1-p)
        assert draws.var() == pytest.approx(mean * (1 - 0.002), rel=0.01)


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

    def test_rejects_mismatched_rate(self):
        # the walk draws at the process's rate, so params.lam would be ignored
        with pytest.raises(ValueError, match="arrival rate"):
            sim.SimConfig(A.SystemParams(0.8, 10), sim.PoissonProcess(0.5), 100)
        # n * p of a finite population need not equal lambda bit for bit:
        # here it is 0.8999999999999999
        sim.SimConfig(A.SystemParams(0.9, 10), sim.FinitePopulation.from_traffic(0.9, 10), 100)

    def test_block_chaining(self):
        # runs of 100 sessions are cut into 10 blocks, so ~9% of the pooled
        # one-step transitions cross a block boundary; each must follow the
        # lumped (Idle, Single, Long) transition matrix
        params = A.SystemParams(1.0, 1, 0.1)
        rng = np.random.default_rng(5)
        counts = np.zeros((3, 3))
        for _ in range(2000):
            cls = np.minimum(sim._walk(sim.PoissonProcess(1.0), params.durations[:3],
                                       100, rng), 2)
            np.add.at(counts, (cls[:-1], cls[1:]), 1)
        p = A.transition_matrix(params)[:3]
        p = np.column_stack([p[:, 0], p[:, 1], p[:, 2] + p[:, 3]])
        visits = counts.sum(axis=1, keepdims=True)
        z = (counts / visits - p) / np.sqrt(p * (1 - p) / visits)
        assert np.max(np.abs(z)) < 5

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
