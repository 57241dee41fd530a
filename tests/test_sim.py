import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

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
        # from_traffic divides by n, so it checks n first: not a
        # ZeroDivisionError or an OverflowError
        for n in (0, 10**400):
            with pytest.raises(ValueError, match="device count"):
                sim.FinitePopulation.from_traffic(0.8, n)
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
        def walk(model, n):
            """The sessions of each K, summed over the class before."""
            table = sim._cdf_table(model, durations)
            path = sim._walk([table], n, [rng], [1])[0]
            return sim._count(table, path, 1, 1, rng).sum(axis=0)

        assert walk(sim.PoissonProcess(0.0), 1000).tolist() == [1000, 0]
        assert walk(sim.FinitePopulation(30, 0.0), 1000).tolist() == [1000, 0]
        assert walk(sim.FinitePopulation(30, 1.0), 1000).tolist() == [0] * 30 + [1000]
        # M + 1 >= n: the table stops at k = n and every draw fits in it
        sessions = walk(sim.FinitePopulation(5, 0.5), 10_000)
        assert len(sessions) == 6 and sessions[5] > 0 and sessions.sum() == 10_000
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
        rng = np.random.default_rng(3)
        entry = sim._entry_class(table, rng)
        path = sim._walk([table], 200_000, [rng], [entry])[0]
        # each session counted after the class it was walked from
        table_counts = sim._count(table, path, entry, entry, rng)
        for c, counts in enumerate(table_counts):
            pmf = np.diff(table[c], prepend=0.0)
            assert len(counts) == len(pmf)  # every draw fits in the table
            seen = pmf > 1e-6
            expect = counts.sum() * pmf[seen]
            z = (counts[seen] - expect) / np.sqrt(expect * (1 - pmf[seen]))
            assert np.max(np.abs(z)) < 5
            assert counts[~seen].sum() <= 2


def _walk_by_session(model, durations, n_sessions, rng, entry):
    """The chain of :func:`sim._walk` stepped one session at a time: the
    same uniforms in the same block-major order, each K the row search of
    the class before it, the first session following class ``entry``."""
    table = sim._cdf_table(model, durations)
    size = math.isqrt(n_sessions)
    u = rng.random((size, -(-n_sessions // size))).T.ravel()[:n_sessions]
    k, c = [], entry
    for x in u:
        k.append(int(np.searchsorted(table[c], x, side="right")))
        c = min(k[-1], 2)
    return np.array(k)


# (law, params): both laws, no traffic, a row of ~7000 entries, and a
# population that fits in one Long session
WALK_CASES = {
    "poisson": (sim.PoissonProcess(0.8), A.SystemParams(0.8, 10, 0.1)),
    "finite": (sim.FinitePopulation.from_traffic(0.8, 50), A.SystemParams(0.8, 10, 0.1)),
    "zero-rate": (sim.PoissonProcess(0.0), A.SystemParams(0.0, 10, 0.1)),
    "long-row": (sim.PoissonProcess(2.0), A.SystemParams(2.0, 3200, 0.1)),
    "small-population": (sim.FinitePopulation(5, 0.5), A.SystemParams(2.5, 10, 0.1)),
}


class TestWalk:
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 10_007])
    @pytest.mark.parametrize("case", list(WALK_CASES))
    def test_matches_session_by_session_chain(self, case, n):
        # the class path is the class of each K of the session-by-session
        # chain, bit for bit; the values of n enter in all three classes
        model, params = WALK_CASES[case]
        durations = params.durations[:3]
        path = sim._walk([sim._cdf_table(model, durations)], n, [np.random.default_rng(n)],
                         [n % 3])[0]
        k = _walk_by_session(model, durations, n, np.random.default_rng(n), n % 3)
        assert path.dtype == np.int8 and np.array_equal(path, np.minimum(k, 2))

    @pytest.mark.parametrize("n", [1, 2, 37, 10_007])
    def test_lanes_match_one_chain_walks(self, n):
        # a chain's K do not depend on the chains walked beside it: no
        # traffic, a row of ~7000 entries and a small population side by side
        tables = [sim._cdf_table(model, params.durations[:3])
                  for model, params in WALK_CASES.values()]
        # the chains enter in classes 0, 1, 2, 0 and 1
        entries = [i % 3 for i in range(len(tables))]
        group = sim._walk(tables, n, [np.random.default_rng(i) for i in range(len(tables))],
                          entries)
        for i, table in enumerate(tables):
            alone = sim._walk([table], n, [np.random.default_rng(i)], [entries[i]])[0]
            assert group[i].dtype == alone.dtype and np.array_equal(group[i], alone)

    def test_memory_is_bounded(self):
        # one walk of 1,001,000 sessions, and a group of three chains that
        # fills the walk budget.  A walk keeps 8 B of uniforms beside 6 B of
        # int16 transitions and positions a session, and a chain's two
        # comparisons while it builds them; the uniforms are freed before the
        # classes are read.  The peak is near 16 B a session.  A walk that
        # keeps the transitions apart from the positions and a second,
        # session-order copy of the uniforms peaks near 27 B a session, so
        # the bound fails it
        durations = PARAMS_DEFAULT.durations[:3]
        for lams, sessions in (((0.8,), 1_001_000), ((0.8, 0.4, 1.2), sim._WALK_BUDGET // 3)):
            tables = [sim._cdf_table(sim.PoissonProcess(lam), durations) for lam in lams]
            tracemalloc.start()
            try:
                sim._walk(tables, sessions, [np.random.default_rng(i) for i in range(len(lams))],
                          [1] * len(lams))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 22 * len(lams) * sessions


class _Uniform:
    """A generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _entry_law(table):
    """The law over (Idle, Single, Long) of the class that
    :func:`sim._entry_class` draws from ``table``, read off the uniforms at
    which the class steps up: the least uniform of class c or more is found
    by bisection, to the last bit."""
    def draw(u):
        return sim._entry_class(table, _Uniform(u))

    steps = []
    for c in (1, 2):
        lo, hi = 0.0, 0.0 if draw(0.0) >= c else 1.0
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (lo, mid) if draw(mid) >= c else (mid, hi)
        steps.append(hi)
    return np.diff(steps, prepend=0.0, append=1.0)


# a generator's uniforms are multiples of 2**-53, so a law read off them is
# resolved to about that
LAW_ATOL = 2.0**-50


class TestEntry:
    # (lambda, M, epsilon): slow and fast mixing, no traffic, and chains
    # that are almost always Idle or almost always Long
    @pytest.mark.parametrize("lam, m, eps", [
        (0.05, 400, 0.1), (0.8, 10, 0.1), (0.0, 10, 0.1), (0.2, 50, 0.1), (1.2, 5, 0.1),
        (0.01, 10, 0.05), (0.01, 3200, 0.05), (2.0, 3200, 0.5)])
    def test_law_is_the_closed_form(self, lam, m, eps):
        # the entry law, read off the walk's table, is theory's lumped
        # stationary law; the table's 1 - F_c(1) cancels to about 2e-10
        # relative at the rarest class here, the closed form's tail does not
        params = A.SystemParams(lam, m, eps)
        law = _entry_law(sim.SimConfig(params, sim.PoissonProcess(lam), 1)._table)
        pi = A.stationary_closed_form(params).pi
        np.testing.assert_allclose(law, [pi[0], pi[1], pi[2] + pi[3]], rtol=1e-9, atol=LAW_ATOL)

    def test_law_of_a_finite_population(self):
        # the left eigenvector of eigenvalue 1 of the table's class chain
        table = sim._cdf_table(sim.FinitePopulation(20, 0.05), A.SystemParams(1.0, 3).durations[:3])
        q = np.stack([table[:, 0], table[:, 1] - table[:, 0], 1 - table[:, 1]], axis=1)
        values, vectors = np.linalg.eig(q.T)
        v = np.real(vectors[:, np.argmin(np.abs(values - 1))])
        np.testing.assert_allclose(_entry_law(table), v / v.sum(), rtol=1e-12, atol=LAW_ATOL)

    @pytest.mark.parametrize("u", [0.0, 0.5, 1 - 2**-53])
    def test_closed_classes(self, u):
        # at lambda = 1e-17, M = 10**20, epsilon = 1 the table rounds Idle and
        # Long closed and every tree weight to 0: the chain enters in Long,
        # where theory puts it (pi_S = 1), with no 0 / 0.  With no traffic
        # it enters in Idle
        locked = sim.SimConfig(A.SystemParams(1e-17, 10**20, 1.0), sim.PoissonProcess(1e-17), 1)
        idle = sim.SimConfig(A.SystemParams(0.0, 10), sim.PoissonProcess(0.0), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sim._entry_class(locked._table, _Uniform(u)) == 2
            assert sim._entry_class(idle._table, _Uniform(u)) == 0
        assert _entry_law(locked._table).tolist() == [0.0, 0.0, 1.0]
        assert _entry_law(idle._table).tolist() == [1.0, 0.0, 0.0]

    def test_slow_mixing_mean_length_is_unbiased(self):
        # at (0.05, 400), where the class chain relaxes over ~5e4 sessions, a
        # chain that entered after a Single and dropped 1000 sessions read a
        # mean session length of 123 over these seeds against the exact 400.1.
        # Nearly every run enters in Long and stays there, reading exactly
        # M + 1 = 401; the spread comes from the few (about 0.2 %) that enter
        # in Idle or Single.  A set of 200 seeds with none of those has no
        # spread and reads 401, 0.9 above the exact, so the bound is at
        # least 1 % of it
        params = A.SystemParams(0.05, 400, 0.1)
        hats = [sim.run(sim.SimConfig(params, sim.PoissonProcess(0.05), 40_000, seed=seed))
                .mean_session_length_hat for seed in range(200)]
        exact = A.throughput_exact(params).mean_session_length
        stderr = np.std(hats, ddof=1) / math.sqrt(len(hats))
        assert abs(np.mean(hats) - exact) < max(4 * stderr, 0.01 * exact)


class TestRun:
    def test_zero_rate_all_idle(self):
        cfg = sim.SimConfig(A.SystemParams(0.0, 10, 0.1),
                            sim.PoissonProcess(0.0), 1000, seed=3)
        rep = sim.run(cfg)
        assert rep.sessions_by_state == (1000, 0, 0, 0)
        assert rep.throughput_hat == 0.0
        assert rep.total_time == pytest.approx(1000 * 0.1)

    @pytest.mark.parametrize("n", [1, 37, 1000, 41_000])
    def test_group_matches_runs_alone(self, n):
        # each report of a grouped run is its config's run alone, bit for bit:
        # no traffic, both laws, both rules, and rows of up to ~3000 entries.
        # Each chain is counted on its own, in a table as wide as its own law
        cases = [(0.0, 10, 0.1, None, None), (0.3, 1, 0.5, 60, None),
                 (1.5, 30, 0.9, None, None), (0.8, 4, 0.1, None, 5.0),
                 (3.0, 100, 0.2, 400, None), (0.8, 3200, 0.05, None, None),
                 (1.2, 6, 0.3, 60, 10.0)]
        configs = [sim.SimConfig(
            A.SystemParams(lam, m, eps),
            sim.PoissonProcess(lam) if devices is None
            else sim.FinitePopulation.from_traffic(lam, devices),
            n, seed=seed, success_rule=sim.THRESHOLD if snr_db is None else sim.PHY_COUPLED,
            snr_db=snr_db) for seed, (lam, m, eps, devices, snr_db) in enumerate(cases)]
        alone = [repr(sim.run(config)) for config in configs]  # repr: NaN equals NaN
        assert [repr(rep) for rep in sim._run_group(configs)] == alone
        assert [repr(rep) for rep in sim._run_group(configs[::-1])] == alone[::-1]
        assert [repr(rep) for rep in sim._run_group(configs[:3])] == alone[:3]

    def test_group_refuses_mixed_session_counts(self):
        # one walk gives every chain of a group the same number of sessions
        configs = [sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n, seed=1)
                   for n in (100, 100, 101)]
        with pytest.raises(ValueError, match="one session count"):
            sim._run_group(configs)

    def test_determinism(self):
        cfg = sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 20_000, seed=42)
        assert sim.run(cfg) == sim.run(cfg)

    @pytest.mark.parametrize("cfg, counts", [
        (sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 20_000, seed=42),
         ((867, 164, 15598, 3371), 166784, 121492)),
        (sim.SimConfig(PARAMS_DEFAULT, sim.FinitePopulation.from_traffic(0.8, 50),
                       20_000, seed=7),
         ((745, 147, 17196, 1912), 155213, 130368)),
        (sim.SimConfig(A.SystemParams(0.8, 4, 0.1), sim.PoissonProcess(0.8), 3000,
                       seed=11, success_rule=sim.PHY_COUPLED, snr_db=10.0),
         ((1955, 304, 478, 263), 3373, 1792)),
    ], ids=["poisson", "finite", "phy"])
    def test_seeded_counts_are_pinned(self, cfg, counts):
        # seeded runs give the same integers on every commit, not only
        # twice within one: a faster walk must not change the stream
        rep = sim.run(cfg)
        assert (rep.sessions_by_state, rep.packets_arrived, rep.packets_delivered) == counts

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
        # the threshold rule never reads an SNR, so one given is refused
        with pytest.raises(ValueError, match="snr_db"):
            sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 100, snr_db=20.0)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown success rule 'zf'"):
            sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), 100, success_rule="zf")

    def test_rejects_fractional_counts(self):
        # a fractional or NaN count would otherwise fail later, inside math.isqrt
        for n in (2.5, math.nan):
            with pytest.raises(ValueError):
                sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n)
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
        # class must follow that class's arrival law (K >= 5 pooled).  Each
        # session is counted after the class it was walked from, the first
        # after its entry class
        durations = A.SystemParams(1.0, 1, 0.1).durations[:3]
        # the lumped (Idle, Single, Long) rows of the analytic chain
        lumped = A.transition_matrix(A.SystemParams(1.0, 1, 0.1))[:3]
        for model in LAWS:
            rng = np.random.default_rng(5)
            table = sim._cdf_table(model, durations)
            counts = np.zeros((3, 6))
            for _ in range(2000):
                entry = sim._entry_class(table, rng)
                path = sim._walk([table], 100, [rng], [entry])[0]
                run = sim._count(table, path, entry, entry, rng)
                counts += np.column_stack((run[:, :5], run[:, 5:].sum(axis=1)))
            p = np.array([_law_pmf(model, t, np.arange(6)) for t in durations])
            p[:, 5] = 1 - p[:, :5].sum(axis=1)
            if isinstance(model, sim.PoissonProcess):
                assert np.allclose(p[:, :2], lumped[:, :2], rtol=1e-12)
            visits = counts.sum(axis=1, keepdims=True)
            z = (counts / visits - p) / np.sqrt(p * (1 - p) / visits)
            assert np.max(np.abs(z)) < 5

    def test_first_session_follows_its_entry_class(self):
        # session 0 is counted after the run's last session, but its K is
        # drawn after its entry class.  A run of one session is its own last
        # session, so a Long one read after the cyclic class would draw
        # from the Long row.  At (1.0, 4, 1) Idle and Single last 1 unit and
        # Long 5, so the K of a Long session after an Idle or Single entry
        # has the mean E[X | X >= 2] = 2.39 of X ~ Poisson(1); after Long
        # it would be 5.18
        params = A.SystemParams(1.0, 4, 1.0)
        ks = []
        for seed in range(2500):
            cfg = sim.SimConfig(params, sim.PoissonProcess(1.0), 1, seed=seed)
            arr_ss, _ = np.random.SeedSequence(seed).spawn(2)
            k = sim.run(cfg).packets_arrived
            if sim._entry_class(cfg._table, np.random.default_rng(arr_ss)) < 2 and k >= 2:
                ks.append(k)
        x = stats.poisson(1.0)
        mean = (x.mean() - x.pmf(1)) / x.sf(1)
        var = (x.moment(2) - x.pmf(1)) / x.sf(1) - mean**2
        assert len(ks) > 50
        assert abs(np.mean(ks) - mean) < 4 * math.sqrt(var / len(ks))

    def test_wide_law_memory_follows_the_sessions(self):
        # 500 sessions of a law whose table is 102 736 columns wide: the
        # estimator works on the columns of the K the run visits.  Float
        # work over every column of the table peaked at 14 MB
        cfg = sim.SimConfig(A.SystemParams(100.0, 1000, 0.05), sim.PoissonProcess(100.0), 500)
        tracemalloc.start()
        try:
            sim.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6

    @pytest.mark.parametrize("n", [1, 37, 10_007])
    def test_stderr_is_the_lagged_autocovariance_sum(self, n):
        # the errors of run are the plug-in Markov-reward variance of the run
        # read as a cycle, rebuilt here from the walk's own generator: the
        # run's (class of the session before, K) table, read as a cycle, is
        # taken as a K chain over the table's whole width, and f's
        # autocovariances on that chain are summed lag by lag, in place of
        # the fundamental matrix
        cfg = sim.SimConfig(PARAMS_DEFAULT, sim.PoissonProcess(0.8), n, seed=4)
        rep = sim.run(cfg)
        arr_ss, _ = np.random.SeedSequence(4).spawn(2)
        rng, table = np.random.default_rng(arr_ss), cfg._table
        entry = sim._entry_class(table, rng)
        path = sim._walk([table], n, [rng], [entry])[0]
        moves = sim._count(table, path, entry, path[-1], rng)  # (class of the K before, K)
        ks = np.arange(moves.shape[1])
        kind = np.minimum(ks, 2)
        step = moves[kind] / np.maximum(moves.sum(axis=1), 1)[kind, None]
        share = moves.sum(axis=0) / n  # the run's share of sessions of each K
        lost = ks > PARAMS_DEFAULT.m_relays + 1
        length = np.array(PARAMS_DEFAULT.durations)[kind]
        oracle = []
        for y, l, r, den in ((np.where(lost, 0, ks), length, rep.throughput_hat, rep.total_time),
                             (lost * 1.0, 1.0, rep.outage_hat, n),
                             (length, 1.0, rep.mean_session_length_hat, n)):
            f = y - r * l
            var, lag = share @ (f * f), f
            for _ in range(5000):  # the chain forgets its start within ~40 sessions
                lag = step @ lag
                var += 2 * share @ (f * lag)
            oracle.append(math.sqrt(n * var) / den if n > 1 else math.nan)
        got = [rep.stderr_throughput, rep.stderr_outage, rep.stderr_mean_length]
        assert got == pytest.approx(oracle, rel=1e-12, nan_ok=True)

    @pytest.mark.parametrize("lam, m, outage", [
        (0.8, 10, True), (1.2, 5, True), (1.0, 1, True), (0.2, 50, False)])
    def test_stderr_is_calibrated(self, lam, m, outage):
        # over 200 seeds the z of each estimate against theory has an sd near
        # 1.  At (0.2, 50) the class chain relaxes over ~1000 sessions and
        # batch means of 400 sessions read a throughput z-sd of 0.12; no
        # outage occurs there in 40,000 sessions, so only the throughput is
        # checked
        params = A.SystemParams(lam, m, 0.1)
        configs = [sim.SimConfig(params, sim.PoissonProcess(lam), 40_000, seed=seed)
                   for seed in range(200)]
        reps = [rep for i in range(0, len(configs), 3) for rep in sim._run_group(configs[i:i + 3])]
        exact = A.throughput_exact(params)
        pairs = [("throughput_hat", "stderr_throughput", exact.throughput)]
        if outage:
            pairs.append(("outage_hat", "stderr_outage", exact.outage))
        for hat, stderr, value in pairs:
            z = [(getattr(rep, hat) - value) / getattr(rep, stderr) for rep in reps]
            assert 0.8 <= np.std(z, ddof=1) <= 1.2, hat

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_runs_have_finite_stderr(self, n):
        # a variance that is exactly 0 can round below 0, and math.sqrt of it
        # raises: at (0.8, 10, 0.1), seed 196, two sessions compute a mean-length
        # variance of -2.5e-17
        for params, model in ((PARAMS_DEFAULT, sim.PoissonProcess(0.8)),
                              (A.SystemParams(1.0, 1, 0.1), sim.PoissonProcess(1.0)),
                              (A.SystemParams(0.2, 50, 0.3), sim.PoissonProcess(0.2)),
                              (PARAMS_DEFAULT, sim.FinitePopulation.from_traffic(0.8, 20))):
            for seed in range(200):
                rep = sim.run(sim.SimConfig(params, model, n, seed=seed))
                for stderr in (rep.stderr_throughput, rep.stderr_outage,
                               rep.stderr_mean_length):
                    assert math.isfinite(stderr) and stderr >= 0

    @pytest.mark.parametrize("n, eps", [(37, 0.3), (5000, 0.1)])
    def test_equal_batch_ratios_have_zero_stderr(self, n, eps):
        # with no traffic every session is Idle, so every centred reward is 0
        # (at these sizes n * eps / n is eps to the bit) and so is every
        # plug-in variance
        rep = sim.run(sim.SimConfig(A.SystemParams(0.0, 10, eps), sim.PoissonProcess(0.0), n))
        assert (rep.stderr_throughput, rep.stderr_outage, rep.stderr_mean_length) == (0, 0, 0)

    @pytest.mark.parametrize("model", LAWS, ids=["poisson", "finite"])
    def test_one_table_per_point(self, model, monkeypatch):
        # the law is tabulated when the config is built, and the walk reads
        # that table: a second tabulation per point is waste
        calls, cdf_table = [], sim._cdf_table
        monkeypatch.setattr(sim, "_cdf_table", lambda *a: calls.append(a) or cdf_table(*a))
        config = sim.SimConfig(A.SystemParams(1.0, 3, 0.1), model, 1000, seed=1)
        sim.run(config)
        assert len(calls) == 1
        with pytest.raises(ValueError):  # the kept table is as frozen as its config
            config._table[0, 0] = 0.5

    # (lambda, M, epsilon, sessions, seed); a per-session float sum of the
    # lengths is 2.02 ulp off the exact total in the first case, 1.88 in
    # the second and 1.63 in the third
    @pytest.mark.parametrize("lam, m, eps, n, seed", [
        (0.3, 4, 0.07, 1000, 0), (0.3, 4, 0.07, 200_000, 0), (1.2, 1, 0.1, 1000, 1),
        (0.8, 10, 0.1, 37_000, 1), (0.0, 10, 0.3, 5000, 2), (1.5, 30, 0.9, 1, 3),
    ])
    def test_total_time_is_exact(self, lam, m, eps, n, seed):
        params = A.SystemParams(lam, m, eps)
        rep = sim.run(sim.SimConfig(params, sim.PoissonProcess(lam), n, seed=seed))
        exact = sum(Fraction(c) * Fraction(t)
                    for c, t in zip(rep.sessions_by_state, params.durations))
        assert abs(Fraction(rep.total_time) - exact) <= Fraction(math.ulp(float(exact)))

    def test_phy_losses_are_the_unsuccessful_sessions_packets(self, monkeypatch):
        # a decoder that fails every collision of even K: the lost packets
        # are those of K > M+1 and of even K, read off the run's own table
        def symbol_errors(k, m, snr_db, trials, rng):
            return np.full((trials, k), k % 2 == 0)

        monkeypatch.setattr(sim.mpr, "symbol_errors", symbol_errors)
        params = A.SystemParams(1.0, 6, 0.1)
        cfg = sim.SimConfig(params, sim.PoissonProcess(1.0), 5000, seed=8,
                            success_rule=sim.PHY_COUPLED, snr_db=10.0)
        rep = sim.run(cfg)
        arr_ss, _ = np.random.SeedSequence(8).spawn(2)
        rng, table = np.random.default_rng(arr_ss), cfg._table
        entry = sim._entry_class(table, rng)
        path = sim._walk([table], 5000, [rng], [entry])[0]
        sessions = sim._count(table, path, entry, path[-1], rng).sum(axis=0)
        k = np.arange(len(sessions))
        lost = (k > params.m_relays + 1) | ((k >= 2) & (k % 2 == 0))
        assert rep.sessions_by_state[3] == sessions[lost].sum() > 0
        assert (rep.packets_lost, rep.packets_delivered) == (
            (k * sessions)[lost].sum(), (k * sessions)[~lost].sum())

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
                            n, seed=seed, success_rule=rule, snr_db=snr_db)
        rep = sim.run(cfg)
        n0, n1, ns, nu = rep.sessions_by_state
        assert n0 + n1 + ns + nu == n
        assert rep.packets_delivered + rep.packets_lost == rep.packets_arrived
        assert rep.total_time == pytest.approx(
            eps * n0 + n1 + (m + 1) * (ns + nu), abs=1e-9)
        assert rep.outage_hat == nu / n
        if rule == sim.PHY_COUPLED:
            # decoding only turns decodable collisions into outages
            thr = sim.run(dataclasses.replace(cfg, success_rule=sim.THRESHOLD,
                                              snr_db=None))
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
