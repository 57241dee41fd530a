import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from rara import analytic as A

PARAMS_DEFAULT = A.SystemParams(0.8, 10, 0.1)

params_st = st.builds(
    A.SystemParams,
    lam=st.floats(0.0, 2.0),
    m_relays=st.integers(1, 50),
    epsilon=st.floats(0.05, 1.0),
)


class TestSystemParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            A.SystemParams(-0.1, 10, 0.1)
        with pytest.raises(ValueError):
            A.SystemParams(0.8, 0, 0.1)
        with pytest.raises(ValueError):
            A.SystemParams(0.8, 2.5)
        # a float count would otherwise fail only inside a PHY-coupled run
        with pytest.raises(ValueError, match="relay count"):
            A.SystemParams(0.8, 10.0)
        with pytest.raises(ValueError):
            A.SystemParams(0.8, 10, 0.0)
        with pytest.raises(ValueError):
            A.SystemParams(0.8, 10, 1.5)
        # a bool is not a count, though Python treats True as 1
        with pytest.raises(ValueError, match="relay count"):
            A.SystemParams(0.8, True)
        # lambda*(M+1) = inf would make every exact value NaN
        with pytest.raises(ValueError, match="lambda\\*\\(M\\+1\\) finite"):
            A.throughput_exact(A.SystemParams(1e308, 10))
        A.SystemParams(1e307, 10)
        # ints past the float range used to raise OverflowError
        with pytest.raises(ValueError, match="relay count must be at most"):
            A.SystemParams(0.8, 10**400)
        with pytest.raises(ValueError, match="lambda\\*\\(M\\+1\\) finite"):
            A.SystemParams(10**400, 10)

    def test_session_lengths(self):
        durations = PARAMS_DEFAULT.durations
        assert durations[A.SessionKind.IDLE] == 0.1
        assert durations[A.SessionKind.SINGLE] == 1.0
        assert durations[A.SessionKind.SUCCESS] == 11.0
        assert durations[A.SessionKind.UNSUCCESS] == 11.0


class TestPoissonPmf:
    # the test-file oracle behind the occupancy and first-moment checks
    def test_zero_rate(self):
        assert _pmf(0, 0.0) == 1.0
        assert _pmf(3, 0.0) == 0.0

    def test_known_values(self):
        assert _pmf(0, 0.8) == pytest.approx(math.exp(-0.8), abs=1e-6)
        assert _pmf(1, 0.8) == pytest.approx(0.8 * math.exp(-0.8), abs=1e-6)

    @given(st.integers(0, 300), st.floats(0.0, 1000.0))
    def test_in_unit_interval(self, k, mean):
        assert 0.0 <= _pmf(k, mean) <= 1.0

    def test_large_mean_no_overflow(self):
        # log-space evaluation keeps huge k/mean finite
        v = _pmf(5000, 5000.0)
        assert 0.0 < v < 1.0


def _session_probs(params, duration):
    # (p0, p1, pS, pU) after a session of length d at rate lam: the outcomes
    # depend on lam * d only, so they are the Single row (length 1) at rate
    # lam * d
    scaled = A.SystemParams(params.lam * duration, params.m_relays, params.epsilon)
    return tuple(float(p) for p in A.transition_matrix(scaled)[A.SessionKind.SINGLE])


class TestSessionProbs:
    # row i of the transition matrix holds (p0, p1, pS, pU) of the session
    # after one of length durations[i]
    def test_example_point(self):
        p0, p1, _, _ = A.transition_matrix(PARAMS_DEFAULT)[0]
        assert p0 == pytest.approx(0.923116, abs=1e-6)
        assert p1 == pytest.approx(0.073849, abs=1e-6)

    def test_no_arrivals(self):
        probs = _session_probs(A.SystemParams(0.0, 10, 0.1), 1.0)
        assert probs == (1.0, 0.0, 0.0, 0.0)

    def test_tail_against_brute_force(self):
        # oracle: pU = 1 - partial pmf sum, with 200 terms covering the mass
        pu = A.transition_matrix(PARAMS_DEFAULT)[2, 3]
        mu = 0.8 * 11.0
        brute = 1.0 - sum(_pmf(k, mu) for k in range(0, 12))
        assert pu == pytest.approx(brute, abs=1e-12)
        total = sum(_pmf(k, mu) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(params_st, st.floats(0.01, 60.0))
    def test_sums_to_one(self, params, duration):
        probs = _session_probs(params, duration)
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        p = A.transition_matrix(params)
        for kind, d in enumerate(params.durations):
            assert _session_probs(params, d) == pytest.approx(tuple(p[kind]), abs=1e-12)


class TestTransitionMatrix:
    def test_last_rows_identical(self):
        p = A.transition_matrix(PARAMS_DEFAULT)
        assert np.array_equal(p[2], p[3])

    def test_zero_rate_absorbs_to_idle(self):
        p = A.transition_matrix(A.SystemParams(0.0, 5, 0.1))
        assert np.array_equal(p[:, 0], np.ones(4))
        assert np.all(p[:, 1:] == 0)

    def test_first_entry_matches_session_probs(self):
        p = A.transition_matrix(PARAMS_DEFAULT)
        assert p[0, 0] == pytest.approx(0.923116, abs=1e-6)

    @given(params_st)
    @settings(max_examples=200)
    def test_row_stochastic(self, params):
        p = A.transition_matrix(params)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestStationary:
    def test_zero_rate(self):
        sd = A.stationary_closed_form(A.SystemParams(0.0, 10, 0.1))
        assert np.array_equal(sd.pi, [1.0, 0.0, 0.0, 0.0])
        assert sd.method == "degenerate"

    def test_matches_power_iteration(self):
        cf = A.stationary_closed_form(PARAMS_DEFAULT)
        pw = A.stationary_power_iteration(A.transition_matrix(PARAMS_DEFAULT),
                                          tol=1e-14)
        assert np.max(np.abs(cf.pi - pw.pi)) < 1e-10

    def test_large_m_collision_dominated(self):
        sd = A.stationary_closed_form(A.SystemParams(0.8, 200, 0.1))
        assert sd.pi[2] + sd.pi[3] > 0.99

    def test_is_fixed_point(self):
        sd = A.stationary_closed_form(PARAMS_DEFAULT)
        p = A.transition_matrix(PARAMS_DEFAULT)
        assert np.max(np.abs(sd.pi @ p - sd.pi)) < 1e-10
        assert sd.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_power_iteration_identity(self):
        sd = A.stationary_power_iteration(np.eye(4))
        assert np.allclose(sd.pi, 0.25)

    def test_power_iteration_rank_one(self):
        r = np.array([0.4, 0.3, 0.2, 0.1])
        sd = A.stationary_power_iteration(np.tile(r, (4, 1)))
        assert np.allclose(sd.pi, r, atol=1e-14)

    def test_power_iteration_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            A.stationary_power_iteration(np.eye(4), tol=0.0)

    def test_power_iteration_nonconvergence(self):
        # slow-mixing chain cannot settle within a tiny iteration cap
        p = np.array([[0.999, 0.001], [0.0005, 0.9995]])
        with pytest.raises(A.ConvergenceError):
            A.stationary_power_iteration(p, tol=1e-12, max_iter=5)

    def test_nonnegative_at_tiny_rates(self):
        # the spanning-tree weights have no cancelling terms, so pi stays
        # non-negative where arrivals are vanishingly rare
        for lam in np.logspace(-12, -3, 60):
            for m in (1, 5, 50, 400):
                for eps in (0.05, 0.5, 1.0):
                    params = A.SystemParams(float(lam), m, eps)
                    sd = A.stationary_closed_form(params)
                    assert sd.pi.min() >= 0
                    assert sd.method == "closed_form"
                    p = A.transition_matrix(params)
                    assert np.max(np.abs(sd.pi @ p - sd.pi)) < 1e-14

    @given(params_st)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_consistency(self, params):
        sd = A.stationary_closed_form(params)
        p = A.transition_matrix(params)
        assert np.all(sd.pi >= -1e-15) and np.all(sd.pi <= 1 + 1e-15)
        assert sd.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sd.pi @ p - sd.pi)) < 1e-10


class TestSolveChain:
    def test_broadcast_grid_matches_single_points(self):
        lams = np.array([[0.0], [0.3], [1.2], [2.0]])
        ms = np.array([1, 7, 400, 3200])
        for eps in (0.5, 1.0):
            sol = A.solve_chain(lams, ms, eps)
            assert sol.pi.shape == (4, 4, 4) and sol.throughput.shape == (4, 4)
            tp, q = A.gaussian_approx(lams, ms)
            for a, lam in enumerate(lams[:, 0]):
                for b, m in enumerate(ms):
                    params = A.SystemParams(float(lam), int(m), eps)
                    met = A.throughput_exact(params)
                    assert sol.throughput[a, b] == met.throughput
                    assert sol.outage[a, b] == met.outage == A.outage_exact(params)
                    assert sol.mean_session_length[a, b] == met.mean_session_length
                    assert sol.mean_success_count[a, b] == met.mean_success_count
                    assert tp[a, b] == A.throughput_approx(params)
                    assert q[a, b] == A.outage_approx(params)
                    # Python floats: no np.float64 leaks out (its repr differs)
                    for v in (*vars(met).values(), A.outage_exact(params),
                              A.throughput_approx(params), A.outage_approx(params)):
                        assert type(v) is float
                    pi = A.stationary_closed_form(params).pi
                    assert pi.shape == (4,) and pi.dtype == np.float64
                    assert np.array_equal(sol.pi[a, b], pi)
                    p = A.transition_matrix(params)
                    assert p.shape == (4, 4) and p.dtype == np.float64
                    assert p.flags.c_contiguous

    def test_rejects_bad_grid(self):
        # an infinite M and an overflowing lambda*(M+1) used to solve to NaN
        for lam, m, eps in ((-0.1, 5, 0.1), (np.inf, 5, 0.1), (0.8, 2.5, 0.1),
                            (0.8, 0, 0.1), (0.8, 5, 0.0), (0.8, 5, 1.5),
                            (0.8, np.inf, 0.1), (1e308, 10, 0.1),
                            # ints past the float range used to raise OverflowError
                            (0.8, 10**400, 0.1), (10**400, 5, 0.1)):
            with pytest.raises(ValueError):
                A.solve_chain([0.4, lam], m, eps)
        with pytest.raises(ValueError):
            A.gaussian_approx(1e308, 10)

    def test_check_grid_names_first_bad_value(self):
        lam, m, eps = A.check_grid([0.5, 1.0], [[1], [4]], 0.2)
        assert lam.shape == m.shape == eps.shape == (2, 2)
        for args, message in ((([0.5, -2.0, -3.0],), "got -2.0"),
                              ((0.8, [3, 2.5, 0]), "got 2.5"),
                              ((0.8, 3, [0.5, 1.5]), "got 1.5"),
                              (([1.0, 1e308], 10), "got 1e+308")):
            with pytest.raises(ValueError, match=re.escape(message)):
                A.check_grid(*args)


class TestOccupancy:
    def test_zero_rate(self):
        params = A.SystemParams(0.0, 10, 0.1)
        pi = A.stationary_closed_form(params).pi
        assert _occupancy(0, params, pi) == 1.0
        assert _occupancy(3, params, pi) == 0.0

    def test_normalization(self):
        pi = A.stationary_closed_form(PARAMS_DEFAULT).pi
        total = sum(_occupancy(k, PARAMS_DEFAULT, pi) for k in range(500))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_term_by_term(self):
        # Q(0) is the chance of no arrival after a session of each length,
        # which is column 0 of the transition matrix
        pi = A.stationary_closed_form(PARAMS_DEFAULT).pi
        expected = pi @ A.transition_matrix(PARAMS_DEFAULT)[:, 0]
        assert _occupancy(0, PARAMS_DEFAULT, pi) == pytest.approx(expected, abs=1e-14)


class TestOutageAndThroughput:
    def test_zero_rate(self):
        params = A.SystemParams(0.0, 10, 0.1)
        assert A.outage_exact(params) == 0.0
        assert A.throughput_exact(params).throughput == 0.0

    def test_outage_approaches_one_above_unit_load(self):
        assert A.outage_exact(A.SystemParams(1.5, 400, 0.1)) == pytest.approx(1.0, abs=1e-3)

    def test_mean_session_length_cases(self):
        # absorbed in Idle, every session lasts epsilon
        met = A.throughput_exact(A.SystemParams(0.0, 10, 0.1))
        assert met.mean_session_length == pytest.approx(0.1)
        # pi-weighted lengths (epsilon, 1, M+1, M+1)
        pi = A.stationary_closed_form(PARAMS_DEFAULT).pi
        met = A.throughput_exact(PARAMS_DEFAULT)
        assert met.mean_session_length == pytest.approx(
            0.1 * pi[0] + pi[1] + 11.0 * (pi[2] + pi[3]), rel=1e-14)

    def test_mean_session_length_bound(self):
        pi = A.stationary_closed_form(PARAMS_DEFAULT).pi
        t_bar = A.throughput_exact(PARAMS_DEFAULT).mean_session_length
        pi_bar = pi[2] + pi[3]
        assert t_bar <= 1 + 10 * pi_bar + 0.1 + 1e-12

    def test_mean_success_zero_rate(self):
        met = A.throughput_exact(A.SystemParams(0.0, 10, 0.1))
        assert met.mean_success_count == 0.0

    def test_mean_success_moment_oracle(self):
        # independent oracle: first moment over the occupancy distribution
        pi = A.stationary_closed_form(PARAMS_DEFAULT).pi
        oracle = sum(k * _occupancy(k, PARAMS_DEFAULT, pi) for k in range(1, 12))
        assert A.throughput_exact(PARAMS_DEFAULT).mean_success_count == \
            pytest.approx(oracle, abs=1e-10)

    def test_metrics_consistency(self):
        met = A.throughput_exact(PARAMS_DEFAULT)
        assert met.throughput == pytest.approx(
            met.mean_success_count / met.mean_session_length, abs=1e-14)
        assert 0 <= met.outage <= 1

    def test_dip_then_rise_in_m(self):
        eta = {m: A.throughput_exact(A.SystemParams(0.8, m, 0.1)).throughput
               for m in (1, 5, 30)}
        assert eta[1] > eta[5]
        assert eta[30] > eta[5]

    def test_large_m_convergence(self):
        eta = A.throughput_exact(A.SystemParams(0.8, 2000, 0.1)).throughput
        assert abs(eta - 0.8) < 0.02

    @given(params_st)
    @settings(max_examples=60, deadline=None)
    def test_dual_form_identity(self, params):
        # closed form sum_i pi_i lambda T_i P(X <= M) against the truncated
        # first moment sum_{k=1}^{M+1} k Q(k)
        pi = A.stationary_closed_form(params).pi
        value = A.throughput_exact(params).mean_success_count
        moment = math.fsum(k * _occupancy(k, params, pi)
                           for k in range(1, params.m_relays + 2))
        assert value >= 0
        assert value == pytest.approx(moment, rel=1e-10)

    @pytest.mark.parametrize("lam, m, expected", [
        (0.05, 40, 5.6822e-44),
        (0.1, 30, 5.4031e-25),
    ])
    def test_deep_tail_outage(self, lam, m, expected):
        value = A.outage_exact(A.SystemParams(lam, m, 0.1))
        oracle = _outage_oracle(lam, m, 0.1)
        assert value == pytest.approx(oracle, rel=1e-9, abs=0)
        assert value == pytest.approx(expected, rel=1e-4, abs=0)


def _log_pmf(k, mu):
    return k * math.log(mu) - mu - math.lgamma(k + 1)


def _pmf(k, mu):
    """P(X = k) for X ~ Poisson(mu), evaluated in log space."""
    if mu == 0:
        return 1.0 if k == 0 else 0.0
    return math.exp(_log_pmf(k, mu))


def _occupancy(k, params, pi):
    """Q(k): steady-state probability that a session sees k contenders."""
    return math.fsum(_pmf(k, params.lam * t) * w for t, w in zip(params.durations, pi))


def _upper_tail(n, mu):
    """P(X >= n) for X ~ Poisson(mu < n), summed upward from n: the terms
    fall at least geometrically, so no digits cancel."""
    terms = [math.exp(_log_pmf(n, mu))]
    while terms[-1] > terms[0] * 1e-20:
        terms.append(terms[-1] * mu / (n + len(terms)))
    return math.fsum(terms)


def _outage_oracle(lam, m, eps):
    """Outage from transition rows built of log-space pmf terms and upward
    tail sums, with pi solving pi (P - I) = 0, sum(pi) = 1, by least squares."""
    rows, tails = [], []
    for t in (eps, 1.0, m + 1.0, m + 1.0):
        mu = lam * t
        tail = _upper_tail(m + 2, mu)
        body = math.fsum(math.exp(_log_pmf(k, mu)) for k in range(2, m + 2))
        rows.append((math.exp(-mu), mu * math.exp(-mu), body, tail))
        tails.append(tail)
    a = np.vstack([(np.array(rows) - np.eye(4)).T, np.ones(4)])
    pi = np.linalg.lstsq(a, np.array([0.0, 0.0, 0.0, 0.0, 1.0]), rcond=None)[0]
    return math.fsum(w * tail for w, tail in zip(pi, tails))


class TestQFunction:
    # outage_approx is the Gaussian tail Q(psi), psi = (1 - lambda) sqrt(M / lambda)
    def test_symmetry(self):
        assert A.outage_approx(A.SystemParams(1.0, 17, 0.1)) == 0.5
        # (0.8, 10) and (1.25, 10) give psi = +sqrt(0.5) and -sqrt(0.5)
        below = A.outage_approx(A.SystemParams(0.8, 10, 0.1))
        above = A.outage_approx(A.SystemParams(1.25, 10, 0.1))
        assert below + above == pytest.approx(1.0, abs=1e-14)

    def test_deep_tail(self):
        # psi = 0.9 sqrt(80) ~ 8.05
        assert A.outage_approx(A.SystemParams(0.1, 8, 0.1)) < 1e-15

    def test_against_quadrature(self):
        # oracle: direct numerical integration of the Gaussian tail
        for lam, m in ((0.8, 10), (0.5, 3), (0.9, 50), (1.25, 10)):
            psi = (1.0 - lam) * math.sqrt(m / lam)
            oracle, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                             psi, 40.0)
            assert A.outage_approx(A.SystemParams(lam, m, 0.1)) == \
                pytest.approx(oracle, rel=1e-10)
        assert A.outage_approx(PARAMS_DEFAULT) == pytest.approx(0.239750, abs=1e-5)


class TestAsymptotics:
    def test_psi_values(self):
        # psi = 0, +sqrt(0.5) and -0.5 give Q(psi) = 0.5, 0.239750, 0.691462
        assert A.outage_approx(A.SystemParams(1.0, 17, 0.1)) == 0.5
        assert A.outage_approx(PARAMS_DEFAULT) == pytest.approx(0.239750, abs=1e-6)
        assert A.outage_approx(A.SystemParams(1.25, 5, 0.1)) == \
            pytest.approx(0.691462, abs=1e-6)
        # lambda -> 0 limits: psi = +inf, so both approximations are 0
        zero = A.SystemParams(0.0, 5, 0.1)
        assert A.outage_approx(zero) == 0.0
        assert A.throughput_approx(zero) == 0.0

    def test_gaussian_approx_grid(self):
        lams = np.array([[0.0], [0.3], [1.0], [1.7]])
        ms = np.array([1, 7, 400])
        thr, out = A.gaussian_approx(lams, ms)
        assert thr.shape == out.shape == (4, 3)
        for a, lam in enumerate(lams[:, 0]):
            for b, m in enumerate(ms):
                params = A.SystemParams(float(lam), int(m), 0.1)
                assert thr[a, b] == A.throughput_approx(params)
                assert out[a, b] == A.outage_approx(params)
        for lam, m in ((-0.1, 5), (np.nan, 5), (0.8, 2.5), (0.8, 0)):
            with pytest.raises(ValueError):
                A.gaussian_approx([0.4, lam], m)

    def test_throughput_approx(self):
        assert A.throughput_approx(A.SystemParams(1.0, 7, 0.1)) == pytest.approx(0.5)
        assert A.throughput_approx(PARAMS_DEFAULT) == pytest.approx(0.60820, abs=1e-4)
        params = A.SystemParams(0.8, 100, 0.1)
        assert abs(A.throughput_approx(params)
                   - A.throughput_exact(params).throughput) < 0.02

    def test_outage_approx(self):
        assert A.outage_approx(A.SystemParams(1.0, 7, 0.1)) == pytest.approx(0.5)
        assert A.outage_approx(PARAMS_DEFAULT) == pytest.approx(0.239750, abs=1e-4)
        params = A.SystemParams(0.8, 100, 0.1)
        assert abs(A.outage_approx(params) - A.outage_exact(params)) < 0.03

    def test_outage_approx_monotone_in_m(self):
        vals = [A.outage_approx(A.SystemParams(0.8, m, 0.1)) for m in range(1, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # above unit load the trend reverses
        vals = [A.outage_approx(A.SystemParams(1.2, m, 0.1)) for m in range(1, 60)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_asymptotic_throughput(self):
        assert A.asymptotic_throughput(0.8) == 0.8
        assert A.asymptotic_throughput(1.0) == 0.5
        assert A.asymptotic_throughput(1.5) == 0.0
        assert A.asymptotic_throughput([0.0, 1.0, 2.0]).tolist() == [0.0, 0.5, 0.0]
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                A.asymptotic_throughput(bad)

    def test_asymptotic_consistency(self):
        # |exact - limit| shrinks along M (up to floating-point floor)
        for lam in (0.5, 0.8, 1.2):
            gaps = [abs(A.throughput_exact(A.SystemParams(lam, m, 0.1)).throughput
                        - A.asymptotic_throughput(lam))
                    for m in (50, 200, 800, 3200)]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_approximation_gaps_shrink(self):
        ms = (20, 50, 100, 200)
        thr_gaps, out_gaps = [], []
        for m in ms:
            params = A.SystemParams(0.8, m, 0.1)
            met = A.throughput_exact(params)
            thr_gaps.append(abs(A.throughput_approx(params) - met.throughput))
            out_gaps.append(abs(A.outage_approx(params) - met.outage))
        assert all(g < thr_gaps[0] for g in thr_gaps[1:])
        assert all(g < out_gaps[0] for g in out_gaps[1:])
        assert thr_gaps[-1] < 0.02 and out_gaps[-1] < 0.03


def test_aloha_comparison():
    lams = np.arange(0.1, 2.01, 0.05)
    peak = max(A.throughput_exact(A.SystemParams(float(l), 50, 0.1)).throughput
               for l in lams)
    assert peak > math.exp(-1)
