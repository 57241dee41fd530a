"""Markov-chain analysis of relay-aided random access sessions.

A contention round (a "session") lasts epsilon time units when no device is
active, 1 unit when a single device transmits, and M+1 units when two or more
devices collide and the M relay nodes forward their observations one by one.
Arrivals over a session are Poisson, so the session-state sequence forms a
4-state Markov chain over {Idle, Single, Success, Unsuccess}.

Two broadcast kernels cover a whole (lambda, M, epsilon) grid in one call:
:func:`solve_chain` solves the chain exactly (stationary distribution,
throughput, outage, both means), and :func:`gaussian_approx` evaluates the
large-M Gaussian approximation of throughput and outage.  The single-point
functions (``throughput_exact``, ``outage_exact``, ``throughput_approx``,
...) run the same kernel on numpy float64 scalars: every operation is
elementwise, so a grid point and a direct call give the same bits.
:func:`stationary_power_iteration` is the independent cross-check of the
closed form.
"""

from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

DEFAULT_EPSILON = 0.1


def check_count(name: str, value, minimum: int, maximum: float = math.inf) -> None:
    """Refuse a count that is not an integer (a float, even 2.0, or a bool)
    or lies outside [minimum, maximum]."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise ValueError(f"{name} must be at most {maximum:g}, got {value!r}")


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested tolerance."""


@dataclass(frozen=True)
class SystemParams:
    """Traffic intensity, relay count, and idle-session length."""

    lam: float
    m_relays: int
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        # the scalar form of check_grid, kept free of numpy for speed
        check_count("relay count", self.m_relays, 1, maximum=sys.float_info.max)
        if not (0 < self.epsilon <= 1):
            raise ValueError(f"idle-session fraction must be in (0, 1], got {self.epsilon}")
        # M + 1 is an int: an int lambda past the float range compares, never overflows
        if not (self.lam >= 0 and self.lam * (self.m_relays + 1) <= sys.float_info.max):
            raise ValueError("traffic intensity must be >= 0 with lambda*(M+1) finite, "
                             f"got {self.lam}")

    @property
    def durations(self) -> tuple[float, float, float, float]:
        """Session length per state, indexed by SessionKind."""
        long = self.m_relays + 1.0
        return (self.epsilon, 1.0, long, long)


class SessionKind(enum.IntEnum):
    IDLE = 0        # no active device, length epsilon
    SINGLE = 1      # one active device, length 1
    SUCCESS = 2     # 2..M+1 devices, decoded after M relay forwards
    UNSUCCESS = 3   # >= M+2 devices, outage


@dataclass(frozen=True)
class StationaryDistribution:
    """Stationary probabilities (pi_0, pi_1, pi_S, pi_U) of the session chain.

    ``method`` records how the vector was obtained: "closed_form",
    "power_iteration", or "degenerate" (zero traffic: the chain is absorbed
    in Idle).
    """

    pi: np.ndarray
    method: str = "closed_form"


@dataclass(frozen=True)
class PerformanceMetrics:
    throughput: float
    outage: float
    mean_session_length: float
    mean_success_count: float


@dataclass(frozen=True)
class ChainSolution:
    """The session chain solved at every point of a broadcast (lambda, M,
    epsilon) grid.  Each field has the grid's shape; ``pi`` has one more
    trailing axis of length 4, ordered like SessionKind."""

    pi: np.ndarray
    throughput: np.ndarray
    outage: np.ndarray
    mean_session_length: np.ndarray
    mean_success_count: np.ndarray


def check_grid(lam, m_relays=1, epsilon=DEFAULT_EPSILON):
    """Broadcast a (lambda, M, epsilon) grid to float arrays, raising a
    ValueError that names its first value outside the model.  The array form
    of the rule :class:`SystemParams` applies to one point."""
    grid = []
    for name, values in (("traffic intensities", lam), ("relay counts", m_relays),
                         ("idle-session fractions", epsilon)):
        try:
            grid.append(np.asarray(values, dtype=float))
        except OverflowError:  # a Python int past the float range
            raise ValueError(f"{name} must fit in a float, got {values!r}") from None
    lam, m, eps = np.broadcast_arrays(*grid)
    with np.errstate(over="ignore", invalid="ignore"):  # inf % 1, lambda*(M+1) overflow
        rules = (("relay counts must be integers >= 1", m, (m >= 1) & (m % 1 == 0)),
                 ("idle-session fractions must be in (0, 1]", eps, (eps > 0) & (eps <= 1)),
                 ("traffic intensities must be >= 0 with lambda*(M+1) finite", lam,
                  (lam >= 0) & np.isfinite(lam * (m + 1.0))))
    for rule, values, ok in rules:
        if not ok.all():
            raise ValueError(f"{rule}, got {values[~ok].flat[0]}")
    return lam, m, eps


def _point(params: SystemParams):
    # numpy scalars, not Python floats: they follow errstate, so lambda = 0
    # divides to inf in _gaussian as it does on a grid
    return np.float64(params.lam), np.float64(params.m_relays), np.float64(params.epsilon)


def _outcomes(lam, m, eps):
    """Outcome probabilities of the session that follows one of length
    epsilon, 1 and M+1 (a leading axis before the grid's shape): P(X=0),
    P(X=1), P(X>=2), P(2<=X<=M+1) and P(X>=M+2) for its Poisson arrivals X
    of mean mu, then the packets it decodes, sum_{k<=M+1} k P(X=k).  Tails
    come from pdtrc, so they keep relative precision."""
    mu = np.array([lam * eps, lam, lam * (m + 1.0)])
    p0 = special.pdtr(0, mu)
    long = special.pdtrc(1, mu)
    pu = special.pdtrc(m + 1.0, mu)
    return p0, mu * p0, long, np.maximum(long - pu, 0.0), pu, mu * special.pdtr(m, mu)


def solve_chain(lam, m_relays, epsilon=DEFAULT_EPSILON) -> ChainSolution:
    """Closed-form stationary distribution, throughput, outage and both
    means of the session chain over a broadcast (lambda, M, epsilon) grid.

    The Success and Unsuccess rows of the chain are equal, so it lumps to
    (Idle, Single, Long).  By the Markov chain tree theorem the stationary
    weight of each lumped state is the sum, over the spanning trees directed
    into it, of the product of their transition probabilities; every term
    is a product of non-negative entries, so no weight cancels.  Long splits
    into Success and Unsuccess by the outcome probabilities of the session
    that follows each state.  All arithmetic is elementwise, so a grid point
    gives the same bits whatever grid it is solved in.
    """
    return _solve(*check_grid(lam, m_relays, epsilon))


def _solve(lam, m, eps) -> ChainSolution:
    to_idle, to_single, to_long, ps, pu, decoded = _outcomes(lam, m, eps)
    # q_xy: probability that the session after lumped state x is in state y
    _, q_si, q_li = to_idle
    q_is, _, q_ls = to_single
    q_il, q_sl, _ = to_long
    w_idle = q_si * q_li + q_sl * q_li + q_ls * q_si
    w_single = q_is * q_ls + q_il * q_ls + q_li * q_is
    w_long = q_il * q_sl + q_is * q_sl + q_si * q_il
    w_success = w_idle * ps[0] + w_single * ps[1] + w_long * ps[2]
    w_outage = w_idle * pu[0] + w_single * pu[1] + w_long * pu[2]
    total = w_idle + w_single + w_success + w_outage
    pi = [w / total for w in (w_idle, w_single, w_success, w_outage)]
    v_long = pi[2] + pi[3]
    t_bar = eps * pi[0] + pi[1] + (m + 1.0) * v_long
    k_bar = pi[0] * decoded[0] + pi[1] * decoded[1] + v_long * decoded[2]
    outage = pi[0] * pu[0] + pi[1] * pu[1] + v_long * pu[2]
    return ChainSolution(pi=np.moveaxis(np.array(pi), 0, -1), throughput=k_bar / t_bar,
                         outage=outage, mean_session_length=t_bar, mean_success_count=k_bar)


def _solve_one(params: SystemParams) -> ChainSolution:
    return _solve(*_point(params))


def transition_matrix(params: SystemParams) -> np.ndarray:
    """4x4 row-stochastic matrix over (Idle, Single, Success, Unsuccess).

    Rows condition on the previous session's length, so the Success and
    Unsuccess rows (both of length M+1) are identical.
    """
    p0, p1, _, ps, pu, _ = _outcomes(*_point(params))
    return np.array([p0, p1, ps, pu]).T[[0, 1, 2, 2]]


def stationary_power_iteration(p: np.ndarray, tol: float = 1e-14,
                               max_iter: int = 200_000) -> StationaryDistribution:
    """Power iteration pi <- pi P from a uniform start, taken in strides by
    repeated squaring: after k squarings one update multiplies by P^(2^k),
    so the iterate reaches pi_0 P^(2^(k+1) - 1).  Stops when an update
    changes no component by ``tol`` or more; ``max_iter`` caps the number of
    power steps the updates add up to.  Independent of the closed-form
    solution.

    ``p`` may be a stack of matrices (shape (..., n, n)); all chains are then
    iterated together until every one has converged.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    pi = np.full(p.shape[:-2] + (n,), 1.0 / n)
    power, stride, steps = p, 1, 0
    while steps + stride <= max_iter:
        nxt = np.einsum('...i,...ij->...j', pi, power)
        nxt /= nxt.sum(axis=-1, keepdims=True)
        steps += stride
        if np.max(np.abs(nxt - pi)) < tol:
            return StationaryDistribution(nxt, method="power_iteration")
        pi = nxt
        power = power @ power
        power /= power.sum(axis=-1, keepdims=True)
        stride *= 2
    raise ConvergenceError(f"no convergence to {tol} within {max_iter} power steps")


def stationary_closed_form(params: SystemParams) -> StationaryDistribution:
    """Stationary distribution from the closed form of :func:`solve_chain`.

    Zero traffic is flagged with method="degenerate": the chain is then
    absorbed in Idle and pi = (1, 0, 0, 0).
    """
    method = "degenerate" if params.lam == 0 else "closed_form"
    return StationaryDistribution(_solve_one(params).pi, method=method)


def outage_exact(params: SystemParams) -> float:
    """Probability of a session with >= M+2 contenders (undecodable even with
    all M relay forwards), from the pdtrc tail after each state."""
    return float(_solve_one(params).outage)


def throughput_exact(params: SystemParams) -> PerformanceMetrics:
    """Exact throughput eta = mean packets per session / mean session length,
    bundled with outage and both means.  The mean success count is
    sum_i pi_i * lambda*T_i * P(X <= M), X ~ Poisson(lambda*T_i), which
    equals the first moment sum_{k=1}^{M+1} k Q(k) of the occupancy Q."""
    sol = _solve_one(params)
    return PerformanceMetrics(
        throughput=float(sol.throughput),
        outage=float(sol.outage),
        mean_session_length=float(sol.mean_session_length),
        mean_success_count=float(sol.mean_success_count),
    )


def gaussian_approx(lam, m_relays) -> tuple[np.ndarray, np.ndarray]:
    """Large-M Gaussian approximation (throughput, outage) over a broadcast
    (lambda, M) grid: outage q = Q(psi) with psi = (1 - lambda) sqrt(M /
    lambda), the normalized deviation of the decodable-count threshold, and
    throughput lambda (1 - q).  At lambda = 0, psi = +inf and both are 0."""
    lam, m, _ = check_grid(lam, m_relays)
    return _gaussian(lam, m)


def _gaussian(lam, m):
    # at lambda = 0, M / lambda = inf makes psi = +inf, so q and lam (1 - q) are 0
    with np.errstate(divide="ignore"):
        psi = (1.0 - lam) * np.sqrt(m / lam)
    q = 0.5 * special.erfc(psi / math.sqrt(2.0))
    return lam * (1.0 - q), q


def throughput_approx(params: SystemParams) -> float:
    """Large-M Gaussian approximation of the throughput at one point."""
    return float(_gaussian(*_point(params)[:2])[0])


def outage_approx(params: SystemParams) -> float:
    """Large-M Gaussian approximation of the outage probability at one point."""
    return float(_gaussian(*_point(params)[:2])[1])


def asymptotic_throughput(lam):
    """M -> infinity throughput limit: lambda below unit load, 1/2 at exactly
    unit load, 0 above (pointwise definition; discontinuous at lambda = 1).
    Broadcasts over an array of intensities; refuses what :func:`check_grid`
    refuses at M = 1, like every other entry point."""
    lam = check_grid(lam)[0]
    return np.select([lam < 1.0, lam == 1.0], [lam, 0.5], 0.0)[()]
