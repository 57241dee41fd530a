"""Markov-chain analysis of relay-aided random access sessions.

A contention round (a "session") lasts epsilon time units when no device is
active, 1 unit when a single device transmits, and M+1 units when two or more
devices collide and the M relay nodes forward their observations one by one.
Arrivals over a session are Poisson, so the session-state sequence forms a
4-state Markov chain over {Idle, Single, Success, Unsuccess}.

Two broadcast kernels cover a whole (lambda, M, epsilon) grid in one call:
:func:`solve_chain` solves the chain exactly (stationary distribution,
throughput, outage, both means), and :func:`gaussian_approx` evaluates the
large-M Gaussian approximation of throughput and outage.  The chain lumps
to the classes c = (Idle, Single, Long), and its one normalization is the
stationary law v of those three classes (:func:`_stationary`).  Every
exact output is a reward row r_c reduced by one rule, sum_c v_c r_c
(:func:`_expect`): pi_S and pi_U are the Success and outage rows, so the
outage is pi_U itself.  The single-point functions (``throughput_exact``,
``outage_exact``, ``transition_matrix``, ...) run the same kernel: the
Poisson tails are taken on the (3,) array of class means, and the algebra
after them on Python floats, whose + - * / are the IEEE operations of
numpy float64 at a third of the cost.  Every operation is elementwise, so
a grid point and a direct call give the same bits.  The Gaussian
approximation at a point is :func:`gaussian_approx` on a one-point grid.
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
        check_count("relay count", self.m_relays, 1, maximum=sys.float_info.max)
        for rule, value, ok in _domain(self.lam, self.m_relays, self.epsilon):
            if not ok:
                raise ValueError(f"{rule}, got {value}")
        # -0.0 passes lam >= 0; + 0 stores it as the 0.0 every kernel expects
        object.__setattr__(self, "lam", self.lam + 0)

    @property
    def durations(self) -> tuple[float, float, float, float]:
        """Session length per state, indexed by SessionKind."""
        lengths = _lengths(self.m_relays, self.epsilon)
        return lengths + lengths[2:]


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


def _domain(lam, m, eps):
    """The model's domain, stated once for a point and a grid: a
    (rule, values, ok) triple per input, in the order they are checked.
    The operators work on Python numbers and on arrays alike; M + 1 keeps
    an int lambda past the float range exact, and a NaN or infinite
    lambda*(M+1) fails the bound."""
    return (("relay counts must be integers >= 1", m, (m >= 1) & (m % 1 == 0)),
            ("idle-session fractions must be in (0, 1]", eps, (eps > 0) & (eps <= 1)),
            ("traffic intensities must be >= 0 with lambda*(M+1) finite", lam,
             (lam >= 0) & (lam * (m + 1) <= sys.float_info.max)))


def check_grid(lam, m_relays=1, epsilon=DEFAULT_EPSILON):
    """Broadcast a (lambda, M, epsilon) grid to float arrays, raising a
    ValueError that names its first value outside the model, by the rule of
    :func:`_domain` that :class:`SystemParams` applies to one point."""
    grid = []
    for name, values in (("traffic intensities", lam), ("relay counts", m_relays),
                         ("idle-session fractions", epsilon)):
        try:
            grid.append(np.asarray(values, dtype=float))
        except OverflowError:  # a Python int past the float range
            raise ValueError(f"{name} must fit in a float, got {values!r}") from None
    # -0.0 passes lam >= 0; + 0.0 returns it as the 0.0 every kernel expects
    lam, m, eps = np.broadcast_arrays(grid[0] + 0.0, *grid[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # inf % 1, lambda*(M+1) overflow
        for rule, values, ok in _domain(lam, m, eps):
            if not ok.all():
                raise ValueError(f"{rule}, got {values[~ok].flat[0]}")
    return lam, m, eps


def _point(params: SystemParams):
    # Python floats, not numpy scalars: their + - * / are the same IEEE
    # operations at a third of the cost, and _outcomes still takes every
    # tail on an array
    return float(params.lam), float(params.m_relays), float(params.epsilon)


def _lengths(m, eps):
    """Session length T_c of each lumped class (Idle, Single, Long)."""
    return eps, 1.0, m + 1.0


def _outcomes(lam, m, eps):
    """What follows a session of each lumped class c, for its Poisson
    arrivals X of mean mu_c = lambda T_c: mu, then the next-class rows
    P(X=0), P(X=1) and P(X>=2), and the rows P(2<=X<=M+1) (Success) and
    P(X>=M+2) (outage) that split Long.  Each row has the class axis first;
    at a point (``lam`` a Python float from :func:`_point`) each is a list
    of Python floats, one per class, so the algebra after the tails is one
    code for a point and a grid.  Tails come from pdtr and pdtrc, so they
    keep relative precision.  So does the Success row, taken as
    P(X<=M+1) P(X>=2) - P(X>=M+2) P(X<=1) rather than as the difference of
    the two upper tails, which keeps no digit once both are near 1: the
    term it subtracts is at most 0.34 of the first (at M = 1, less at
    larger M), so the difference loses under a bit."""
    mu = np.array([lam * t for t in _lengths(m, eps)])
    # float counts: pdtr and pdtrc have only float loops, so an int k is cast per call
    p0 = special.pdtr(0.0, mu)
    p0, p1, long, low, pu = _point_rows(lam, p0, mu * p0, special.pdtrc(1.0, mu),
                                        special.pdtr(m + 1.0, mu), special.pdtrc(m + 1.0, mu))
    # class by class: on Python floats at a point, where numpy calls on
    # 3-vectors would cost more than the arithmetic
    ps = [lo * g - u * (a + b) for a, b, g, lo, u in zip(p0, p1, long, low, pu)]
    return mu, (p0, p1, long, ps, pu)


def _point_rows(lam, *rows):
    """``rows`` as they are on a grid or, at a point (``lam`` a Python
    float), each as a list of Python floats, one per class."""
    return [*map(np.ndarray.tolist, rows)] if isinstance(lam, float) else rows


def _expect(v, *rows):
    """Each reward row r reduced over the classes with weights v, left to
    right: v[0]*r[0] + v[1]*r[1] + v[2]*r[2], the one class sum of the
    kernel.  The class axis is a sequence of three operands (Python floats
    at a point, arrays on a grid), not one stacked array."""
    return [v[0] * r[0] + v[1] * r[1] + v[2] * r[2] for r in rows]


def solve_chain(lam, m_relays, epsilon=DEFAULT_EPSILON) -> ChainSolution:
    """Closed-form stationary distribution, throughput, outage and both
    means of the session chain over a broadcast (lambda, M, epsilon) grid.

    The Success and Unsuccess rows of the chain are equal, so it lumps to
    (Idle, Single, Long).  By the Markov chain tree theorem the stationary
    weight of each lumped state is the sum, over the spanning trees directed
    into it, of the product of their transition probabilities; every term
    is a product of non-negative entries, so no weight cancels.  The
    weights normalized once give the lumped stationary law v, and every
    output is then a reward row r_c over the lumped classes c, reduced as
    sum_c v_c r_c: the lengths T_c give the mean session length, the
    decoded means the mean success count, and the Success and outage rows
    give pi_S and pi_U, which split Long.  The outage is pi_U, bit for bit.
    All arithmetic is elementwise, so a grid point gives the same bits
    whatever grid it is solved in.
    """
    pi, *metrics = _metrics(*check_grid(lam, m_relays, epsilon))
    pi = np.array(pi)  # leading axis last: np.moveaxis's view, at a fraction of its cost
    return ChainSolution(pi.transpose(*range(1, pi.ndim), 0), *metrics)


def _tree_weights(to_idle, to_single, to_long):
    """The spanning-tree weights of Idle, Single and Long, proportional to
    the stationary law of the lumped class chain whose next-class rows are
    ``to_idle``, ``to_single`` and ``to_long`` (each indexed by the class
    before), by the tree theorem of :func:`solve_chain`.  ``sim`` draws its
    chains' entry classes from the weights of its own tables."""
    # q_xy: probability that the session after lumped state x is in state y
    q_si, q_li = to_idle[1], to_idle[2]
    q_is, q_ls = to_single[0], to_single[2]
    q_il, q_sl = to_long[0], to_long[1]
    return (q_si * q_li + q_sl * q_li + q_ls * q_si,
            q_is * q_ls + q_il * q_ls + q_li * q_is,
            q_il * q_sl + q_is * q_sl + q_si * q_il)


def _stationary(rows):
    """The stationary law v = w / (w_0 + w_1 + w_2) of the lumped classes
    (Idle, Single, Long), three operands, from the rows of
    :func:`_outcomes` and the tree weights w of :func:`_tree_weights`.  It
    is the kernel's only normalization: pi_S and pi_U are the Success and
    outage rows reduced with it."""
    to_idle, to_single, to_long, _, _ = rows
    w = _tree_weights(to_idle, to_single, to_long)
    total = w[0] + w[1] + w[2]
    return [x / total for x in w]


def _metrics(lam, m, eps):
    """pi, then the throughput, outage, mean session length and mean
    success count, in ChainSolution's field order.  The stationary lumped
    v weighs the lengths T_c, the packets each class decodes, sum_{k<=M+1}
    k P(X=k) = mu_c P(X<=M), and the Success and outage rows, which give
    pi_S and pi_U; the outage is pi_U."""
    mu, rows = _outcomes(lam, m, eps)
    decoded, = _point_rows(lam, mu * special.pdtr(m, mu))
    v = _stationary(rows)
    t_bar, k_bar, pi_s, pi_u = _expect(v, _lengths(m, eps), decoded, *rows[3:])
    return (v[0], v[1], pi_s, pi_u), k_bar / t_bar, pi_u, t_bar, k_bar


def transition_matrix(params: SystemParams) -> np.ndarray:
    """4x4 row-stochastic matrix over (Idle, Single, Success, Unsuccess).

    Rows condition on the previous session's length, so the Success and
    Unsuccess rows (both of length M+1) are identical.
    """
    _, (p0, p1, _, ps, pu) = _outcomes(*_point(params))
    return np.array([[p0[c], p1[c], ps[c], pu[c]] for c in (0, 1, 2, 2)])


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``a``, kept as a column, added left to
    right: numpy's own order below 8 terms, without its reduction's cost."""
    total = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j:j + 1]
    return total


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
    if not 0 < tol < math.inf:  # nan would never converge, inf stop after one step
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    p = np.asarray(p, dtype=float)
    n = p.shape[-1]
    pi = np.full(p.shape[:-2] + (n,), 1.0 / n)
    power, stride, steps = p, 1, 0
    while steps + stride <= max_iter:
        nxt = np.einsum('...i,...ij->...j', pi, power)
        nxt /= _row_sums(nxt)
        steps += stride
        if np.max(np.abs(nxt - pi)) < tol:
            return StationaryDistribution(nxt, method="power_iteration")
        pi = nxt
        power = power @ power
        power /= _row_sums(power)
        stride *= 2
    raise ConvergenceError(f"no convergence to {tol} within {max_iter} power steps")


def stationary_closed_form(params: SystemParams) -> StationaryDistribution:
    """Stationary distribution from the closed form of :func:`solve_chain`.

    Zero traffic is flagged with method="degenerate": the chain is then
    absorbed in Idle and pi = (1, 0, 0, 0).
    """
    method = "degenerate" if params.lam == 0 else "closed_form"
    rows = _outcomes(*_point(params))[1]
    v = _stationary(rows)
    return StationaryDistribution(np.array(v[:2] + _expect(v, *rows[3:])), method=method)


def outage_exact(params: SystemParams) -> float:
    """Probability of a session with >= M+2 contenders (undecodable even with
    all M relay forwards): pi_U of :func:`stationary_closed_form`, bit for
    bit."""
    return _metrics(*_point(params))[2]


def throughput_exact(params: SystemParams) -> PerformanceMetrics:
    """Exact throughput eta = mean packets per session / mean session length,
    bundled with outage and both means.  The mean success count is
    sum_i pi_i * lambda*T_i * P(X <= M), X ~ Poisson(lambda*T_i), which
    equals the first moment sum_{k=1}^{M+1} k Q(k) of the occupancy Q."""
    return PerformanceMetrics(*_metrics(*_point(params))[1:])


def gaussian_approx(lam, m_relays) -> tuple[np.ndarray, np.ndarray]:
    """Large-M Gaussian approximation (throughput, outage) over a broadcast
    (lambda, M) grid: outage q = Q(psi) with psi = (1 - lambda) sqrt(M /
    lambda), the normalized deviation of the decodable-count threshold, and
    throughput lambda (1 - q).  At lambda = 0, psi = +inf and both are 0."""
    lam, m, _ = check_grid(lam, m_relays)
    # at lambda = 0 (or so small that it overflows), M / lambda = inf makes
    # psi = +inf, so q is 0 and lam (1 - q) is lambda
    with np.errstate(divide="ignore", over="ignore"):
        psi = (1.0 - lam) * np.sqrt(m / lam)
    q = 0.5 * special.erfc(psi / math.sqrt(2.0))
    return lam * (1.0 - q), q


def throughput_approx(params: SystemParams) -> float:
    """Large-M Gaussian approximation of the throughput at one point."""
    return float(gaussian_approx(params.lam, params.m_relays)[0])


def outage_approx(params: SystemParams) -> float:
    """Large-M Gaussian approximation of the outage probability at one point."""
    return float(gaussian_approx(params.lam, params.m_relays)[1])


def asymptotic_throughput(lam):
    """M -> infinity throughput limit: lambda below unit load, 1/2 at exactly
    unit load, 0 above (pointwise definition; discontinuous at lambda = 1).
    Broadcasts over an array of intensities; refuses what :func:`check_grid`
    refuses at M = 1, like every other entry point."""
    lam = check_grid(lam)[0]
    return np.select([lam < 1.0, lam == 1.0], [lam, 0.5], 0.0)[()]
