"""Monte-Carlo simulation of the relay-aided random access session protocol.

Devices arriving during session t contend at the start of session t+1 (they
cannot transmit while relays are forwarding).  A session with no contenders
lasts epsilon, with one contender lasts 1, and with two or more lasts M+1
unit times.  Under the threshold success rule a collision of K <= M+1
packets is always decoded; the phy-coupled rule instead decodes it with
:func:`rara.mpr.symbol_errors` at a configured SNR, one call per K, and
counts it as delivered only if no symbol is in error.  A single
transmission (K = 1) is always delivered under both rules: it occupies the
direct link alone for one time unit, with no relay copies to detect over.

A session's length depends only on its contender count K, so K alone is a
Markov chain.  :func:`run` draws one uniform per session and reads K off
the CDF table of the arrival law over the length of the session before it
(inverse-transform sampling), for Poisson and finite-population arrivals
alike.  The walk runs in blocks of array steps, not per session.  Every
table row ends in exactly 1.0, so a K whose probability per session is
below about 2**-53 cannot be drawn.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import mpr
from .analytic import SystemParams, check_count, check_grid

THRESHOLD = "threshold"
PHY_COUPLED = "phy"

# Sessions simulated before counting starts, to wash out the arbitrary
# initial condition (first contenders drawn over one unit time).
DEFAULT_WARMUP = 1000

_BATCHES = 100

# Largest arrival count per session the walk tabulates; a law that needs
# more is refused, since its CDF table would not fit in memory.
MAX_ARRIVALS = 2**21


@dataclass(frozen=True)
class PoissonProcess:
    """Infinite-population arrivals: Poisson(lam * duration) per session."""

    lam: float

    def __post_init__(self):
        check_grid(self.lam)

    def cdf(self, k, duration):
        """P(K <= k) for the arrivals K over ``duration`` time units."""
        return special.pdtr(k, self.lam * duration)


@dataclass(frozen=True)
class FinitePopulation:
    """n_devices independent devices, each activating with probability
    p_active per unit time; activation over T units is 1 - (1-p)^T."""

    n_devices: int
    p_active: float

    def __post_init__(self):
        check_count("device count", self.n_devices, 1, maximum=sys.float_info.max)
        if not (0 <= self.p_active <= 1):
            raise ValueError(f"activation probability must be in [0, 1], got {self.p_active}")

    def cdf(self, k, duration):
        """P(K <= k) for the arrivals K over ``duration`` time units."""
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf gives p = 1
            p = -np.expm1(duration * np.log1p(-self.p_active))
        # 1 - I_p(k+1, n-k), a regularized incomplete beta, below k = n; 1 from
        # there on.  n is a float, so n - k cannot overflow int64 past n = 2**63
        n = float(self.n_devices)
        return np.where(k < n, special.betaincc(k + 1.0, n - k, p), 1.0)

    @classmethod
    def from_traffic(cls, lam: float, n_devices: int) -> "FinitePopulation":
        """Population whose aggregate rate n * p matches a target intensity."""
        return cls(n_devices=n_devices, p_active=lam / n_devices)


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    arrivals: PoissonProcess | FinitePopulation
    n_sessions: int
    seed: int = 0
    success_rule: str = THRESHOLD
    snr_db: float | None = None
    warmup_sessions: int = DEFAULT_WARMUP

    def __post_init__(self):
        check_count("session count", self.n_sessions, 1)
        check_count("warmup_sessions", self.warmup_sessions, 0)
        check_count("seed", self.seed, 0)
        # a walk reads only M and epsilon from params, so the rates must agree
        if isinstance(self.arrivals, PoissonProcess) and self.arrivals.lam != self.params.lam:
            raise ValueError(f"arrival rate {self.arrivals.lam} differs from "
                             f"params.lam {self.params.lam}")
        check_arrivals(self.arrivals, self.params.m_relays)
        if self.success_rule not in (THRESHOLD, PHY_COUPLED):
            raise ValueError(f"unknown success rule {self.success_rule!r}")
        if self.success_rule == PHY_COUPLED:
            if self.snr_db is None:
                raise ValueError("phy-coupled rule requires snr_db")
            mpr.noise_variance(self.snr_db)  # raises outside the SNR domain


@dataclass(frozen=True)
class SimReport:
    sessions_by_state: tuple[int, int, int, int]  # (Idle, Single, Success, Unsuccess)
    packets_arrived: int
    packets_delivered: int
    packets_lost: int
    total_time: float
    throughput_hat: float
    outage_hat: float
    mean_session_length_hat: float
    stderr_throughput: float
    stderr_outage: float
    stderr_mean_length: float
    seed: int


def check_arrivals(model, m_relays: int) -> None:
    """Refuse an arrival law whose count over a session of M+1 units cannot
    be tabulated in :data:`MAX_ARRIVALS` + 1 entries."""
    _cdf_table(model, [m_relays + 1.0])


def _cdf_table(model, durations) -> np.ndarray:
    """F[c, k] = P(K <= k) for the arrivals K over a session of length
    ``durations[c]``, for k = 0, 1, ... up to the first k at which every row
    is exactly 1.0 (and at least k = 1).

    Every row ends in exactly 1.0, so a uniform u < 1 never runs off the
    end: a K whose probability per session is below about 2**-53 rounds
    into its neighbour and is never drawn.
    """
    durations = np.asarray(durations, dtype=float)[:, None]
    size = 64
    while True:
        table = model.cdf(np.arange(size), durations)
        done = np.flatnonzero(np.all(table == 1.0, axis=0))
        if done.size:
            return table[:, :max(2, done[0] + 1)]
        if size > MAX_ARRIVALS:
            raise ValueError(f"arrivals over a session of {durations.max():g} units "
                             f"can exceed {MAX_ARRIVALS}, the most the walk tabulates")
        size = min(2 * size, MAX_ARRIVALS + 1)


def _walk(model, durations, n_sessions: int, rng: np.random.Generator) -> np.ndarray:
    """Contender counts K of ``n_sessions`` consecutive sessions, the first
    following a session of length 1.

    A session's K is the inverse CDF of one uniform u in the table row of
    the class (Idle, Single, Long) of the session before it.  Every block of
    isqrt(n_sessions) sessions is walked in lockstep from each entry class,
    the three walks of a block sharing its uniforms; a step needs only the
    next class, (u >= F_c(0)) + (u >= F_c(1)), never K.  Each block then
    takes the walk starting in the class its predecessor ended in.  The
    uniforms do not depend on that choice, so this is the exact chain.  K is
    recovered afterwards along the chosen path, with one table search per
    Long session.
    """
    table = _cdf_table(model, durations)
    size = math.isqrt(n_sessions)
    n_blocks = -(-n_sessions // size)
    u = rng.random((size, n_blocks))
    # the next class from each of the three current ones, per step and block
    nxt = ((u[..., None] >= table[:, 0]).astype(np.int8)
           + (u[..., None] >= table[:, 1])).reshape(size, 3 * n_blocks)
    cls = np.empty((size + 1, n_blocks, 3), dtype=np.int8)
    cls[0] = np.arange(3)
    # cls[step + 1][b, j] = nxt[step][b, cls[step][b, j]] on the flat layout
    offset = 3 * np.arange(n_blocks)[:, None]
    for step in range(size):
        cls[step + 1] = nxt[step].take(offset + cls[step])
    entry, exits = [1], cls[size].tolist()
    for block in range(n_blocks - 1):
        entry.append(exits[block][entry[-1]])
    path = cls[:, np.arange(n_blocks), entry].T
    before = path[:, :-1].ravel()[:n_sessions]
    k = path[:, 1:].ravel()[:n_sessions].astype(np.int64)
    u = u.T.ravel()[:n_sessions]
    # a class below 2 is its K; a Long one is searched for in the row of
    # the class before it
    long = np.flatnonzero(k == 2)
    for c in range(3):
        of_c = long[before[long] == c]
        k[of_c] = np.searchsorted(table[c], u[of_c], side="right")
    return k


def run(config: SimConfig) -> SimReport:
    """Simulate ``n_sessions`` counted sessions (after warm-up) and report
    empirical throughput, outage, and session-length estimates.

    Warm-up and counted sessions are one chain walked by :func:`_walk`;
    standard errors are batch means over the counted sessions.
    The arrival stream and the PHY randomness use separate generators derived
    from the seed, so threshold and phy-coupled runs with the same seed see
    identical arrival sequences.
    """
    params = config.params
    m = params.m_relays
    n = config.n_sessions
    arr_ss, phy_ss = np.random.SeedSequence(config.seed).spawn(2)
    arr_rng = np.random.default_rng(arr_ss)
    phy_rng = np.random.default_rng(phy_ss)
    arrived = _walk(config.arrivals, params.durations[:3],
                    config.warmup_sessions + n, arr_rng)[config.warmup_sessions:]

    # Idle, Single, Success (2 <= K <= M+1) or Unsuccess, by K alone
    states = np.minimum(arrived, 2).astype(np.uint8)
    states[arrived > m + 1] = 3
    if config.success_rule == PHY_COUPLED:
        # decode the collisions of each K in one call; failures are outages
        collisions = np.flatnonzero(states == 2)
        for k in np.unique(arrived[collisions]).tolist():
            of_k = collisions[arrived[collisions] == k]
            errors = mpr.symbol_errors(k, m, config.snr_db, len(of_k), phy_rng)
            states[of_k[errors.any(axis=1)]] = 3
    delivered = np.where(states == 3, 0, arrived)

    counts = np.bincount(states, minlength=4)
    lengths = np.array(params.durations)[states]
    total_time = float(np.sum(lengths))
    total_delivered = int(delivered.sum())
    total_arrived = int(arrived.sum())

    # batch means: sessions are Markov-dependent, so per-session errors
    # understate the variance; batches restore approximate independence
    n_batches = min(_BATCHES, n)
    # batch b starts at b*q + min(b, r), the boundaries of np.array_split
    q, r = divmod(n, n_batches)
    starts = np.arange(n_batches) * q + np.minimum(np.arange(n_batches), r)
    batch_n = np.diff(starts, append=n).astype(float)
    batch_d = np.add.reduceat(delivered, starts).astype(float)
    batch_t = np.add.reduceat(lengths, starts)
    batch_u = np.add.reduceat(states == 3, starts, dtype=np.int64).astype(float)

    def _stderr(values):
        if n_batches < 2:
            return float("nan")
        return float(np.std(values, ddof=1)) / math.sqrt(n_batches)

    stderr = _stderr(batch_d / batch_t)
    stderr_outage = _stderr(batch_u / batch_n)
    stderr_mean_length = _stderr(batch_t / batch_n)

    return SimReport(
        sessions_by_state=tuple(int(c) for c in counts),
        packets_arrived=total_arrived,
        packets_delivered=total_delivered,
        packets_lost=total_arrived - total_delivered,
        total_time=total_time,
        throughput_hat=total_delivered / total_time,
        outage_hat=int(counts[3]) / n,
        mean_session_length_hat=total_time / n,
        stderr_throughput=stderr,
        stderr_outage=stderr_outage,
        stderr_mean_length=stderr_mean_length,
        seed=config.seed,
    )


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent per-run seeds for a sweep, deterministic in (base, index)."""
    return [int(ss.generate_state(1)[0]) for ss in
            np.random.SeedSequence(base_seed).spawn(count)]
