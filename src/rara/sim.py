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
Markov chain; :func:`run` walks it in blocks of array draws, not per session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mpr
from .analytic import SystemParams, check_count

THRESHOLD = "threshold"
PHY_COUPLED = "phy"

# Sessions simulated before counting starts, to wash out the arbitrary
# initial condition (first contenders drawn over one unit time).
DEFAULT_WARMUP = 1000

_BATCHES = 100


@dataclass(frozen=True)
class PoissonProcess:
    """Infinite-population arrivals: Poisson(lam * duration) per session."""

    lam: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"arrival rate must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class FinitePopulation:
    """n_devices independent devices, each activating with probability
    p_active per unit time; activation over T units is 1 - (1-p)^T."""

    n_devices: int
    p_active: float

    def __post_init__(self):
        check_count("device count", self.n_devices, 1)
        if not (0 <= self.p_active <= 1):
            raise ValueError(f"activation probability must be in [0, 1], got {self.p_active}")

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


def sample_arrivals(model, duration, rng: np.random.Generator):
    """Number of devices becoming active over ``duration`` time units (a
    scalar, or an array for one draw per entry)."""
    if np.any(np.asarray(duration) <= 0):
        raise ValueError(f"duration must be > 0, got {duration}")
    if isinstance(model, PoissonProcess):
        return rng.poisson(model.lam * duration)
    if isinstance(model, FinitePopulation):
        p = 1.0 - (1.0 - model.p_active) ** duration
        return rng.binomial(model.n_devices, p)
    raise TypeError(f"unknown arrival model {model!r}")


def _walk(model, durations, n_sessions: int, rng: np.random.Generator) -> np.ndarray:
    """Contender counts K of ``n_sessions`` consecutive sessions, the first
    following a session of length 1.

    Every block of isqrt(n_sessions) sessions is walked in lockstep from each
    entry class (Idle, Single, Long), one draw per step over all of them; each
    block then takes the walk starting in the class its predecessor ended in.
    Those draws are independent of that choice, so this is the exact chain.
    """
    size = math.isqrt(n_sessions)
    n_blocks = -(-n_sessions // size)
    durations = np.asarray(durations)
    k = np.empty((size, n_blocks, 3), dtype=np.int64)
    cls = np.broadcast_to(np.arange(3), (n_blocks, 3))
    for step in range(size):
        k[step] = sample_arrivals(model, durations[cls], rng)
        cls = np.minimum(k[step], 2)
    entry, exits = [1], cls.tolist()
    for block in range(n_blocks - 1):
        entry.append(exits[block][entry[-1]])
    return k[:, np.arange(n_blocks), entry].T.ravel()[:n_sessions]


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
    batch_d = np.array([b.sum() for b in np.array_split(delivered, n_batches)], dtype=float)
    batch_t = np.array([b.sum() for b in np.array_split(lengths, n_batches)])
    batch_n = np.array([len(b) for b in np.array_split(lengths, n_batches)], dtype=float)
    batch_u = np.array([np.count_nonzero(b == 3)
                        for b in np.array_split(states, n_batches)], dtype=float)

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
