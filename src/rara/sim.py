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
alike.  The table is built once, by :class:`SimConfig`.  The walk runs in
blocks of array steps, not per session.  Every table row ends in exactly
1.0, so a K whose probability per session is below about 2**-53 cannot be
drawn.  A run's chain enters in a class drawn from the stationary law of
the class chain its table drives (:func:`_entry_class`), so every session
it walks is stationary from the first and every one is counted.

Runs of one session count can be walked as a group (:func:`_run_group`;
:func:`run` is the group of one, and the CLI walks the rows of a grid in
groups): their chains share the walk's Python steps, each still drawing
from its own generator, and their counted sessions are counted once, in
one (chain, batch, K) table.  Each run's session and packet counts per
(batch, state) are summed from it, and every output is read from those
two tables, so a run's report does not depend on its group.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import mpr
from .analytic import SystemParams, _tree_weights, check_count, check_grid

THRESHOLD = "threshold"
PHY_COUPLED = "phy"

DEFAULT_WARMUP = 0  # read only by the benchmark, until its next change drops it

_BATCHES = 100

# Largest arrival count per session the walk tabulates; a law that needs
# more is refused, since its CDF table would not fit in memory.
MAX_ARRIVALS = 2**21

# Sessions a walk of a group of runs may hold: the CLI walks the rows of a
# grid in consecutive groups whose sessions fit in it (a larger row walks
# alone).  A walk keeps about 16 B a session.
_WALK_BUDGET = 2**17

# Sessions whose K a walk reads at once, so that the lookup's temporaries
# (17 B a session) stay small beside what the walk keeps
_LOOKUP_SESSIONS = 2**14


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
        _check_devices(self.n_devices)
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
        _check_devices(n_devices)  # before lam / n can divide by 0 or overflow
        return cls(n_devices=n_devices, p_active=lam / n_devices)


def _check_devices(n_devices) -> None:
    """Refuse a device count that is not an integer >= 1 or whose float,
    which ``FinitePopulation.cdf`` computes with, would overflow."""
    check_count("device count", n_devices, 1, maximum=sys.float_info.max)


@dataclass(frozen=True)
class SimConfig:
    """One simulated point.  Building it checks every field and tabulates
    the arrival law once: the three-row CDF table that :func:`run` walks is
    kept, read-only, for as long as the config lives.  It holds 24 bytes
    per column, about 1 kB at lambda = 0.8, M = 10 and 2.5 MB at
    lambda = 100, M = 1000, and up to about 50 MB for a law at the
    :data:`MAX_ARRIVALS` edge, so a caller that keeps many configs of such
    laws holds one table each.  Building the table is the one check of
    what the walk can tabulate."""

    params: SystemParams
    arrivals: PoissonProcess | FinitePopulation
    n_sessions: int
    seed: int = 0
    success_rule: str = THRESHOLD
    snr_db: float | None = None
    warmup_sessions = 0  # read only by the benchmark, until its next change drops it
    # the CDF table of the arrival law that run walks, built once, here
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_count("session count", self.n_sessions, 1)
        check_count("seed", self.seed, 0)
        # a walk reads only M and epsilon from params, so the rates must agree
        if isinstance(self.arrivals, PoissonProcess) and self.arrivals.lam != self.params.lam:
            raise ValueError(f"arrival rate {self.arrivals.lam} differs from "
                             f"params.lam {self.params.lam}")
        object.__setattr__(self, "_table", _cdf_table(self.arrivals, self.params.durations[:3]))
        self._table.flags.writeable = False  # frozen, as the config is
        if self.success_rule not in (THRESHOLD, PHY_COUPLED):
            raise ValueError(f"unknown success rule {self.success_rule!r}")
        if self.success_rule == PHY_COUPLED:
            if self.snr_db is None:
                raise ValueError("phy-coupled rule requires snr_db")
            mpr.noise_variance(self.snr_db)  # raises outside the SNR domain
        elif self.snr_db is not None:  # the threshold rule never reads it
            raise ValueError(f"snr_db is read only by the phy-coupled rule, got {self.snr_db!r}")


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


def _cdf_table(model, durations) -> np.ndarray:
    """F[c, k] = P(K <= k) for the arrivals K over a session of length
    ``durations[c]``, for k = 0, 1, ... up to the first k at which every row
    is exactly 1.0 (and at least k = 1).

    Every row ends in exactly 1.0, so a uniform u < 1 never runs off the
    end: a K whose probability per session is below about 2**-53 rounds
    into its neighbour and is never drawn.
    """
    durations = np.asarray(durations, dtype=float)[:, None]
    # the table doubles from 64 columns, and each doubling evaluates only the
    # columns it adds: cdf is elementwise, so earlier columns cannot change
    parts, size = [], 0
    while True:
        stop = min(max(64, 2 * size), MAX_ARRIVALS + 1)
        parts.append(model.cdf(np.arange(size, stop), durations))
        done = np.flatnonzero(np.all(parts[-1] == 1.0, axis=0))
        if done.size:
            parts[-1] = parts[-1][:, :max(2, size + done[0] + 1) - size]
            return np.concatenate(parts, axis=1)
        if stop > MAX_ARRIVALS:
            raise ValueError(f"arrivals over a session of {durations.max():g} units "
                             f"can exceed {MAX_ARRIVALS}, the most the walk tabulates")
        size = stop


def _walk(tables: list[np.ndarray], n_sessions: int, rngs: list[np.random.Generator],
          entries: list[int]) -> np.ndarray:
    """Contender counts K of ``n_sessions`` consecutive sessions of each of
    several chains, as a (chain, session) array of int32: chain j walks the
    CDF table ``tables[j]`` that :func:`_cdf_table` builds for the (Idle,
    Single, Long) lengths, draws from ``rngs[j]``, and its first session
    follows a session of class ``entries[j]`` (0 Idle, 1 Single, 2 Long).
    A chain's K do not depend on the other chains of the call: a group of
    chains of one session count is walked in lockstep only to share the
    Python steps.

    A session's K is ``searchsorted(F_c, u, side="right")`` for one uniform
    u, in the table row F_c of the class c (Idle, Single, Long) of the
    session before it.  Each chain draws its uniforms as ``u`` of shape
    (isqrt(n_sessions), n_blocks), session i taking ``u.T.ravel()[i]``:
    a block is a column.  Every block of every chain is walked in lockstep
    from each of the three classes, the three walks of a block sharing its
    uniforms.  A walk is at a flat position (c, chain, block), and
    ``nxt[step]`` maps each position to the next, whose class is
    (u >= F_c(0)) + (u >= F_c(1)) in the chain's own table, so a step is
    one ``take`` that chases the positions of every chain at once: no
    search and no K.  ``nxt[step]`` is read only at its step, so the
    positions after it overwrite the row of ``nxt`` read the step before:
    beside 8 bytes of uniforms, the walk keeps 6 bytes a session of int16
    transitions and positions.  The blocks of each chain are then chained:
    each enters one position past where its predecessor's chosen walk
    ended, in the class that walk ended in.  The uniforms do not depend on
    that choice, so this is the exact chain.

    K is then read, chain by chain in the block layout of ``u``, along the
    chosen path from a guide table, the indexed search of Chen & Asau
    (1974; Devroye, *Non-Uniform Random Variate Generation*, III.2.4).
    With g buckets, ``guide[j, c]`` is the first k with F_c(k) > j / g.
    For j = floor(u g) that k is never past the answer, since u >= j / g,
    and it is the answer unless F_c(k) <= u: for at most about width / g
    of the sessions, which are then searched in their row.  g is a power
    of two, so u g and j / g are exact and every K is ``searchsorted``'s.
    g is 4 times the row width rounded up to a power of two, but no more
    than n_sessions rounded so, lest building the guide cost more than it
    saves.  A K below 2 is its session's class, and it is read the same
    way.  K is read :data:`_LOOKUP_SESSIONS` sessions at a time, so the
    lookup's temporaries stay small, and only K, four bytes a session, is
    put in session order.
    """
    size = math.isqrt(n_sessions)
    n_blocks = -(-n_sessions // size)
    chains = len(tables)
    lanes = chains * n_blocks  # the blocks of every chain, in one class
    u = np.empty((chains, size, n_blocks))
    for rng, u_chain in zip(rngs, u):
        rng.random(out=u_chain)  # the stream of rng.random((size, n_blocks))
    # the narrowest signed int that holds every flat position
    itype = np.min_scalar_type(-3 * lanes)
    # a spare row, then the transition table: nxt[step] is read only at its
    # step, so the positions after it overwrite the row before it
    work = np.empty((size + 1, 3 * lanes), dtype=itype)
    nxt = work[1:].reshape(size, 3, chains, n_blocks)
    for chain, (table, u_chain) in enumerate(zip(tables, u)):
        for c in range(3):
            np.add(u_chain >= table[c, 0], u_chain >= table[c, 1], out=nxt[:, c, chain],
                   dtype=itype)
    nxt *= lanes  # next class c' of lane l -> position c' * lanes + l
    nxt += np.arange(lanes, dtype=itype).reshape(chains, n_blocks)
    pos = np.arange(3 * lanes, dtype=itype)
    for step in range(size):
        # every index is in range, and "clip" writes to out unbuffered
        pos = work[step + 1].take(pos, out=work[step], mode="clip")
    ends, path = pos.tolist(), []
    for first, entry in zip(range(0, lanes, n_blocks), entries):  # block 0 of each chain
        path.append(entry * lanes + first)
        for _ in range(n_blocks - 1):
            path.append(ends[path[-1]] + 1)
    # the chosen walks start at their path, and are at work[t - 1, path]
    # after t steps
    path = np.array(path)
    before = np.empty((size, lanes), dtype=itype)
    before[0] = path
    work[:size - 1].take(path, axis=1, out=before[1:], mode="clip")
    del work, nxt, pos
    before //= lanes
    k = np.empty((chains, size, n_blocks), dtype=np.int32)
    rows = max(1, _LOOKUP_SESSIONS // n_blocks)  # the rows of u whose K are read at once
    for chain, (table, u_chain, k_chain) in enumerate(zip(tables, u, k)):
        # guide[j, c] is the first k with F_c(k) > j / g and bound[j, c] is F_c
        # there, laid out so that bucket j of class c is at 3j + c
        g = 1 << (min(4 * table.shape[1], n_sessions) - 1).bit_length()
        guide = np.stack([np.searchsorted(row, np.arange(g) / g, side="right")
                          for row in table], axis=1).astype(np.int32)
        bound = np.take_along_axis(table.T, guide, axis=0).ravel()
        guide = guide.ravel()
        for lo in range(0, size, rows):
            u_in, k_out = u_chain[lo:lo + rows].ravel(), k_chain[lo:lo + rows].ravel()
            c_in = before[lo:lo + rows, chain * n_blocks:(chain + 1) * n_blocks].ravel()
            start = np.empty(u_in.shape, dtype=np.intp)
            np.multiply(u_in, g, out=start, casting="unsafe")  # floor(u g), as u g >= 0
            start *= 3
            start += c_in
            far = np.flatnonzero(bound.take(start) <= u_in)  # K past the guide
            guide.take(start, out=k_out, mode="clip")
            for c in range(3):
                of_c = far[c_in[far] == c]
                k_out[of_c] = np.searchsorted(table[c], u_in[of_c], side="right")
    del u, before
    return k.transpose(0, 2, 1).reshape(chains, size * n_blocks)[:, :n_sessions]


def _entry_class(table: np.ndarray, rng: np.random.Generator) -> int:
    """The class (0 Idle, 1 Single, 2 Long) of the session before a chain's
    first, drawn by one uniform u of ``rng`` from the stationary law of the
    class chain that the CDF ``table`` drives.  The chain's next-class rows
    are read off the table, Q_c = (F_c(0), F_c(1) - F_c(0), 1 - F_c(1)), so
    one code covers every arrival law, and the law is proportional to their
    spanning-tree weights w (:func:`rara.analytic._tree_weights`).  The
    class is the number of w_0 and w_0 + w_1 at or below u (w_0 + w_1 +
    w_2): the uniform is scaled by the sum rather than the weights divided
    by it, so where every weight rounds to 0 there is no 0 / 0 and the
    class is Long.  That is where Idle and Long are both closed in the
    rounded table, as at lambda = 1e-17, M = 10**20, epsilon = 1, where
    theory's pi_S is 1.  The weights are Python floats: a few numpy calls
    on 3-vectors cost more than the arithmetic."""
    f0, f1 = table[:, :2].T.tolist()
    w = _tree_weights(f0, [b - a for a, b in zip(f0, f1)], [1.0 - b for b in f1])
    x = rng.random() * (w[0] + w[1] + w[2])
    return (x >= w[0]) + (x >= w[0] + w[1])


def run(config: SimConfig) -> SimReport:
    """Simulate ``n_sessions`` sessions from a stationary start and report
    empirical throughput, outage, and session-length estimates.

    This is :func:`_run_group` of the one config: a run's report is the
    same alone or in a group.  The arrival stream and the PHY randomness
    use separate generators derived from the seed, so threshold and
    phy-coupled runs with the same seed see identical arrival sequences.
    """
    return _run_group([config])[0]


def _run_group(configs: list[SimConfig]) -> list[SimReport]:
    """The :func:`run` report of each of ``configs``, all of one session
    count, from one walk and one count table.

    Each config is one chain, which enters in a class drawn by
    :func:`_entry_class` with the first uniform of its arrival generator,
    and the chains are walked together by :func:`_walk`.  The sessions of
    all of them are then counted in one integer table indexed by (chain,
    batch, K), and each chain's two (batch, state) tables, one counting
    sessions and one counting packets, with a last row for the whole run,
    are summed from its part as integers; every output is read from them.
    A column's state is read off its K: Idle, Single, Success
    (2 <= K <= M+1) or Unsuccess.  Every K below the widest table's width
    gets a column, unless that gives more cells than each chain walks
    sessions: then only the K that occur do, so the table's size follows
    the K drawn, not the width of the law, and stays below the walk's.

    Under the phy-coupled rule each chain then decodes its collisions of
    each K in one call, K ascending, on its own PHY generator, the trials
    taken in session order; a second table counts each (batch, K)'s
    failed decodes, which are moved from Success to Unsuccess.

    The 100 batches (fewer when there are fewer sessions) are those of
    ``np.array_split``.  Every estimate is one ratio of whole-run sums:
    throughput is delivered packets (states 0-2) over time (session counts
    times their lengths), outage is Unsuccess sessions over sessions, and
    the mean length is time over sessions.  Its standard error is that of
    the batch means of the same ratio, each batch ratio taken as sum over
    sum, not as a mean of per-session ratios (Asmussen & Glynn,
    *Stochastic Simulation*, ch. IV); with one session it is NaN.
    """
    n = configs[0].n_sessions
    if any(config.n_sessions != n for config in configs):
        raise ValueError("a group walks configs of one session count")
    rngs = [list(map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2)))
            for config in configs]
    tables, arr_rngs = [config._table for config in configs], [arr_rng for arr_rng, _ in rngs]
    entries = [_entry_class(table, arr_rng) for table, arr_rng in zip(tables, arr_rngs)]
    arrived = _walk(tables, n, arr_rngs, entries)

    # batch means: sessions are Markov-dependent, so per-session errors
    # understate the variance; batches restore approximate independence
    n_batches = min(_BATCHES, n)
    # every K is below its table's width, so a column per K fits any chain
    ks = np.arange(max(config._table.shape[1] for config in configs))
    if n_batches * len(ks) > n:  # count only the K that occur
        seen = np.bincount(arrived.ravel(), minlength=len(ks)) > 0
        ks = np.flatnonzero(seen)
        arrived = (np.cumsum(seen) - 1).take(arrived)  # the column of each K
    per_chain = n_batches * len(ks)
    # cell (chain * n_batches + batch) * len(ks) + column; the first r
    # batches hold one session more, as in np.array_split
    q, r = divmod(n, n_batches)
    cell = np.repeat(np.arange(0, per_chain, len(ks)), [q + 1] * r + [q] * (n_batches - r))
    cell = cell + arrived
    cell += np.arange(0, len(configs) * per_chain, per_chain)[:, None]
    counts = np.bincount(cell.ravel(), minlength=len(configs) * per_chain)
    del cell
    counts = counts.reshape(len(configs), n_batches, len(ks))
    return [_report(config, chain_counts, ks, phy_rng)
            for config, chain_counts, (_, phy_rng) in zip(configs, counts, rngs)]


def _report(config: SimConfig, counts: np.ndarray, ks: np.ndarray,
            phy_rng: np.random.Generator) -> SimReport:
    """The report of one chain of :func:`_run_group` from its (batch, K)
    session ``counts``, column i counting the sessions of K ``ks[i]``."""
    params = config.params
    m = params.m_relays
    n_batches = len(counts)
    # Idle, Single, Success (2 <= K <= M+1) or Unsuccess, by K alone
    state = np.minimum(ks, 2)
    state[ks > m + 1] = 3
    of_state = state == np.arange(4)[:, None]
    # what a session of each column adds to the sessions, then the packets,
    # of each state: the (batch, 8) table of the two is one product
    weights = np.concatenate([of_state, of_state * ks]).T
    table = counts @ weights
    if config.success_rule == PHY_COUPLED:
        # decode the collisions of each K in one call; failures are outages
        failed = np.zeros_like(counts)
        for i in np.flatnonzero(of_state[2] & (counts.sum(axis=0) > 0)).tolist():
            errors = mpr.symbol_errors(int(ks[i]), m, config.snr_db, int(counts[:, i].sum()),
                                       phy_rng)
            # trial t decodes the t-th session of this K, whose batch is batch[t]
            batch = np.repeat(np.arange(n_batches), counts[:, i])
            failed[:, i] = np.bincount(batch[errors.any(axis=1)], minlength=n_batches)
        lost = failed @ weights[:, [2, 6]]  # the Success sessions and packets that failed
        table[:, [2, 6]] -= lost
        table[:, [3, 7]] += lost
    # a last row for the whole run, summed from the integer counts
    table = np.vstack([table, table.sum(axis=0)])
    sessions, packets = table[:, :4], table[:, 4:]
    # Sigma count * T summed from the Long end: T is (eps, 1, M+1, M+1), so
    # only the Idle term and the last addition round, within 1 ulp in all
    time = (sessions[:, ::-1] * params.durations[::-1]).sum(axis=1)
    delivered = packets[:, :3].sum(axis=1)
    counted = sessions.sum(axis=1)

    def ratio(num, den):
        """The whole run's num / den, and the standard error of the batch
        means of the same ratio."""
        batches = num[:-1] / den[:-1]
        # equal batch ratios have no spread, though np.std of them can round above 0
        stderr = math.nan if n_batches == 1 else 0.0 if np.ptp(batches) == 0 \
            else float(np.std(batches, ddof=1)) / math.sqrt(n_batches)
        return float(num[-1] / den[-1]), stderr

    throughput_hat, stderr_throughput = ratio(delivered, time)
    outage_hat, stderr_outage = ratio(sessions[:, 3], counted)
    mean_length_hat, stderr_mean_length = ratio(time, counted)
    return SimReport(
        sessions_by_state=tuple(sessions[-1].tolist()),
        packets_arrived=int(packets[-1].sum()),
        packets_delivered=int(delivered[-1]),
        packets_lost=int(packets[-1, 3]),
        total_time=float(time[-1]),
        throughput_hat=throughput_hat,
        outage_hat=outage_hat,
        mean_session_length_hat=mean_length_hat,
        stderr_throughput=stderr_throughput,
        stderr_outage=stderr_outage,
        stderr_mean_length=stderr_mean_length,
        seed=config.seed,
    )


def derive_seeds(base_seed: int, count: int) -> list[int]:
    """Independent per-run seeds for a sweep, deterministic in (base, index)."""
    return [int(ss.generate_state(1)[0]) for ss in
            np.random.SeedSequence(base_seed).spawn(count)]
