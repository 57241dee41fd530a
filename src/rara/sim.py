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
Markov chain, and its class (Idle K = 0, Single K = 1, Long K >= 2) is a
Markov chain of three states.  :func:`run` walks the class path: it draws
one uniform per session and reads the class off the CDF table of the
arrival law over the length of the session before it (inverse-transform
sampling), for Poisson and finite-population arrivals alike.  The table is
built once, by :class:`SimConfig`.  The walk runs in blocks of array
steps, not per session.  Every table row ends in exactly 1.0, so a K whose
probability per session is below about 2**-53 cannot be drawn.  A run's
chain enters in a class drawn from the stationary law of the class chain
its table drives (:func:`_entry_class`), so every session it walks is
stationary from the first and every one is counted.

Runs of one session count can be walked as a group (:func:`_run_group`;
:func:`run` is the group of one, and the CLI walks the rows of a grid in
groups): their chains share the walk's Python steps, each still drawing
from its own generator.  Each chain's sessions are then counted on their
own, in one (class of the session before, K) table (:func:`_count`),
whose Long K are drawn as one multinomial per class before, in the law
the table gives them.  Every output is read from that table
(:func:`_report`): the totals and estimates, and standard errors from the
plug-in variance of a ratio of Markov rewards, so a run's report does not
depend on its group.
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

# Largest arrival count per session the walk tabulates; a law that needs
# more is refused, since its CDF table would not fit in memory.
MAX_ARRIVALS = 2**21

# Sessions a walk of a group of runs may hold: the CLI walks the rows of a
# grid in consecutive groups whose sessions fit in it (a larger row walks
# alone).  A walk peaks near 16 B a session, 8 of uniforms, 6 of
# transitions and positions and the comparisons that build them, and
# returns 1 B of class a session.
_WALK_BUDGET = 2**17


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
    """The counts and estimates of one simulated run.

    Each ``*_hat`` is a ratio of whole-run sums: delivered packets over
    time, Unsuccess sessions over sessions, and time over sessions.  Each
    ``stderr_*`` estimates the standard deviation of its ``*_hat`` over
    runs, to first order in 1/n: the asymptotic variance of a ratio of
    Markov rewards, with the run's own transition counts plugged in
    (:func:`_report`).  It is 0, up to rounding, when the run's counts
    leave no spread, as in a run that never leaves Idle, and NaN for a run
    of one session.
    Where a run holds few visits to a class, the count it plugs in is poor
    and so is the error, as for the mean length at slow-mixing points.
    """

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
    """Classes (0 Idle, 1 Single, 2 Long) of ``n_sessions`` consecutive
    sessions of each of several chains, as a (chain, session) array of
    int8: chain j walks the CDF table ``tables[j]`` that :func:`_cdf_table`
    builds for the (Idle, Single, Long) lengths, draws from ``rngs[j]``, and
    its first session follows a session of class ``entries[j]``.  A chain's
    classes do not depend on the other chains of the call: a group of
    chains of one session count is walked in lockstep only to share the
    Python steps.

    A session's class is (u >= F_c(0)) + (u >= F_c(1)) for one uniform u,
    in the table row F_c of the class c of the session before it: the class
    of ``searchsorted(F_c, u, side="right")``, the K that u would draw.
    Each chain draws its uniforms as ``u`` of shape (isqrt(n_sessions),
    n_blocks), session i taking ``u.T.ravel()[i]``: a block is a column.
    Every block of every chain is walked in lockstep from each of the three
    classes, the three walks of a block sharing its uniforms.  A walk is at
    a flat position (c, chain, block), and ``nxt[step]`` maps each position
    to the next, in the class the step's uniform gives in the chain's own
    table, so a step is one ``take`` that chases the positions of every
    chain at once.  Once ``nxt`` is built the uniforms are freed.
    ``nxt[step]`` is read only at its step, so the positions after it
    overwrite the row of ``nxt`` read the step before: the walk keeps 6
    bytes a session of int16 transitions and positions.  The blocks of each
    chain are then chained: each enters one position past where its
    predecessor's chosen walk ended, in the class that walk ended in.  The
    uniforms do not depend on that choice, so this is the exact chain.  The
    classes are read along the chosen path and put in session order.
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
    del u, u_chain
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
    # the chosen walks start at their path, and are at work[t, path] after
    # t + 1 steps: the position of their session t
    classes = work[:size].take(path, axis=1) // lanes
    return (classes.astype(np.int8).reshape(size, chains, n_blocks).transpose(1, 2, 0)
            .reshape(chains, size * n_blocks)[:, :n_sessions])


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
    count, from one walk.

    Each config is one chain, which enters in a class drawn by
    :func:`_entry_class` with the first uniform of its arrival generator.
    The chains' class paths are walked together by :func:`_walk`, each
    from its own table and generator, and each chain is then counted by
    :func:`_report` on its own, so a run's report does not depend on the
    chains walked beside it.
    """
    n = configs[0].n_sessions
    if any(config.n_sessions != n for config in configs):
        raise ValueError("a group walks configs of one session count")
    rngs = [list(map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2)))
            for config in configs]
    tables, arr_rngs = [config._table for config in configs], [arr_rng for arr_rng, _ in rngs]
    entries = [_entry_class(table, arr_rng) for table, arr_rng in zip(tables, arr_rngs)]
    paths = _walk(tables, n, arr_rngs, entries)
    return [_report(config, path, entry, *chain_rngs)
            for config, path, entry, chain_rngs in zip(configs, paths, entries, rngs)]


def _count(table: np.ndarray, path: np.ndarray, entry: int, last: int,
           rng: np.random.Generator) -> np.ndarray:
    """A chain's sessions counted in one (3, width) integer table, indexed
    by the class (Idle, Single, Long) of the session before and K, width
    being that of its CDF ``table``.  ``path`` holds the chain's classes in
    session order, as :func:`_walk` gives them.  Its first session follows
    a session of class ``entry`` and is counted after one of class
    ``last``: :func:`_report` passes the run's last class, to read the run
    as a cycle.

    A session of class 0 or 1 is its own K.  The K of the Long sessions
    after each class c are drawn from ``rng`` as one multinomial over the
    K >= 2 of nonzero probability in the row F_c, K with probability
    (F_c(K) - F_c(K-1)) / (1 - F_c(1)), which is the walk's law of K given
    c and K >= 2.  A Long first session is one more draw, from the row of
    ``entry``, so every K keeps the chain's law.
    """
    # the sessions after the first, by the class before them and their own
    moves = np.bincount(3 * path[:-1] + path[1:], minlength=9).reshape(3, 3)
    counts = np.zeros((3, table.shape[1]), dtype=np.int64)
    counts[:, :2] = moves[:, :2]
    if path[0] < 2:
        counts[last, path[0]] += 1
    for drawn, counted, n in zip((0, 1, 2, entry), (0, 1, 2, last),
                                 (*moves[:, 2].tolist(), int(path[0] == 2))):
        if n:
            row = table[drawn]
            p = np.diff(row[1:]) / (1.0 - row[1])
            ks = np.flatnonzero(p)
            counts[counted, ks + 2] += rng.multinomial(n, p[ks])
    return counts


def _report(config: SimConfig, path: np.ndarray, entry: int, arr_rng: np.random.Generator,
            phy_rng: np.random.Generator) -> SimReport:
    """The report of one chain of :func:`_run_group` from the classes of
    its sessions, ``path``, in session order, and its entry class.

    The sessions are counted by :func:`_count`, the K of the Long ones
    drawn from the chain's arrival generator ``arr_rng`` after its walk,
    so a threshold and a phy-coupled run of one seed see the same
    sessions.  The run is read as a cycle: session 0's session before is
    the run's last.  Only the columns of the K the run visits, and of 0
    and 1, are kept, so the arithmetic below scales with the session count
    and not with the width of the law.  Under the phy-coupled rule the
    chain then decodes its collisions of each K in one call, K ascending,
    on its own PHY generator ``phy_rng``; a failed decode makes its
    session Unsuccess.  Every output is read from the table and those
    failure counts.

    Every estimate r = num / den is one ratio of whole-run sums: throughput
    is delivered packets over time, outage is Unsuccess sessions over
    sessions, and the mean length is time over sessions.  Its standard
    error is the plug-in variance of a ratio of Markov rewards (Kemeny &
    Snell's fundamental matrix; Asmussen & Glynn, *Stochastic Simulation*,
    ch. IV).  A session's K depends on the past only through the class c
    of the session before, so the table gives P(K | c), the class chain Q
    and pi = visits / n, which the cyclic read makes exactly Q's
    stationary law.  With f_K = y_K - r l_K, the mean reward of a session
    of K less r times its length, and h = (I - Q + 1 pi)^-1 P f, the run's
    n sigma^2 is the sum over (c, K) of count(c, K) (f_K^2 + v_K + 2 f_K
    h_min(K, 2)).  v_K is the variance of the reward given K: d_K (1 - d_K)
    for the outage and K^2 times that for the packets, with d_K the K's
    decoded share, so it is 0 but under the phy-coupled rule.  The error
    is sqrt(n sigma^2) / den, and NaN with one session.
    """
    params = config.params
    m, n = params.m_relays, len(path)
    counts = _count(config._table, path, entry, path[-1], arr_rng)
    ks = np.union1d([0, 1], np.flatnonzero(counts.any(axis=0)))  # the K the run visits
    counts = counts[:, ks]
    kind = np.minimum(ks, 2)  # the class of a session of each K
    total = counts.sum(axis=0)
    # the sessions of each K that deliver their packets
    decoded = np.where(ks > m + 1, 0, total)
    if config.success_rule == PHY_COUPLED:
        # decode the collisions of each K in one call; failures are outages
        for i in np.flatnonzero((kind == 2) & (decoded > 0)).tolist():
            errors = mpr.symbol_errors(int(ks[i]), m, config.snr_db, int(total[i]), phy_rng)
            decoded[i] -= np.count_nonzero(errors.any(axis=1))
    idle, single, success = int(total[0]), int(total[1]), int(decoded[2:].sum())
    sessions = (idle, single, success, n - idle - single - success)
    # Sigma count * T summed from the Long end: T is (eps, 1, M+1, M+1), so
    # only the Idle term and the last addition round, within 1 ulp in all
    time = float((np.array(sessions[::-1]) * params.durations[::-1]).sum())
    arrived, delivered = int(total @ ks), int(decoded @ ks)
    share = decoded / np.maximum(total, 1)  # each K's decoded share d_K
    length = np.take(params.durations, kind)
    visits = counts.sum(axis=1)
    after = counts / np.maximum(visits, 1)[:, None]  # P(K | class before)
    # (I - Q + 1 pi)^-1, Q summing P(K | class before) over the K of each class
    q = np.column_stack((after[:, :2], after[:, 2:].sum(axis=1)))
    fundamental = np.linalg.inv(np.eye(3) - q + visits / n)

    def ratio(num, den, y, l, v=0.0):
        """num / den, and its standard error from the session rewards y_K,
        lengths l_K and reward variances v_K of each K."""
        r = num / den
        f = y - r * l
        h = fundamental @ (after @ f)
        # a variance that is exactly 0 can round below 0
        var = max(float((f * (f + 2 * h[kind]) + v) @ total), 0.0)
        return r, math.nan if n == 1 else math.sqrt(var) / den

    throughput_hat, stderr_throughput = ratio(
        delivered, time, ks * share, length, ks * ks * share * (1 - share))
    outage_hat, stderr_outage = ratio(sessions[3], n, 1 - share, 1, share * (1 - share))
    mean_length_hat, stderr_mean_length = ratio(time, n, length, 1)
    return SimReport(
        sessions_by_state=sessions,
        packets_arrived=arrived,
        packets_delivered=delivered,
        packets_lost=arrived - delivered,
        total_time=time,
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
