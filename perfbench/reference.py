"""Frozen reference kernels: how fast the host runs a given kind of work at
the moment.

Other tenants share this host's cores, and contention slows the work itself
(not just its scheduling) by up to about 1.6 times, for seconds to minutes
at a time.  The benchmark runs a fixed reference mix next to every
iteration and scales the iteration's time by how much slower than nominal
the mix ran.  Each
workload's mix imitates its own hot code, because contention slows
interpreter loops, small-array numpy and batched linear algebra by different
amounts.  The kernels never call ``rara``, so a change to the package cannot
move them.
"""

from __future__ import annotations

import math
import time

import numpy as np

_rng = np.random.default_rng(12345)
_P = _rng.random((3000, 4, 4))
_P /= _P.sum(axis=-1, keepdims=True)
_DRAWS = _rng.poisson(3.0, 60000)
_H_BATCH = _rng.standard_normal((1024, 9, 8)) + 1j * _rng.standard_normal((1024, 9, 8))
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def interpreter():
    """Float math and container work in the interpreter."""
    acc, seen = 0.0, {}
    for i in range(30000):
        x = math.exp(-i * 1e-5) * (i % 7)
        seen[i & 255] = x
        acc += x
    return acc


def stacked_steps():
    """Steps of a stacked 4-state power iteration over 3000 chains, each
    with its convergence test."""
    pi = np.full((3000, 4), 0.25)
    change = 0.0
    for _ in range(100):
        nxt = np.einsum("...i,...ij->...j", pi, _P)
        nxt /= nxt.sum(axis=-1, keepdims=True)
        change = np.max(np.abs(nxt - pi))
        pi = nxt
    return change


def scalar_walk():
    """A per-step Python loop over numpy scalars, as in a session walk."""
    out = np.empty(len(_DRAWS), dtype=np.int64)
    k = 0
    for t, v in enumerate(_DRAWS):
        k = int(v) if k < 5 else k // 2
        out[t] = k
    return out


def _cn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def decode_chain():
    """One collision at a time: seeded generators, complex Gaussian channel
    draws, an (M+1) x K matrix, noise, condition number, pseudo-inverse and
    hard decisions, as in a per-collision zero-forcing decode."""
    decoded = 0
    for i in range(180):
        k, m = 2 + i % 8, 10
        rng = np.random.default_rng(i)
        direct, dev_rel, rel_bs = _cn(rng, k), _cn(rng, (m, k)), _cn(rng, m)
        h = np.vstack([direct, rel_bs[:, None] * dev_rel])
        s = _QPSK[rng.integers(0, 4, k)]
        r = h @ s + _cn(np.random.default_rng(i + 1), m + 1) * 0.01
        np.linalg.cond(h)
        est = np.linalg.pinv(h) @ r
        decided = (np.where(est.real >= 0, 1.0, -1.0)
                   + 1j * np.where(est.imag >= 0, 1.0, -1.0)) / math.sqrt(2.0)
        decoded += bool(np.array_equal(decided, s))
    return decoded


def batched_linalg():
    """A batched complex pseudo-inverse."""
    return np.linalg.pinv(_H_BATCH)


# Kernel mix per workload, after where each workload spends its time; the
# mix's fastest time in 300 tries on the 2-core Xeon host this benchmark was
# written on, which only sets the scale of the corrected time; and the
# workload's sensitivity: the exponent that maps the mix's slowdown onto the
# workload's.  Measured across shifts in host load, the simulation workloads
# slow down as much as their mixes, but theory_grid's 8-10 s stacked power
# iteration only by about the square root of its mix's slowdown
# (log-slope 0.5-0.65).
MIXES = {
    "theory_grid": ((stacked_steps, interpreter), 0.0248, 0.5),
    "sim_threshold": ((scalar_walk, interpreter), 0.0183, 1.0),
    "sim_phy": ((decode_chain,), 0.0307, 1.0),
    "phy_ser": ((batched_linalg,), 0.0248, 1.0),
}

# Least runs of the mix per reading.
PROBES = 5


def slowdown(workload: str, seconds: float = 0.0) -> float:
    """By how many times host contention stretches the workload's time now:
    the mean time of at least ``PROBES`` runs of its mix, and of as many
    more as fit in ``seconds``, over the nominal time, raised to the
    workload's sensitivity."""
    kernels, nominal, sensitivity = MIXES[workload]
    runs = 0
    start = time.perf_counter()
    end = start + seconds
    while runs < PROBES or time.perf_counter() < end:
        for kernel in kernels:
            kernel()
        runs += 1
    return ((time.perf_counter() - start) / runs / nominal) ** sensitivity
