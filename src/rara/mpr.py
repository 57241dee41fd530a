"""Multipacket reception over relay-forwarded observations.

When K devices collide, the base station keeps its direct observation and the
M amplify-and-forward relay copies, stacking them into M+1 linear equations
in the K transmitted symbols.  A decorrelating (zero-forcing) detector then
recovers all K symbols whenever K <= M+1 and the composite channel matrix is
well conditioned.

Channels are i.i.d. circularly-symmetric complex Gaussian with unit variance
(Rayleigh envelope); symbols are unit-energy QPSK, one symbol standing in for
one packet.  Relays forward with unit gain.

Channels, reception and detection broadcast over leading batch axes, one
collision per index; :func:`symbol_errors` alone draws trials and defines a
decoded collision.  It works through them in blocks of bounded size, drawing,
receiving and decoding each block in one pass, so the block size both fixes
the random stream and bounds memory.  Each draw site fills all of its
Gaussians with one ``standard_normal`` call (the channels' three gains, then
reception's n and w), the stream of one fill per array; the fill is scaled
once and copied into one complex buffer that all the arrays view.  The
composite matrix is written into one array, so a block makes few
temporaries.  Detection solves the normal equations through the inverse
Gram matrix and keeps an SVD only for the rare trial whose condition bound
nears the decodability threshold; a decision is one lookup into ``QPSK`` by
the signs of an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import check_count

# Composite matrices with a condition number above this are treated as
# effectively singular and the detection is not declared successful.
CONDITION_THRESHOLD = 1e8

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)

# Gram-inverse screen of detect: a trial whose certified bound b >= cond(H)
# stays below this is decodable without an SVD.  Its normal-equations solve
# then has relative error <~ eps * b^2 = 2e-8 before one refinement step.
_SCREEN = 1e4

# Trials per block of symbol_errors up to K(M+1) = 81, the (9, 8) size this
# was tuned on; fewer beyond, so a block holds at most _BLOCK * 81 matrix
# entries.  Each block is drawn and decoded in one pass, so this size fixes
# the random stream as well as the memory in flight.
_BLOCK = 512


class UnderdeterminedError(ValueError):
    """More colliding devices than stacked observations (K > M+1)."""


def _check_determined(k_devices: int, n_obs: int) -> None:
    """Refuse K colliding devices over fewer than K observations."""
    if k_devices > n_obs:
        raise UnderdeterminedError(f"{k_devices} colliding devices but only {n_obs} "
                                   f"observations; need K <= M+1")


@dataclass(frozen=True)
class ChannelRealization:
    """All link gains for K devices, M relays, and the BS, over any leading
    batch axes (one collision per batch index)."""

    direct: np.ndarray        # (..., K) device -> BS
    device_relay: np.ndarray  # (..., M, K) device -> relay
    relay_bs: np.ndarray      # (..., M) relay -> BS

    def __post_init__(self):
        *batch, k = self.direct.shape
        m = self.relay_bs.shape[-1]
        if self.device_relay.shape != (*batch, m, k) or self.relay_bs.shape != (*batch, m):
            raise ValueError(f"gains must be {(*batch, m, k)} device-relay and {(*batch, m)} "
                             f"relay-BS, got {self.device_relay.shape}, {self.relay_bs.shape}")
        # count_nonzero: the test of .all(), at a third of its fixed cost
        for a in (self.direct, self.device_relay, self.relay_bs):
            if np.count_nonzero(np.isfinite(a)) < a.size:
                raise ValueError("channel gains must be finite")


@dataclass(frozen=True)
class DetectionResult:
    estimates: np.ndarray  # raw decorrelator outputs
    decided: np.ndarray    # nearest QPSK symbols
    success: bool


def _cn(rng: np.random.Generator, *shapes) -> list[np.ndarray]:
    """Circularly-symmetric complex Gaussian arrays of the given shapes, unit
    variance per entry, from one fill of ``rng``: each array's real parts,
    then its imaginary parts, in turn, the stream of drawing them one
    ``standard_normal`` call at a time."""
    sizes = [math.prod(shape) for shape in shapes]
    normals = rng.standard_normal(2 * sum(sizes))
    # the same bits as dividing by complex(sqrt(2)), which numpy does as a
    # multiply by the reciprocal
    normals *= 1.0 / math.sqrt(2.0)
    z = np.empty(sum(sizes), dtype=complex)
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        part, pair = z[start:start + size], normals[2 * start:2 * (start + size)]
        part.real, part.imag = pair[:size], pair[size:]
        out.append(part.reshape(shape))
        start += size
    return out


def _draw_channels(rng: np.random.Generator, k_devices: int, m_relays: int,
                   batch: tuple = ()) -> ChannelRealization:
    return ChannelRealization(*_cn(rng, (*batch, k_devices), (*batch, m_relays, k_devices),
                                   (*batch, m_relays)))


def generate_channels(k_devices: int, m_relays: int, rng_seed: int) -> ChannelRealization:
    """Draw all gains i.i.d. CN(0, 1); deterministic for a given seed."""
    check_count("device count", k_devices, 1)
    check_count("relay count", m_relays, 1)
    return _draw_channels(np.random.default_rng(rng_seed), k_devices, m_relays)


def composite_matrix(ch: ChannelRealization) -> np.ndarray:
    """(..., M+1, K) effective channel: row 1 is the direct link, row m+1 the
    m-th relay's forwarded copy g_m * h_{m,k}."""
    *batch, m, k = ch.device_relay.shape
    h = np.empty((*batch, m + 1, k), dtype=np.result_type(ch.direct, ch.device_relay,
                                                           ch.relay_bs))
    h[..., 0, :] = ch.direct
    np.multiply(ch.relay_bs[..., None], ch.device_relay, out=h[..., 1:, :])
    return h


def simulate_reception(ch: ChannelRealization, symbols: np.ndarray, noise_var: float,
                       rng_seed: int | np.random.Generator) -> np.ndarray:
    """Noisy collision rounds over leading batch axes: direct row h_0 s + n_0,
    relay rows g_m (h_m s + w_m) + n_m, with n drawn before w and both of
    variance ``noise_var``.  ``rng_seed`` is a seed or a Generator."""
    if not 0 <= noise_var < math.inf:
        raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
    rng = np.random.default_rng(rng_seed)
    heard = np.einsum('...mk,...k->...m', ch.device_relay, symbols)
    r, w = _cn(rng, (*heard.shape[:-1], heard.shape[-1] + 1), heard.shape)
    r *= math.sqrt(noise_var)
    r[..., 0] += np.einsum('...k,...k->...', ch.direct, symbols)
    w *= math.sqrt(noise_var)
    heard += w
    r[..., 1:] += ch.relay_bs * heard
    return r


def nearest_qpsk(estimates: np.ndarray) -> np.ndarray:
    """Minimum-distance projection onto the unit-energy QPSK alphabet: the
    entry of ``QPSK`` whose signs match, a part being positive iff it is
    >= 0 (so -0.0 reads as positive and NaN as negative)."""
    # np.invert, not ~, which turns a Python bool into -1 or -2
    return QPSK[2 * np.invert(estimates.real >= 0) + np.invert(estimates.imag >= 0)]


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a batch of complex matrices, without a temporary
    the size of the batch."""
    flat = a.reshape(*a.shape[:-2], -1).view(np.float64)
    return np.sqrt(np.einsum('...i,...i->...', flat, flat))


def detect(h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing estimates pinv(H) r of a batch of (..., M+1, K) channels,
    and flags ``ok`` = cond(H) < CONDITION_THRESHOLD.

    Each trial solves the normal equations: x = Gi H^H r, where Gi is the
    computed inverse of G = H^H H, refined once by x += Gi H^H (r - H x).
    The bound b^2 = tr G * |Gi|_F / (1 - |Gi G - I|_F) satisfies
    cond(H) <= b for any Gi whose residual is below 1, and b is at most
    about K^(3/4) cond(H) for an accurate one; a trial with b < 1e4 is
    decodable and its solve accurate to rounding level.  Any other trial
    (b near or above the threshold, a residual of 1 or more, a NaN bound, or
    a batch holding an exactly singular G) falls back to one SVD per matrix:
    pinv(H) r without singular values below 1e-15 of the largest, so a
    rank-deficient H still yields finite estimates, and the flag from
    cond(H) itself.  Refuses K > M+1, an r whose shape is not
    ``h.shape[:-1]`` and a non-finite H.
    """
    n_obs, k = h.shape[-2:]
    _check_determined(k, n_obs)
    if r.shape != h.shape[:-1]:  # one received vector per matrix, one flag per trial
        raise ValueError(f"received r must have shape h.shape[:-1] = {h.shape[:-1]}, "
                         f"got {r.shape} for h of shape {h.shape}")
    hh = h.swapaxes(-1, -2).conj()
    g = hh @ h
    try:
        gi = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        gi = np.full_like(g, np.nan)
    rcol = r[..., None]
    x = gi @ (hh @ rcol)
    x += gi @ (hh @ (rcol - h @ x))
    del hh  # its memory can take the residual
    estimates = x[..., 0]
    # With E = Gi G - I, G^-1 = (I + E)^-1 Gi, so |G^-1| <= |Gi|_F / (1 - |E|_F)
    # and |G| <= tr G bound cond(H)^2 = |G| |G^-1|; rounding moves |E|_F by at
    # most about K eps b^2 < 1e-6 on a cleared trial.  The test b < _SCREEN is
    # made without a division, and asarray keeps a lone matrix's flag writable.
    residual = gi @ g
    diagonal = np.einsum('...ii->...i', residual)  # a view
    diagonal -= 1.0
    ok = np.asarray(np.einsum('...ii->...', g).real * _frobenius(gi)
                    < _SCREEN ** 2 * (1.0 - _frobenius(residual)))
    if np.count_nonzero(ok) < ok.size:  # not ok.all(), at a third of its fixed cost
        rest = ~ok
        h_rest = h[rest]
        # a NaN or inf in H always fails the screen, so it is caught here
        if not np.all(np.isfinite(h_rest)):
            raise ValueError("channel matrix h must be finite")
        u, sv, vh = np.linalg.svd(h_rest, full_matrices=False)
        inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-15 * sv[..., :1])
        coeffs = inv * np.einsum('...ok,...o->...k', u.conj(), r[rest])
        estimates[rest] = np.einsum('...kj,...k->...j', vh.conj(), coeffs)
        cond = np.divide(sv[..., 0], sv[..., -1], out=np.full(sv.shape[:-1], np.inf),
                         where=sv[..., -1] > 0)
        ok[rest] = cond < CONDITION_THRESHOLD
    return estimates, ok


def decorrelate(h: np.ndarray, r: np.ndarray) -> DetectionResult:
    """Zero-forcing detection of one collision (:func:`detect` with no batch
    axes), decided by nearest alphabet point.  Refuses batch axes, K > M+1
    and a non-finite H; a numerically rank-deficient H is flagged as
    unsuccessful but estimates are returned.
    """
    if h.ndim != 2 or r.ndim != 1:
        raise ValueError(f"decorrelate takes one collision, an (M+1, K) h and an (M+1,) r, "
                         f"got {h.shape} and {r.shape}; use detect for a batch")
    estimates, ok = detect(h, r)
    return DetectionResult(
        estimates=estimates,
        decided=nearest_qpsk(estimates),
        success=bool(ok),
    )


def noise_variance(snr_db: float) -> float:
    """Noise variance 10^(-snr_db/10) at an SNR in dB, relative to the
    unit-variance gains; +inf is the noiseless channel.  Refuses NaN and any
    SNR whose variance is infinite: -inf and anything below about -3082 dB."""
    try:
        variance = math.pow(10.0, -snr_db / 10.0)
    except OverflowError:
        variance = math.inf
    if not variance < math.inf:
        raise ValueError(f"noise variance 10**(-snr_db/10) must be finite, "
                         f"got snr_db={snr_db}")
    return variance


def symbol_errors(k_devices: int, m_relays: int, snr_db: float, trials: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Per-symbol error flags, shape (trials, K), of the decorrelator over
    ``trials`` fresh channels, symbols, and noise drawn from ``rng``.

    A symbol is wrong if its hard decision is wrong or its trial's composite
    matrix has cond >= CONDITION_THRESHOLD; a collision decodes iff none of
    its flags is set.  Trials run in blocks of 512, fewer in proportion when
    K(M+1) > 81, so a block holds at most 512 * 81 matrix entries.  Each
    block's channels, symbols and noise are drawn, received and decoded
    before the next block is drawn, so a run's leading blocks do not depend
    on how many trials follow them.  SNR is per received symbol, for relay
    and BS noise alike, with the domain of :func:`noise_variance`.  K > M+1
    is refused, as by :func:`detect`, before anything is drawn from ``rng``.
    """
    for name, count in (("device count", k_devices), ("relay count", m_relays),
                        ("trials", trials)):
        check_count(name, count, 1)
    _check_determined(k_devices, m_relays + 1)  # before anything is drawn
    noise_var = noise_variance(snr_db)
    block = max(1, _BLOCK * 81 // max(81, k_devices * (m_relays + 1)))
    errors = np.empty((trials, k_devices), dtype=bool)
    for start in range(0, trials, block):
        n = min(block, trials - start)
        ch = _draw_channels(rng, k_devices, m_relays, (n,))
        symbols = QPSK[rng.integers(0, 4, (n, k_devices))]
        r = simulate_reception(ch, symbols, noise_var, rng)
        h = composite_matrix(ch)
        del ch  # the gains are not read again, so detect runs without them
        estimates, ok = detect(h, r)
        errors[start:start + n] = (nearest_qpsk(estimates) != symbols) | ~ok[:, None]
    return errors


def symbol_error_rate(k_devices: int, m_relays: int, snr_db: float,
                      trials: int, rng_seed: int) -> float:
    """Monte-Carlo symbol error rate: the mean of :func:`symbol_errors` over
    ``trials`` trials."""
    rng = np.random.default_rng(rng_seed)
    errors = symbol_errors(k_devices, m_relays, snr_db, trials, rng)
    return int(np.count_nonzero(errors)) / (trials * k_devices)
