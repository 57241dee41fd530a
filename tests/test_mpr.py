import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rara import mpr


class TestGenerateChannels:
    def test_seed_determinism(self):
        a = mpr.generate_channels(1, 1, 7)
        b = mpr.generate_channels(1, 1, 7)
        assert np.array_equal(a.direct, b.direct)
        assert np.array_equal(a.device_relay, b.device_relay)
        assert np.array_equal(a.relay_bs, b.relay_bs)

    def test_shapes(self):
        ch = mpr.generate_channels(3, 4, 0)
        assert ch.direct.shape == (3,)
        assert ch.device_relay.shape == (4, 3)
        assert ch.relay_bs.shape == (4,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mpr.generate_channels(0, 1, 0)
        # numpy would fail on a float shape with a TypeError
        for k, m in ((2.5, 2), (2, 2.5), (2.0, 2)):
            with pytest.raises(ValueError, match="count"):
                mpr.generate_channels(k, m, 0)

    def test_unit_mean_power(self):
        # law of large numbers on |h|^2 over 1e5 (2, 2) channels, drawn as
        # one batch from the sampler generate_channels wraps
        channels = mpr._draw_channels(np.random.default_rng(0), 2, 2, (100_000,))
        for gain in ("direct", "device_relay", "relay_bs"):
            assert abs(np.mean(np.abs(getattr(channels, gain)) ** 2) - 1.0) < 0.02
        # generate_channels(k, m, s) is that sampler on default_rng(s), bit for bit
        for s in range(20):
            ch, ref = mpr.generate_channels(2, 3, s), mpr._draw_channels(
                np.random.default_rng(s), 2, 3)
            for gain in ("direct", "device_relay", "relay_bs"):
                assert np.array_equal(getattr(ch, gain), getattr(ref, gain))


class TestChannelRealization:
    def test_rejects_mismatched_shapes(self):
        ch = mpr.generate_channels(3, 4, 0)
        for direct, device_relay, relay_bs in (
                (ch.direct, ch.device_relay[:2], ch.relay_bs),       # M of 2 vs 4
                (ch.direct[:2], ch.device_relay, ch.relay_bs),       # K of 2 vs 3
                (ch.direct, ch.device_relay, ch.relay_bs[None])):    # a stray batch axis
            with pytest.raises(ValueError, match="gains must be"):
                mpr.ChannelRealization(direct, device_relay, relay_bs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_rejects_non_finite_gains(self, bad):
        ch = mpr.generate_channels(2, 3, 0)
        for field in ("direct", "device_relay", "relay_bs"):
            gains = {name: getattr(ch, name).copy()
                     for name in ("direct", "device_relay", "relay_bs")}
            gains[field].flat[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                mpr.ChannelRealization(**gains)


class TestCompositeMatrix:
    def test_hand_checkable(self):
        ch = mpr.ChannelRealization(
            direct=np.array([1.0 + 0j, 1.0 + 0j]),
            device_relay=np.array([[1.0 + 0j, -1.0 + 0j]]),
            relay_bs=np.array([1.0 + 0j]),
        )
        h = mpr.composite_matrix(ch)
        assert np.array_equal(h, np.array([[1, 1], [1, -1]], dtype=complex))
        assert np.linalg.matrix_rank(h) == 2

    def test_dead_relays(self):
        ch = mpr.generate_channels(2, 3, 5)
        dead = mpr.ChannelRealization(ch.direct, ch.device_relay,
                                      np.zeros_like(ch.relay_bs))
        h = mpr.composite_matrix(dead)
        assert np.all(h[1:] == 0)
        assert np.linalg.matrix_rank(h) <= 1

    def test_structure_exhaustive(self):
        ch = mpr.generate_channels(3, 4, 9)
        h = mpr.composite_matrix(ch)
        assert np.array_equal(h[0], ch.direct)
        # vectorized complex multiply may round a ULP apart from the scalar one
        for m in range(4):
            for k in range(3):
                assert h[m + 1, k] == pytest.approx(
                    ch.relay_bs[m] * ch.device_relay[m, k], abs=1e-12)

    def test_full_rank_with_probability_one(self):
        for s in range(1000):
            ch = mpr.generate_channels(3, 4, s)
            h = mpr.composite_matrix(ch)
            assert np.linalg.cond(h) < 1e8


class TestSimulateReception:
    def test_noiseless_single_device(self):
        ch = mpr.ChannelRealization(
            direct=np.array([1.0 + 0j]),
            device_relay=np.ones((2, 1), dtype=complex),
            relay_bs=np.ones(2, dtype=complex),
        )
        r = mpr.simulate_reception(ch, np.array([1.0 + 0j]), 0.0, 3)
        assert np.allclose(r, np.ones(3))

    def test_noiseless_equals_h_s(self):
        ch = mpr.generate_channels(3, 4, 11)
        h = mpr.composite_matrix(ch)
        s = mpr.QPSK[np.array([0, 1, 2])]
        r = mpr.simulate_reception(ch, s, 0.0, 5)
        assert np.allclose(r, h @ s, atol=1e-14)

    def test_noise_covariance(self):
        # stacked noise: var n on row 1, var n + |g_m|^2 * var w on relay rows
        ch = mpr.generate_channels(2, 3, 11)
        h = mpr.composite_matrix(ch)
        s = mpr.QPSK[np.array([0, 1])]
        diffs = np.array([
            mpr.simulate_reception(ch, s, 0.01, 1000 + t) - h @ s
            for t in range(10_000)])
        emp = np.mean(np.abs(diffs) ** 2, axis=0)
        theo = 0.01 * np.concatenate([[1.0], 1.0 + np.abs(ch.relay_bs) ** 2])
        assert np.all(np.abs(emp / theo - 1.0) < 0.05)

    def test_seed_determinism(self):
        ch = mpr.generate_channels(2, 2, 1)
        s = mpr.QPSK[np.array([1, 3])]
        a = mpr.simulate_reception(ch, s, 0.1, 77)
        b = mpr.simulate_reception(ch, s, 0.1, 77)
        assert np.array_equal(a, b)

    def test_rejects_bad_noise(self):
        # NaN passes a `< 0` check, and NaN or inf give NaN observations
        ch = mpr.generate_channels(2, 2, 1)
        for noise_var in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_var"):
                mpr.simulate_reception(ch, mpr.QPSK[np.array([1, 3])], noise_var, 77)


def bits(a: np.ndarray) -> tuple:
    """An array's shape, dtype and bytes: equal only if equal bit for bit,
    telling -0.0 from 0.0."""
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


def cn_one_fill_per_array(rng, shape):
    """A complex Gaussian array drawn as two fills of its own, real parts
    then imaginary parts, each scaled by 1/sqrt(2)."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    parts = z.reshape(-1).view(np.float64)
    parts *= 1.0 / math.sqrt(2.0)
    return z


class TestOneFillPerDrawSite:
    # each draw site fills every array it needs with one standard_normal call;
    # that is the stream of one fill per array, and leaves rng in its state
    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_channels_are_the_stream_of_one_fill_per_array(self, batch):
        k, m = 3, 4
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        ch = mpr._draw_channels(rng, k, m, batch)
        ref = [cn_one_fill_per_array(ref_rng, shape)
               for shape in ((*batch, k), (*batch, m, k), (*batch, m))]
        for gain, want in zip(("direct", "device_relay", "relay_bs"), ref):
            assert bits(getattr(ch, gain)) == bits(want), gain
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("batch, noise_var", [((), 0.3), ((5,), 0.3), ((5,), 0.0)])
    def test_reception_is_the_stream_of_n_then_w(self, batch, noise_var):
        k, m = 3, 4
        ch = mpr._draw_channels(np.random.default_rng(2), k, m, batch)
        s = mpr.QPSK[np.random.default_rng(3).integers(0, 4, (*batch, k))]
        rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
        r = mpr.simulate_reception(ch, s, noise_var, rng)
        heard = np.einsum('...mk,...k->...m', ch.device_relay, s)
        want = cn_one_fill_per_array(ref_rng, (*batch, m + 1)) * math.sqrt(noise_var)
        want[..., 0] += np.einsum('...k,...k->...', ch.direct, s)
        heard += cn_one_fill_per_array(ref_rng, (*batch, m)) * math.sqrt(noise_var)
        want[..., 1:] += ch.relay_bs * heard
        assert bits(r) == bits(want)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("shapes", [((3,), (4, 3), (4,)), ((6, 3), (6, 4, 3), (6, 4))])
    def test_cn_is_one_fill_sliced_per_array(self, shapes):
        # one standard_normal fill of 2 * sum(sizes), cut per array in the
        # order given into its real parts then its imaginary parts, each
        # times 1/sqrt(2); the oracle does not use _cn
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        arrays = mpr._cn(rng, *shapes)
        sizes = [math.prod(shape) for shape in shapes]
        fill = ref_rng.standard_normal(2 * sum(sizes))
        start = 0
        for shape, size, got in zip(shapes, sizes, arrays):
            want = np.empty(shape, dtype=complex)
            want.real = (fill[start:start + size] * (1.0 / math.sqrt(2.0))).reshape(shape)
            want.imag = (fill[start + size:start + 2 * size] * (1.0 / math.sqrt(2.0))).reshape(shape)
            assert bits(got) == bits(want), shape
            start += 2 * size
        assert len(arrays) == len(shapes)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("batch", [(), (7,)])
    def test_composite_matrix_is_the_concatenation(self, batch):
        ch = mpr._draw_channels(np.random.default_rng(13), 3, 4, batch)
        want = np.concatenate([ch.direct[..., None, :],
                               ch.relay_bs[..., None] * ch.device_relay], axis=-2)
        assert bits(mpr.composite_matrix(ch)) == bits(want)


def sign_formula(estimates: np.ndarray) -> np.ndarray:
    """Each part's sign as +-1 (NaN as -1), over sqrt(2)."""
    re = np.where(estimates.real >= 0, 1.0, -1.0)
    im = np.where(estimates.imag >= 0, 1.0, -1.0)
    return (re + 1j * im) / math.sqrt(2.0)


class TestNearestQpsk:
    # every decision is an entry of QPSK, bit for bit
    @pytest.mark.parametrize("value, index", [
        (complex(math.nan, 1.0), 2), (complex(1.0, math.nan), 1),
        (complex(math.nan, math.nan), 3), (complex(math.nan, -1.0), 3),
        (complex(0.0, 0.0), 0), (complex(-0.0, -0.0), 0),
        (complex(-0.0, -1.0), 1), (complex(-1.0, -0.0), 2),
        (complex(math.inf, math.inf), 0), (complex(math.inf, -math.inf), 1),
        (complex(-math.inf, math.inf), 2), (complex(-math.inf, -math.inf), 3),
    ])
    def test_edge_values(self, value, index):
        # a NaN part reads as negative, either zero as positive, inf by its
        # sign; a lone Python complex is read as numpy reads it
        estimates = np.array([value])
        assert bits(mpr.nearest_qpsk(estimates)) == bits(mpr.QPSK[[index]])
        assert bits(sign_formula(estimates)) == bits(mpr.QPSK[[index]])
        assert bits(mpr.nearest_qpsk(value)) == bits(mpr.QPSK[index])

    def test_batch_with_edge_values_matches_sign_formula(self):
        rng = np.random.default_rng(15)
        estimates = rng.standard_normal((40, 6)) + 1j * rng.standard_normal((40, 6))
        edges = np.array([math.nan, 0.0, -0.0, math.inf, -math.inf])
        for part in (estimates.real, estimates.imag):
            chosen = rng.random(part.shape) < 0.4
            part[chosen] = rng.choice(edges, np.count_nonzero(chosen))
        decided = mpr.nearest_qpsk(estimates)
        assert bits(decided) == bits(sign_formula(estimates))
        assert np.isin(decided, mpr.QPSK).all()


class TestDecorrelate:
    @pytest.mark.parametrize("h_shape, r_shape", [((2, 3, 2), (2, 3)), ((1, 3, 2), (1, 3)),
                                                  ((3, 2), (4, 3))])
    def test_batch_refused(self, h_shape, r_shape):
        # a batch is detect's; decorrelate takes one collision
        rng = np.random.default_rng(16)
        h = rng.standard_normal(h_shape) + 1j * rng.standard_normal(h_shape)
        r = rng.standard_normal(r_shape) + 1j * rng.standard_normal(r_shape)
        with pytest.raises(ValueError, match=r"takes one collision.*use detect"):
            mpr.decorrelate(h, r)

    def test_identity_channel(self):
        s = mpr.QPSK[np.array([0, 2])]
        res = mpr.decorrelate(np.eye(2, dtype=complex), s)
        assert np.array_equal(res.estimates, s)
        assert res.success

    def test_hand_checkable_inverse(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex)
        s = mpr.QPSK[np.array([1, 2])]
        res = mpr.decorrelate(h, h @ s)
        assert np.max(np.abs(res.estimates - s)) < 1e-12
        assert np.array_equal(res.decided, s)

    def test_underdetermined_refused(self):
        h = np.ones((2, 3), dtype=complex)
        with pytest.raises(mpr.UnderdeterminedError):
            mpr.decorrelate(h, np.ones(2, dtype=complex))

    def test_rank_deficient_flagged(self):
        h = np.array([[1, 1], [1, 1]], dtype=complex)
        res = mpr.decorrelate(h, np.ones(2, dtype=complex))
        assert not res.success
        assert res.estimates.shape == (2,)

    def test_batched_rows_match_decorrelate(self):
        # one batched detection over stacked trials gives each trial the
        # same bits as decorrelate on that trial alone
        rng = np.random.default_rng(4)
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ch = mpr.ChannelRealization(cn(50, 3), cn(50, 4, 3), cn(50, 4))
        h = mpr.composite_matrix(ch)
        s = mpr.QPSK[rng.integers(0, 4, (50, 3))]
        r = mpr.simulate_reception(ch, s, 0.05, rng)
        estimates, ok = mpr.detect(h, r)
        for i in range(50):
            res = mpr.decorrelate(h[i], r[i])
            assert np.array_equal(estimates[i], res.estimates)
            assert ok[i] == res.success

    def test_monte_carlo_exact_recovery(self):
        rng = np.random.default_rng(0)
        for s in range(1000):
            ch = mpr.generate_channels(3, 4, s)
            h = mpr.composite_matrix(ch)
            sym = mpr.QPSK[rng.integers(0, 4, 3)]
            res = mpr.decorrelate(h, h @ sym)
            if res.success:
                assert np.max(np.abs(res.estimates - sym)) < 1e-9

    @given(st.integers(1, 8), st.integers(0, 7), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_noiseless_exactness_property(self, k, m_extra, seed):
        # any K <= M+1 full-rank composite matrix inverts exactly
        m = max(1, k - 1) + m_extra
        ch = mpr.generate_channels(k, m, seed)
        h = mpr.composite_matrix(ch)
        rng = np.random.default_rng(seed)
        sym = mpr.QPSK[rng.integers(0, 4, k)]
        res = mpr.decorrelate(h, h @ sym)
        if res.success:
            assert np.max(np.abs(res.estimates - sym)) < 1e-9


class TestDetect:
    def test_screen_matches_condition_threshold(self):
        # cond(H) from about 1 to 1e15, across both the Gram-inverse screen
        # and the decodability threshold: one column scaled by 10^-j, or one
        # column within 10^-j of another, where the computed inverse of
        # G = H^H H is garbage and its trace alone can look well conditioned
        rng = np.random.default_rng(12)
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        scaled = cn(104, 4, 3)
        scaled[:, :, 1] *= 10.0 ** -np.repeat(np.arange(13), 8)[:, None]
        close = cn(3000, 4, 3)
        close[:, :, 1] = close[:, :, 0] \
            + 10.0 ** -np.repeat(np.arange(15), 200)[:, None] * cn(3000, 4)
        h = np.concatenate([scaled, close])
        r = cn(len(h), 4)
        # an exactly singular G makes inv fail for the whole batch
        singular = h[:6].copy()
        singular[0] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(singular[0].conj().T @ singular[0])
        for hb, rb in ((singular, r[:6]), (h, r)):
            estimates, ok = mpr.detect(hb, rb)
            assert np.array_equal(ok, np.linalg.cond(hb) < mpr.CONDITION_THRESHOLD)
            ref = (np.linalg.pinv(hb) @ rb[..., None])[..., 0]
            err = np.linalg.norm(estimates - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
            assert np.all(err[ok] < 1e-9)
        # the stacked batch holds trials on both sides of the threshold
        assert 0 < np.count_nonzero(ok) < len(ok)

    def test_slices_match_whole_batch(self):
        # each trial is decoded on its own: a batch gives the same bits as
        # its slices, for trials cleared by the screen and for trials on
        # either side of the threshold that take the SVD
        rng = np.random.default_rng(21)
        cn = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = cn(300, 5, 4)
        h[::7, :, 2] *= 10.0 ** -rng.integers(3, 13, 43)[:, None]
        r = cn(300, 5)
        estimates, ok = mpr.detect(h, r)
        parts = [mpr.detect(h[lo:lo + 64], r[lo:lo + 64]) for lo in range(0, 300, 64)]
        assert np.concatenate([e for e, _ in parts]).tobytes() == estimates.tobytes()
        assert np.array_equal(np.concatenate([o for _, o in parts]), ok)
        assert 0 < np.count_nonzero(ok) < len(ok)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(-math.inf, 1.0)])
    def test_rejects_non_finite_channel(self, bad):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        r = np.ones((5, 3), dtype=complex)
        h[3, 1, 0] = bad
        # numpy may warn on inf arithmetic before the refusal
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="channel matrix h"):
                mpr.decorrelate(h[3], r[3])
            with pytest.raises(ValueError, match="channel matrix h"):
                mpr.detect(h, r)

    @pytest.mark.parametrize("h_shape, r_shape", [
        ((3, 2), (5, 3)),      # a lone h with a batched r: five estimates, one flag
        ((3, 2), (4,)),        # an r longer than M+1
        ((5, 3, 2), (5, 4)),
        ((5, 3, 2), (3,)),     # one r for a batch of h
        ((5, 3, 2), (4, 3)),
    ])
    def test_rejects_r_not_shaped_like_h(self, h_shape, r_shape):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(h_shape) + 1j * rng.standard_normal(h_shape)
        r = np.ones(r_shape, dtype=complex)
        message = rf"h\.shape\[:-1\] = {re.escape(str(h_shape[:-1]))}, " \
                  rf"got {re.escape(str(r_shape))} for h of shape {re.escape(str(h_shape))}"
        with pytest.raises(ValueError, match=message):
            mpr.detect(h, r)


class TestSymbolErrorRate:
    def test_zero_noise(self):
        assert mpr.symbol_error_rate(3, 4, math.inf, 1000, 1) == 0.0

    def test_refuses_overload(self):
        with pytest.raises(mpr.UnderdeterminedError):
            mpr.symbol_error_rate(3, 1, 10.0, 10, 1)

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            mpr.symbol_error_rate(2, 1, 10.0, 0, 1)
        with pytest.raises(ValueError, match="trials"):
            mpr.symbol_errors(2, 2, 10.0, 0, np.random.default_rng(1))

    def test_refuses_overload_before_drawing(self):
        # a million trials at K = 200 > M+1 = 2 would be drawn and simulated
        # before detect refused them; the refusal leaves the generator as it was
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(mpr.UnderdeterminedError, match="200 colliding devices"):
            mpr.symbol_errors(200, 1, 10.0, 10**6, rng)
        assert rng.bit_generator.state == state

    def test_rejects_fractional_counts(self):
        for k, m, trials in ((2, 2, 2.5), (2.5, 2, 10), (2, 1.5, 10)):
            with pytest.raises(ValueError, match="trials|count"):
                mpr.symbol_error_rate(k, m, 10.0, trials, 1)

    def test_batch_memory_is_bounded(self):
        # 8192 trials run as 16 blocks of 512 at (9, 8) and 58 blocks of 143
        # at (17, 16), each drawn and decoded before the next is drawn, so
        # only the (trials, K) flags outgrow one block: both peak near 4.5 MB.
        # Drawing all 8192 trials before decoding any peaks near 17 MB, so
        # the bound fails a return to batch-sized draws
        for k, m in ((17, 16), (9, 8)):
            tracemalloc.start()
            try:
                mpr.symbol_errors(k, m, 20.0, 8192, np.random.default_rng(1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10e6, (k, m)

    def test_each_block_is_drawn_received_and_decoded_in_turn(self):
        # K(M+1) = 289 > 81 cuts blocks of 512 * 81 // 289 = 143 trials:
        # these trials span three whole blocks and part of a fourth
        k, m, snr_db = 17, 16, 12.0
        block = 512 * 81 // (k * (m + 1))
        trials = 3 * block + 50
        errors = mpr.symbol_errors(k, m, snr_db, trials, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        by_hand = []
        for n in (block, block, block, 50):
            ch = mpr._draw_channels(rng, k, m, (n,))
            s = mpr.QPSK[rng.integers(0, 4, (n, k))]
            r = mpr.simulate_reception(ch, s, mpr.noise_variance(snr_db), rng)
            estimates, ok = mpr.detect(mpr.composite_matrix(ch), r)
            by_hand.append((mpr.nearest_qpsk(estimates) != s) | ~ok[:, None])
        assert np.array_equal(errors, np.concatenate(by_hand))
        assert 0 < np.count_nonzero(errors) < errors.size

    def test_leading_blocks_do_not_depend_on_the_trials_after_them(self):
        # two whole blocks of 512 at (4, 4), then a short or a long tail
        k, m, snr_db = 4, 4, 8.0
        head = mpr.symbol_errors(k, m, snr_db, 1024, np.random.default_rng(7))
        for trials in (1024 + 1, 1024 + 3000):
            errors = mpr.symbol_errors(k, m, snr_db, trials, np.random.default_rng(7))
            assert np.array_equal(errors[:1024], head), trials
        assert 0 < np.count_nonzero(head) < head.size

    def test_rejects_nan_and_minus_inf_snr(self):
        # +inf is the noiseless case; these two would give NaN observations
        for snr_db in (math.nan, -math.inf, -4000.0):
            with pytest.raises(ValueError):
                mpr.symbol_error_rate(2, 2, snr_db, 1000, 1)
            with pytest.raises(ValueError):
                mpr.symbol_errors(2, 2, snr_db, 10, np.random.default_rng(1))

    def test_determinism(self):
        a = mpr.symbol_error_rate(2, 2, 15.0, 5000, 9)
        b = mpr.symbol_error_rate(2, 2, 15.0, 5000, 9)
        assert a == b
        # pinned values guard the random stream; the second call has K = M+1
        # and spans 40 blocks
        assert a == 0.0092
        assert mpr.symbol_error_rate(9, 8, 20.0, 20_000, 3) == 0.05016111111111111

    def test_ill_conditioned_trial_counts_all_symbols_wrong(self, monkeypatch):
        # shrink one column of trial 0 so cond(H) ~ 1e12: noiseless decisions
        # stay right, yet the decode rule flags each of its symbols
        real = mpr.composite_matrix

        def degenerate(ch):
            h = real(ch)
            h[0, :, 1] *= 1e-12
            return h

        monkeypatch.setattr(mpr, "composite_matrix", degenerate)
        errors = mpr.symbol_errors(3, 2, math.inf, 20, np.random.default_rng(1))
        assert errors.shape == (20, 3)
        assert errors[0].all()
        assert not errors[1:].any()

    def test_monotone_in_snr(self):
        sers = [mpr.symbol_error_rate(2, 1, snr, 100_000, 5)
                for snr in (0.0, 10.0, 20.0, 30.0)]
        assert all(a > b for a, b in zip(sers, sers[1:]))
