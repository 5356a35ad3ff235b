"""Property tests for invariants of the link: the pre-FFT surface against its
direct correlator, the precode/demodulate/decode round trip, the classical
receiver as the secure receiver with unit CP phases, the classical
waveform as the secure waveform with zero angles, batched keystream,
modulation and demodulation against their per-block forms, the bundled
LDPC codes' encoder, and the LDPC syndrome and encoder against their dense
GF(2) forms."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spofdm.keystream import (PhaseSequence, SecretKey, aes_encrypt_block,
                              map_psk, phase_plans)
from spofdm.rxchain import (LdpcEncoder, bundled_code_path, load_alist,
                            make_regular_parity_check)
from spofdm.sync import (FIRST_BLOCK, SyncConfig, corr_pre_fft, demod_fft,
                         pre_fft_surface)
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            decode_phases, modulate_block, precode,
                            random_symbol_blocks)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")

FAST = settings(max_examples=25, deadline=None)


@st.composite
def small_links(draw):
    """A small OFDM config, a received precoded signal with a random
    integer delay, and a synchronizer config that fits inside it."""
    n_c = draw(st.sampled_from([8, 16, 32]))
    cp1 = draw(st.integers(1, n_c // 4))
    cp2 = draw(st.integers(1, n_c // 4))
    config = OfdmConfig(n_carriers=n_c, cp1_samples=cp1, cp2_samples=cp2,
                        psk_order=draw(st.sampled_from([2, 4, 16])),
                        sample_interval=1.0 / n_c)
    n_blocks = draw(st.integers(1, 3))
    candidates = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4,
                               unique=True))
    k0 = draw(st.integers(0, 6))
    delay = draw(st.integers(0, config.block_samples - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = random_symbol_blocks(rng, n_blocks + 3, config)
    angles = phase_plans(KEY, 0, k0, n_blocks + 3, n_c, config.psk_order)
    wave = build_waveform(blocks, angles, config)
    samples = np.concatenate([np.zeros(delay, dtype=complex), wave.samples])
    samples += 0.1 * (rng.normal(size=samples.size)
                      + 1j * rng.normal(size=samples.size))
    r = ComplexSignal(samples, config.sample_interval)
    return config, SyncConfig(n_blocks=n_blocks, candidates=candidates), r


class UnitCpPhases:
    """Phase sequence stand-in whose CP phase is 1 for every block."""

    def plan(self, k_first, k_last):
        return np.zeros((k_last - k_first + 1, 1))


@FAST
@given(small_links())
def test_surface_matches_direct_correlator(link):
    config, sync_cfg, r = link
    seq = PhaseSequence(KEY, 0, config.n_carriers, config.psk_order)
    surface = pre_fft_surface(r, config, sync_cfg, seq)
    ks = range(FIRST_BLOCK, FIRST_BLOCK + sync_cfg.n_blocks)
    assert surface.shape == (config.block_samples, sync_cfg.candidates.size)
    for tau in range(config.block_samples):
        for j, d in enumerate(sync_cfg.candidates):
            direct = np.mean([corr_pre_fft(r, k, tau, int(d), seq, config)
                              for k in ks])
            assert abs(surface[tau, j] - direct) < 1e-12


@FAST
@given(small_links())
def test_classical_surface_is_unit_phase_surface(link):
    config, sync_cfg, r = link
    classical = pre_fft_surface(r, config, sync_cfg)
    one_candidate = SyncConfig(n_blocks=sync_cfg.n_blocks, candidates=[0])
    unit = pre_fft_surface(r, config, one_candidate, UnitCpPhases())
    assert classical.shape == (config.block_samples,)
    assert np.max(np.abs(classical - unit[:, 0])) < 1e-12


@FAST
@given(n_c=st.sampled_from([8, 16, 64, 128]),
       psk_order=st.sampled_from([2, 4, 16]),
       block_index=st.integers(0, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_precode_modulate_demodulate_decode_round_trip(n_c, psk_order,
                                                       block_index, seed):
    config = OfdmConfig(n_carriers=n_c, cp1_samples=n_c // 8 or 1,
                        cp2_samples=n_c // 16 or 1, psk_order=psk_order)
    rng = np.random.default_rng(seed)
    block = random_symbol_blocks(rng, 1, config)[0]
    plan = phase_plans(KEY, 0, block_index, 1, n_c, psk_order)[0]
    sig = modulate_block(precode(block, plan[1:]), np.exp(1j * plan[0]),
                         config)
    demod = demod_fft(sig, config.cp_samples, config, SyncConfig(n_l=0, n_u=0))
    decoded = decode_phases(demod, plan[1:])
    assert np.max(np.abs(decoded - block)) < 1e-9


@FAST
@given(epoch=st.integers(0, 2 ** 32 - 1),
       k_first=st.integers(0, 2 ** 64 - 9),
       count=st.integers(1, 8),
       n_c=st.sampled_from([1, 8, 16, 127, 128]),
       psk_order=st.sampled_from([2, 4, 16, 256]))
def test_batched_keystream_equals_per_block_keystream(epoch, k_first, count,
                                                       n_c, psk_order):
    rows = phase_plans(KEY, epoch, k_first, count, n_c, psk_order)
    n_bits = (n_c + 1) * (psk_order.bit_length() - 1)
    assert rows.shape == (count, n_c + 1)
    for i, row in enumerate(rows):
        # one AES block per 128 bits of the counter epoch | block | counter
        stream = b"".join(
            aes_encrypt_block(KEY, epoch.to_bytes(4, "big")
                              + (k_first + i).to_bytes(8, "big")
                              + counter.to_bytes(4, "big"))
            for counter in range(-(-n_bits // 128)))
        bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:n_bits]
        assert np.array_equal(row, map_psk(bits, psk_order))


@FAST
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=6))
def test_sequence_rows_independent_of_growth_order(ranges):
    seq = PhaseSequence(KEY, 3, 16, 4)
    for a, b in ranges:
        a, b = min(a, b), max(a, b)
        assert np.array_equal(seq.plan(a, b),
                              phase_plans(KEY, 3, a, b - a + 1, 16, 4))


@FAST
@given(n_c=st.sampled_from([8, 16, 64]),
       n_blocks=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_modulate_equals_per_block_calls(n_c, n_blocks, seed):
    config = OfdmConfig(n_carriers=n_c, cp1_samples=n_c // 8,
                        cp2_samples=n_c // 8, psk_order=16)
    rng = np.random.default_rng(seed)
    precoded = (rng.normal(size=(n_blocks, n_c))
                + 1j * rng.normal(size=(n_blocks, n_c)))
    cp_phases = np.exp(2j * np.pi * rng.integers(0, 16, n_blocks) / 16)
    batched = modulate_block(precoded, cp_phases, config).samples
    rows = [modulate_block(precoded[b], cp_phases[b], config).samples
            for b in range(n_blocks)]
    assert np.array_equal(batched, np.concatenate(rows))
    plain = modulate_block(precoded, 1.0, config).samples
    assert np.array_equal(plain, np.concatenate(
        [modulate_block(row, 1.0, config).samples for row in precoded]))


@FAST
@given(n_c=st.sampled_from([8, 16, 64, 128]),
       n_blocks=st.integers(1, 5),
       data=st.data())
def test_zero_angle_waveform_is_classical_waveform(n_c, n_blocks, data):
    config = OfdmConfig(n_carriers=n_c,
                        cp1_samples=data.draw(st.integers(1, n_c // 4)),
                        cp2_samples=data.draw(st.integers(1, n_c // 4)),
                        psk_order=16, pilot_positions={0: 1.0 + 0j})
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = random_symbol_blocks(rng, n_blocks, config)
    zeros = np.zeros((n_blocks, n_c + 1))
    for symbols, angles in ((blocks[0], zeros[0]), (blocks, zeros)):
        secure = build_waveform(symbols, angles, config).samples
        classical = modulate_block(symbols, 1.0, config).samples
        assert secure.tobytes() == classical.tobytes()


@FAST
@given(n_c=st.sampled_from([8, 16, 64]),
       n_samples=st.integers(64, 300),
       margin=st.integers(0, 3),
       data=st.data())
def test_batched_demod_equals_per_start_calls(n_c, n_samples, margin, data):
    config = OfdmConfig(n_carriers=n_c, cp1_samples=1, cp2_samples=1,
                        psk_order=4)
    sync_cfg = SyncConfig(n_l=-margin, n_u=margin)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r = ComplexSignal(rng.normal(size=n_samples)
                      + 1j * rng.normal(size=n_samples), config.sample_interval)
    last = n_samples - n_c
    starts = np.array(data.draw(st.lists(st.integers(0, last), min_size=1,
                                         max_size=6)))
    batched = demod_fft(r, starts, config, sync_cfg)
    assert batched.shape == (starts.size, sync_cfg.n_fft(config))
    for row, start in zip(batched, starts):
        assert np.array_equal(row, demod_fft(r, int(start), config, sync_cfg))
    bad = data.draw(st.one_of(st.integers(-n_samples, -1),
                              st.integers(last + 1, 2 * n_samples)))
    with pytest.raises(ValueError, match="out of range"):
        demod_fft(r, np.append(starts, bad), config, sync_cfg)


@lru_cache(maxsize=None)
def bundled_encoder(rate_label):
    return LdpcEncoder(load_alist(bundled_code_path(rate_label)))


@settings(max_examples=8, deadline=None)
@given(rate=st.sampled_from(["1_4", "1_3", "1_2", "2_3"]),
       n_words=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bundled_codewords_have_zero_syndrome(rate, n_words, seed):
    enc = bundled_encoder(rate)
    msg = np.random.default_rng(seed).integers(0, 2, size=(n_words, enc.k),
                                               dtype=np.uint8)
    words = enc.encode(msg)
    assert not enc.code.syndrome(words).any()
    assert np.array_equal(enc.extract_message(words), msg)
    assert np.array_equal(enc.extract_message(enc.encode(msg[0])), msg[0])


@FAST
@given(n=st.integers(6, 80), m=st.integers(2, 40),
       col_degree=st.integers(1, 3), n_words=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_syndrome_is_dense_product(n, m, col_degree, n_words, seed):
    # n * col_degree not a multiple of m mixes two check degrees
    assume(m < n and n * col_degree % m and 2 * col_degree <= m)
    code = make_regular_parity_check(n, m, col_degree, seed=seed % 1000)
    bits = np.random.default_rng(seed).integers(0, 2, size=(n_words, n),
                                                dtype=np.uint8)
    expect = (bits.astype(np.int64) @ code.dense().T) % 2
    assert np.array_equal(code.syndrome(bits), expect)
    assert np.array_equal(code.syndrome(bits[0]), expect[0])


def dense_encode(code, message):
    """Reference encoder: row-reduce H over GF(2) with column pivoting, then
    parity = A @ message as a dense integer product."""
    h = code.dense()
    pivots = []
    for col in range(code.n):
        hits = np.flatnonzero(h[len(pivots):, col]) + len(pivots)
        if hits.size:
            row = len(pivots)
            h[[row, hits[0]]] = h[[hits[0], row]]
            mask = h[:, col].astype(bool)
            mask[row] = False
            h[mask] ^= h[row]
            pivots.append(col)
    message_cols = np.setdiff1d(np.arange(code.n), pivots)
    a = h[:len(pivots)][:, message_cols].astype(np.int64)
    out = np.zeros((message.shape[0], code.n), dtype=np.uint8)
    out[:, message_cols] = message
    out[:, pivots] = (message.astype(np.int64) @ a.T) % 2
    return out


@lru_cache(maxsize=None)
def bundled_dense_words(rate_label, n_words, seed):
    enc = bundled_encoder(rate_label)
    msg = np.random.default_rng(seed).integers(0, 2, size=(n_words, enc.k),
                                               dtype=np.uint8)
    return msg, dense_encode(enc.code, msg)


@settings(max_examples=30, deadline=None)
@given(code=st.one_of(
           st.sampled_from(["1_4", "1_3", "1_2", "2_3"]),
           st.tuples(st.integers(30, 260), st.integers(2, 5),
                     st.integers(0, 1000))),
       n_words=st.integers(1, 4), seed=st.integers(0, 3))
@example(code="1_4", n_words=2, seed=0)
@example(code="1_3", n_words=2, seed=0)
@example(code="1_2", n_words=2, seed=0)
@example(code="2_3", n_words=2, seed=0)
def test_encode_is_dense_product(code, n_words, seed):
    if isinstance(code, str):
        enc = bundled_encoder(code)
        msg, expect = bundled_dense_words(code, n_words, seed)
    else:
        n, ratio, code_seed = code  # k = n - rank spans 64-bit word edges
        enc = LdpcEncoder(make_regular_parity_check(n, n // ratio, 3,
                                                    seed=code_seed))
        msg = np.random.default_rng(seed).integers(0, 2, size=(n_words, enc.k),
                                                   dtype=np.uint8)
        expect = dense_encode(enc.code, msg)
    assert np.array_equal(enc.encode(msg), expect)
    assert np.array_equal(enc.encode(msg[0]), expect[0])
