"""Property tests for invariants of the link: the pre-FFT surface against its
direct correlator, the precode/demodulate/decode round trip, the classical
receiver as the secure receiver with unit CP phases, the classical
waveform as the secure waveform with zero angles (unit phasors), batched
keystream, modulation and demodulation against their per-block forms, the
feasible-bin integer CFO search and the body-span CFO derotation against
their full-grid and whole-signal forms, sync trials against a shared link
and a longer run, the built-in LDPC codes' encoder, the
LDPC syndrome and encoder against their dense GF(2) forms, and LDPC belief
propagation against a flooding reference decoder, bitwise in float32 and
statistically in float64, the MI module's blocked mixture log-density
against scipy's logsumexp, bitwise, and the pre-FFT surface's window view,
the in-place channel steps and the jammer sum against the gather, zero
buffers and new arrays they replaced, bitwise, and the multipath tap draws
against a per-tap loop, bitwise and in the RNG state they leave."""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from spofdm.avc import (InputDist, SymbolChannelSpec, _log2_ratio,
                        _log_mixture, _merge_components,
                        simulate_symbol_channel)
from spofdm.harness import (_secret_phasors, _sync_trial, run_sync_experiment,
                            table1_scenario)
from spofdm.channel import (FadingSpec, _delay, add_awgn, apply_fading,
                            complex_normal, random_multipath_taps)
from spofdm.jammer import combine
from spofdm.keystream import PhaseSequence, phase_plans, psk_phasors
from spofdm.rxchain import (LdpcEncoder, ParityCheckCode, builtin_code,
                            ldpc_bp_decode, llr_qpsk,
                            make_regular_parity_check, qpsk_map)
from spofdm.sync import (FIRST_BLOCK, SyncConfig, _backoff, _demod_derotated,
                         demod_fft, estimate_fine_time, estimate_integer_cfo,
                         estimate_phase, estimate_pre_fft, pre_fft_surface,
                         synchronize)
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            decode_phases, modulate_block, phase_ramp, precode,
                            random_symbol_blocks)
from support import (KEY, corr_pre_fft, despread, make_received,
                     plan_phasors, psk_exp, receiver_phasors, table_phasors)

FAST = settings(max_examples=25, deadline=None)


def aes_block(block):
    """One AES-ECB block under KEY: the oracle of the keystream's counter
    blocks."""
    encryptor = Cipher(algorithms.AES(KEY.key_bytes), modes.ECB()).encryptor()
    return encryptor.update(block)


def msb_first(bits, m):
    """Groups of log2(M) bits as integers, most significant bit first."""
    log2m = m.bit_length() - 1
    groups = bits.reshape(-1, log2m).astype(int)
    return sum(groups[:, j] << (log2m - 1 - j) for j in range(log2m))


@st.composite
def small_links(draw, max_blocks=3):
    """A small OFDM config, a received precoded signal with a random
    integer delay, and a synchronizer config of up to ``max_blocks``
    blocks that fits inside it."""
    n_c = draw(st.sampled_from([8, 16, 32]))
    cp1 = draw(st.integers(1, n_c // 4))
    cp2 = draw(st.integers(1, n_c // 4))
    config = OfdmConfig(n_carriers=n_c, cp1_samples=cp1, cp2_samples=cp2,
                        psk_order=draw(st.sampled_from([1, 2, 4, 16])))
    n_blocks = draw(st.integers(1, max_blocks))
    n_candidates = draw(st.integers(1, 7))
    k0 = draw(st.integers(0, 6))
    delay = draw(st.integers(0, config.block_samples - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = random_symbol_blocks(rng, n_blocks + 3, config)
    wave = build_waveform(blocks, plan_phasors(k0, n_blocks + 3, n_c,
                                               config.psk_order), config)
    samples = np.concatenate([np.zeros(delay, dtype=complex), wave.samples])
    samples += 0.1 * (rng.normal(size=samples.size)
                      + 1j * rng.normal(size=samples.size))
    r = ComplexSignal(samples, config.sample_interval)
    return config, SyncConfig(n_blocks=n_blocks, n_candidates=n_candidates), r


# a noiseless toy link: three blocks, four candidates
TOY = OfdmConfig(n_carriers=8, cp1_samples=2, cp2_samples=1, psk_order=4)


@FAST
@given(small_links())
@example((TOY, SyncConfig(n_blocks=3, n_candidates=4),
          make_received(TOY, 6, seed=5)))
def test_surface_matches_direct_correlator(link):
    config, sync_cfg, r = link
    phasors = receiver_phasors(config, sync_cfg)
    surface = pre_fft_surface(r, config, sync_cfg, phasors)
    ks = range(FIRST_BLOCK, FIRST_BLOCK + sync_cfg.n_blocks)
    assert surface.shape == (config.block_samples, sync_cfg.n_candidates)
    for tau in range(config.block_samples):
        for j, d in enumerate(sync_cfg.candidates):
            direct = np.mean([corr_pre_fft(r, k, tau, int(d), phasors, config)
                              for k in ks])
            assert abs(surface[tau, j] - direct) < 1e-12


def gather_pre_fft_surface(r, config, sync_cfg, phasors):
    """The pre-FFT surface with the CP1-window sums of the K blocks gathered
    by a (K, tau) fancy index and averaged by a division by K."""
    x, n_c, block = r.samples, config.n_carriers, config.block_samples
    k_count = sync_cfg.n_blocks
    needed = (FIRST_BLOCK + k_count) * block - config.cp2_samples + n_c
    prods = x[: needed - n_c] * np.conj(x[n_c:needed]) * r.sample_interval
    csum = np.concatenate([[0.0 + 0j], np.cumsum(prods)])
    w = csum[config.cp1_samples:] - csum[:-config.cp1_samples]
    ks = np.arange(FIRST_BLOCK, FIRST_BLOCK + k_count)
    y = w[ks[:, None] * block + np.arange(block)[None, :] - config.cp_samples]
    c = phasors[ks[:, None] + sync_cfg.candidates[None, :], 0]
    return (y.T @ np.conj(c)) / k_count


@FAST
@given(small_links(max_blocks=30))
@example((OfdmConfig(n_carriers=8, cp1_samples=2, cp2_samples=1, psk_order=1),
          SyncConfig(n_blocks=25, n_candidates=1),
          ComplexSignal(np.exp(1j * np.arange(8 * 11 * 30)), 1 / 8)))
def test_surface_view_and_reciprocal_are_gather_and_division(link):
    config, sync_cfg, r = link
    phasors = receiver_phasors(config, sync_cfg)
    assert array_bits(pre_fft_surface(r, config, sync_cfg, phasors)) == (
        array_bits(gather_pre_fft_surface(r, config, sync_cfg, phasors)))


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
    plan = plan_phasors(block_index, 1, n_c, psk_order)[0]
    sig = modulate_block(precode(block, plan[1:]), plan[0], config)
    demod = demod_fft(sig, config.cp_samples, config)
    decoded = decode_phases(demod, plan[1:])
    assert np.max(np.abs(decoded - block)) < 1e-9


@FAST
@given(epoch=st.integers(0, 2 ** 32 - 1),
       k_first=st.integers(0, 2 ** 64 - 9),
       count=st.integers(1, 8),
       n_c=st.sampled_from([1, 8, 16, 127, 128]),
       psk_order=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]))
def test_batched_keystream_equals_per_block_keystream(epoch, k_first, count,
                                                       n_c, psk_order):
    rows = phase_plans(KEY, epoch, k_first, count, n_c, psk_order)
    n_bits = (n_c + 1) * (psk_order.bit_length() - 1)
    assert rows.shape == (count, n_c + 1)
    for i, row in enumerate(rows):
        # one AES block per 128 bits of the counter epoch | block | counter
        stream = b"".join(
            aes_block(epoch.to_bytes(4, "big")
                      + (k_first + i).to_bytes(8, "big")
                      + counter.to_bytes(4, "big"))
            for counter in range(-(-n_bits // 128)))
        bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8))[:n_bits]
        assert np.array_equal(row, msb_first(bits, psk_order))


@FAST
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=6))
def test_sequence_rows_independent_of_growth_order(ranges):
    seq = PhaseSequence(KEY, 3, 16, 4)
    for a, b in ranges:
        a, b = min(a, b), max(a, b)
        assert seq.phasors(a, b).tobytes() == plan_phasors(
            a, b - a + 1, 16, 4, epoch=3).tobytes()


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
    cp_phases = psk_exp(rng.integers(0, 16, n_blocks), 16)
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
    ones = np.ones((n_blocks, n_c + 1), dtype=complex)
    for symbols, phasors in ((blocks[0], ones[0]), (blocks, ones)):
        secure = build_waveform(symbols, phasors, config).samples
        classical = modulate_block(symbols, 1.0, config).samples
        assert secure.tobytes() == classical.tobytes()


@FAST
@given(m=st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256]),
       n_c=st.sampled_from([1, 7, 128]),
       epoch=st.integers(0, 2 ** 32 - 1),
       k_first=st.integers(0, 10 ** 6),
       count=st.integers(1, 5))
def test_cached_phasors_are_exp_of_the_plans(m, n_c, epoch, k_first, count):
    v = phase_plans(KEY, epoch, k_first, count, n_c, m)
    phasors = psk_phasors(m)[v]
    assert phasors.tobytes() == psk_exp(v, m).tobytes()
    assert np.conj(phasors).tobytes() == psk_exp(v, m, -1).tobytes()


@FAST
@given(n_c=st.sampled_from([8, 16, 128]),
       psk_order=st.sampled_from([2, 4, 16, 256]),
       n_blocks=st.integers(1, 5),
       k_first=st.integers(0, 10 ** 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_waveform_from_phasors_is_angle_formula(n_c, psk_order, n_blocks,
                                                k_first, seed):
    config = OfdmConfig(n_carriers=n_c, cp1_samples=n_c // 8 or 1,
                        cp2_samples=n_c // 16 or 1, psk_order=psk_order)
    blocks = random_symbol_blocks(np.random.default_rng(seed), n_blocks, config)
    v = phase_plans(KEY, 0, k_first, n_blocks, n_c, psk_order)
    direct = modulate_block(blocks * psk_exp(v[:, 1:], psk_order, -1),
                            psk_exp(v[:, 0], psk_order), config)
    wave = build_waveform(blocks, table_phasors(k_first, n_blocks, n_c,
                                                psk_order), config)
    assert wave.samples.tobytes() == direct.samples.tobytes()


RAMP_CASES = dict(step=st.floats(-4, 4), phase=st.floats(-10, 10),
                  n=st.integers(1, 700), first=st.integers(0, 2000))


@FAST
@given(**RAMP_CASES)
@example(step=0.05, phase=0.3, n=1, first=0)
@example(step=0.05, phase=0.0, n=63, first=0)
@example(step=-0.1, phase=-2.0, n=40, first=77)
@example(step=-3.9, phase=9.0, n=700, first=1999)
def test_phase_ramp_is_exp_of_the_ramp(step, phase, n, first):
    k = np.arange(first, first + n)
    direct = np.exp(1j * (step * k + phase))
    ramp = phase_ramp(step, phase, n, first)
    # both round their arguments, to a few ulps of the argument's magnitude
    tol = 8 * np.finfo(float).eps * (1 + abs(step) * (first + n) + abs(phase))
    assert ramp.shape == (n,)
    assert np.max(np.abs(ramp - direct)) <= tol


@FAST
@given(**RAMP_CASES)
@example(step=-0.1, phase=0.0, n=1, first=65)
@example(step=0.02, phase=1.0, n=5, first=60)
def test_phase_ramp_span_is_slice_of_whole_ramp(step, phase, n, first):
    whole = phase_ramp(step, phase, first + n)
    assert phase_ramp(step, phase, n, first).tobytes() == whole[first:].tobytes()


@FAST
@given(n_c=st.sampled_from([8, 16, 64]),
       n_samples=st.integers(64, 300),
       data=st.data())
def test_batched_demod_equals_per_start_calls(n_c, n_samples, data):
    config = OfdmConfig(n_carriers=n_c, cp1_samples=1, cp2_samples=1,
                        psk_order=4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r = ComplexSignal(rng.normal(size=n_samples)
                      + 1j * rng.normal(size=n_samples), config.sample_interval)
    last = n_samples - n_c
    starts = np.array(data.draw(st.lists(st.integers(0, last), min_size=1,
                                         max_size=6)))
    batched = demod_fft(r, starts, config)
    assert batched.shape == (starts.size, n_c)
    for row, start in zip(batched, starts):
        assert np.array_equal(row, demod_fft(r, int(start), config))
    bad = data.draw(st.one_of(st.integers(-n_samples, -1),
                              st.integers(last + 1, 2 * n_samples)))
    with pytest.raises(ValueError, match="out of range"):
        demod_fft(r, np.append(starts, bad), config)


def full_grid_integer_cfo(r_blocks, pilots, phasors, config, sync_cfg):
    """Integer CFO search over the cross-block averages of all N_c bins
    despread by each pilot's phasors, read at the feasible bins afterwards."""
    n_c = r_blocks.shape[1]
    every_bin = np.repeat(np.arange(n_c)[:, None], len(pilots), axis=1)
    # C order, so that mean(axis=0) sums the blocks in row order
    z = np.ascontiguousarray(despread(r_blocks, every_bin, pilots, phasors))

    def gamma_avg(lag):
        return (z[:-lag] * np.conj(z[lag:])).mean(axis=0)

    k_count = r_blocks.shape[0] - 1
    tb_over_ts = config.block_samples / config.n_carriers
    n0_cands = np.arange(sync_cfg.n_l, sync_cfg.n_u + 1)
    cols = np.arange(len(pilots))
    idx = np.array([i for i, _ in pilots])
    gammas = {lag: gamma_avg(lag)
              for lag in {1, 2, 3, min(4, k_count)} if lag <= k_count}
    scores = sum(np.abs(gammas[lag][(idx + n0_cands[:, None]) % n_c, cols])
                 .sum(axis=1) for lag in (1, 2, 3) if lag in gammas)
    n0 = int(n0_cands[int(np.argmax(scores))])
    order = np.sort(scores)
    low_conf = bool(order[-1] < 1.5 * order[-2]) if scores.size > 1 else False

    def zeta_at(lag):
        rot = np.exp(2j * np.pi * n0 * lag * tb_over_ts)
        peak = (gammas[lag][(idx + n0) % n_c, cols] * rot).sum()
        return -cmath.phase(complex(peak)) / (2 * np.pi * lag * tb_over_ts)

    zeta0 = zeta_at(1)
    lag = min(4, k_count)
    if lag > 1:
        zeta_l = zeta_at(lag)
        period = 1.0 / (lag * tb_over_ts)
        zeta0 = zeta_l + period * round((zeta0 - zeta_l) / period)
    return n0, zeta0, low_conf


def whole_signal_demod(r, body_starts, frac_cfo, config):
    """demod_fft of a copy of the whole signal with the fractional CFO
    removed on absolute time, in C order so that the full-grid block
    averages sum in row order."""
    step = -2 * np.pi * frac_cfo * r.sample_interval / config.t_body
    corrected = ComplexSignal(r.samples * phase_ramp(step, 0.0, r.samples.size),
                              r.sample_interval)
    return np.ascontiguousarray(demod_fft(corrected, body_starts, config))


def whole_signal_synchronize(r, config, sync_cfg, phasors):
    """The two-stage synchronizer with the fractional CFO removed from the
    whole signal, the pilot phasors computed from their angles, the integer
    CFO searched on the full grid and the pilot bins at the decided n0
    despread afterwards."""
    est, surface = estimate_pre_fft(r, config, sync_cfg, phasors)
    dt = r.sample_interval
    tau_samp = int(round(est.t0_hat / dt))
    pilots = sorted(config.pilot_positions.items())[:2]
    idx = [i for i, _ in pilots]
    ks = np.arange(FIRST_BLOCK, FIRST_BLOCK + sync_cfg.n_blocks + 1)
    window0 = tau_samp - _backoff(config) + config.cp_samples
    r_blocks = whole_signal_demod(r, window0 + ks * config.block_samples,
                                  est.frac_cfo_hat, config)
    pilot_phasors = plan_phasors(ks[0] + est.k0_hat, ks.size, config.n_carriers,
                                 config.psk_order)[:, [1 + i for i in idx]]
    n0, zeta0, cfo_low_conf = full_grid_integer_cfo(
        r_blocks, pilots, pilot_phasors, config, sync_cfg)
    bins = [[(i + n0) % config.n_carriers for i in idx]]
    z = despread(r_blocks[:-1], bins, pilots, pilot_phasors[:-1])[:, 0]
    t0p = estimate_fine_time(z, idx, config)
    t_window0 = (window0 + FIRST_BLOCK * config.block_samples) * dt
    est.n0_hat = n0
    est.zeta0_hat = zeta0
    est.t0p_hat = t0p
    est.phi0_hat = estimate_phase(z, idx, n0, zeta0, t0p / dt, config,
                                  t_window0)
    est.low_confidence = est.low_confidence or cfo_low_conf
    return est, surface


def outcome(fn, *args):
    """The bit-exact result of fn(*args), or the ValueError it raised."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def array_bits(a):
    return (a.shape, a.tobytes())


@FAST
@given(k_count=st.integers(1, 30),
       n_c=st.sampled_from([16, 64, 128]),
       n_l=st.integers(-4, 0), n_u=st.integers(0, 4),
       carriers=st.lists(st.one_of(st.integers(-4, 3), st.integers(0, 127)),
                         min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k_count=1, n_c=16, n_l=-2, n_u=2, carriers=[-1, 0], seed=1)
@example(k_count=2, n_c=16, n_l=-2, n_u=2, carriers=[-1, 0], seed=2)
@example(k_count=3, n_c=16, n_l=-2, n_u=2, carriers=[-1, 0], seed=3)
@example(k_count=4, n_c=16, n_l=-2, n_u=2, carriers=[-1, 0], seed=4)
@example(k_count=7, n_c=16, n_l=0, n_u=0, carriers=[0], seed=1)
def test_feasible_bin_integer_cfo_is_full_grid_search(k_count, n_c, n_l, n_u,
                                                      carriers, seed):
    # K from 1 to 30 covers the lag sets {1}, {1,2}, {1,2,3} and {1,2,3,4};
    # carriers -4..3 taken mod N_c sit at both ends of the carrier range, so
    # (index + n0) mod N_c wraps
    config = OfdmConfig(n_carriers=n_c, cp1_samples=2, cp2_samples=1,
                        psk_order=16)
    sync_cfg = SyncConfig(n_blocks=k_count, n_l=n_l, n_u=n_u)
    rng = np.random.default_rng(seed)
    pilots = [(i, complex(*rng.normal(size=2)))
              for i in dict.fromkeys(c % n_c for c in carriers)]
    r_blocks = (rng.normal(size=(k_count + 1, n_c))
                + 1j * rng.normal(size=(k_count + 1, n_c)))
    phasors = psk_phasors(16)[rng.integers(0, 16, (k_count + 1, len(pilots)))]
    feasible = (np.arange(n_l, n_u + 1)[:, None] + [i for i, _ in pilots]) % n_c
    z = despread(r_blocks, feasible, pilots, phasors)
    assert outcome(estimate_integer_cfo, z, config, sync_cfg) == outcome(
        full_grid_integer_cfo, r_blocks, pilots, phasors, config, sync_cfg)


@FAST
@given(n_c=st.sampled_from([8, 16, 32]),
       n_samples=st.integers(20, 200),
       data=st.data())
def test_body_span_derotation_is_whole_signal_derotation(n_c, n_samples, data):
    # windows may start before sample 0 or end past the last sample
    config = OfdmConfig(n_carriers=n_c, cp1_samples=1, cp2_samples=1,
                        psk_order=4)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    r = ComplexSignal(rng.normal(size=n_samples)
                      + 1j * rng.normal(size=n_samples), config.sample_interval)
    first = data.draw(st.integers(-2 * n_c, n_samples))
    starts = first + data.draw(st.integers(0, n_c)) * np.arange(
        data.draw(st.integers(1, 6)))
    frac = data.draw(st.floats(0, 1, exclude_max=True))
    span = outcome(lambda *a: array_bits(_demod_derotated(*a)),
                   r, starts, frac, config)
    whole = outcome(lambda *a: array_bits(whole_signal_demod(*a)),
                    r, starts, frac, config)
    assert span == whole
    in_range = starts[0] >= 0 and starts[-1] <= n_samples - n_c
    assert span.startswith("ValueError: block body out of range") != in_range


@st.composite
def sync_links(draw):
    """A small pilot-carrying link and a received signal with random delay,
    CFO and phase, noise, and a length that may cut the last bodies short."""
    n_c = draw(st.sampled_from([16, 32, 64]))
    cp1 = draw(st.integers(2, n_c // 4))
    cp2 = draw(st.integers(1, n_c // 8))
    i1 = draw(st.integers(0, n_c - 2))
    i2 = draw(st.integers(i1 + 1, min(i1 + n_c // cp2, n_c - 1)))
    config = OfdmConfig(n_carriers=n_c, cp1_samples=cp1, cp2_samples=cp2,
                        psk_order=draw(st.sampled_from([1, 4, 16])),
                        pilot_positions={i1: 1.0 + 0j, i2: -1.0 + 0j})
    k_count = draw(st.integers(1, 6))
    sync_cfg = SyncConfig(n_blocks=k_count,
                          n_candidates=draw(st.integers(1, 4)),
                          n_l=draw(st.integers(-2, 0)),
                          n_u=draw(st.integers(0, 2)))
    k0 = draw(st.integers(0, sync_cfg.n_candidates - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_blocks = k_count + 4
    blocks = random_symbol_blocks(rng, n_blocks, config)
    wave = build_waveform(blocks, plan_phasors(k0, n_blocks, n_c,
                                               config.psk_order), config).samples
    delay = draw(st.integers(0, config.block_samples - 1))
    samples = np.concatenate([np.zeros(delay, dtype=complex), wave])
    t = np.arange(samples.size) * config.sample_interval
    nu = draw(st.floats(sync_cfg.n_l, sync_cfg.n_u))
    samples = samples * np.exp(1j * (2 * np.pi * nu * t + draw(
        st.floats(0, 2 * np.pi))))
    samples += 0.1 * (rng.normal(size=samples.size)
                      + 1j * rng.normal(size=samples.size))
    shortest = ((FIRST_BLOCK + k_count) * config.block_samples - cp2 + n_c)
    size = draw(st.integers(shortest, samples.size))
    return config, sync_cfg, ComplexSignal(samples[:size],
                                           config.sample_interval)


@FAST
@given(sync_links())
def test_synchronize_is_whole_signal_synchronize(link):
    config, sync_cfg, r = link

    def run(fn):
        phasors = receiver_phasors(config, sync_cfg)
        return outcome(lambda: (lambda est, surface: (
            repr(est), array_bits(surface)))(*fn(r, config, sync_cfg, phasors)))

    assert run(synchronize) == run(whole_signal_synchronize)


def test_synchronize_body_past_the_end_still_raises():
    # a signal just long enough for the pre-FFT stage whose correlation
    # peak sits at the last trial offset: the last body runs past the end
    config = OfdmConfig(n_carriers=32, cp1_samples=4, cp2_samples=2,
                        psk_order=4, pilot_positions={3: 1.0 + 0j, 9: 1.0 + 0j})
    sync_cfg = SyncConfig(n_blocks=3, n_candidates=1)
    rng = np.random.default_rng(5)
    phasors = plan_phasors(0, 8, 32, 4)
    wave = build_waveform(random_symbol_blocks(rng, 8, config), phasors, config)
    delay = config.block_samples - 1 - config.cp_samples
    shortest = (FIRST_BLOCK + 3) * config.block_samples - 2 + 32
    r = ComplexSignal(np.concatenate([np.zeros(delay, dtype=complex),
                                      wave.samples])[:shortest],
                      config.sample_interval)
    for fn in (synchronize, whole_signal_synchronize):
        with pytest.raises(ValueError, match="block body out of range"):
            fn(r, config, sync_cfg, receiver_phasors(config, sync_cfg))


SYNC_TRIAL_SETTINGS = st.sampled_from([
    {}, {"channel": "multipath"},
    {"channel": "doppler", "max_doppler_normalized": 0.02},
    {"jammer_strategy": "gaussian"}, {"jammer_strategy": "none"},
    {"jammer_cp_mode": "random_cp"}])


@settings(max_examples=15, deadline=None)
@given(overrides=SYNC_TRIAL_SETTINGS,
       sync_blocks=st.integers(1, 12),
       master_seed=st.integers(0, 2 ** 32 - 1),
       trials=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8))
def test_sync_trial_on_fresh_or_shared_phasors(overrides, sync_blocks,
                                               master_seed, trials):
    # each trial on a fresh phasor array against all trials on one shared
    # array, which no trial changes
    scenario = table1_scenario(sync_blocks=sync_blocks,
                               master_seed=master_seed, **overrides)
    shared = _secret_phasors(scenario)
    before = shared.tobytes()
    for trial in trials:
        fresh = repr(_sync_trial(scenario, trial, _secret_phasors(scenario)))
        assert fresh == repr(_sync_trial(scenario, trial, shared))
    assert shared.tobytes() == before


@settings(max_examples=5, deadline=None)
@given(overrides=SYNC_TRIAL_SETTINGS,
       master_seed=st.integers(0, 2 ** 32 - 1))
def test_sync_records_are_a_prefix_of_a_longer_run(overrides, master_seed):
    scenario = table1_scenario(sync_blocks=5, master_seed=master_seed,
                               trials=20, **overrides)
    longer = run_sync_experiment(scenario)
    shorter = run_sync_experiment(table1_scenario(
        sync_blocks=5, master_seed=master_seed, trials=5, **overrides))
    assert repr(shorter.records) == repr(longer.records[:5])


@lru_cache(maxsize=None)
def builtin_encoder(rate_label):
    return LdpcEncoder(builtin_code(rate_label))


@settings(max_examples=8, deadline=None)
@given(rate=st.sampled_from(["1_4", "1_3", "1_2", "2_3"]),
       n_words=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bundled_codewords_have_zero_syndrome(rate, n_words, seed):
    enc = builtin_encoder(rate)
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
    parity = A @ message as a dense integer product. Returns the codewords
    and the pivot columns."""
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
    return out, np.array(pivots)


@lru_cache(maxsize=None)
def builtin_dense_words(rate_label, n_words, seed):
    enc = builtin_encoder(rate_label)
    msg = np.random.default_rng(seed).integers(0, 2, size=(n_words, enc.k),
                                               dtype=np.uint8)
    return (msg, *dense_encode(enc.code, msg))


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
@example(code=(150, 2, 150), n_words=3, seed=0)  # k = 75, 3 mod 4
@example(code=(153, 2, 153), n_words=3, seed=0)  # k = 77, 1 mod 4
@example(code=(155, 2, 155), n_words=3, seed=0)  # k = 78, 2 mod 4
def test_encode_is_dense_product(code, n_words, seed):
    if isinstance(code, str):
        enc = builtin_encoder(code)
        msg, expect, pivots = builtin_dense_words(code, n_words, seed)
    else:
        n, ratio, code_seed = code  # k = n - rank spans 64-bit word edges
        enc = LdpcEncoder(make_regular_parity_check(n, n // ratio, 3,
                                                    seed=code_seed))
        msg = np.random.default_rng(seed).integers(0, 2, size=(n_words, enc.k),
                                                   dtype=np.uint8)
        expect, pivots = dense_encode(enc.code, msg)
    assert np.array_equal(enc.pivot_cols, pivots)
    assert np.array_equal(enc.encode(msg), expect)
    assert np.array_equal(enc.encode(msg[0]), expect[0])


def reference_bp_decode(code, llr, dtype=np.float32):
    """Reference flooding sum-product decoder on (batch, n) LLRs in ``dtype``:
    messages in check-major order within check-degree groups, the variable
    sums by ``np.add.reduceat`` over variable-ordered edges, and
    ``code.syndrome`` of the hard decisions after every iteration. The
    leave-one-out products are clipped to the largest float32 below 1 in
    float32 and to 1 - 1e-12 in float64."""
    cap = (np.nextafter(np.float32(1), np.float32(0)) if dtype == np.float32
           else 1 - 1e-12)
    var_deg = np.bincount(code.var_of_edge, minlength=code.n)
    check_deg = np.bincount(code.check_of_edge, minlength=code.m)
    var_starts = np.cumsum(var_deg) - var_deg
    bp = np.lexsort((code.var_of_edge, code.check_of_edge,
                     check_deg[code.check_of_edge]))
    bp_var, bp_to_var = code.var_of_edge[bp], np.argsort(bp)
    group_deg, group_checks = np.unique(check_deg, return_counts=True)
    ends = np.cumsum(group_deg * group_checks).tolist()
    groups = [(d, slice(e - d * c, e)) for d, c, e in
              zip(group_deg.tolist(), group_checks.tolist(), ends)]

    lin = np.asarray(llr, dtype=dtype)
    hard = (lin < 0).astype(np.uint8)
    converged = ~code.syndrome(hard).any(axis=1)
    iters = np.zeros(lin.shape[0], dtype=int)
    active = np.flatnonzero(~converged)
    lin_a = lin[active]
    v2c = lin_a[:, bp_var]
    for it in range(1, 51):
        if not active.size:
            break
        t = np.tanh(0.5 * np.clip(v2c, -30, 30))
        ext = np.empty_like(t)
        for deg, edges in groups:
            blk = t[:, edges].reshape(len(t), -1, deg)
            out = ext[:, edges].reshape(blk.shape)
            out[..., 0], suffix = 1.0, np.ones(blk.shape[:-1], dtype)
            for j in range(1, deg):
                np.multiply(out[..., j - 1], blk[..., j - 1], out=out[..., j])
            for j in range(deg - 1, 0, -1):
                suffix *= blk[..., j]
                out[..., j - 1] *= suffix
        c2v = 2.0 * np.arctanh(np.clip(ext, -cap, cap))
        posterior = lin_a + np.add.reduceat(c2v[:, bp_to_var], var_starts,
                                            axis=1)
        v2c = posterior[:, bp_var] - c2v
        hard_a = (posterior < 0).astype(np.uint8)
        hard[active] = hard_a
        iters[active] = it
        ok = ~code.syndrome(hard_a).any(axis=1)
        if ok.any():
            converged[active[ok]] = True
            active, lin_a, v2c = active[~ok], lin_a[~ok], v2c[~ok]
    return hard, converged, iters


@st.composite
def mixed_degree_codes(draw):
    """An edge-list code with variable degrees 1 to 8 and mixed check
    degrees, degree-1 checks included, and a batch of 1 to 40 frames of
    LLRs (the harness decodes 25 at a time) around the zero codeword, which
    converge at different iterations, or never."""
    n = draw(st.integers(3, 40))
    m = draw(st.integers(1, min(24, 3 * n)))
    n_unit = draw(st.integers(0, 3))  # extra degree-1 checks
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    var_deg = draw(st.lists(st.integers(1, min(8, m)), min_size=n, max_size=n))
    edges = {(int(c), v) for v, d in enumerate(var_deg)
             for c in rng.choice(m, d, replace=False)}
    edges |= {(m + i, int(rng.integers(n))) for i in range(n_unit)}
    for c in set(range(m)) - {c for c, _ in edges}:  # every check gets an edge
        degree = np.bincount([v for _, v in edges], minlength=n)
        edges.add((c, int(np.argmin(degree))))
    checks, variables = np.array(sorted(edges)).T
    assume(np.bincount(variables).max() <= 8)
    code = ParityCheckCode(n=n, m=m + n_unit, check_of_edge=checks,
                           var_of_edge=variables)
    n_frames = draw(st.integers(1, 40))
    mean = np.linspace(draw(st.floats(-1.0, 2.0)), draw(st.floats(2.0, 8.0)),
                       n_frames)[:, None]
    llr = mean + draw(st.floats(0.5, 4.0)) * rng.normal(size=(n_frames, n))
    return code, llr


@settings(max_examples=60, deadline=None)
@given(mixed_degree_codes())
def test_bp_decode_matches_reference(case):
    code, llr = case
    hard, converged, iters = ldpc_bp_decode(code, llr)
    ref_hard, ref_converged, ref_iters = reference_bp_decode(code, llr)
    assert hard.tobytes() == ref_hard.tobytes()
    assert np.array_equal(converged, ref_converged)
    assert np.array_equal(iters, ref_iters)


@FAST
@given(mixed_degree_codes(), st.integers(0, 2 ** 32 - 1))
def test_syndrome_on_mixed_check_degrees_is_dense_product(case, seed):
    # degree-1 checks and up to 8 check degrees, so up to 8 parity groups
    code, _ = case
    bits = np.random.default_rng(seed).integers(0, 2, size=(2, 3, code.n),
                                                dtype=np.uint8)
    expect = (bits.astype(np.int64) @ code.dense().T) % 2
    for frames in (bits, bits[0], bits[0, 0]):
        got = code.syndrome(frames)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expect[(0,) * (3 - frames.ndim)])
    assert code.syndrome(bits[0, :0]).shape == (0, code.m)


def float32_edge_llrs():
    """Rate-1/2 batches of noisy codeword LLRs with a tenth of the positions
    set to one of float32's edge values, with the codeword's sign or a random
    one, an all-(-0.0) batch, and the batch edges: no frame, frames whose
    signs are codewords (iteration 0) alone and among frames that need
    iterations, and codeword signs at magnitude 2^-149, where halving the
    LLRs before iteration 0 would pass the all-zero codeword instead."""
    enc = builtin_encoder("1_2")
    rng = np.random.default_rng(1)
    sign = 1 - 2.0 * enc.encode(rng.integers(0, 2, (6, enc.k), dtype=np.uint8))
    noisy = sign * 3.0 + rng.normal(0, 2.0, sign.shape)
    at = rng.random(sign.shape) < 0.1
    signs = {"codeword": sign, "random": rng.choice([-1.0, 1.0], sign.shape)}
    for value in (np.inf, 3.5e38, 0.0, 1e-39, 2.0 ** -149):  # subnormal last two
        for name, edge_sign in signs.items():
            llr = noisy.copy()
            llr[at] = value * edge_sign[at]
            yield pytest.param(enc.code, llr, id=f"{value}-{name}")
    yield pytest.param(enc.code, np.full((3, enc.code.n), -0.0),
                       id="all-neg-zero")
    clean = sign * rng.uniform(0.5, 4.0, sign.shape)
    yield pytest.param(enc.code, noisy[:0], id="no-frames")
    yield pytest.param(enc.code, clean, id="codewords")
    yield pytest.param(enc.code, np.where(np.arange(6)[:, None] % 2, clean,
                                          noisy), id="codewords-and-noisy")
    yield pytest.param(enc.code, 2.0 ** -149 * sign, id="tiny-codewords")


@pytest.mark.parametrize("code, llr", float32_edge_llrs())
def test_bp_decode_float32_edges_match_reference(code, llr):
    # BP halves the LLRs once, after iteration 0; halving is exact down to
    # 2**-126 and may round below it. The reference casts 3.5e38 to inf,
    # BP clamps it to the largest float32: both give tanh = ±1.
    hard, converged, iters = ldpc_bp_decode(code, llr)
    with np.errstate(over="ignore"):
        ref_hard, ref_converged, ref_iters = reference_bp_decode(code, llr)
    assert hard.shape == llr.shape
    assert hard.tobytes() == ref_hard.tobytes()
    assert np.array_equal(converged, ref_converged)
    assert np.array_equal(iters, ref_iters)


def table1_llrs(rate_label, precoding, n_frames, seed):
    """Gaussian-surrogate LLRs of criterion 6's model at SJR 0 dB, SNR 15 dB:
    a codeword plus a jammer codeword of the same code at equal power,
    rotated by uniform 16-PSK phases when precoding is on."""
    enc = builtin_encoder(rate_label)
    rng = np.random.default_rng(seed)
    shape, sigma2 = (n_frames, enc.code.n // 2), 10 ** -1.5
    s, j = (qpsk_map(enc.encode(rng.integers(0, 2, (n_frames, enc.k),
                                             dtype=np.uint8)).ravel())
            .reshape(shape) for _ in range(2))
    if precoding:
        j = j * psk_phasors(16)[rng.integers(0, 16, shape)]
    r = s + j + complex_normal(rng, sigma2, shape)
    return enc.code, llr_qpsk(r.ravel(), 1 + sigma2).reshape(n_frames, -1)


@pytest.mark.parametrize("rate, precoding, n_frames",
                         [("1_3", True, 100), ("1_2", False, 20)])
def test_bp_decode_float32_agrees_with_float64(rate, precoding, n_frames):
    # pilot, 2,000 rate-1/3 and 1,000 rate-1/2 frames: no hard decision
    # differed and one frame's iteration count differed by 1 (mean 0.0005);
    # the oracle converged on all but two rate-1/3 frames and on no rate-1/2
    # frame. Capping the tanh products at 0.99 instead of the largest float32
    # below 1 changes the iteration count of 8 of the 100 rate-1/3 frames.
    code, llr = table1_llrs(rate, precoding, n_frames, seed=0)
    hard, converged, iters = ldpc_bp_decode(code, llr)
    ref_hard, ref_converged, ref_iters = reference_bp_decode(code, llr,
                                                             np.float64)
    both = converged & ref_converged
    assert np.array_equal(hard[both], ref_hard[both])
    assert np.mean(hard != ref_hard) <= 1e-3
    assert abs(iters.mean() - ref_iters.mean()) <= 0.05
    assert np.mean(iters != ref_iters) <= 0.02


def scipy_log_mixture(r, means, logw, var):
    """log sum_k w_k CN(r; means_k, var) as scipy computes it: the CN
    log-densities plus log-weights, (samples, components), into logsumexp."""
    dens = -np.log(np.pi * var) - np.abs(r[:, None] - means) ** 2 / var
    return logsumexp(dens + logw, axis=1)


# the kernel's sum replays numpy's pairwise order, which changes at 8 and
# 128 components and splits above 128 at multiples of 8
@FAST
@given(n=st.integers(1, 300), k=st.integers(1, 256), per_sample=st.booleans(),
       copies=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(n=5, k=256, per_sample=False, copies=2, seed=0)
@example(n=3, k=9, per_sample=True, copies=1, seed=1)
@example(n=40, k=129, per_sample=True, copies=1, seed=2)
@example(n=31, k=300, per_sample=False, copies=1, seed=3)
@example(n=29, k=848, per_sample=True, copies=1, seed=4)
@example(n=7, k=1100, per_sample=False, copies=3, seed=5)
@example(n=4, k=1, per_sample=False, copies=1, seed=6)
@example(n=4, k=1, per_sample=True, copies=1, seed=7)
@example(n=4, k=2, per_sample=True, copies=1, seed=8)
def test_log_mixture_is_scipy_logsumexp(n, k, per_sample, copies, seed):
    rng = np.random.default_rng(seed)
    shape = (k, n) if per_sample else (k,)
    spread = rng.uniform(0.1, 5.0)
    means = spread * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    logw = np.log(rng.dirichlet(np.ones(k)))
    r = spread * (rng.normal(size=n) + 1j * rng.normal(size=n))
    var = rng.uniform(0.05, 2.0)
    got = _log_mixture(r, means, logw, var)
    # scipy sums the rows of a sample-major, C-ordered array
    rows = np.ascontiguousarray(means.T) if per_sample else means
    assert got.tobytes() == scipy_log_mixture(r, rows, logw, var).tobytes()
    # exact ties: r = 0 is equidistant from the points of a QPSK
    # constellation, so equal-weight components tie for the row maximum
    tie_means = np.tile(InputDist.qpsk(spread ** 2).points, copies)
    tie_logw = np.full(tie_means.size, -np.log(tie_means.size))
    zeros = np.zeros(n, dtype=complex)
    got = _log_mixture(zeros, tie_means, tie_logw, var)
    want = scipy_log_mixture(zeros, tie_means, tie_logw, var)
    assert got.tobytes() == want.tobytes()
    # every other sample so far from every mean that all its densities
    # overflow to 0: -inf, scipy's log of the direct sum, not NaN
    far = r.copy()
    far[::2] = 1e200
    with np.errstate(over="ignore"):
        got = _log_mixture(far, means, logw, var)
        want = scipy_log_mixture(far, rows, logw, var)
    assert np.isneginf(got[::2]).all()
    assert got.tobytes() == want.tobytes()


def interference_mixture(spec, jamming, merge):
    """e^{j Theta} J + N as (means, logw, var), built as in spofdm.avc; with
    ``merge`` its coincident components are merged by avc's helper."""
    means, logw, j_var = jamming.mixture()
    if jamming.kind == "discrete":
        m = spec.phase_order
        means = (means[:, None] * psk_phasors(m)).ravel()
        logw = np.repeat(logw - math.log(m), m)
        if merge:
            means, logw = _merge_components(means, logw)
    return means, logw, spec.noise_power + j_var


def scipy_log2_ratio(r, s, spec, jamming, merge=True):
    """log2 p(r | s) - log2 p(r) over all samples at once, with the
    interference and marginal mixtures merged as in spofdm.avc, or, without
    ``merge``, with every component as the laws and rotations give it."""
    means, logw, var = interference_mixture(spec, jamming, merge)
    s_means, s_logw, s_var = spec.input_dist.mixture()
    all_means = (s_means[:, None] + means).ravel()
    all_logw = (s_logw[:, None] + logw).ravel()
    if merge:
        all_means, all_logw = _merge_components(all_means, all_logw)
    cond = scipy_log_mixture(r, s[:, None] + means, logw, var)
    marg = scipy_log_mixture(r, all_means, all_logw, var + s_var)
    return (cond - marg) / math.log(2)


# QPSK input and disguised jamming at M = 16 have 4 x 16 = 64 distinct
# marginal components, so blocks hold 512 samples; a Gaussian input has 16
# components and blocks of 2048 samples
@pytest.mark.parametrize("n", [1, 5, 127, 128, 129, 300, 511, 512, 513, 2049])
@pytest.mark.parametrize("input_dist", [InputDist.qpsk(),
                                        InputDist("gaussian", 1.0)])
def test_log2_ratio_blocks_are_one_scipy_pass(n, input_dist):
    spec = SymbolChannelSpec(input_dist, 0.2, 16)
    jamming = InputDist.qpsk(0.8)
    s, r = simulate_symbol_channel(spec, jamming, n, n)
    got = _log2_ratio(r, s, spec, jamming)
    assert got.tobytes() == scipy_log2_ratio(r, s, spec, jamming).tobytes()


RNG_POINTS = np.random.default_rng(9).normal(size=(4, 2)) @ [1, 1j]
NEAR_POINTS = InputDist("discrete", points=[1.0, 1.0 + 1e-6])
MERGE_CASES = [
    *(pytest.param(SymbolChannelSpec(dist, 0.2, m), InputDist.qpsk(p_j),
                   id=f"{name}-qpsk{p_j}-M{m}")
      for m in (1, 2, 4, 8, 16) for p_j in (0.8, 1.0)
      for name, dist in (("qpsk", InputDist.qpsk()),
                         ("gaussian", InputDist("gaussian", 1.0)))),
    pytest.param(SymbolChannelSpec(InputDist("gaussian", 1.0), 1.0, 16),
                 InputDist("discrete", points=[1.0, -1.0]), id="two-point"),
    pytest.param(SymbolChannelSpec(
        InputDist("discrete", points=RNG_POINTS[[0, 1, 1, 2]]), 0.2, 4),
        InputDist("discrete", points=RNG_POINTS[[3, 0, 3, 3]],
                  probs=[0.1, 0.2, 0.3, 0.4]), id="duplicates"),
    pytest.param(SymbolChannelSpec(InputDist.qpsk(), 0.2, 2), NEAR_POINTS,
                 id="1e-6-apart"),
]


@pytest.mark.parametrize("spec, jamming", MERGE_CASES)
def test_merged_log2_ratio_is_the_unmerged_pass(spec, jamming):
    s, r = simulate_symbol_channel(spec, jamming, 300, 11)
    got = _log2_ratio(r, s, spec, jamming)
    want = scipy_log2_ratio(r, s, spec, jamming, merge=False)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_merge_keeps_points_1e6_apart():
    spec = SymbolChannelSpec(InputDist.qpsk(), 0.2, 1)
    assert interference_mixture(spec, NEAR_POINTS, True)[0].size == 2
    assert _merge_components(np.array([1.0, 1.0 + 1e-14]),
                             np.log([0.5, 0.5]))[0].size == 1


def test_qpsk_jammer_is_its_own_quarter_turn():
    # M = 2 and M = 4 rotate the QPSK jammer onto itself, so their merged
    # interference is M = 1's four components and the MI does not move
    jamming = InputDist.qpsk(0.8)
    specs = {m: SymbolChannelSpec(InputDist.qpsk(), 0.2, m) for m in (1, 2, 4)}
    base, base_logw, _ = interference_mixture(specs[1], jamming, True)
    for m in (2, 4):
        means, logw, _ = interference_mixture(specs[m], jamming, True)
        assert means.size == 4
        np.testing.assert_allclose(np.sort_complex(means.round(12)),
                                   np.sort_complex(base.round(12)), atol=1e-12)
        np.testing.assert_allclose(logw, base_logw, rtol=0, atol=1e-12)
    s, r = simulate_symbol_channel(specs[4], jamming, 500, 12)
    ratios = {m: _log2_ratio(r, s, spec, jamming) for m, spec in specs.items()}
    for m in (2, 4):
        np.testing.assert_allclose(ratios[m], ratios[1], rtol=0, atol=1e-12)


def zero_buffer_fading(signal, spec):
    """apply_fading as the sum of whole-length zero-filled delayed copies,
    each added into a zero buffer."""
    x, dt = signal.samples, signal.sample_interval
    out = np.zeros_like(x)
    for delay, gain, doppler in spec.taps:
        scale = gain * phase_ramp(doppler * dt, 0.0, x.size) if doppler else gain
        out += scale * _delay(x, delay)
    return out


def signal_plus_noise(signal, sigma2, seed):
    """add_awgn as the signal plus a new noise array."""
    if sigma2 == 0:
        return signal.samples.copy()
    noise = complex_normal(np.random.default_rng(seed), sigma2,
                           signal.samples.shape)
    return signal.samples + noise


def zero_buffer_combine(signal, jam, sigma2, seed):
    """combine with both inputs added into a zero buffer."""
    total = np.zeros(max(signal.samples.size, jam.samples.size), dtype=complex)
    total[: signal.samples.size] += signal.samples
    total[: jam.samples.size] += jam.samples
    return signal_plus_noise(ComplexSignal(total, signal.sample_interval),
                             sigma2, seed)


@st.composite
def signals(draw, n=None):
    """A random complex signal, some of whose parts are +0.0 or -0.0."""
    n = draw(st.integers(1, 200)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = rng.normal(size=(n, 2))
    parts[rng.random((n, 2)) < 0.1] = 0.0
    parts[rng.random((n, 2)) < 0.1] = -0.0
    return ComplexSignal(parts.view(complex)[:, 0], 1 / 16)


finite = st.floats(-4, 4, allow_nan=False)
dopplers = st.one_of(st.just(0.0), finite)


@FAST
@given(signal=signals(),
       taps=st.lists(st.tuples(st.integers(0, 250),
                               st.builds(complex, finite, finite), dopplers),
                     min_size=1, max_size=5))
def test_in_place_fading_is_zero_buffer_sum(signal, taps):
    # delays up to 250 reach past the signal's end, where a tap adds nothing
    spec = FadingSpec(taps=tuple(taps))
    assert array_bits(apply_fading(signal, spec).samples) == array_bits(
        zero_buffer_fading(signal, spec))


def per_tap_multipath_taps(rng, n_paths, max_delay, max_doppler, decay):
    """random_multipath_taps as a loop over the taps: the profile built on
    each call, then a phase and, with Doppler, a Doppler drawn per tap."""
    delays = np.rint(np.linspace(0, max_delay, n_paths))
    powers = np.array([decay ** m for m in range(n_paths)])
    powers *= 1.0 / powers.sum()
    taps = []
    for d, p in zip(delays, powers):
        phase = rng.uniform(0, 2 * np.pi)
        doppler = rng.uniform(-max_doppler, max_doppler) if max_doppler else 0.0
        taps.append((int(d), np.sqrt(p) * np.exp(1j * phase), float(doppler)))
    return tuple(taps)


def tap_bits(taps):
    """Each tap's field types and the bytes of its values."""
    return [(type(d), d, type(g), np.complex128(g).tobytes(), type(f),
             np.float64(f).tobytes()) for d, g, f in taps]


# table 1's profile, without Doppler and with criterion 5's peak Doppler
@FAST
@given(n_paths=st.integers(1, 12), max_delay=st.integers(0, 40),
       max_doppler=st.one_of(st.just(0.0), st.floats(1e-9, 10.0)),
       decay=st.floats(0, 1, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1))
@example(n_paths=4, max_delay=3, max_doppler=0.0, decay=0.1, seed=0)
@example(n_paths=4, max_delay=3, max_doppler=2 * np.pi * 0.02, decay=0.1, seed=1)
def test_tap_draws_are_the_per_tap_loop(n_paths, max_delay, max_doppler, decay,
                                        seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # twice: the second call reads the cached profile
    for _ in range(2):
        got = random_multipath_taps(rng, n_paths, max_delay, max_doppler, decay)
        want = per_tap_multipath_taps(ref_rng, n_paths, max_delay, max_doppler,
                                      decay)
        assert tap_bits(got) == tap_bits(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


sigma2s = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@FAST
@given(signal=signals(), sigma2=sigma2s, seed=st.integers(0, 2 ** 32 - 1))
def test_noise_plus_signal_is_signal_plus_noise(signal, sigma2, seed):
    assert array_bits(add_awgn(signal, sigma2, seed).samples) == array_bits(
        signal_plus_noise(signal, sigma2, seed))


@FAST
@given(n=st.integers(1, 100), data=st.data(), sigma2=sigma2s,
       seed=st.integers(0, 2 ** 32 - 1))
def test_copy_and_add_combine_is_zero_buffer_combine(n, data, sigma2, seed):
    # equal lengths, a longer signal and a longer jammer
    signal = data.draw(signals(n))
    jam = data.draw(signals(data.draw(st.sampled_from([n, n // 2 or 1,
                                                       2 * n]))))
    got = combine(signal, jam, sigma2, seed).samples
    want = zero_buffer_combine(signal, jam, sigma2, seed)
    if sigma2:
        assert array_bits(got) == array_bits(want)
    else:
        # the zero buffer turned a -0.0 part into +0.0 (0.0 + -0.0 is +0.0);
        # without noise that sign is all that differs
        assert array_bits(got + 0.0) == array_bits(want)
