"""Property tests for invariants of the link: the pre-FFT surface against its
direct correlator, the precode/demodulate/decode round trip, and the
classical receiver as the secure receiver with unit CP phases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spofdm.keystream import PhaseSequence, SecretKey, phase_plan
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
    wave = build_waveform(blocks, KEY, 0, config, phase_index_offset=k0)
    samples = np.concatenate([np.zeros(delay, dtype=complex), wave.samples])
    samples += 0.1 * (rng.normal(size=samples.size)
                      + 1j * rng.normal(size=samples.size))
    r = ComplexSignal(samples, config.sample_interval)
    return config, SyncConfig(n_blocks=n_blocks, candidates=candidates), r


class UnitCpPhases:
    """Phase sequence stand-in whose CP phase is 1 for every block."""

    def cp_phases(self, k_first, k_last):
        return np.ones(k_last - k_first + 1, dtype=complex)


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
    plan = phase_plan(KEY, 0, block_index, n_c, psk_order)
    sig = modulate_block(precode(block, plan), plan.cp_phase, config)
    demod = demod_fft(sig, config.cp_samples, config, SyncConfig(n_l=0, n_u=0))
    decoded = decode_phases(demod, plan)
    assert np.max(np.abs(decoded - block.data_symbols)) < 1e-9
