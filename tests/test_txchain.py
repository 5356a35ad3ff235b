"""Tests for the transmit chain: precoding, block modulation, waveforms."""

from dataclasses import replace

import numpy as np
import pytest

from spofdm.txchain import (QPSK, build_waveform, decode_phases,
                            modulate_block, precode, random_symbol_blocks)
from support import CONFIG, plan_phasors, psk_exp


class TestOfdmConfig:
    def test_table1_dimensions(self):
        assert CONFIG.block_samples == 152
        assert CONFIG.cp_samples == 24
        assert CONFIG.t_body == pytest.approx(1.0)
        assert CONFIG.t_block == pytest.approx(152 / 128)
        assert CONFIG.sample_power == pytest.approx(1 / 128)

    def test_rejects_oversized_cp(self):
        with pytest.raises(ValueError):
            replace(CONFIG, n_carriers=16, cp1_samples=12, cp2_samples=8)

    def test_sample_interval_is_one_over_n_carriers(self):
        assert replace(CONFIG, n_carriers=49).sample_interval == 1.0 / 49

    # a pilot magnitude outside [2**-256, 2**256] overflows the despreading
    @pytest.mark.parametrize("value", [0, float("nan"), complex("inf"), 1e-300,
                                       2.0 ** -257, 2.0 ** 257, -1e300j])
    def test_rejects_zero_or_non_finite_pilot(self, value):
        with pytest.raises(ValueError, match="pilot_positions"):
            replace(CONFIG, pilot_positions={24: value})

    def test_accepts_pilot_magnitude_at_range_ends(self):
        for value in (2.0 ** -256, -2.0 ** 256, 2.0 ** 256 * 1j):
            replace(CONFIG, pilot_positions={24: value})

    def test_rejects_pilot_out_of_range(self):
        with pytest.raises(ValueError):
            replace(CONFIG, pilot_positions={128: 1.0 + 0j})


class TestPrecode:
    def test_zero_phases_are_identity(self):
        block = np.ones(128, dtype=complex)
        out = precode(block, np.ones(128, dtype=complex))
        assert np.array_equal(out, block)

    def test_quarter_rotation(self):
        phasors = np.ones(128, dtype=complex)
        phasors[0] = 1j
        out = precode(np.ones(128, dtype=complex), phasors)
        assert out[0] == pytest.approx(-1j, abs=1e-12)
        assert np.max(np.abs(out[1:] - 1.0)) < 1e-12

    def test_magnitude_preserved_and_round_trip(self):
        rng = np.random.default_rng(0)
        block = random_symbol_blocks(rng, 1, CONFIG)[0]
        phases = plan_phasors(0, 1)[0, 1:]
        out = precode(block, phases)
        assert np.max(np.abs(np.abs(out) - np.abs(block))) < 1e-12
        back = decode_phases(out, phases)
        assert np.max(np.abs(back - block)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            precode(np.ones(128, dtype=complex), np.ones(64, dtype=complex))

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(15)
        blocks = random_symbol_blocks(rng, 3, CONFIG)
        phases = plan_phasors(0, 3)[:, 1:]
        out = precode(blocks, phases)
        for b in range(3):
            assert np.array_equal(out[b], precode(blocks[b], phases[b]))
        assert np.max(np.abs(decode_phases(out, phases) - blocks)) < 1e-12


class TestModulateBlock:
    def test_unit_cp_phase_gives_classical_cp(self):
        rng = np.random.default_rng(1)
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        sig = modulate_block(precoded, 1.0 + 0j, CONFIG).samples
        assert np.array_equal(sig[:24], sig[-24:])

    def test_split_cp_structure(self):
        rng = np.random.default_rng(2)
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        c = psk_exp(5, 16)
        sig = modulate_block(precoded, c, CONFIG).samples
        body = sig[24:]
        # second CP segment: verbatim copy of the body end
        assert np.array_equal(sig[16:24], body[-8:])
        # first CP segment: rotated copy of the preceding tail samples
        assert np.max(np.abs(sig[:16] - c * body[-24:-8])) < 1e-12

    def test_negated_cp1(self):
        rng = np.random.default_rng(3)
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        sig = modulate_block(precoded, -1.0 + 0j, CONFIG).samples
        body = sig[24:]
        assert np.max(np.abs(sig[:16] + body[-24:-8])) < 1e-12
        assert np.array_equal(sig[16:24], body[-8:])

    def test_dc_carrier_gives_constant_body(self):
        precoded = np.zeros(128, dtype=complex)
        precoded[0] = 128.0
        c = np.exp(1j * np.pi / 3)
        sig = modulate_block(precoded, c, CONFIG).samples
        assert np.max(np.abs(sig[24:] - 1.0)) < 1e-12
        assert np.max(np.abs(sig[:16] - c)) < 1e-12
        assert np.max(np.abs(sig[16:24] - 1.0)) < 1e-12

    def test_ifft_scaling_round_trip(self):
        rng = np.random.default_rng(4)
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        body = modulate_block(precoded, 1.0, CONFIG).samples[24:]
        assert np.max(np.abs(np.fft.fft(body) - precoded)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(5)
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        body = modulate_block(precoded, 1.0, CONFIG).samples[24:]
        body_energy = np.sum(np.abs(body) ** 2)
        assert body_energy == pytest.approx(
            np.sum(np.abs(precoded) ** 2) / 128, abs=1e-9)


class TestBuildWaveform:
    def test_single_block_matches_modulate(self):
        rng = np.random.default_rng(6)
        blocks = random_symbol_blocks(rng, 1, CONFIG)
        plan = plan_phasors(0, 1)[0]
        direct = modulate_block(precode(blocks[0], plan[1:]), plan[0], CONFIG)
        wave = build_waveform(blocks, plan_phasors(0, 1), CONFIG)
        assert np.array_equal(wave.samples, direct.samples)

    def test_length_and_block_boundaries(self):
        rng = np.random.default_rng(7)
        blocks = random_symbol_blocks(rng, 5, CONFIG)
        wave = build_waveform(blocks, plan_phasors(0, 5), CONFIG)
        assert wave.samples.size == 5 * 152
        # each block boundary starts that block's first CP segment
        for k, block in enumerate(blocks):
            plan = plan_phasors(k, 1)[0]
            seg = modulate_block(precode(block, plan[1:]), plan[0],
                                 CONFIG).samples
            assert np.array_equal(wave.samples[k * 152:(k + 1) * 152], seg)

    def test_body_power(self):
        rng = np.random.default_rng(9)
        blocks = random_symbol_blocks(rng, 100, CONFIG)
        wave = build_waveform(blocks, plan_phasors(0, 100), CONFIG)
        samples = wave.samples.reshape(100, 152)
        body_power = np.mean(np.abs(samples[:, 24:]) ** 2)
        # mean per-sample body power is symbol power / carrier count
        assert abs(body_power - 1 / 128) / (1 / 128) < 0.05

    def test_shifted_sequence(self):
        rng = np.random.default_rng(10)
        blocks = random_symbol_blocks(rng, 2, CONFIG)
        shifted = build_waveform(blocks, plan_phasors(7, 2), CONFIG)
        plan7 = plan_phasors(7, 1)[0]
        direct = modulate_block(precode(blocks[0], plan7[1:]), plan7[0],
                                CONFIG)
        assert np.array_equal(shifted.samples[:152], direct.samples)

    def test_plain_waveform_has_classical_cp(self):
        rng = np.random.default_rng(11)
        blocks = random_symbol_blocks(rng, 3, CONFIG)
        wave = modulate_block(blocks, 1.0, CONFIG)
        for k in range(3):
            seg = wave.samples[k * 152:(k + 1) * 152]
            assert np.array_equal(seg[:24], seg[-24:])


class TestPilots:
    def test_pilot_values_inserted(self):
        config = replace(CONFIG, pilot_positions={24: 1.0 + 0j, 32: 1.0 + 0j})
        rng = np.random.default_rng(12)
        block = random_symbol_blocks(rng, 1, config)[0]
        assert block[24] == 1.0 + 0j
        assert block[32] == 1.0 + 0j

    def test_non_pilot_entries_from_constellation(self):
        config = replace(CONFIG, pilot_positions={24: 1.0 + 0j})
        rng = np.random.default_rng(13)
        block = random_symbol_blocks(rng, 1, config)[0]
        others = np.delete(block, 24)
        dists = np.abs(others[:, None] - QPSK[None, :]).min(axis=1)
        assert np.max(dists) < 1e-12
