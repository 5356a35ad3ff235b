"""Tests for the transmit chain: precoding, block modulation, waveforms."""

import numpy as np
import pytest

from spofdm.keystream import SecretKey, phase_plans
from spofdm.txchain import (QPSK, ComplexSignal, OfdmConfig, build_waveform,
                            modulate_block, precode, decode_phases,
                            random_symbol_blocks, read_iq, write_iq)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")


def table1_config(**overrides):
    defaults = dict(n_carriers=128, cp1_samples=16, cp2_samples=8, psk_order=16)
    defaults.update(overrides)
    return OfdmConfig(**defaults)


def plans(k_first, count):
    return phase_plans(KEY, 0, k_first, count, 128, 16)


class TestOfdmConfig:
    def test_table1_dimensions(self):
        config = table1_config()
        assert config.block_samples == 152
        assert config.cp_samples == 24
        assert config.t_body == pytest.approx(1.0)
        assert config.t_block == pytest.approx(152 / 128)
        assert config.symbol_power == pytest.approx(1.0)

    def test_rejects_oversized_cp(self):
        with pytest.raises(ValueError):
            table1_config(n_carriers=16, cp1_samples=12, cp2_samples=8)

    def test_rejects_bad_psk_order(self):
        with pytest.raises(ValueError):
            table1_config(psk_order=12)

    def test_rejects_pilot_out_of_range(self):
        with pytest.raises(ValueError):
            table1_config(pilot_positions={128: 1.0 + 0j})

    def test_config_hash_changes_with_fields(self):
        a = table1_config().config_hash()
        b = table1_config(cp2_samples=4).config_hash()
        assert a != b
        assert a == table1_config().config_hash()


class TestPrecode:
    def test_zero_phases_are_identity(self):
        block = np.ones(128, dtype=complex)
        out = precode(block, np.zeros(128))
        assert np.array_equal(out, block)

    def test_quarter_rotation(self):
        phases = np.zeros(128)
        phases[0] = np.pi / 2
        out = precode(np.ones(128, dtype=complex), phases)
        assert out[0] == pytest.approx(-1j, abs=1e-12)
        assert np.max(np.abs(out[1:] - 1.0)) < 1e-12

    def test_magnitude_preserved_and_round_trip(self):
        rng = np.random.default_rng(0)
        config = table1_config()
        block = random_symbol_blocks(rng, 1, config)[0]
        phases = plans(0, 1)[0, 1:]
        out = precode(block, phases)
        assert np.max(np.abs(np.abs(out) - np.abs(block))) < 1e-12
        back = decode_phases(out, phases)
        assert np.max(np.abs(back - block)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            precode(np.ones(128, dtype=complex), np.zeros(64))

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(15)
        blocks = random_symbol_blocks(rng, 3, table1_config())
        phases = plans(0, 3)[:, 1:]
        out = precode(blocks, phases)
        for b in range(3):
            assert np.array_equal(out[b], precode(blocks[b], phases[b]))
        assert np.max(np.abs(decode_phases(out, phases) - blocks)) < 1e-12


class TestModulateBlock:
    def test_unit_cp_phase_gives_classical_cp(self):
        rng = np.random.default_rng(1)
        config = table1_config()
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        sig = modulate_block(precoded, 1.0 + 0j, config).samples
        assert np.array_equal(sig[:24], sig[-24:])

    def test_split_cp_structure(self):
        rng = np.random.default_rng(2)
        config = table1_config()
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        c = np.exp(1j * 2 * np.pi * 5 / 16)
        sig = modulate_block(precoded, c, config).samples
        body = sig[24:]
        # second CP segment: verbatim copy of the body end
        assert np.array_equal(sig[16:24], body[-8:])
        # first CP segment: rotated copy of the preceding tail samples
        assert np.max(np.abs(sig[:16] - c * body[-24:-8])) < 1e-12

    def test_negated_cp1(self):
        rng = np.random.default_rng(3)
        config = table1_config()
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        sig = modulate_block(precoded, -1.0 + 0j, config).samples
        body = sig[24:]
        assert np.max(np.abs(sig[:16] + body[-24:-8])) < 1e-12
        assert np.array_equal(sig[16:24], body[-8:])

    def test_dc_carrier_gives_constant_body(self):
        config = table1_config()
        precoded = np.zeros(128, dtype=complex)
        precoded[0] = 128.0
        c = np.exp(1j * np.pi / 3)
        sig = modulate_block(precoded, c, config).samples
        assert np.max(np.abs(sig[24:] - 1.0)) < 1e-12
        assert np.max(np.abs(sig[:16] - c)) < 1e-12
        assert np.max(np.abs(sig[16:24] - 1.0)) < 1e-12

    def test_ifft_scaling_round_trip(self):
        rng = np.random.default_rng(4)
        config = table1_config()
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        body = modulate_block(precoded, 1.0, config).samples[24:]
        assert np.max(np.abs(np.fft.fft(body) - precoded)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(5)
        config = table1_config()
        precoded = rng.normal(size=128) + 1j * rng.normal(size=128)
        body = modulate_block(precoded, 1.0, config).samples[24:]
        body_energy = np.sum(np.abs(body) ** 2)
        assert body_energy == pytest.approx(
            np.sum(np.abs(precoded) ** 2) / 128, abs=1e-9)


class TestBuildWaveform:
    def test_single_block_matches_modulate(self):
        rng = np.random.default_rng(6)
        config = table1_config()
        blocks = random_symbol_blocks(rng, 1, config)
        plan = plans(0, 1)[0]
        direct = modulate_block(precode(blocks[0], plan[1:]),
                                np.exp(1j * plan[0]), config)
        wave = build_waveform(blocks, plans(0, 1), config)
        assert np.array_equal(wave.samples, direct.samples)

    def test_length_and_block_boundaries(self):
        rng = np.random.default_rng(7)
        config = table1_config()
        blocks = random_symbol_blocks(rng, 5, config)
        wave = build_waveform(blocks, plans(0, 5), config)
        assert wave.samples.size == 5 * 152
        # each block boundary starts that block's first CP segment
        for k, block in enumerate(blocks):
            plan = plans(k, 1)[0]
            seg = modulate_block(precode(block, plan[1:]),
                                 np.exp(1j * plan[0]), config).samples
            assert np.array_equal(wave.samples[k * 152:(k + 1) * 152], seg)

    def test_body_power(self):
        rng = np.random.default_rng(9)
        config = table1_config()
        blocks = random_symbol_blocks(rng, 100, config)
        wave = build_waveform(blocks, plans(0, 100), config)
        samples = wave.samples.reshape(100, 152)
        body_power = np.mean(np.abs(samples[:, 24:]) ** 2)
        # mean per-sample body power is symbol power / carrier count
        assert abs(body_power - 1 / 128) / (1 / 128) < 0.05

    def test_shifted_sequence(self):
        rng = np.random.default_rng(10)
        config = table1_config()
        blocks = random_symbol_blocks(rng, 2, config)
        shifted = build_waveform(blocks, plans(7, 2), config)
        plan7 = plans(7, 1)[0]
        direct = modulate_block(precode(blocks[0], plan7[1:]),
                                np.exp(1j * plan7[0]), config)
        assert np.array_equal(shifted.samples[:152], direct.samples)

    def test_plain_waveform_has_classical_cp(self):
        rng = np.random.default_rng(11)
        config = table1_config()
        blocks = random_symbol_blocks(rng, 3, config)
        wave = modulate_block(blocks, 1.0, config)
        for k in range(3):
            seg = wave.samples[k * 152:(k + 1) * 152]
            assert np.array_equal(seg[:24], seg[-24:])


class TestPilots:
    def test_pilot_values_inserted(self):
        config = table1_config(pilot_positions={24: 1.0 + 0j, 32: 1.0 + 0j})
        rng = np.random.default_rng(12)
        block = random_symbol_blocks(rng, 1, config)[0]
        assert block[24] == 1.0 + 0j
        assert block[32] == 1.0 + 0j

    def test_non_pilot_entries_from_constellation(self):
        config = table1_config(pilot_positions={24: 1.0 + 0j})
        rng = np.random.default_rng(13)
        block = random_symbol_blocks(rng, 1, config)[0]
        others = np.delete(block, 24)
        dists = np.abs(others[:, None] - QPSK[None, :]).min(axis=1)
        assert np.max(dists) < 1e-12


class TestIqFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        config = table1_config()
        wave = build_waveform(random_symbol_blocks(rng, 2, config),
                              plans(0, 2), config)
        path = tmp_path / "wave.iq"
        write_iq(wave, path, config.config_hash())
        back = read_iq(path)
        assert np.array_equal(back.samples, wave.samples)
        assert back.sample_interval == wave.sample_interval

    def test_older_header_with_start_time_reads(self, tmp_path):
        config = table1_config()
        path = tmp_path / "wave.iq"
        wave = ComplexSignal(np.arange(4) + 1j, config.sample_interval)
        write_iq(wave, path)
        header = tmp_path / "wave.iq.hdr"
        assert "start_time" not in header.read_text()
        header.write_text(header.read_text() + "start_time=0.0\n")
        assert np.array_equal(read_iq(path).samples, wave.samples)

    def test_rejects_size_mismatch(self, tmp_path):
        config = table1_config()
        path = tmp_path / "wave.iq"
        write_iq(ComplexSignal(np.ones(4, dtype=complex),
                               config.sample_interval), path)
        with open(path, "ab") as f:
            f.write(bytes(8))
        with pytest.raises(ValueError, match="n_samples"):
            read_iq(path)

    def test_rejects_unknown_format(self, tmp_path):
        config = table1_config()
        path = tmp_path / "wave.iq"
        write_iq(ComplexSignal(np.ones(4, dtype=complex),
                               config.sample_interval), path)
        header = tmp_path / "wave.iq.hdr"
        header.write_text(header.read_text().replace(
            "interleaved_float64_iq", "interleaved_int16_iq"))
        with pytest.raises(ValueError, match="format"):
            read_iq(path)
