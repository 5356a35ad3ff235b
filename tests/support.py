"""Fixtures and oracles shared by the test modules: the test key, table 1's
OFDM link, the PSK phasor formula and the secret phasor rows, a received
precoded signal, the direct pre-FFT correlator and pilot despreading, the
criterion-3 triangle, and the AES known answers. Pytest collects nothing
here, so a test module imports from this module and never from another
test module."""

import hashlib

import numpy as np

from spofdm.channel import OffsetSpec, apply_offsets
from spofdm.keystream import SecretKey, phase_plans, psk_phasors
from spofdm.sync import FIRST_BLOCK
from spofdm.txchain import (ComplexSignal, OfdmConfig, build_waveform,
                            decode_phases, random_symbol_blocks)

KEY = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")

# table 1: 128 carriers, CP1 16 and CP2 8 samples, 16-PSK secret phases
CONFIG = OfdmConfig(n_carriers=128, cp1_samples=16, cp2_samples=8,
                    psk_order=16)


def sha256(data: bytes | str) -> str:
    """Hex digest of bytes, or of a string's UTF-8 encoding."""
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data).hexdigest()


def psk_exp(v, m, sign=1):
    """e^{sign j 2 pi v/M} at the PSK indices v: with sign 1, the angle
    formula that psk_phasors tabulates."""
    return np.exp(sign * 1j * (2.0 * np.pi * v / m))


def plan_phasors(k_first, count, n_carriers=128, psk_order=16, *, key=KEY,
                 epoch=0):
    """psk_exp of the secret plans of blocks k_first..k_first+count-1, one
    row per block: the CP phasor, then the subcarrier ones."""
    return psk_exp(phase_plans(key, epoch, k_first, count, n_carriers,
                               psk_order), psk_order)


def table_phasors(k_first, count, n_carriers=128, psk_order=16, *, key=KEY,
                  epoch=0):
    """The rows of plan_phasors read from the production table
    psk_phasors(M)."""
    return psk_phasors(psk_order)[phase_plans(key, epoch, k_first, count,
                                              n_carriers, psk_order)]


def receiver_phasors(config, sync_cfg):
    """The secret phasors of every block the receiver reads, and no more:
    row k is block k."""
    return table_phasors(0, FIRST_BLOCK + sync_cfg.n_blocks
                         + sync_cfg.n_candidates, config.n_carriers,
                         config.psk_order)


def make_received(config, n_blocks, k0=0, t0_samples=0, nu=0.0, phi0=0.0,
                  seed=0):
    """n_blocks precoded blocks from sequence offset k0, delayed by
    t0_samples and offset by nu subcarrier spacings and the phase phi0."""
    rng = np.random.default_rng(seed)
    blocks = random_symbol_blocks(rng, n_blocks, config)
    wave = build_waveform(blocks, plan_phasors(k0, n_blocks, config.n_carriers,
                                               config.psk_order), config)
    omega0 = 2 * np.pi * nu / config.t_body
    return apply_offsets(wave, OffsetSpec(delay=t0_samples, omega0=omega0,
                                          phi0=phi0))


def v_expected(tau: float | np.ndarray, t_cp1: float) -> np.ndarray:
    """Limit shape of the averaged CP1 correlation: a triangle of height and
    half-width T_CP1 centred at zero offset (the criterion-3 oracle)."""
    tau = np.asarray(tau, dtype=float)
    return np.where(np.abs(tau) < t_cp1, t_cp1 - np.abs(tau), 0.0)


def corr_pre_fft(r: ComplexSignal, k: int, tau_samples: int, d: int,
                 phasors: np.ndarray, config: OfdmConfig) -> complex:
    """Single correlation coefficient Y_k(tau, d) as a direct Riemann sum
    (the oracle of the pre-FFT surface).

    Window: the CP1 span of block k at trial offset tau, correlated against
    the signal one body-duration later and despread by the candidate CP phase.
    """
    x = r.samples
    n_c = config.n_carriers
    start = tau_samples - config.cp_samples + k * config.block_samples
    stop = start + config.cp1_samples
    if start < 0 or stop + n_c > x.size:
        raise ValueError("correlation window out of range")
    window = x[start:stop] * np.conj(x[start + n_c:stop + n_c])
    cp_phase = phasors[k + d, 0]
    return complex(np.sum(window) * np.conj(cp_phase) * r.sample_interval)


def despread(r_blocks, bins, pilots, phasors):
    """(K, C, P) despread observations, as synchronize forms them: the
    (C, P) ``bins`` of ``r_blocks`` (K, N_c), decode_phases by the (K, P)
    pilot phasors, divided by the values of the pilots [(index, value), ...]."""
    return (decode_phases(r_blocks[:, bins], phasors[:, None])
            / np.array([value for _, value in pilots]))


# AESAVS (NIST 2002) count-0 known answers (name, key, epoch, ciphertext)
# whose plaintext is the counter block of epoch, block 0 and counter 0
AESAVS = [
    ("KeySbox-AES128", "10a58869d74be5a374cf867cfb473859", 0,
     "6d251e6944b051e04eaa6fb4dbf78465"),
    ("KeySbox-AES256",
     "c47b0294dbbbee0fec4757f22ffeee3587ca4730c3d33b691df38bab076bc558", 0,
     "46f2fb342d6f0ab477476fc501242c5f"),
    ("VarTxt-AES128", 32 * "0", 1 << 31, "3ad78e726c1ec02b7ebfe92b23d9ec34"),
]


def aesavs_row_matches(key, epoch, ciphertext):
    """Whether the phase_plans row at N_c = 15, M = 256, one AES block of
    8-bit indices, is the ciphertext byte by byte."""
    row = phase_plans(SecretKey.from_hex(key), epoch, 0, 1, 15, 256)[0]
    return row.tolist() == list(bytes.fromhex(ciphertext))
