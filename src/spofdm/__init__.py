"""Simulation toolkit for securely precoded OFDM under disguised jamming.

Modules:
    keystream   shared-secret phase shift generation (AES counter mode)
    txchain     precoding, modulation, split cyclic prefix, waveform assembly
    channel     offsets, multipath fading, AWGN
    jammer      adversary strategies (Gaussian, disguised OFDM)
    sync        two-stage synchronization (pre-FFT and post-FFT)
    rxchain     QPSK LLRs, LDPC belief propagation
    avc         symbol-level jamming channel analysis (capacity, MI, symmetry)
    harness     Monte-Carlo experiment orchestration and persistence
"""

__version__ = "0.1.0"
