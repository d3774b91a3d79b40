"""Shared fixtures and deterministic reference signals for the test suite."""

import dataclasses

import numpy as np
import pytest

import audfb


@pytest.fixture
def rng():
    """Per-test deterministic generator."""
    return np.random.default_rng(20260819)


def speech_like(length: int, sample_rate: float, seed: int = 404) -> np.ndarray:
    """Voiced-speech stand-in: gliding harmonic stack, envelope, pink floor.

    Fully deterministic for a given (length, sample_rate, seed) so values
    derived from it can be pinned in regression tests.
    """
    gen = np.random.default_rng(seed)
    t = np.arange(length) / sample_rate
    f0 = 120.0 + 40.0 * np.sin(2.0 * np.pi * 1.3 * t)
    phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
    x = np.zeros(length)
    for harmonic in range(1, 9):
        x += np.sin(harmonic * phase) / harmonic
    x *= 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.1 * t + 0.7)
    spectrum = np.fft.rfft(gen.standard_normal(length))
    spectrum *= 1.0 / np.sqrt(1.0 + np.arange(spectrum.size))
    floor = np.fft.irfft(spectrum, length)
    x += 0.05 * floor / np.sqrt(np.mean(floor**2))
    return x / np.max(np.abs(x))


def tone_plus_noise(length: int, sample_rate: float, seed: int = 23) -> np.ndarray:
    """1 kHz tone plus a broadband noise floor 40 dB below unit RMS.

    Every coefficient of every reasonable bank is nonzero on this signal,
    which the level-based masking tests rely on. The seed-23 instance is the
    frozen fixture behind the irrelevance regression anchor.
    """
    gen = np.random.default_rng(seed)
    t = np.arange(length) / sample_rate
    noise = gen.standard_normal(length)
    return np.sin(2.0 * np.pi * 1000.0 * t) + 0.01 * noise / np.sqrt(np.mean(noise**2))


def random_full_bank(
    L: int,
    decimations,
    seed: int,
    scale: float = 1.0,
) -> audfb.FilterBank:
    """Full-layout bank with dense random complex transfer functions.

    Deliberately not painless: every filter has full support, so alias terms
    are live and the Walnut and composition routes must agree through the
    generic code path.
    """
    gen = np.random.default_rng(seed)
    decs = np.asarray(decimations, dtype=np.int64)
    filters = scale * (
        gen.standard_normal((decs.size, L)) + 1j * gen.standard_normal((decs.size, L))
    )
    return audfb.FilterBank(
        filters=filters,
        decimations=decs,
        sample_rate=float(L),
        one_sided=False,
    )


def scaled_decimations(fb, factor):
    """The bank with every decimation multiplied by ``factor``."""
    return dataclasses.replace(fb, decimations=factor * fb.decimations)


def painless_gabor(L=64, a=4, M=8):
    """Uniform bank of M modulates of an L/a-bin Hann window centred at DC."""
    window = np.zeros(L)
    window[: L // a] = np.hanning(L // a + 2)[1:-1]
    return audfb.build_gabor(np.roll(window, -(L // a) // 2), a, M, L)


@pytest.fixture(scope="session")
def default_erb_bank():
    """The default analysis bank: ERB, V=6, Hann, 16 kHz, L=16384."""
    return audfb.build_audlet(
        0.0,
        8000.0,
        6.0,
        audfb.ERB,
        sample_rate=16000.0,
        signal_length=16384,
    )


@pytest.fixture(scope="session")
def small_erb_bank():
    """Smaller ERB bank for iteration-heavy tests: V=3, 8 kHz, L=4096."""
    return audfb.build_audlet(
        0.0,
        4000.0,
        3.0,
        audfb.ERB,
        sample_rate=8000.0,
        signal_length=4096,
    )
