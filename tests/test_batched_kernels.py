"""The batched solver kernels against the simple loops they replaced, and the
caches behind them.

The synthesis spectrum takes one FFT per batch of consecutive channels with
one decimation, and the Walnut sum one scatter-add over all alias entries.
Both must equal the per-channel and per-shift loops of ``dense_oracle`` bit
for bit, signed zeros included, on every bank of the identity harness.
"""

import dataclasses

import numpy as np
import pytest

import audfb
import dense_oracle as oracle
import identity
from audfb import filterbank, frame_diagnostics, synthesis
from conftest import scaled_decimations


@pytest.fixture(scope="module")
def banks():
    """Each identity bank, built once for the module (it caches its terms)."""
    return {}


def identity_bank(banks, name):
    if name not in banks:
        banks[name] = identity.BANKS[name]()
    return banks[name]


def assert_same_bits(fast, reference):
    assert np.array_equal(fast, reference)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(fast, part)), np.signbit(getattr(reference, part)))


def synthesis_banks(fb):
    """The bank, the adjoint a solve synthesizes with and, if painless, the dual."""
    yield fb
    yield audfb.adjoint_bank(fb)
    if audfb.painless_check(fb):
        yield audfb.painless_dual(fb)


def recorded_batches(patch):
    """Shapes of the stacked arrays np.fft.fft transforms while patched."""
    shapes, fft = [], np.fft.fft
    patch.setattr(np.fft, "fft", lambda a, *args, **kw: shapes.append(a.shape) or fft(a, *args, **kw))
    return shapes


@pytest.mark.parametrize("cap", ["default", "one channel", "below one channel"])
@pytest.mark.parametrize("name", list(identity.BANKS))
def test_synthesis_spectrum_matches_channel_loop(banks, monkeypatch, name, cap):
    """At the default cap, at the bytes of the bank's longest channel and one
    byte below them: same bits as the loop, every channel in exactly one
    batch, and a batch of more than one channel within the cap."""
    fb = identity_bank(banks, name)
    L = fb.signal_length
    longest = 16 * L // int(fb.decimations.min())
    if cap != "default":
        monkeypatch.setattr(filterbank, "_BATCH_BYTES", longest - (cap != "one channel"))
    limit = filterbank._BATCH_BYTES
    gen = np.random.default_rng(L)
    x = gen.standard_normal(L)
    signals = (x, x + 1j * gen.standard_normal(L))
    for bank in synthesis_banks(fb):
        for signal in signals:
            coefficients = audfb.analyze(fb, signal)
            with monkeypatch.context() as patch:
                shapes = recorded_batches(patch)
                fast = filterbank._synthesis_spectrum(bank, coefficients)
            assert_same_bits(fast, oracle.loop_synthesis_spectrum(bank, coefficients))
            assert sum(rows for rows, _ in shapes) == fb.n_channels
            assert all(rows == 1 or rows * n * 16 <= limit for rows, n in shapes)
            if cap == "below one channel":
                assert all(rows == 1 for rows, n in shapes if n * 16 == longest)


@pytest.mark.parametrize("name", list(identity.BANKS))
def test_walnut_spectrum_matches_shift_loop(banks, name):
    """One scatter-add over all entries sums each bin's terms in ascending s,
    as one scatter-add per shift does, on spectra with signed zeros."""
    fb = identity_bank(banks, name)
    L = fb.signal_length
    gen = np.random.default_rng(L)
    X = np.fft.fft(gen.standard_normal(L) + 1j * gen.standard_normal(L))
    zeros = np.where(np.arange(L) % 3 == 0, -0.0, 0.0)
    for spectrum in (X, -X, np.where(np.arange(L) % 2 == 0, X, zeros), zeros + 0j, zeros * 1j):
        fast = frame_diagnostics._walnut_spectrum(fb, spectrum)
        assert_same_bits(fast, oracle.shift_walnut_spectrum(fb, spectrum))


def nonpainless_bank():
    fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)
    return scaled_decimations(fb, 2)


def test_adjoint_bank_is_built_once_per_bank(rng, monkeypatch):
    """Two CG solves and a Neumann solve on one bank build one adjoint bank,
    kept read-only; a bank made by dataclasses.replace builds its own."""
    fb = nonpainless_bank()
    c = audfb.analyze(fb, rng.standard_normal(1024))
    built = []
    monkeypatch.setattr(synthesis, "adjoint_bank", lambda b: built.append(b) or audfb.adjoint_bank(b))
    first = audfb.cg_synthesize(fb, c)
    assert np.array_equal(audfb.cg_synthesize(fb, c), first)
    audfb.neumann_synthesize(fb, c, audfb.estimate_bounds(fb, "dense-eigen").bounds)
    assert built == [fb]
    adjoint = fb._derived["adjoint"]
    assert all(not values.flags.writeable for _, values in adjoint._covers)
    with pytest.raises(ValueError):
        adjoint._covers[0][1][0] = 1.0

    other = dataclasses.replace(fb)
    assert "adjoint" not in other._derived and "walnut_terms" not in other._derived
    assert np.array_equal(audfb.cg_synthesize(other, c), first)
    assert built == [fb, other]


@pytest.mark.parametrize("painless", [True, False])
def test_flat_terms_are_read_only_and_shared(painless):
    """The per-shift entries are views into the flat read-only arrays, and
    cols is (rows - s) mod L. A replaced bank has no terms until it asks."""
    fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)
    fb = fb if painless else scaled_decimations(fb, 2)
    H0, entries = frame_diagnostics._frame_terms(fb)
    flat_H0, rows, cols, values = frame_diagnostics._frame_terms(fb, flat=True)
    assert flat_H0 is H0
    assert all(not a.flags.writeable for a in (H0, rows, cols, values))
    assert rows.size == values.size == cols.size == sum(j.size for _, j, _ in entries)
    assert (rows.size == 0) == painless
    assert rows.dtype == cols.dtype == np.int64 and values.dtype == np.complex128
    offset = 0
    for s, j, v in entries:
        assert np.shares_memory(j, rows) and np.shares_memory(v, values)
        assert np.array_equal(j, rows[offset : offset + j.size])
        assert np.array_equal(cols[offset : offset + j.size], (j - s) % fb.signal_length)
        offset += j.size
    assert "walnut_terms" not in dataclasses.replace(fb)._derived
