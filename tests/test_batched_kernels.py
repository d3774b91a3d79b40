"""The batched kernels against the simple loops they replaced, and the caches
behind them.

An audlet build evaluates the windows of consecutive channels in batches,
analysis folds each run of consecutive channels with one decimation into one
block and takes one inverse FFT of it, the synthesis spectrum takes one FFT
per batch of such channels, the Walnut sum one scatter-add over all alias
entries, and each masking sweep stops at the last target of its rate. All
must equal the per-channel, per-shift and full-sweep loops of
``dense_oracle`` bit for bit, signed zeros included, on every bank of the
identity harness.
"""

import dataclasses

import numpy as np
import pytest

import audfb
import dense_oracle as oracle
import identity
from audfb import filterbank, frame_diagnostics, synthesis
from audfb.errors import DomainError, UnsupportedConfigError
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


def audlet_channels(fb):
    """(prototype, L, f_s, centers, dilations) an audlet bank's covers are built from."""
    return (fb.config.prototype, fb.signal_length, fb.sample_rate,
            fb.center_frequencies.tolist(), fb.dilations.tolist())


def evaluated_bins(prototype, L, sample_rate, centers, gammas):
    """(first bin, bin count) of the range each channel's window is evaluated on."""
    half_width = filterbank.PROTOTYPES[prototype][1]
    return [oracle._evaluated_bins(half_width, L, sample_rate, c, g)[1:]
            for c, g in zip(centers, gammas)]


def recorded_windows(patch, prototype):
    """Bin counts of the window batches evaluated while patched."""
    sizes, (window, *rest) = [], filterbank.PROTOTYPES[prototype]
    patch.setitem(filterbank.PROTOTYPES, prototype,
                  (lambda t: sizes.append(t.size) or window(t), *rest))
    return sizes


def batched_covers(patch, prototype, *channels):
    """``filterbank._audlet_covers`` and the bin count of each window batch it evaluates."""
    sizes = recorded_windows(patch, prototype)
    return filterbank._audlet_covers(prototype, *channels), sizes


def channel_batches(sizes, counts):
    """The channels of each batch, read off the batch sizes: consecutive,
    every channel in exactly one, and as many as fit under the cap."""
    batches, k, cap = [], 0, filterbank._BATCH_BYTES // 8
    for size in sizes:
        end, total = k, 0
        while total < size:
            total, end = total + counts[end], end + 1
        assert total == size
        assert end - k == 1 or size <= cap
        assert end == len(counts) or size + counts[end] > cap
        batches.append(range(k, end))
        k = end
    assert k == len(counts)
    return batches


def assert_same_covers(fast, reference):
    assert [start for start, _ in fast] == [start for start, _ in reference]
    assert_same_channels([v for _, v in fast], [v for _, v in reference])


AUDLET_BANKS = [name for name in identity.BANKS if not name.startswith(("random", "gabor"))]


@pytest.mark.parametrize("cap", ["default", "one channel", "below one channel"])
@pytest.mark.parametrize("name", AUDLET_BANKS)
def test_audlet_covers_match_channel_loop(banks, monkeypatch, name, cap):
    """At the default cap, at the bins of the bank's widest window and one
    bin below them: the covers of one window evaluation per channel, bit for
    bit, with every batch as full as the cap allows."""
    fb = identity_bank(banks, name)
    channels = audlet_channels(fb)
    counts = [count for _, count in evaluated_bins(*channels)]
    if cap != "default":
        monkeypatch.setattr(filterbank, "_BATCH_BYTES", 8 * (max(counts) - (cap != "one channel")))
    with monkeypatch.context() as patch:
        fast, sizes = batched_covers(patch, *channels)
    assert_same_covers(fast, oracle.loop_audlet_covers(*channels))
    assert_same_covers(fast, fb._covers)
    batches = channel_batches(sizes, counts)
    if cap == "below one channel":
        widest = counts.index(max(counts))
        assert range(widest, widest + 1) in batches


def test_batch_ends_exactly_at_the_cap(monkeypatch):
    """A cap of exactly the first two windows' bins makes them one batch."""
    fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)
    channels = audlet_channels(fb)
    counts = [count for _, count in evaluated_bins(*channels)]
    monkeypatch.setattr(filterbank, "_BATCH_BYTES", 8 * (counts[0] + counts[1]))
    with monkeypatch.context() as patch:
        fast, sizes = batched_covers(patch, *channels)
    assert channel_batches(sizes, counts)[0] == range(2)
    assert_same_covers(fast, oracle.loop_audlet_covers(*channels))


def test_window_wider_than_the_cap_is_its_own_batch(banks, monkeypatch):
    """At the default cap the full-circle DC window of 40960 bins is one
    batch, and the channels after it share batches."""
    fb = identity_bank(banks, "erb_gauss_40960_wide_dc")
    channels = audlet_channels(fb)
    counts = [count for _, count in evaluated_bins(*channels)]
    assert counts[0] == fb.signal_length > filterbank._BATCH_BYTES // 8
    with monkeypatch.context() as patch:
        fast, sizes = batched_covers(patch, *channels)
    batches = channel_batches(sizes, counts)
    assert batches[0] == range(1) and len(batches) < len(counts) - 1
    assert_same_covers(fast, oracle.loop_audlet_covers(*channels))


def test_full_circle_windows_share_a_batch(banks, monkeypatch):
    """Full-circle windows of 96 bins, reduced mod L within their own
    segment of one batch, give the covers of the modulo oracle."""
    fb = identity_bank(banks, "bark_gauss_96_full_circle")
    channels = audlet_channels(fb)
    ranges = evaluated_bins(*channels)
    full = [k for k, (first, count) in enumerate(ranges) if count == fb.signal_length]
    assert full[0] == 0 and len(full) >= 2 and len(full) < len(ranges)
    with monkeypatch.context() as patch:
        fast, sizes = batched_covers(patch, *channels)
    assert len(sizes) == 1
    assert_same_covers(fast, oracle.loop_audlet_covers(*channels, window_cover=oracle.window_cover))


def test_wrapping_dc_window():
    """The DC window's range wraps past bin 0 and its cover past bin L-1, in
    one batch with the other windows. It and the on-bin Nyquist window, whose
    range lies inside [0, L), are even under j -> -j."""
    fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)
    channels = audlet_channels(fb)
    L, ranges = fb.signal_length, evaluated_bins(*channels)
    assert ranges[0][0] < 0 and 0 < ranges[-1][0] and sum(ranges[-1]) <= L
    assert sum(count for _, count in ranges) <= filterbank._BATCH_BYTES // 8
    fast = filterbank._audlet_covers(*channels)
    assert_same_covers(fast, oracle.loop_audlet_covers(*channels))
    (dc_start, dc), (nyquist_start, nyquist) = fast[0], fast[-1]
    assert dc_start + dc.size > L and nyquist_start + nyquist.size <= L
    assert (dc_start + dc.size // 2) % L == 0 and nyquist_start + nyquist.size // 2 == L // 2
    for values in (dc, nyquist):
        assert np.array_equal(values, values[::-1])


@pytest.mark.parametrize("cap_channels", [None, 2])
def test_empty_window_names_its_channel(monkeypatch, cap_channels):
    """A window with no positive bin raises the loop's error, naming the
    first such channel, also when it is the fourth channel of a later batch."""
    channels = filterbank._audlet_channels(
        300.0, 4000.0, 1.0, audfb.ERB, sample_rate=8000.0, signal_length=128, prototype="hann",
        r_bw=0.5, r_d=1.0, dc_filter=True,
    )
    args = ("hann", 128, 8000.0, *channels)
    counts = [count for _, count in evaluated_bins(*args)]
    if cap_channels is not None:
        monkeypatch.setattr(filterbank, "_BATCH_BYTES", 8 * sum(counts[:cap_channels]))
    with pytest.raises(UnsupportedConfigError) as expected:
        oracle.loop_audlet_covers(*args)
    assert str(expected.value).startswith("channel 5 ")
    with monkeypatch.context() as patch, pytest.raises(UnsupportedConfigError) as raised:
        sizes = recorded_windows(patch, "hann")
        filterbank._audlet_covers(*args)
    assert str(raised.value) == str(expected.value)
    assert sizes == ([sum(counts)] if cap_channels is None else [sum(counts[:2]), sum(counts[2:6])])


def signals_of(L):
    """A real, a complex and a zero signal of length L."""
    gen = np.random.default_rng(L)
    x = gen.standard_normal(L)
    return {"real": x, "complex": x + 1j * gen.standard_normal(L), "zero": np.zeros(L)}


def assert_same_channels(fast, reference):
    assert len(fast) == len(reference)
    for a, b in zip(fast, reference):
        assert a.shape == b.shape
        assert_same_bits(a, b)


@pytest.mark.parametrize("name", list(identity.BANKS))
def test_analyze_matches_channel_loop(banks, name):
    """One block and one inverse FFT per run of one decimation: the same
    bits as one fold and one inverse FFT per channel."""
    fb = identity_bank(banks, name)
    for signal in signals_of(fb.signal_length).values():
        assert_same_channels(audfb.analyze(fb, signal), oracle.loop_analyze(fb, signal))


@pytest.mark.parametrize("name", list(identity.BANKS))
def test_threshold_matches_full_sweep(banks, name):
    """Sweeps stopped at their rate's last target leave every threshold's
    bits as sweeps over all channels do; a bank without centers raises."""
    fb = identity_bank(banks, name)
    model = audfb.IrrelevanceModel()
    for signal in signals_of(fb.signal_length).values():
        c = audfb.analyze(fb, signal)
        if fb.center_frequencies is None:
            with pytest.raises(DomainError, match="center frequencies"):
                audfb.irrelevance_threshold(c, fb, model)
            continue
        fast = audfb.irrelevance_threshold(c, fb, model)
        assert_same_channels(fast, oracle.full_sweep_threshold(c, fb, model))


def interleaved_bank(one_sided=False):
    """Random full-support filters on L=48 whose decimations 4, 8, 4, 2, 4
    form five runs, three of them of rate 4, and whose centers are not in
    channel order."""
    fb = identity._random(48, [4, 8, 4, 2, 4], 5, one_sided=one_sided)
    return dataclasses.replace(fb, center_frequencies=np.array([9.0, 1.0, 20.0, 4.0, 14.0]))


@pytest.mark.parametrize("one_sided", [False, True])
def test_unsorted_decimation_runs(one_sided):
    """Runs of one rate that are not neighbours analyze as the channel loop
    does and as the dense oracle does, and their thresholds as full sweeps."""
    fb = interleaved_bank(one_sided)
    assert list(filterbank._runs(fb.decimations)) == [
        (0, 1, 4), (1, 2, 8), (2, 3, 4), (3, 4, 2), (4, 5, 4)
    ]
    model = audfb.IrrelevanceModel()
    for signal in signals_of(48).values():
        c = audfb.analyze(fb, signal)
        assert_same_channels(c, oracle.loop_analyze(fb, signal))
        for fast, dense in zip(c, oracle.analyze(fb, signal)):
            np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-12)
        fast = audfb.irrelevance_threshold(c, fb, model)
        assert_same_channels(fast, oracle.full_sweep_threshold(c, fb, model))


def test_rows_of_one_run_share_one_block(rng):
    """analyze returns the rows of one block per run of one decimation:
    the rows of a run share one base, and no two runs share one."""
    fb = nonpainless_bank()
    c = audfb.analyze(fb, rng.standard_normal(fb.signal_length))
    runs = list(filterbank._runs(fb.decimations))
    assert len(runs) > 1
    bases = []
    for first, end, d in runs:
        block = c[first].base
        assert block.shape == (end - first, fb.signal_length // d)
        assert all(ck.base is block for ck in c[first:end])
        bases.append(block)
    assert len({id(block) for block in bases}) == len(runs)


def test_bank_does_not_alias_dense_filters(rng):
    """A bank built from a complex128 array keeps copies of its rows, even
    where a cover is a plain slice of a row: changing the array afterwards
    changes neither the bank's filters nor its analysis."""
    L = 32
    H = np.zeros((3, L), dtype=np.complex128)
    H[0, 3:9] = rng.standard_normal(6) + 1j * rng.standard_normal(6)  # a slice of row 0
    H[1, [30, 31, 0, 1]] = rng.standard_normal(4)  # wraps: a gathered copy
    H[2] = rng.standard_normal(L)  # the full row
    fb = audfb.FilterBank(H, decimations=[4, 8, 1], sample_rate=1.0, one_sided=False)
    filters = fb.filters.copy()
    x = rng.standard_normal(L)
    before = audfb.analyze(fb, x)
    H[:] = 7.0
    assert np.array_equal(fb.filters, filters)
    assert_same_channels(audfb.analyze(fb, x), before)
    assert not any(np.shares_memory(values, H) for _, values in fb._covers)


def test_synthesis_leaves_coefficients_unchanged(rng):
    """The in-place transforms of synthesis work on copies of the coefficients."""
    fb = nonpainless_bank()
    c = audfb.analyze(fb, rng.standard_normal(fb.signal_length))
    kept = [ck.copy() for ck in c]
    audfb.synthesize(fb, c)
    assert_same_channels(c, kept)


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
