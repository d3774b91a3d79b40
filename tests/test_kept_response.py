"""The frequency response kept on the bank, and the uniform rows built by one
broadcast product per channel, against the loops they replaced.

``frequency_response`` sums H0 once per bank and keeps it read-only; every
reader holds that one array. ``equivalent_uniform`` builds each channel's
split rows as views of one product and refuses, before it allocates, rows
over ``_UNIFORM_MAX_BYTES``. Both must equal the ``dense_oracle`` loops bit
for bit, signed zeros included, on every bank of the identity harness.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import audfb
import dense_oracle as oracle
import identity
from audfb import filterbank, frame_diagnostics
from audfb.errors import UnsupportedConfigError
from conftest import scaled_decimations


@pytest.fixture(scope="module")
def banks():
    """Each identity bank, built once for the module."""
    return {}


def identity_bank(banks, name):
    if name not in banks:
        banks[name] = identity.BANKS[name]()
    return banks[name]


def assert_same_bits(fast, reference):
    assert np.array_equal(fast, reference)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(fast, part)), np.signbit(getattr(reference, part)))


def uniform_entries(fb):
    """sum_k (D/d_k) |cover_k| over the full system: the entries of the rows."""
    covers = filterbank._expanded_covers(fb)
    D = frame_diagnostics._lcm_decimation(d for *_, d in covers)
    return sum(D // d * values.size for _, values, d in covers)


@pytest.mark.parametrize("name", list(identity.BANKS))
def test_frequency_response_matches_loop(banks, name):
    fb = identity_bank(banks, name)
    assert_same_bits(audfb.frequency_response(fb), oracle.loop_frequency_response(fb))


@pytest.mark.parametrize("name", list(identity.BANKS))
def test_equivalent_uniform_matches_row_loop(banks, name):
    """Same rows in the same order, each channel's rows views of one array;
    banks over the ceiling (the two at 44.1 kHz) are refused."""
    fb = identity_bank(banks, name)
    if 16 * uniform_entries(fb) > frame_diagnostics._UNIFORM_MAX_BYTES:
        with pytest.raises(UnsupportedConfigError, match="uniform rows"):
            audfb.equivalent_uniform(fb)
        return
    uniform = audfb.equivalent_uniform(fb)
    reference = oracle.loop_uniform_rows(fb)
    assert len(uniform._covers) == len(reference) == uniform.n_channels
    for (start, values), (ref_start, ref_values) in zip(uniform._covers, reference):
        assert start == ref_start
        assert_same_bits(values, ref_values)
    bases = {id(values.base) for _, values in uniform._covers if values.size}
    assert len(bases) == sum(values.size > 0 for _, values, _ in filterbank._expanded_covers(fb))


@pytest.mark.parametrize("name", ["certify_erb_rect_x2", "erb_hann_1024_x4", "erb_hann_12288_x2"])
def test_equivalent_uniform_ceiling_refuses_before_rows(banks, monkeypatch, name):
    """One byte under the rows' size refuses, with a tracemalloc peak below
    the root table that every row is read from; at their size it builds."""
    fb = identity_bank(banks, name)
    size = 16 * uniform_entries(fb)
    filterbank._expanded_covers(fb)  # kept on the bank, so not counted below
    monkeypatch.setattr(frame_diagnostics, "_UNIFORM_MAX_BYTES", size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedConfigError, match="uniform rows"):
            audfb.equivalent_uniform(fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * fb.signal_length
    monkeypatch.setattr(frame_diagnostics, "_UNIFORM_MAX_BYTES", size)
    uniform = audfb.equivalent_uniform(fb)
    assert sum(values.size for _, values in uniform._covers) * 16 == size


def test_equivalent_uniform_refuses_44k_bank_at_once():
    """ERB V=6 at 44.1 kHz, L=131072: 32.5 M entries (495 MiB) of rows."""
    fb = identity.BANKS["roundtrip_44k"]()
    assert uniform_entries(fb) == 32459875
    filterbank._expanded_covers(fb)
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedConfigError, match="uniform rows"):
            audfb.equivalent_uniform(fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * fb.signal_length


def small_bank(painless=True):
    fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)
    return fb if painless else scaled_decimations(fb, 2)


@pytest.mark.parametrize("painless", [True, False])
def test_response_is_summed_once_and_shared(rng, monkeypatch, painless):
    """Every reader of H0 on one bank holds one read-only array, summed by
    one pass of the channel loop: one real array is ever scattered into."""
    fb = small_bank(painless)
    scattered, add_at = [], filterbank._add_at
    monkeypatch.setattr(
        filterbank, "_add_at",
        lambda out, start, values: (out.dtype == np.float64 and scattered.append(out))
        or add_at(out, start, values),
    )
    response = audfb.frequency_response(fb)
    assert not response.flags.writeable
    with pytest.raises(ValueError):
        response[0] = 1.0
    loop_calls = len(scattered)
    assert loop_calls == fb.n_channels + len(filterbank._mirrored(fb))
    c = audfb.analyze(fb, rng.standard_normal(fb.signal_length))
    report = audfb.estimate_bounds(fb)
    audfb.cg_synthesize(fb, c)
    audfb.neumann_synthesize(fb, c, report.bounds)
    if painless:
        audfb.painless_dual(fb)
    assert len(scattered) == loop_calls and all(out is response for out in scattered)
    assert audfb.frequency_response(fb) is response
    assert frame_diagnostics._frame_terms(fb)[0] is response
    assert frame_diagnostics._frame_terms(fb, flat=True)[0] is response
    assert report.frequency_response is response


def test_replaced_bank_has_no_kept_response():
    fb = small_bank()
    response = audfb.frequency_response(fb)
    other = dataclasses.replace(fb)
    assert "response" not in other._derived
    assert audfb.frequency_response(other) is not response
    assert_same_bits(audfb.frequency_response(other), response)


def sparse_bank(one_sided):
    """Covers of 3, 2 and 1 bins on L=64, one wrapping past bin 63: fewer
    covered bins than L, so not a frame."""
    filters = np.zeros((3, 64), dtype=np.complex128)
    filters[0, [63, 0, 1]] = [0.5, 1.0, 0.25 - 0.5j]
    filters[1, [20, 21]] = [-0.0 + 2.0j, 3.0]
    filters[2, 32] = -1.5
    return audfb.FilterBank(filters, decimations=[2, 4, 8], sample_rate=64.0, one_sided=one_sided)


@pytest.mark.parametrize("bank", ["sparse full", "sparse one-sided", "painless", "doubled"])
def test_parseval_normalize_matches_dense_oracle(bank):
    """A bank covering fewer than L bins is scaled from H0 on its covered
    bins, and a frame from H0 over all L bins."""
    fb = {
        "sparse full": lambda: sparse_bank(False),
        "sparse one-sided": lambda: sparse_bank(True),
        "painless": lambda: small_bank(True),
        "doubled": lambda: small_bank(False),
    }[bank]()
    parseval = audfb.parseval_normalize(fb)
    assert_same_bits(parseval.filters, oracle.parseval_filters(fb))


@pytest.mark.parametrize(
    "start, n", [(12, 7), (3, 5), (5, 16), (0, 16), (7, 0), (15, 1), (15, 2)],
    ids=["wraps", "inside", "full from 5", "full from 0", "empty", "last bin", "wraps by one"],
)
def test_add_at_matches_numpy_add_at(start, n):
    gen = np.random.default_rng(start * 17 + n)
    out = gen.standard_normal(16) + 1j * gen.standard_normal(16)
    out[::5] = -0.0
    values = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    expected = out.copy()
    np.add.at(expected, (start + np.arange(n)) % 16, values)
    filterbank._add_at(out, start, values)
    assert_same_bits(out, expected)


def test_uniform_ceiling_is_64_mib():
    """The ceiling the README states for the rows equivalent_uniform keeps:
    64 MiB, 4 M complex entries. The refusal tests move it, so pin it here."""
    assert frame_diagnostics._UNIFORM_MAX_BYTES == 2**26
