"""Cover storage of filter banks against the dense oracle.

A bank stores each channel as its circular cover (start bin and values).
Every spectral operation is checked here against ``dense_oracle``, which
evaluates the same formula over all L bins of the dense filters. On painless
banks the two agree bit for bit, given the same filter values; where a
cover is longer than L/d_k the alias fold adds its terms in another order,
so non-painless and full-support banks agree to 1e-12 relative.
"""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import audfb
import dense_oracle as oracle
from audfb import container, filterbank, frame_diagnostics
from audfb.errors import UnsupportedConfigError

RTOL = 1e-12


def assert_close(actual, expected, rtol=RTOL):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(float(np.max(np.abs(expected), initial=0.0)), np.finfo(float).tiny)
    assert float(np.max(np.abs(actual - expected), initial=0.0)) <= rtol * scale


def assert_list_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert np.array_equal(a, e)


def assert_list_close(actual, expected):
    assert_close(np.concatenate(actual), np.concatenate(expected))


audlet_settings = st.fixed_dictionaries(
    {
        "scale": st.sampled_from([audfb.ERB, audfb.BARK]),
        "prototype": st.sampled_from(["hann", "gauss", "rect"]),
        "channels_per_unit": st.floats(0.5, 4.0),
        "r_bw": st.floats(0.4, 2.5),
        "r_d": st.floats(0.25, 2.0),
        "f_min": st.one_of(st.just(0.0), st.floats(30.0, 800.0)),
        "dc_filter": st.booleans(),
        "signal_length": st.sampled_from([96, 128, 256, 384, 512, 1024]),
    }
)


def build(params):
    params = dict(params)
    f_min = params.pop("f_min")
    v = params.pop("channels_per_unit")
    scale = params.pop("scale")
    try:
        return audfb.build_audlet(f_min, 4000.0, v, scale, sample_rate=8000.0, **params)
    except UnsupportedConfigError:
        assume(False)


@given(params=audlet_settings, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_audlet_bank_matches_dense_oracle(params, seed):
    fb = build(params)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(fb.signal_length)

    filters, decimations = oracle.audlet_filters(fb)
    assert np.array_equal(fb.filters != 0.0, filters != 0.0)
    assert_close(fb.filters, filters, rtol=1e-14)
    assert np.array_equal(fb.decimations, decimations)

    # Same filter values from here on: fb.filters is what the oracle reads.
    assert audfb.painless_check(fb) and oracle.painless_check(fb)
    coefficients = audfb.analyze(fb, x)
    assert_list_equal(coefficients, oracle.analyze(fb, x))
    response = audfb.frequency_response(fb)
    assert np.array_equal(response, oracle.frequency_response(fb))
    assert np.array_equal(audfb.walnut_apply(fb, x), oracle.walnut_apply(fb, x))
    assert np.array_equal(
        audfb.parseval_normalize(fb).filters, oracle.parseval_filters(fb)
    )
    if response.min() > 0.0:
        dual = audfb.painless_dual(fb)
        assert np.array_equal(dual.filters, oracle.painless_dual_filters(fb))
        assert np.array_equal(
            audfb.synthesize(dual, coefficients), oracle.synthesize(dual, coefficients)
        )
    adjoint = audfb.adjoint_bank(fb)
    assert np.array_equal(
        audfb.synthesize(adjoint, coefficients), oracle.synthesize(adjoint, coefficients)
    )


@given(params=audlet_settings, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_doubled_audlet_bank_matches_dense_oracle(params, seed):
    """Decimations doubled: covers up to 2 L/d_k bins, live alias terms."""
    fb = build(params)
    assume(np.all(fb.signal_length % (2 * fb.decimations) == 0))
    fb = dataclasses.replace(fb, decimations=2 * fb.decimations)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(fb.signal_length)

    assert audfb.painless_check(fb) == oracle.painless_check(fb)
    coefficients = audfb.analyze(fb, x)
    assert_list_close(coefficients, oracle.analyze(fb, x))
    adjoint = audfb.adjoint_bank(fb)
    assert np.array_equal(
        audfb.synthesize(adjoint, coefficients), oracle.synthesize(adjoint, coefficients)
    )
    assert np.array_equal(audfb.frequency_response(fb), oracle.frequency_response(fb))
    assert_close(audfb.walnut_apply(fb, x), oracle.walnut_apply(fb, x))
    assert np.array_equal(audfb.alias_components(fb), oracle.alias_components(fb))


window_cover_settings = st.fixed_dictionaries(
    {
        "scale": st.sampled_from([audfb.ERB, audfb.BARK]),
        "prototype": st.sampled_from(["hann", "gauss", "rect"]),
        "channels_per_unit": st.floats(0.5, 4.0),
        # r_bw 3 and f_min up to 1000 Hz give gauss windows wider than L/2
        "r_bw": st.one_of(st.floats(0.2, 3.0), st.just(3.0)),
        "r_d": st.floats(0.25, 2.0),
        "f_min": st.one_of(st.just(0.0), st.floats(30.0, 1000.0)),
        "f_max": st.floats(1200.0, 4000.0),
        "dc_filter": st.booleans(),
        "signal_length": st.integers(96, 4096),
    }
)


@given(params=window_cover_settings)
@example(params=dict(scale=audfb.BARK, prototype="gauss", channels_per_unit=1.0, r_bw=3.0,
                     r_d=1.0, f_min=700.0, f_max=4000.0, dc_filter=True, signal_length=96))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_window_covers_match_modulo_oracle(params):
    """Windows evaluated inside [0, L) skip the reductions mod L. Covers and
    decimations equal those of the oracle, which reduces every bin and
    offset of every channel, on wrapping DC/Nyquist covers and full-circle
    windows too."""
    params = dict(params)
    args = [params.pop(name) for name in ("f_min", "f_max", "channels_per_unit", "scale")]

    def build_with(audlet_covers):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(filterbank, "_audlet_covers", audlet_covers)
            return audfb.build_audlet(*args, sample_rate=8000.0, **params)

    try:
        reference = build_with(
            functools.partial(oracle.loop_audlet_covers, window_cover=oracle.window_cover)
        )
    except UnsupportedConfigError:
        with pytest.raises(UnsupportedConfigError):
            audfb.build_audlet(*args, sample_rate=8000.0, **params)
        return
    fb = audfb.build_audlet(*args, sample_rate=8000.0, **params)
    assert [start for start, _ in fb._covers] == [start for start, _ in reference._covers]
    assert_list_equal([v for _, v in fb._covers], [v for _, v in reference._covers])
    assert np.array_equal(fb.decimations, reference.decimations)


@given(mask=st.lists(st.booleans(), min_size=1, max_size=40), run=st.integers(0, 40))
def test_circular_cover_matches_gap_scan(mask, run):
    """The one-run shortcut returns what the gap scan returns."""
    for m in (np.array(mask), np.roll(np.arange(len(mask)) < run, run // 2)):
        assert filterbank.circular_cover(m) == oracle.circular_cover(m)


@st.composite
def random_banks(draw):
    """Banks of random dense filters: empty, interval or full support per
    channel, random decimations, either layout."""
    L = draw(st.sampled_from([8, 12, 16, 24, 32, 48]))
    one_sided = draw(st.booleans())
    K = draw(st.integers(2 if one_sided else 1, 5))
    divisors = [d for d in range(1, L + 1) if L % d == 0]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    filters = np.zeros((K, L), dtype=np.complex128)
    for k in range(K):
        support = draw(st.sampled_from(["empty", "interval", "full"]))
        if support == "empty":
            continue
        n = L if support == "full" else draw(st.integers(1, L))
        start = draw(st.integers(0, L - 1))
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        filters[k, (start + np.arange(n)) % L] = values
    decimations = [draw(st.sampled_from(divisors)) for _ in range(K)]
    fb = audfb.FilterBank(
        filters=filters, decimations=decimations, sample_rate=float(L), one_sided=one_sided
    )
    return fb, filters, rng


@given(bank=random_banks())
@settings(max_examples=80, deadline=None)
def test_random_bank_matches_dense_oracle(bank):
    fb, filters, rng = bank
    L = fb.signal_length
    assert np.array_equal(fb.filters, filters)
    x = rng.standard_normal(L) + (0.0 if fb.one_sided else 1j) * rng.standard_normal(L)
    c = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in fb.subband_lengths()]

    assert_list_close(audfb.analyze(fb, x), oracle.analyze(fb, x))
    assert np.array_equal(audfb.synthesize(fb, c), oracle.synthesize(fb, c))
    response = audfb.frequency_response(fb)
    assert np.array_equal(response, oracle.frequency_response(fb))
    painless = audfb.painless_check(fb)
    assert painless == oracle.painless_check(fb)
    assert_close(audfb.walnut_apply(fb, x), oracle.walnut_apply(fb, x))
    assert np.array_equal(audfb.alias_components(fb), oracle.alias_components(fb))
    assert np.array_equal(audfb.parseval_normalize(fb).filters, oracle.parseval_filters(fb))
    if painless and response.min() > 0.0:
        assert np.array_equal(audfb.painless_dual(fb).filters, oracle.painless_dual_filters(fb))
    expanded, decimations = audfb.expanded_filters(fb)
    reference, reference_decimations = oracle.expanded(fb)
    assert np.array_equal(expanded, reference)
    assert np.array_equal(decimations, reference_decimations)


class TestStorage:
    def test_covers_hold_only_the_support(self, default_erb_bank):
        fb = default_erb_bank
        L = fb.signal_length
        support = sum(values.size for _, values in fb._covers)
        assert support < 0.02 * fb.n_channels * L
        for (start, values), d in zip(fb._covers, fb.decimations):
            assert 0 <= start < L and values.size <= L // d
            assert values[0] != 0.0 and values[-1] != 0.0

    def test_pipeline_does_not_build_the_dense_view(self, tmp_path):
        fb = audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=4096)
        x = np.random.default_rng(1).standard_normal(4096)
        assert fb.n_channels > 0 and fb.signal_length == 4096
        fb.subband_lengths()
        fb.redundancy()
        coefficients = audfb.analyze(fb, x)
        dual = audfb.painless_dual(fb)
        audfb.synthesize(dual, coefficients)
        audfb.walnut_apply(fb, x)
        audfb.estimate_bounds(fb)
        container.write_coefficients(tmp_path / "c.afc", fb, coefficients, trim_length=4096)
        rebuilt, _, _ = container.read_coefficients(tmp_path / "c.afc")
        assert all("filters" not in bank._derived for bank in (fb, dual, rebuilt))

    def test_dense_view_is_read_only(self, default_erb_bank):
        with pytest.raises(ValueError):
            default_erb_bank.filters[0, 0] = 1.0

    def test_replace_decimations_keeps_covers(self):
        fb = audfb.build_audlet(0.0, 1000.0, 3.0, audfb.ERB, sample_rate=2000.0, signal_length=256)
        doubled = dataclasses.replace(fb, decimations=2 * fb.decimations)
        assert doubled._covers is fb._covers
        assert "filters" not in doubled._derived
        assert np.array_equal(doubled.filters, fb.filters)

    def test_expanded_covers_are_kept_read_only(self):
        """The full channel system is expanded once per bank, as the dense
        oracle expands it, and a bank made by replace expands its own."""
        fb = audfb.build_audlet(0.0, 1000.0, 3.0, audfb.ERB, sample_rate=2000.0, signal_length=256)
        covers = filterbank._expanded_covers(fb)
        assert filterbank._expanded_covers(fb) is covers
        assert not any(values.flags.writeable for _, values, _ in covers)
        filters, decimations = oracle.expanded(fb)
        assert np.array_equal(filterbank._dense(256, covers), filters)
        assert [d for *_, d in covers] == decimations.tolist()
        doubled = dataclasses.replace(fb, decimations=2 * fb.decimations)
        assert [d for *_, d in filterbank._expanded_covers(doubled)] == (2 * decimations).tolist()

    def test_replace_filters_gives_those_filters(self):
        fb = audfb.build_audlet(0.0, 1000.0, 3.0, audfb.ERB, sample_rate=2000.0, signal_length=256)
        dual = audfb.painless_dual(fb)
        filters = dual.filters.copy()
        filters[3] = 0.0
        broken = dataclasses.replace(dual, filters=filters)
        assert np.array_equal(broken.filters, filters)
        assert broken._covers[3][1].size == 0
        assert audfb.pr_residual(fb, broken).max_deviation > 0.1


def test_long_signal_peak_memory():
    """ERB, V=6 at 44.1 kHz on L=262144: build, dual, analysis and synthesis
    stay below 64 MiB of traced allocation (the dense filters alone took
    1024 MiB)."""
    L = 262144
    x = np.random.default_rng(2).standard_normal(L)
    tracemalloc.start()
    try:
        fb = audfb.build_audlet(0.0, 22050.0, 6.0, audfb.ERB, sample_rate=44100.0, signal_length=L)
        dual = audfb.painless_dual(fb)
        y = audfb.synthesize(dual, audfb.analyze(fb, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.linalg.norm(y.real - x) <= 1e-10 * np.linalg.norm(x)


def test_term_build_peak_memory():
    """The Walnut terms of the doubled ERB V=6 bank at 44.1 kHz, L=131072: 16
    shifts with 239,874 entries in all, built below 32 MiB of traced
    allocation (summing each shift in its own dense array took 52.5 MiB)."""
    fb = audfb.build_audlet(
        0.0, 22050.0, 6.0, audfb.ERB, sample_rate=44100.0, signal_length=131072
    )
    doubled = dataclasses.replace(fb, decimations=2 * fb.decimations)
    tracemalloc.start()
    try:
        _, entries = frame_diagnostics._frame_terms(doubled)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entries) == 16
    assert sum(rows.size for _, rows, _ in entries) == 239874
    assert peak <= 32 * 2**20
