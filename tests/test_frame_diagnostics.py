"""Frame diagnostics: response, alias terms, bounds, Walnut route, residuals.

The strongest oracle used here assembles the frame operator densely through
the analyze/synthesize composition applied to basis vectors, then checks the
banded structure of its Fourier conjugation entry by entry against
frequency_response and alias_components. Nothing in that construction shares
code with the functions under test.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import audfb
import dense_oracle as oracle
from audfb import filterbank, finite_frames, frame_diagnostics
from audfb.errors import DomainError, NotAFrameError, ShapeError, UnsupportedConfigError
from conftest import painless_gabor, random_full_bank, scaled_decimations


def dense_operator(fb):
    """Frame operator as an explicit matrix via the composition route."""
    L = fb.signal_length
    adj = audfb.adjoint_bank(fb)
    S = np.empty((L, L), dtype=np.complex128)
    for j in range(L):
        e = np.zeros(L, dtype=np.complex128)
        e[j] = 1.0
        S[:, j] = audfb.synthesize(adj, audfb.analyze(fb, e))
    return S


def rolled_walnut(fb, x):
    """Non-painless Walnut sum with the alias fold written as d_k rolls."""
    L = fb.signal_length
    X = np.fft.fft(x)
    out = np.zeros(L, dtype=np.complex128)
    for H, d in zip(*filterbank.expanded_filters(fb)):
        d = int(d)
        shifted = H * X
        folded = np.zeros(L, dtype=np.complex128)
        for s in range(d):
            folded += np.roll(shifted, s * (L // d))
        out += np.conj(H) * folded / d
    return np.fft.ifft(out)


def assert_matches_roll_oracle(fb, x):
    """walnut_apply equals the np.roll oracle bit for bit, signed zeros
    included, and the cached terms are exactly the nonzero entries of the
    dense term oracle, none zero and all read-only."""
    fast, reference = audfb.walnut_apply(fb, x), oracle.roll_walnut_apply(fb, x)
    assert np.array_equal(fast, reference)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(fast, part)), np.signbit(getattr(reference, part)))
    H0, entries = frame_diagnostics._frame_terms(fb)
    shifts = [s for s, *_ in entries]
    assert shifts == sorted(set(shifts))
    expected = oracle.walnut_terms(fb)
    assert [s for s, rows, _ in entries if rows.size] == list(expected)
    for s, rows, values in entries:
        if rows.size:
            assert np.array_equal(rows, np.flatnonzero(expected[s]))
            assert np.array_equal(values, expected[s][rows])
        assert np.all(values != 0.0)
        assert not rows.flags.writeable and not values.flags.writeable
    assert not H0.flags.writeable


def small_painless_bank(L=512):
    return audfb.build_audlet(
        0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=L
    )


def doubled(fb):
    return dataclasses.replace(fb, decimations=2 * fb.decimations)


def audlet_rect(L, factor):
    """ERB, V=3, rect prototype at 8 kHz with decimations multiplied."""
    fb = audfb.build_audlet(
        0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=L, prototype="rect"
    )
    return scaled_decimations(fb, factor)


class TestFrequencyResponse:
    """Diagonal term of the Walnut representation."""

    def test_identity_channel(self):
        fb = audfb.FilterBank(
            filters=np.ones((1, 8), dtype=complex),
            decimations=np.array([1]),
            sample_rate=8.0,
            one_sided=False,
        )
        np.testing.assert_allclose(audfb.frequency_response(fb), np.ones(8), atol=1e-14)

    def test_matches_definition(self):
        fb = random_full_bank(32, [2, 4, 8], seed=201)
        expected = sum(
            np.abs(fb.filters[k]) ** 2 / fb.decimations[k] for k in range(3)
        )
        np.testing.assert_allclose(audfb.frequency_response(fb), expected, atol=1e-12)

    def test_counts_mirror_channels(self, default_erb_bank):
        """One-sided banks accumulate the mirrors, so response is symmetric."""
        resp = audfb.frequency_response(default_erb_bank)
        assert resp.shape == (16384,)
        assert np.all(resp > 0)
        np.testing.assert_allclose(resp, resp[(-np.arange(16384)) % 16384], atol=1e-12)


class TestAliasComponents:
    """Off-diagonal Walnut terms against the dense oracle."""

    def test_painless_bank_has_exactly_zero_alias(self):
        fb = small_painless_bank()
        alias = audfb.alias_components(fb)
        assert alias.shape[1] == 512
        assert np.all(alias == 0.0)

    def test_against_dense_operator(self):
        """Fourier conjugation of S is banded with the alias terms as bands."""
        L = 16
        fb = random_full_bank(L, [2, 4], seed=202)
        S_hat = np.fft.ifft(np.fft.fft(dense_operator(fb), axis=0), axis=1)
        resp = audfb.frequency_response(fb)
        alias = audfb.alias_components(fb)
        D = 4
        hop = L // D
        expected = np.zeros((L, L), dtype=np.complex128)
        j = np.arange(L)
        for r in range(D):
            expected[j, (j - r * hop) % L] = resp if r == 0 else alias[r - 1]
        np.testing.assert_allclose(S_hat, expected, atol=1e-10)

    def test_channel_contributes_at_decimation_multiples(self):
        """A channel with q = D/d only feeds rows r in {q, 2q, ...}."""
        L = 24
        fb = random_full_bank(L, [2, 4], seed=203)
        solo = audfb.FilterBank(
            filters=fb.filters[:1],
            decimations=fb.decimations[:1],
            sample_rate=fb.sample_rate,
            one_sided=False,
        )
        alias = audfb.alias_components(solo)
        # single channel with d=2: D=2, one alias row, nonzero
        assert alias.shape == (1, L)
        assert np.any(alias != 0.0)

    def test_size_ceiling_is_checked_before_allocation(self):
        """D = L = 2^16 would ask for (D-1)*L*16 bytes, 64 GiB; it is refused
        with a small tracemalloc peak."""
        L = 2**16
        fb = audfb.FilterBank(
            filters=np.ones((1, L), dtype=complex),
            decimations=np.array([L]),
            sample_rate=1.0,
            one_sided=False,
        )
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedConfigError):
                audfb.alias_components(fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPainlessCheck:
    def test_audlet_is_painless(self, default_erb_bank):
        assert audfb.painless_check(default_erb_bank)

    def test_full_support_with_decimation_is_not(self):
        fb = random_full_bank(16, [2, 2], seed=204)
        assert not audfb.painless_check(fb)

    def test_no_decimation_is_painless(self):
        fb = random_full_bank(16, [1, 1], seed=205)
        assert audfb.painless_check(fb)


class TestEstimateBounds:
    """Three bound estimators and their consistency."""

    def test_painless_exact_equals_response_extrema(self):
        fb = small_painless_bank()
        report = audfb.estimate_bounds(fb)
        resp = audfb.frequency_response(fb)
        assert report.method == "painless-exact"
        assert report.painless
        assert report.bounds.lower == pytest.approx(resp.min(), rel=1e-12)
        assert report.bounds.upper == pytest.approx(resp.max(), rel=1e-12)
        assert np.all(report.alias_norms == 0.0)

    def test_painless_exact_agrees_with_dense_eigen(self):
        """Spectral multiplier: painless bounds are true extremal eigenvalues."""
        fb = small_painless_bank(L=256)
        exact = audfb.estimate_bounds(fb, method="painless-exact")
        dense = audfb.estimate_bounds(fb, method="dense-eigen")
        assert dense.bounds.lower == pytest.approx(exact.bounds.lower, rel=1e-8)
        assert dense.bounds.upper == pytest.approx(exact.bounds.upper, rel=1e-8)

    def test_parseval_normalized_bounds_are_one(self):
        fb = audfb.parseval_normalize(small_painless_bank())
        bounds = audfb.estimate_bounds(fb).bounds
        assert bounds.lower == pytest.approx(1.0, rel=1e-8)
        assert bounds.upper == pytest.approx(1.0, rel=1e-8)

    def test_painless_exact_refuses_non_painless(self):
        fb = random_full_bank(16, [2, 2], seed=206)
        with pytest.raises(UnsupportedConfigError):
            audfb.estimate_bounds(fb, method="painless-exact")

    def test_dense_eigen_matches_eigvalsh_oracle(self):
        fb = random_full_bank(16, [2, 4], seed=207)
        report = audfb.estimate_bounds(fb, method="dense-eigen")
        w = np.linalg.eigvalsh(dense_operator(fb))
        assert report.bounds.lower == pytest.approx(max(w[0], 0.0), rel=1e-8, abs=1e-10)
        assert report.bounds.upper == pytest.approx(w[-1], rel=1e-8)

    @pytest.mark.parametrize("seed", [208, 209, 210])
    def test_diag_dominance_sandwiches_dense_eigen(self, seed):
        fb = random_full_bank(64, [2, 4, 8, 4], seed=seed, scale=0.4)
        loose = audfb.estimate_bounds(fb, method="diag-dominance")
        tight = audfb.estimate_bounds(fb, method="dense-eigen")
        slack = 1e-10 * max(1.0, tight.bounds.upper)
        assert loose.bounds.lower <= tight.bounds.lower + slack
        assert tight.bounds.upper <= loose.bounds.upper + slack

    def test_diag_dominance_formula(self):
        fb = random_full_bank(32, [2, 4], seed=211)
        report = audfb.estimate_bounds(fb, method="diag-dominance")
        resp = audfb.frequency_response(fb)
        sums = np.sum(np.abs(audfb.alias_components(fb)), axis=0)
        assert report.bounds.lower == pytest.approx(max(0.0, (resp - sums).min()))
        assert report.bounds.upper == pytest.approx((resp + sums).max())
        np.testing.assert_array_equal(report.alias_norms, sums)

    def test_auto_dispatch(self):
        assert audfb.estimate_bounds(small_painless_bank()).method == "painless-exact"
        fb = random_full_bank(16, [2, 2], seed=212)
        assert audfb.estimate_bounds(fb).method == "diag-dominance"

    @pytest.mark.parametrize(
        "make_bank",
        [
            lambda: small_painless_bank(L=256),
            lambda: doubled(small_painless_bank(L=256)),
            lambda: random_full_bank(48, [2, 2, 4, 8], seed=221),
            painless_gabor,
        ],
        ids=["audlet", "audlet-doubled", "random-full", "gabor"],
    )
    def test_dense_eigen_matches_atom_frame_oracle(self, make_bank):
        """Bounds from the Walnut terms equal those of the bank's atoms."""
        fb = make_bank()
        report = audfb.estimate_bounds(fb, method="dense-eigen")
        expected = finite_frames.frame_bounds(oracle.atom_frame(fb))
        assert expected.lower > 0.0
        assert abs(report.bounds.lower - expected.lower) <= 1e-12 * expected.upper
        assert abs(report.bounds.upper - expected.upper) <= 1e-12 * expected.upper

    def test_diag_dominance_peak_memory(self):
        """Only the alias terms that occur are held: the doubled ERB bank at
        L=4096 (D=1024, 11 terms) stays far below one dense (D-1, L) array
        (16 MiB per 1024 rows of complex values)."""
        fb = doubled(
            audfb.build_audlet(
                0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=4096
            )
        )
        tracemalloc.start()
        try:
            report = audfb.estimate_bounds(fb, method="diag-dominance")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert report.bounds.lower > 0.0

    @given(
        scale=st.sampled_from([audfb.ERB, audfb.BARK]),
        channels_per_unit=st.floats(0.5, 3.0),
        f_min=st.one_of(st.just(0.0), st.floats(30.0, 800.0)),
        prototype=st.sampled_from(sorted(filterbank.PROTOTYPES)),
        r_bw=st.floats(0.5, 2.0),
        signal_length=st.sampled_from([128, 256, 384, 512]),
        factor=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dense_eigen_matches_walnut_matrix_oracle(
        self, scale, channels_per_unit, f_min, prototype, r_bw, signal_length, factor
    ):
        """The connected blocks give the eigenvalue extremes of the whole
        L x L DFT-domain matrix, and diag-dominance brackets them."""
        try:
            fb = audfb.build_audlet(
                f_min, 4000.0, channels_per_unit, scale, sample_rate=8000.0,
                signal_length=signal_length, prototype=prototype, r_bw=r_bw,
            )
        except UnsupportedConfigError:
            assume(False)
        assume(np.all(signal_length % (factor * fb.decimations) == 0))
        fb = dataclasses.replace(fb, decimations=factor * fb.decimations)
        tight = audfb.estimate_bounds(fb, method="dense-eigen").bounds
        w = np.linalg.eigvalsh(oracle.walnut_matrix(fb))
        B = w[-1]
        assert abs(tight.lower - max(w[0], 0.0)) <= 1e-12 * B
        assert abs(tight.upper - B) <= 1e-12 * B
        loose = audfb.estimate_bounds(fb, method="diag-dominance").bounds
        assert loose.lower <= tight.lower + 1e-12 * B
        assert tight.upper <= loose.upper + 1e-12 * B

    @pytest.mark.parametrize("prototype", ["rect", "hann"])
    def test_dense_eigen_matches_walnut_matrix_oracle_at_4096(self, prototype):
        """Doubled ERB banks at L=4096, beyond the fibre writer's old length
        ceiling. One eigvalsh of the 4096 x 4096 oracle matrix takes about
        40 s on one thread, so its spectrum is taken over the connected components that
        scipy finds in its nonzero pattern: the matrix is block diagonal in
        them, which makes that the same spectrum."""
        from scipy.sparse.csgraph import connected_components

        fb = audlet_rect(4096, 2) if prototype == "rect" else doubled(audfb.build_audlet(
            0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=4096
        ))
        tight = audfb.estimate_bounds(fb, method="dense-eigen").bounds
        S = oracle.walnut_matrix(fb)
        _, labels = connected_components(S != 0.0, directed=False)
        w = np.concatenate([
            np.linalg.eigvalsh(S[np.ix_(part, part)])
            for part in (np.flatnonzero(labels == c) for c in range(labels.max() + 1))
        ])
        B = w.max()
        assert tight.lower > 0.0
        assert abs(tight.lower - w.min()) <= 1e-12 * B
        assert abs(tight.upper - B) <= 1e-12 * B

    def test_dense_eigen_of_non_frame_over_budget(self):
        """Quadrupled ERB/rect at L=1024 joins all bins in one block, over
        both budgets, and is not a frame: the budget is lifted at this
        length and A is the clamped smallest eigenvalue of the oracle."""
        fb = audlet_rect(1024, 4)
        tight = audfb.estimate_bounds(fb, method="dense-eigen").bounds
        w = np.linalg.eigvalsh(oracle.walnut_matrix(fb))
        assert w[0] <= 1e-12 * w[-1]
        assert abs(tight.lower - max(w[0], 0.0)) <= 1e-12 * w[-1]
        assert abs(tight.upper - w[-1]) <= 1e-12 * w[-1]

    def test_dense_eigen_size_ceiling(self):
        """A random full bank with D = L = 2048 forms one block of all bins,
        over both budgets and beyond the length ceiling. Once its terms are
        cached it is refused before the links or the 64 MiB block are made."""
        fb = random_full_bank(2048, [2048, 2048, 1024], seed=222)
        frame_diagnostics._frame_terms(fb)
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedConfigError):
                audfb.estimate_bounds(fb, method="dense-eigen")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            audfb.estimate_bounds(small_painless_bank(), method="magic")

    def test_coverage_gap_reports_zero_lower_bound(self):
        fb = audfb.build_audlet(
            1000.0,
            2000.0,
            2.0,
            audfb.ERB,
            sample_rate=4000.0,
            signal_length=512,
            dc_filter=False,
        )
        report = audfb.estimate_bounds(fb)
        assert report.bounds.lower == 0.0
        assert report.condition_number() == np.inf


class TestFrameReport:
    def test_summary_lines(self):
        report = audfb.estimate_bounds(small_painless_bank())
        lines = report.summary().splitlines()
        assert lines[0] == "painless: yes"
        assert lines[1] == "method: painless-exact"
        assert lines[2].startswith("lower frame bound A: ")
        assert lines[3].startswith("upper frame bound B: ")
        assert lines[4].startswith("condition number B/A: ")

    def test_condition_number(self):
        report = audfb.estimate_bounds(small_painless_bank())
        assert report.condition_number() == pytest.approx(
            report.bounds.upper / report.bounds.lower, rel=1e-12
        )


class TestWalnutApply:
    """Spectral-domain operator application against the composition route."""

    def test_painless_one_sided_real_signal(self, rng, default_erb_bank):
        fb = default_erb_bank
        x = rng.standard_normal(fb.signal_length)
        composed = audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, x))
        fast = audfb.walnut_apply(fb, x)
        scale = np.max(np.abs(composed))
        np.testing.assert_allclose(fast, composed, atol=1e-12 * scale)

    @pytest.mark.parametrize("seed", [213, 214, 215])
    def test_non_painless_full_layout(self, rng, seed):
        """Alias terms are live here; both routes must still agree."""
        fb = random_full_bank(256, [2, 4, 8, 4, 2, 8], seed=seed)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        composed = audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, x))
        fast = audfb.walnut_apply(fb, x)
        scale = np.max(np.abs(composed))
        np.testing.assert_allclose(fast, composed, atol=1e-11 * scale)

    def test_non_painless_one_sided(self, rng):
        """Doubled decimations on an audlet bank: the one-sided alias fold."""
        fb = audfb.build_audlet(
            0.0, 1000.0, 3.0, audfb.ERB, sample_rate=2000.0, signal_length=256
        )
        fb = dataclasses.replace(fb, decimations=2 * fb.decimations)
        assert not audfb.painless_check(fb)
        x = rng.standard_normal(256)
        composed = audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, x))
        fast = audfb.walnut_apply(fb, x)
        scale = np.max(np.abs(composed))
        np.testing.assert_allclose(fast, composed, atol=1e-11 * scale)
        # the Walnut terms multiply (conj(H) * H / d) * X where the roll loop
        # folds H * X first, so the two agree only to rounding
        reference = rolled_walnut(fb, x)
        assert np.max(np.abs(fast - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_replaced_bank_gets_its_own_terms(self, rng):
        """The terms cached on a bank do not leak into a bank made from it
        by dataclasses.replace."""
        fb = small_painless_bank(L=256)
        x = rng.standard_normal(256)
        audfb.walnut_apply(fb, x)
        other = doubled(fb)
        assert other._covers is fb._covers
        reference = oracle.walnut_apply(other, x)
        fast = audfb.walnut_apply(other, x)
        assert np.max(np.abs(fast - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(audfb.walnut_apply(fb, x), oracle.walnut_apply(fb, x))

    @given(
        scale=st.sampled_from([audfb.ERB, audfb.BARK]),
        channels_per_unit=st.floats(0.5, 3.0),
        f_min=st.one_of(st.just(0.0), st.floats(30.0, 800.0)),
        prototype=st.sampled_from(sorted(filterbank.PROTOTYPES)),
        r_bw=st.floats(0.5, 2.0),
        signal_length=st.sampled_from([128, 256, 384, 512]),
        factor=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_audlet_banks_match_roll_oracle(
        self, scale, channels_per_unit, f_min, prototype, r_bw, signal_length, factor, seed
    ):
        """Each shifted spectrum is a slice of the doubled spectrum; the
        products and their order are those of one np.roll per term."""
        try:
            fb = audfb.build_audlet(
                f_min, 4000.0, channels_per_unit, scale, sample_rate=8000.0,
                signal_length=signal_length, prototype=prototype, r_bw=r_bw,
            )
        except UnsupportedConfigError:
            assume(False)
        assume(np.all(signal_length % (factor * fb.decimations) == 0))
        fb = scaled_decimations(fb, factor)
        x = np.random.default_rng(seed).standard_normal(signal_length)
        assert_matches_roll_oracle(fb, x)

    @given(
        L=st.sampled_from([16, 48, 64, 96]),
        decimations=st.lists(st.sampled_from([1, 2, 4, 8, 16]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        covers=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_full_banks_match_roll_oracle(self, L, decimations, seed, covers):
        fb = random_full_bank(L, decimations, seed=seed, covers=covers)
        gen = np.random.default_rng(seed + 1)
        x = gen.standard_normal(L) + 1j * gen.standard_normal(L)
        assert_matches_roll_oracle(fb, x)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_signed_zeros_match_roll_oracle(self, factor):
        """Without a DC filter H0 vanishes at bin 0, where the spectrum of
        -1 is -L: the product there is -0.0, and the sum from zero makes it
        +0.0, which decides the sign of an output sample that is exactly zero."""
        fb = audfb.build_audlet(
            1000.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512,
            dc_filter=False,
        )
        assert_matches_roll_oracle(scaled_decimations(fb, factor), -np.ones(512))

    def test_zero_in_zero_out(self, default_erb_bank):
        out = audfb.walnut_apply(default_erb_bank, np.zeros(16384))
        assert np.all(out == 0.0)

    def test_linearity(self, rng):
        fb = random_full_bank(64, [2, 4], seed=216)
        x1 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        x2 = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a, b = 0.7 - 1.1j, 2.2 + 0.3j
        lhs = audfb.walnut_apply(fb, a * x1 + b * x2)
        rhs = a * audfb.walnut_apply(fb, x1) + b * audfb.walnut_apply(fb, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_length_mismatch(self, default_erb_bank):
        with pytest.raises(ShapeError):
            audfb.walnut_apply(default_erb_bank, np.zeros(100))


class TestComponentInverse:
    """S^-1 from the connected blocks of the Walnut terms."""

    @staticmethod
    def invert(fb, y):
        Y = np.fft.fft(y)
        out = np.zeros_like(Y)
        for bins, inverse in frame_diagnostics._component_inverse(fb):
            out[bins] = np.einsum("cab,cb->ca", inverse, Y[bins])
        return np.fft.ifft(out)

    @pytest.mark.parametrize(
        "make_bank",
        [
            lambda: doubled(small_painless_bank(L=1024)),
            lambda: doubled(audfb.build_audlet(
                0.0, 4000.0, 6.0, audfb.ERB, sample_rate=8000.0, signal_length=1024
            )),
            lambda: audlet_rect(1024, 2),
            lambda: doubled(audfb.build_audlet(
                0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=4096
            )),
            lambda: random_full_bank(256, [2, 4, 8, 4, 2, 8], seed=213),
        ],
    )
    def test_inverts_walnut_apply(self, rng, make_bank):
        fb = make_bank()
        assert not audfb.painless_check(fb)
        x = rng.standard_normal(fb.signal_length)
        blocks = frame_diagnostics._component_inverse(fb)
        assert blocks
        assert max(bins.shape[1] for bins, _ in blocks) <= frame_diagnostics._COMPONENT_BUDGET
        for bins, inverse in blocks:
            assert not bins.flags.writeable and not inverse.flags.writeable
        # every bin belongs to exactly one block
        assert np.array_equal(np.sort(np.concatenate([b.ravel() for b, _ in blocks])),
                              np.arange(fb.signal_length))
        back = self.invert(fb, audfb.walnut_apply(fb, x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)

    def test_painless_bank_has_no_blocks(self):
        assert frame_diagnostics._component_inverse(small_painless_bank()) == ()

    def test_over_budget_component_has_no_blocks(self, monkeypatch):
        """Quadrupled decimations on the ERB/rect bank join all 1024 bins
        (and make no frame); the doubled bank is a frame whose largest
        component has 12 bins, refused under a budget of 11."""
        assert frame_diagnostics._component_inverse(audlet_rect(1024, 4)) == ()
        blocks = frame_diagnostics._component_inverse(audlet_rect(1024, 2))
        assert max(bins.shape[1] for bins, _ in blocks) == 12
        monkeypatch.setattr(frame_diagnostics, "_COMPONENT_BUDGET", 11)
        assert frame_diagnostics._component_inverse(audlet_rect(1024, 2)) == ()

    def test_over_budget_entries_have_no_blocks(self, monkeypatch):
        """The doubled ERB/rect bank's blocks hold 7.83 L entries together."""
        monkeypatch.setattr(frame_diagnostics, "_ENTRY_BUDGET", 8)
        blocks = frame_diagnostics._component_inverse(audlet_rect(1024, 2))
        assert sum(bins.size * bins.shape[1] for bins, _ in blocks) == 7.83203125 * 1024
        monkeypatch.setattr(frame_diagnostics, "_ENTRY_BUDGET", 7)
        assert frame_diagnostics._component_inverse(audlet_rect(1024, 2)) == ()

    def test_singular_operator_is_not_a_frame(self, monkeypatch):
        """Three channels with D = L = 64 give S rank at most 4: one
        component of 64 bins, within both budgets, with zero eigenvalues.
        Nothing is kept on the bank, so a second call raises too."""
        fb = random_full_bank(64, [64, 64, 32], seed=5)
        assert frame_diagnostics._COMPONENT_BUDGET >= 64
        monkeypatch.setattr(frame_diagnostics, "_ENTRY_BUDGET", 64)
        for _ in range(2):
            with pytest.raises(NotAFrameError):
                frame_diagnostics._component_inverse(fb)

    @pytest.mark.parametrize(
        "make_bank",
        [lambda: audlet_rect(1024, 2), lambda: random_full_bank(256, [2, 4, 8, 4, 2, 8], seed=213)],
        ids=["audlet-rect", "random-full"],
    )
    def test_kept_inverse_times_block_is_identity(self, make_bank):
        fb = make_bank()
        blocks, _ = frame_diagnostics._component_blocks(fb, budget=True)
        inverses = frame_diagnostics._component_inverse(fb)
        assert len(blocks) == len(inverses)
        for (bins, S), (kept_bins, inverse) in zip(blocks, inverses):
            assert np.array_equal(bins, kept_bins)
            eye = np.broadcast_to(np.eye(bins.shape[1]), S.shape)
            assert np.abs(S @ inverse - eye).max() <= 1e-12

    def test_replaced_bank_gets_its_own_factorization(self, rng):
        """Quadrupled decimations make no frame and no blocks; halving them
        again by dataclasses.replace gives a frame with blocks of its own."""
        fb = scaled_decimations(small_painless_bank(L=1024), 4)
        assert frame_diagnostics._component_inverse(fb) == ()
        other = dataclasses.replace(fb, decimations=fb.decimations // 2)
        assert other._covers is fb._covers and "inverse" not in other._derived
        assert frame_diagnostics._component_inverse(other)
        x = rng.standard_normal(1024)
        back = self.invert(other, audfb.walnut_apply(other, x))
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)


def delayed_dual_pair(delay=3):
    """Painless uniform full-layout bank and its dual delayed by `delay`."""
    L, M, step = 512, 8, 64
    w = np.zeros(L)
    w[:step] = np.hanning(step) + 0.1
    filters = np.array([np.roll(w, k * step) for k in range(M)], dtype=complex)
    fb = audfb.FilterBank(
        filters=filters,
        decimations=np.full(M, 4, dtype=np.int64),
        sample_rate=float(L),
        one_sided=False,
    )
    resp = audfb.frequency_response(fb)
    ramp = np.exp(-2j * np.pi * np.arange(L) * delay / L)
    dual = audfb.FilterBank(
        filters=np.conj(fb.filters) / resp * ramp,
        decimations=fb.decimations,
        sample_rate=fb.sample_rate,
        one_sided=False,
    )
    return fb, dual


def zero_bank(fb):
    return audfb.FilterBank(
        filters=np.zeros_like(fb.filters),
        decimations=fb.decimations,
        sample_rate=fb.sample_rate,
        one_sided=fb.one_sided,
    )


class TestPRResidual:
    def test_painless_dual_is_perfect(self):
        fb = small_painless_bank()
        result = audfb.pr_residual(fb, audfb.painless_dual(fb))
        assert result.delay == 0
        assert result.max_deviation <= 1e-10

    def test_zero_synthesis_bank_deviates_fully(self):
        fb, _ = delayed_dual_pair()
        assert audfb.pr_residual(fb, zero_bank(fb)).max_deviation == pytest.approx(1.0)

    def test_recovers_artificial_delay(self):
        fb, delayed = delayed_dual_pair(delay=3)
        result = audfb.pr_residual(fb, delayed)
        assert result.delay == 3
        assert result.max_deviation <= 1e-10

    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda: (small_painless_bank(), audfb.painless_dual(small_painless_bank())),
            lambda: delayed_dual_pair(delay=0),
            lambda: delayed_dual_pair(delay=3),
            lambda: delayed_dual_pair(delay=389),
            lambda: (small_painless_bank(), audfb.adjoint_bank(small_painless_bank())),
            lambda: (doubled(small_painless_bank(256)),
                     audfb.adjoint_bank(doubled(small_painless_bank(256)))),
            lambda: (painless_gabor(), audfb.painless_dual(painless_gabor())),
            lambda: (delayed_dual_pair()[0], zero_bank(delayed_dual_pair()[0])),
            lambda: (random_full_bank(64, [2, 4], seed=230),
                     random_full_bank(64, [2, 4], seed=231, scale=0.1)),
            lambda: (random_full_bank(96, [1, 3, 6], seed=232, scale=0.2),
                     random_full_bank(96, [1, 3, 6], seed=233, scale=0.2)),
        ],
        ids=["dual", "delay-0", "delay-3", "delay-389", "adjoint", "doubled-adjoint",
             "gabor-dual", "zero", "random-a", "random-b"],
    )
    def test_matches_exhaustive_oracle(self, make_pair):
        """The pruned search finds the deviation of the search over all L
        delays, and its delay wherever the best deviation is not tied."""
        fb_ana, fb_syn = make_pair()
        delay, deviation, devs = oracle.pr_residual(fb_ana, fb_syn)
        result = audfb.pr_residual(fb_ana, fb_syn)
        assert abs(result.max_deviation - deviation) <= 1e-12 * max(1.0, deviation)
        others = np.delete(devs, delay)
        if np.all(others == devs[delay]) or others.min() - devs[delay] > 1e-9:
            assert result.delay == delay

    @given(
        L=st.sampled_from([16, 48, 64, 96]),
        decimations=st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=4),
        scale=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
        covers=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_pairs_match_exhaustive_oracle(self, L, decimations, scale, seed, covers):
        """With ``covers`` the two sides draw their partial covers apart, so
        G_k and H_k meet in runs of different lengths."""
        fb_ana = random_full_bank(L, decimations, seed=seed, covers=covers)
        fb_syn = random_full_bank(L, decimations, seed=seed + 1, scale=scale, covers=covers)
        delay, deviation, devs = oracle.pr_residual(fb_ana, fb_syn)
        result = audfb.pr_residual(fb_ana, fb_syn)
        assert abs(result.max_deviation - deviation) <= 1e-12 * max(1.0, deviation)
        if np.delete(devs, delay).min() - devs[delay] > 1e-9:
            assert result.delay == delay

    def test_mismatched_banks_rejected(self, default_erb_bank, small_erb_bank):
        with pytest.raises(ShapeError):
            audfb.pr_residual(default_erb_bank, small_erb_bank)

    def test_mismatched_decimations_rejected(self):
        fb, _ = delayed_dual_pair()
        other = audfb.FilterBank(
            filters=fb.filters,
            decimations=np.full(8, 2, dtype=np.int64),
            sample_rate=fb.sample_rate,
            one_sided=False,
        )
        with pytest.raises(ShapeError):
            audfb.pr_residual(fb, other)


class TestEquivalentUniform:
    def test_uniform_bank_is_unchanged(self):
        fb = random_full_bank(32, [4, 4, 4], seed=217)
        uni = audfb.equivalent_uniform(fb)
        np.testing.assert_allclose(uni.filters, fb.filters, atol=1e-14)
        assert np.all(uni.decimations == 4)

    def test_channel_count(self):
        fb = random_full_bank(16, [2, 4], seed=218)
        uni = audfb.equivalent_uniform(fb)
        # D = 4: the d=2 channel splits into 2, the d=4 channel stays 1
        assert uni.n_channels == 3
        assert np.all(uni.decimations == 4)
        assert not uni.one_sided

    def test_same_frame_operator_dense(self):
        fb = random_full_bank(16, [2, 4], seed=219)
        uni = audfb.equivalent_uniform(fb)
        np.testing.assert_allclose(
            dense_operator(uni), dense_operator(fb), atol=1e-10
        )

    def test_one_sided_input_materializes_mirrors(self, rng):
        fb = small_painless_bank(L=256)
        uni = audfb.equivalent_uniform(fb)
        assert not uni.one_sided
        exp_filters, exp_decs = filterbank.expanded_filters(fb)
        D = int(np.lcm.reduce(exp_decs))
        assert np.all(uni.decimations == D)
        assert uni.n_channels == int(np.sum(D // exp_decs))
        x = rng.standard_normal(256)
        np.testing.assert_allclose(
            audfb.walnut_apply(uni, x), audfb.walnut_apply(fb, x), atol=1e-10
        )

    def test_delay_ramps_on_split_channels(self):
        """Split copy l of a channel carries the ramp exp(-2i pi j l d / L)."""
        L = 16
        fb = random_full_bank(L, [2, 4], seed=220)
        uni = audfb.equivalent_uniform(fb)
        j = np.arange(L)
        np.testing.assert_allclose(uni.filters[0], fb.filters[0], atol=1e-14)
        np.testing.assert_allclose(
            uni.filters[1],
            fb.filters[0] * np.exp(-2j * np.pi * j * 2 / L),
            atol=1e-12,
        )
        np.testing.assert_allclose(uni.filters[2], fb.filters[1], atol=1e-14)
