"""Frame diagnostics: response, alias terms, bounds, Walnut route, residuals.

The strongest oracle used here assembles the frame operator densely through
the analyze/synthesize composition applied to basis vectors, then checks the
banded structure of its Fourier conjugation entry by entry against
frequency_response and alias_components. Nothing in that construction shares
code with the functions under test.
"""

import dataclasses

import numpy as np
import pytest

import audfb
from audfb import filterbank, frame_diagnostics
from audfb.errors import DomainError, NotAFrameError, ShapeError, UnsupportedConfigError
from conftest import random_full_bank


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


def small_painless_bank(L=512):
    return audfb.build_audlet(
        0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=L
    )


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

    def test_dense_eigen_size_ceiling(self):
        fb = audfb.build_audlet(
            0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=2048
        )
        with pytest.raises(UnsupportedConfigError):
            audfb.estimate_bounds(fb, method="dense-eigen")

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
        # at most two folded terms are nonzero per bin, so the order is moot
        assert np.array_equal(fast, rolled_walnut(fb, x))

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


class TestPRResidual:
    def test_painless_dual_is_perfect(self):
        fb = small_painless_bank()
        result = audfb.pr_residual(fb, audfb.painless_dual(fb))
        assert result.delay == 0
        assert result.max_deviation <= 1e-10

    def test_zero_synthesis_bank_deviates_fully(self):
        fb, _ = delayed_dual_pair()
        zero = audfb.FilterBank(
            filters=np.zeros_like(fb.filters),
            decimations=fb.decimations,
            sample_rate=fb.sample_rate,
            one_sided=False,
        )
        assert audfb.pr_residual(fb, zero).max_deviation == pytest.approx(1.0)

    def test_recovers_artificial_delay(self):
        fb, delayed = delayed_dual_pair(delay=3)
        result = audfb.pr_residual(fb, delayed)
        assert result.delay == 3
        assert result.max_deviation <= 1e-10

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
