"""Dual-bank synthesis and the two iterative solvers."""

import numpy as np
import pytest

import audfb
import dense_oracle as oracle
from audfb import frame_diagnostics, synthesis
from audfb.errors import (
    ConvergenceError,
    DomainError,
    NotAFrameError,
    ShapeError,
    UnsupportedConfigError,
)
from conftest import painless_gabor, random_full_bank, scaled_decimations, speech_like


def gap_bank():
    """Misses [0, 1000) entirely, so the lower frame bound is zero."""
    return audfb.build_audlet(
        1000.0,
        2000.0,
        2.0,
        audfb.ERB,
        sample_rate=4000.0,
        signal_length=512,
        dc_filter=False,
    )


def perturbed_bank():
    """Painless bank with one filter given full (tiny) support.

    No longer painless, but strongly diagonally dominant: the alias terms
    are orders of magnitude below the response floor.
    """
    fb = audfb.build_audlet(
        0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
    )
    filters = fb.filters.copy()
    filters[4] = filters[4] + 1e-4 * np.max(np.abs(filters[4]))
    return audfb.FilterBank(
        filters=filters,
        decimations=fb.decimations,
        sample_rate=fb.sample_rate,
        one_sided=True,
        center_frequencies=fb.center_frequencies,
        dilations=fb.dilations,
    )


def test_painless_dual_of_parseval_is_conjugate():
    fb = audfb.parseval_normalize(
        audfb.build_audlet(
            0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
        )
    )
    dual = audfb.painless_dual(fb)
    np.testing.assert_allclose(dual.filters, np.conj(fb.filters), atol=1e-12)


def test_painless_dual_divides_by_response():
    fb = audfb.build_audlet(
        0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
    )
    dual = audfb.painless_dual(fb)
    resp = audfb.frequency_response(fb)
    np.testing.assert_allclose(dual.filters, np.conj(fb.filters) / resp, atol=1e-12)


def test_painless_dual_roundtrip_default_bank(rng, default_erb_bank):
    fb = default_erb_bank
    dual = audfb.painless_dual(fb)
    for x in (rng.standard_normal(16384), speech_like(16384, 16000.0)):
        rebuilt = audfb.synthesize(dual, audfb.analyze(fb, x))
        err = np.linalg.norm(rebuilt - x) / np.linalg.norm(x)
        assert err <= 1e-10


def test_painless_dual_roundtrip_other_order(rng, small_erb_bank):
    """Analysis with the dual, synthesis with the original bank."""
    fb = small_erb_bank
    dual = audfb.painless_dual(fb)
    x = rng.standard_normal(4096)
    rebuilt = audfb.synthesize(fb, audfb.analyze(dual, x))
    assert np.linalg.norm(rebuilt - x) / np.linalg.norm(x) <= 1e-10


def test_painless_dual_refuses_non_painless():
    with pytest.raises(UnsupportedConfigError):
        audfb.painless_dual(random_full_bank(32, [2, 4], seed=301))


def test_painless_dual_refuses_coverage_gap():
    with pytest.raises(NotAFrameError):
        audfb.painless_dual(gap_bank())


class TestCG:
    """Conjugate gradient on the frame operator."""

    def test_zero_coefficients_return_immediately(self, small_erb_bank):
        c = [np.zeros(n) for n in small_erb_bank.subband_lengths()]
        x, trace = synthesis.cg_synthesize(small_erb_bank, c, return_trace=True)
        assert np.all(x == 0.0)
        assert trace.residuals == []

    def test_preconditioned_painless_converges_in_one_step(self, rng, small_erb_bank):
        fb = small_erb_bank
        x_true = rng.standard_normal(4096)
        c = audfb.analyze(fb, x_true)
        x, trace = synthesis.cg_synthesize(fb, c, return_trace=True)
        assert len(trace.residuals) <= 2
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-10

    def test_matches_painless_dual(self, rng, small_erb_bank):
        fb = small_erb_bank
        x_true = rng.standard_normal(4096)
        c = audfb.analyze(fb, x_true)
        via_dual = audfb.synthesize(audfb.painless_dual(fb), c)
        via_cg = synthesis.cg_synthesize(fb, c)
        assert np.linalg.norm(via_cg - via_dual) / np.linalg.norm(via_dual) <= 1e-8

    def test_unpreconditioned_converges(self, rng, small_erb_bank):
        fb = small_erb_bank
        x_true = rng.standard_normal(4096)
        c = audfb.analyze(fb, x_true)
        config = synthesis.CGConfig(preconditioned=False)
        x, trace = synthesis.cg_synthesize(fb, c, config, return_trace=True)
        assert len(trace.residuals) <= 4096
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-8

    def test_preconditioning_reduces_iterations(self, rng):
        """On a diagonally dominated bank the response preconditioner wins."""
        fb = perturbed_bank()
        assert not audfb.painless_check(fb)
        resp = audfb.frequency_response(fb)
        alias = np.sum(np.abs(audfb.alias_components(fb)), axis=0)
        assert np.max(alias) / np.min(resp) <= 0.1
        x_true = rng.standard_normal(512)
        c = audfb.analyze(fb, x_true)
        _, with_pre = synthesis.cg_synthesize(
            fb, c, synthesis.CGConfig(preconditioned=True), return_trace=True
        )
        _, without = synthesis.cg_synthesize(
            fb, c, synthesis.CGConfig(preconditioned=False), return_trace=True
        )
        assert len(with_pre.residuals) < len(without.residuals)

    def test_error_decreases_in_operator_norm(self, rng):
        """CG error is monotone in the S-induced norm, measured per iterate."""
        fb = audfb.build_audlet(
            0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
        )
        x_true = rng.standard_normal(512)
        c = audfb.analyze(fb, x_true)
        config = synthesis.CGConfig(preconditioned=False)
        _, trace = synthesis.cg_synthesize(fb, c, config, return_trace=True)
        errors = []
        for xi in trace.iterates:
            e = xi - x_true
            errors.append(float(np.vdot(e, audfb.walnut_apply(fb, e)).real))
        slack = 1e-12 * max(errors[0], 1.0)
        assert all(b <= a + slack for a, b in zip(errors, errors[1:]))

    def test_iteration_cap_raises_with_residual_history(self, rng, small_erb_bank):
        fb = small_erb_bank
        c = audfb.analyze(fb, rng.standard_normal(4096))
        config = synthesis.CGConfig(preconditioned=False, max_iterations=1)
        with pytest.raises(ConvergenceError) as info:
            synthesis.cg_synthesize(fb, c, config)
        assert len(info.value.residuals) == 1
        assert info.value.residuals[0] > 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            synthesis.CGConfig(tolerance=0.0)
        for max_iterations in (0, 1.5, np.nan, np.inf):
            with pytest.raises(DomainError):
                synthesis.CGConfig(max_iterations=max_iterations)

    @pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        with pytest.raises(DomainError):
            synthesis.CGConfig(tolerance=tolerance)

    def test_coefficient_shape_checked(self, small_erb_bank):
        with pytest.raises(ShapeError):
            synthesis.cg_synthesize(small_erb_bank, [np.zeros(4)])

    @pytest.mark.parametrize("preconditioned", [True, False])
    def test_preconditioner_needs_positive_response(self, rng, preconditioned):
        """H0 vanishes on [0, 1000): no solver reconstructs there, so both
        variants refuse the bank instead of returning a partial answer."""
        fb = gap_bank()
        c = audfb.analyze(fb, rng.standard_normal(512))
        config = synthesis.CGConfig(preconditioned=preconditioned)
        with pytest.raises(NotAFrameError, match="not a frame"):
            synthesis.cg_synthesize(fb, c, config)


def audlet(L, V=3.0, prototype="hann"):
    return audfb.build_audlet(
        0.0, 4000.0, V, audfb.ERB, sample_rate=8000.0, signal_length=L, prototype=prototype
    )


def outcome(solve):
    """(x or None, residual history) of a solve that may raise ConvergenceError."""
    try:
        x, residuals = solve()
    except ConvergenceError as exc:
        return None, list(exc.residuals)
    return x, list(residuals)


def assert_near_time_oracle(solved, reference):
    """A solve on spectra against the same iteration on signals: both converge
    or neither, within one iteration of each other and 1e-9 relative."""
    (x, residuals), (x_ref, residuals_ref) = solved, reference
    assert abs(len(residuals) - len(residuals_ref)) <= 1
    assert (x is None) == (x_ref is None)
    assert x is None or np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


class TestComponentPreconditioner:
    """CG preconditioned by S^-1 from the operator's connected blocks, and
    its fallback to 1/H0, checked against the oracle's 1/H0 loop."""

    @pytest.mark.parametrize(
        "L, V, prototype",
        [(1024, 3.0, "hann"), (1024, 6.0, "hann"), (1024, 3.0, "rect"), (4096, 3.0, "hann")],
    )
    def test_doubled_audlet_banks_converge_in_one_iteration(self, rng, L, V, prototype):
        fb = scaled_decimations(audlet(L, V, prototype), 2)
        assert not audfb.painless_check(fb)
        x_true = rng.standard_normal(fb.signal_length)
        c = audfb.analyze(fb, x_true)
        x, trace = synthesis.cg_synthesize(fb, c, return_trace=True)
        assert len(trace.residuals) == 1
        assert np.linalg.norm(x - x_true) <= 1e-12 * np.linalg.norm(x_true)

    @pytest.mark.parametrize(
        "make_bank",
        [lambda: audlet(1024), lambda: audlet(512, 2.0, "gauss"), lambda: painless_gabor()],
        ids=["erb_hann", "erb_gauss", "gabor"],
    )
    def test_painless_matches_response_oracle(self, rng, make_bank):
        fb = make_bank()
        c = audfb.analyze(fb, rng.standard_normal(fb.signal_length))
        x, trace = synthesis.cg_synthesize(fb, c, return_trace=True)
        x_ref, residuals = oracle.response_pcg(fb, c)
        assert np.array_equal(x, x_ref)
        assert trace.residuals == residuals
        assert_near_time_oracle((x, trace.residuals), oracle.time_response_pcg(fb, c))

    @staticmethod
    def assert_replays_response_oracle(fb, rng):
        """Without usable blocks CG runs exactly the 1/H0 iteration, down to
        the residual history (and the error, when it does not converge)."""
        assert frame_diagnostics._component_inverse(fb) == ()
        c = audfb.analyze(fb, rng.standard_normal(fb.signal_length))

        def solve():
            x, trace = synthesis.cg_synthesize(fb, c, return_trace=True)
            return x, trace.residuals

        x, residuals = outcome(solve)
        x_ref, residuals_ref = outcome(lambda: oracle.response_pcg(fb, c))
        assert residuals == residuals_ref
        assert (x is None) == (x_ref is None)
        assert x is None or np.array_equal(x, x_ref)
        assert_near_time_oracle((x, residuals), outcome(lambda: oracle.time_response_pcg(fb, c)))

    def test_non_frame_over_budget_falls_back(self, rng):
        """Quadrupled ERB/rect at L=1024: one component of all 1024 bins."""
        fb = scaled_decimations(audlet(1024, prototype="rect"), 4)
        self.assert_replays_response_oracle(fb, rng)

    def test_singular_within_budget_is_not_a_frame(self, rng, monkeypatch):
        """D = L = 64 with three channels: S has rank at most 4, and its one
        block of 64 x 64 entries is let through both budgets. Its Cholesky
        test fails, on every call with the same bank."""
        monkeypatch.setattr(frame_diagnostics, "_ENTRY_BUDGET", 64)
        fb = random_full_bank(64, [64, 64, 32], seed=5)
        c = audfb.analyze(fb, rng.standard_normal(64))
        for _ in range(2):
            with pytest.raises(NotAFrameError):
                synthesis.cg_synthesize(fb, c)

    def test_frame_over_budget_falls_back(self, rng, monkeypatch):
        """The doubled L=4096 ERB bank is a frame with 13-bin components."""
        monkeypatch.setattr(frame_diagnostics, "_COMPONENT_BUDGET", 12)
        self.assert_replays_response_oracle(scaled_decimations(audlet(4096), 2), rng)

    def test_frame_over_entry_budget_falls_back(self, rng, monkeypatch):
        """Its blocks hold 7.74 L entries together."""
        monkeypatch.setattr(frame_diagnostics, "_ENTRY_BUDGET", 7)
        self.assert_replays_response_oracle(scaled_decimations(audlet(4096), 2), rng)


class TestNeumann:
    """Relaxed fixed-point iteration with explicit bounds."""

    def test_tight_frame_converges_immediately(self, rng):
        fb = audfb.parseval_normalize(
            audfb.build_audlet(
                0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
            )
        )
        x_true = rng.standard_normal(512)
        c = audfb.analyze(fb, x_true)
        x, trace = synthesis.neumann_synthesize(
            fb, c, bounds=(1.0, 1.0), return_trace=True
        )
        assert len(trace.residuals) <= 2
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-10

    def test_matches_dual_with_estimated_bounds(self, rng, small_erb_bank):
        fb = small_erb_bank
        x_true = rng.standard_normal(4096)
        c = audfb.analyze(fb, x_true)
        bounds = audfb.estimate_bounds(fb).bounds
        x = synthesis.neumann_synthesize(fb, c, bounds=bounds)
        via_dual = audfb.synthesize(audfb.painless_dual(fb), c)
        assert np.linalg.norm(x - via_dual) / np.linalg.norm(via_dual) <= 1e-8

    def test_error_contraction_ratio(self, rng):
        """||x_i+1 - x|| / ||x_i - x|| <= (B - A)/(B + A) + 1e-6."""
        fb = audfb.build_audlet(
            0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
        )
        bounds = audfb.estimate_bounds(fb).bounds
        cap = (bounds.upper - bounds.lower) / (bounds.upper + bounds.lower) + 1e-6
        x_true = rng.standard_normal(512)
        c = audfb.analyze(fb, x_true)
        _, trace = synthesis.neumann_synthesize(
            fb, c, bounds=bounds, tolerance=1e-9, return_trace=True
        )
        errors = [np.linalg.norm(xi - x_true) for xi in trace.iterates]
        for prev, cur in zip(errors, errors[1:]):
            if prev > 1e-13 * np.linalg.norm(x_true):
                assert cur <= cap * prev

    @pytest.mark.parametrize("painless", [True, False])
    def test_matches_roll_oracle(self, rng, painless):
        fb = audlet(1024) if painless else scaled_decimations(audlet(1024), 2)
        c = audfb.analyze(fb, rng.standard_normal(1024))
        bounds = audfb.estimate_bounds(fb).bounds
        x, trace = synthesis.neumann_synthesize(fb, c, bounds=bounds, return_trace=True)
        x_ref, residuals = oracle.frame_algorithm(fb, c, bounds)
        assert np.array_equal(x, x_ref)
        assert trace.residuals == residuals
        assert_near_time_oracle(
            (x, trace.residuals), oracle.time_frame_algorithm(fb, c, bounds)
        )

    def test_zero_lower_bound_rejected(self, rng):
        fb = gap_bank()
        c = audfb.analyze(fb, rng.standard_normal(512))
        with pytest.raises(NotAFrameError):
            synthesis.neumann_synthesize(fb, c, bounds=(0.0, 2.0))

    def test_iteration_cap_raises(self, rng, small_erb_bank):
        fb = small_erb_bank
        c = audfb.analyze(fb, rng.standard_normal(4096))
        bounds = audfb.estimate_bounds(fb).bounds
        with pytest.raises(ConvergenceError):
            synthesis.neumann_synthesize(fb, c, bounds=bounds, max_iterations=1)

    @pytest.mark.parametrize("tolerance", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, rng, tolerance):
        fb = audfb.build_audlet(0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512)
        c = audfb.analyze(fb, rng.standard_normal(512))
        with pytest.raises(DomainError):
            synthesis.neumann_synthesize(fb, c, bounds=(0.5, 2.0), tolerance=tolerance)

    @pytest.mark.parametrize("bounds", [(1e-3, np.inf), (2.0, 1.0), (1e-3, np.nan)])
    def test_bounds_must_be_ordered_and_finite(self, rng, bounds):
        """An infinite B made the relaxation 0 and returned the zero signal as
        converged, B < A ran to ConvergenceError, and a NaN B raised from
        walnut_apply about the samples."""
        fb = audfb.build_audlet(0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512)
        c = audfb.analyze(fb, rng.standard_normal(512))
        with pytest.raises(DomainError, match="need A <= B < inf"):
            synthesis.neumann_synthesize(fb, c, bounds=bounds)

    @pytest.mark.parametrize("max_iterations", [0, -3, 1.5, np.nan, np.inf])
    def test_iteration_budget_must_be_positive(self, rng, max_iterations):
        """An empty budget raised IndexError from the convergence message, and
        a budget that is not an integer TypeError after the right-hand side."""
        fb = audfb.build_audlet(0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512)
        c = audfb.analyze(fb, rng.standard_normal(512))
        with pytest.raises(DomainError):
            synthesis.neumann_synthesize(fb, c, bounds=(0.5, 2.0), max_iterations=max_iterations)


def solve(solver, fb, c, tolerance=1e-10, max_iterations=None, return_trace=False):
    """Unpreconditioned CG, or the frame algorithm with the estimated bounds."""
    if solver == "cg":
        config = synthesis.CGConfig(tolerance, max_iterations, preconditioned=False)
        return synthesis.cg_synthesize(fb, c, config, return_trace=return_trace)
    bounds = audfb.estimate_bounds(fb).bounds
    return synthesis.neumann_synthesize(
        fb, c, bounds, tolerance, max_iterations or 10000, return_trace=return_trace
    )


@pytest.mark.parametrize("solver", ["cg", "neumann"])
class TestSpectralIteration:
    """Both solvers iterate on spectra: transforms at the ends of a solve
    only, inputs checked before the first iteration, a bounded trace."""

    @pytest.mark.parametrize("painless", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_raises_before_iterating(
        self, rng, monkeypatch, solver, painless, bad
    ):
        """A loop on spectra meets no sample check: unchecked, one NaN
        coefficient ran the frame algorithm to its 10 000 iteration cap and
        CG into "operator not positive definite"."""
        fb = audlet(1024) if painless else scaled_decimations(audlet(1024), 2)
        c = audfb.analyze(fb, rng.standard_normal(1024))
        c[3][0] = bad
        applied = []
        monkeypatch.setattr(synthesis, "_walnut_spectrum", lambda *args: applied.append(args))
        with pytest.raises(DomainError, match="coefficients must be finite"):
            solve(solver, fb, c)
        assert applied == []

    def test_transforms_do_not_grow_with_iterations(self, rng, monkeypatch, solver):
        """Twenty iterations take no more FFTs than one."""
        fb = scaled_decimations(audlet(1024), 2)
        c = audfb.analyze(fb, rng.standard_normal(1024))
        counts = []
        for budget in (1, 20):
            calls = []
            for name in ("fft", "ifft"):
                transform = getattr(np.fft, name)
                counted = lambda *a, t=transform, **k: calls.append(t) or t(*a, **k)  # noqa: E731
                monkeypatch.setattr(np.fft, name, counted)
            with pytest.raises(ConvergenceError) as info:
                solve(solver, fb, c, tolerance=1e-300, max_iterations=budget)
            monkeypatch.undo()
            assert len(info.value.residuals) == budget
            counts.append(len(calls))
        assert counts[1] <= counts[0]

    def test_trace_ceiling_raises_before_passing_it(self, rng, monkeypatch, small_erb_bank, solver):
        """With room for four and a half iterates the trace keeps four, and the
        solve raises before it transforms a fifth. Untraced, CG converges
        here in 18 iterations and the frame algorithm in 30."""
        fb = small_erb_bank
        c = audfb.analyze(fb, rng.standard_normal(4096))
        solve(solver, fb, c)  # also caches the bank's terms
        monkeypatch.setattr(synthesis, "_TRACE_MAX_BYTES", 9 * 4096 * 16 // 2)
        traces, transformed = [], []

        class Kept(synthesis.IterationTrace):
            def __init__(self):
                super().__init__()
                traces.append(self)

        monkeypatch.setattr(synthesis, "IterationTrace", Kept)
        monkeypatch.setattr(np.fft, "ifft", lambda X, t=np.fft.ifft: transformed.append(X) or t(X))
        with pytest.raises(UnsupportedConfigError, match="iterate trace"):
            solve(solver, fb, c, return_trace=True)
        assert len(traces) == 1 and len(traces[0].iterates) == len(transformed) == 4
