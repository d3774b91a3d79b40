"""Frame multipliers and the irrelevance (simultaneous masking) filter."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import audfb
from audfb import cli, container, masking
from audfb.errors import DomainError, ShapeError, UnsupportedConfigError
from conftest import tone_plus_noise


def pair_loop_threshold(coefficients, fb, model):
    """Oracle for ``irrelevance_threshold``: one shadow per (target, masker)
    pair, each masker resampled anew for every target channel."""
    c = [np.asarray(ck, dtype=np.complex128) for ck in coefficients]
    units = np.asarray(
        audfb.scale_value(model.scale, np.asarray(fb.center_frequencies, dtype=np.float64))
    )
    levels = masking._levels_db(c)
    decimations = [int(d) for d in fb.decimations]

    thresholds = []
    for k in range(fb.n_channels):
        d_k = decimations[k]
        n = np.arange(c[k].shape[0], dtype=np.int64)
        best = np.full(c[k].shape[0], -np.inf)
        for kappa in range(fb.n_channels):
            d_kap = decimations[kappa]
            # nearest masker time index: round(n * d_k / d_kap), exactly in
            # integer arithmetic, wrapped into the masker's subband
            idx = ((2 * n * d_k + d_kap) // (2 * d_kap)) % c[kappa].shape[0]
            distance = units[k] - units[kappa]
            slope = (
                model.spread_upper_db_per_unit
                if distance > 0.0
                else model.spread_lower_db_per_unit
            )
            np.maximum(best, levels[kappa][idx] - slope * abs(distance), out=best)
        thresholds.append(best + model.offset_db)
    return thresholds


def sweep_tolerance(levels, fb, model):
    """Stated bound on |irrelevance_threshold - pair_loop_threshold| in dB:
    4*K*eps*(max finite |level| + max slope * (u_max - u_min))."""
    units = audfb.scale_value(model.scale, np.asarray(fb.center_frequencies, dtype=np.float64))
    finite = np.abs(np.concatenate(levels))
    finite = finite[np.isfinite(finite)]
    slope = max(model.spread_lower_db_per_unit, model.spread_upper_db_per_unit)
    return (
        4.0 * fb.n_channels * np.finfo(float).eps
        * (finite.max(initial=0.0) + slope * float(np.ptp(units)))
    )


def assert_matches_oracle(c, fb, model):
    """Thresholds within ``sweep_tolerance`` of the oracle with identical
    -inf positions and no NaN; the mask equals the oracle's wherever the
    level is farther than the tolerance from the oracle's threshold.
    Slopes must keep the tolerance finite; huge slopes are checked by
    exact mask equality instead."""
    expected = pair_loop_threshold(c, fb, model)
    actual = masking.irrelevance_threshold(c, fb, model)
    levels = masking._levels_db(c)
    tol = sweep_tolerance(levels, fb, model)
    assert np.isfinite(tol)
    assert len(actual) == len(expected)
    for a, e, level in zip(actual, expected, levels):
        assert not np.any(np.isnan(a))
        assert np.array_equal(a == -np.inf, e == -np.inf)
        finite = np.isfinite(e)
        assert np.all(np.abs(a[finite] - e[finite]) <= tol)
        with np.errstate(invalid="ignore"):  # -inf - -inf counts as clear
            clear = ~(np.abs(level - e) <= tol)
        assert np.array_equal((level >= a)[clear], (level >= e)[clear])
    return actual


def oracle_mask(c, fb, model):
    with np.errstate(over="ignore"):
        thresholds = pair_loop_threshold(c, fb, model)
    return [
        (level >= thr).astype(np.float64)
        for level, thr in zip(masking._levels_db(c), thresholds)
    ]


@pytest.fixture(scope="module")
def mask_bank():
    """The frozen-anchor bank: ERB, V=6, [0, 8000] at 16 kHz, L=8192."""
    return audfb.build_audlet(
        0.0, 8000.0, 6.0, audfb.ERB, sample_rate=16000.0, signal_length=8192
    )


def ones_mask(fb):
    return masking.MaskSymbol(
        [np.ones(n) for n in fb.subband_lengths()], binary=True
    )


class TestMaskSymbol:
    def test_binary_flag_validated(self):
        with pytest.raises(DomainError):
            masking.MaskSymbol([np.array([0.0, 0.5, 1.0])], binary=True)

    def test_non_binary_weights_allowed_without_flag(self):
        sym = masking.MaskSymbol([np.array([0.25, 2.0])])
        assert not sym.binary

    def test_weights_must_be_finite(self):
        with pytest.raises(DomainError):
            masking.MaskSymbol([np.array([1.0, np.inf])])

    def test_weights_must_be_vectors(self):
        with pytest.raises(ShapeError):
            masking.MaskSymbol([np.ones((2, 2))])


class TestApplyMultiplier:
    def test_identity_mask_with_dual_reconstructs(self, rng, mask_bank):
        fb = mask_bank
        dual = audfb.painless_dual(fb)
        x = rng.standard_normal(8192)
        y = masking.apply_multiplier(ones_mask(fb), dual, fb, x)
        assert np.linalg.norm(y.real - x) / np.linalg.norm(x) <= 1e-10

    def test_zero_mask(self, rng, mask_bank):
        fb = mask_bank
        zero = masking.MaskSymbol([np.zeros(n) for n in fb.subband_lengths()])
        y = masking.apply_multiplier(zero, fb, fb, rng.standard_normal(8192))
        np.testing.assert_allclose(y, 0.0, atol=1e-14)

    def test_linear_in_signal(self, rng, mask_bank):
        fb = mask_bank
        dual = audfb.painless_dual(fb)
        m = masking.MaskSymbol(
            [rng.uniform(0.0, 1.0, n) for n in fb.subband_lengths()]
        )
        x1 = rng.standard_normal(8192)
        x2 = rng.standard_normal(8192)
        lhs = masking.apply_multiplier(m, dual, fb, 2.0 * x1 - 0.5 * x2)
        rhs = 2.0 * masking.apply_multiplier(m, dual, fb, x1) - 0.5 * masking.apply_multiplier(
            m, dual, fb, x2
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_operator_norm_bound(self, rng):
        """||M x|| <= max|m| sqrt(B_ana B_syn) ||x|| over 100 random draws."""
        fb = audfb.build_audlet(
            0.0, 2000.0, 2.0, audfb.ERB, sample_rate=4000.0, signal_length=512
        )
        dual = audfb.painless_dual(fb)
        b_ana = audfb.estimate_bounds(fb).bounds.upper
        b_syn = audfb.estimate_bounds(dual).bounds.upper
        m = masking.MaskSymbol([rng.uniform(0.0, 2.0, n) for n in fb.subband_lengths()])
        peak = max(float(w.max()) for w in m.weights)
        cap = peak * np.sqrt(b_ana * b_syn)
        for _ in range(100):
            x = rng.standard_normal(512)
            y = masking.apply_multiplier(m, dual, fb, x)
            assert np.linalg.norm(y) <= cap * np.linalg.norm(x) * (1.0 + 1e-10)

    def test_channel_count_mismatch(self, rng, mask_bank):
        short = masking.MaskSymbol([np.ones(4)])
        with pytest.raises(ShapeError):
            masking.apply_multiplier(short, mask_bank, mask_bank, np.zeros(8192))

    def test_channel_length_mismatch(self, mask_bank):
        fb = mask_bank
        weights = [np.ones(n) for n in fb.subband_lengths()]
        weights[3] = np.ones(weights[3].shape[0] + 1)
        with pytest.raises(ShapeError):
            masking.apply_multiplier(
                masking.MaskSymbol(weights), fb, fb, np.zeros(8192)
            )

    def test_two_tone_separation(self, mask_bank):
        """Keeping only channels above 1 kHz isolates the 4 kHz partner.

        Leakage of the rejected 250 Hz tone into the output stays 40 dB below
        the kept tone, measured against the masked 4 kHz tone alone.
        """
        fb = mask_bank
        dual = audfb.painless_dual(fb)
        t = np.arange(8192) / 16000.0
        low = np.sin(2.0 * np.pi * 250.0 * t)
        high = np.sin(2.0 * np.pi * 4000.0 * t)
        keep = fb.center_frequencies > 1000.0
        m = masking.MaskSymbol(
            [np.full(n, 1.0 if keep[k] else 0.0) for k, n in enumerate(fb.subband_lengths())],
            binary=True,
        )
        y_pair = masking.apply_multiplier(m, dual, fb, low + high)
        y_high = masking.apply_multiplier(m, dual, fb, high)
        leakage = np.linalg.norm(y_pair - y_high) / np.linalg.norm(high)
        assert leakage <= 1e-2


class TestIrrelevanceThreshold:
    def test_single_masker_threshold_at_itself(self, mask_bank):
        """A lone peak coefficient sits offset_db above its own threshold."""
        fb = mask_bank
        c = [np.zeros(n, dtype=complex) for n in fb.subband_lengths()]
        c[40][10] = 1.0
        thr = masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())
        assert thr[40][10] == pytest.approx(-2.59, abs=1e-12)

    def test_two_slope_decay(self, mask_bank):
        """Shadow decays at 12 dB/unit upward, 27 dB/unit downward."""
        fb = mask_bank
        model = masking.IrrelevanceModel()
        units = audfb.scale_value(model.scale, fb.center_frequencies)
        c = [np.zeros(n, dtype=complex) for n in fb.subband_lengths()]
        kappa = 80
        c[kappa][0] = 1.0
        thr = masking.irrelevance_threshold(c, fb, model)
        above, below = kappa + 12, kappa - 12
        assert thr[above][0] == pytest.approx(
            -12.0 * (units[above] - units[kappa]) - 2.59, abs=1e-9
        )
        assert thr[below][0] == pytest.approx(
            -27.0 * (units[kappa] - units[below]) - 2.59, abs=1e-9
        )

    def test_maximum_over_maskers(self, mask_bank):
        """Two maskers: the louder shadow wins pointwise."""
        fb = mask_bank
        model = masking.IrrelevanceModel()
        units = audfb.scale_value(model.scale, fb.center_frequencies)
        c = [np.zeros(n, dtype=complex) for n in fb.subband_lengths()]
        c[60][0] = 1.0
        c[100][0] = 1.0
        thr = masking.irrelevance_threshold(c, fb, model)
        k = 80
        from_low = -12.0 * (units[k] - units[60])
        from_high = -27.0 * (units[100] - units[k])
        assert thr[k][0] == pytest.approx(max(from_low, from_high) - 2.59, abs=1e-9)

    def test_cross_rate_index_mapping(self):
        """Masker time indices are matched by rounding n d_k / d_kappa."""
        filters = np.zeros((2, 16), dtype=complex)
        filters[0, 0] = 1.0
        filters[1, 4] = 1.0
        fb = audfb.FilterBank(
            filters=filters,
            decimations=np.array([2, 4]),
            sample_rate=16.0,
            one_sided=False,
            center_frequencies=np.array([0.0, 4.0]),
        )
        c = [np.zeros(8, dtype=complex), np.zeros(4, dtype=complex)]
        c[1][1] = 1.0  # masker in the slow channel at index 1
        thr = masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())
        # fast-channel indices 1 and 2 round to masker index 1; 0 and 3 do not
        assert np.isfinite(thr[0][1]) and np.isfinite(thr[0][2])
        assert thr[0][0] == -np.inf
        assert thr[0][3] == -np.inf

    def test_silence_gives_minus_inf(self, mask_bank):
        fb = mask_bank
        c = [np.zeros(n, dtype=complex) for n in fb.subband_lengths()]
        thr = masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())
        assert all(np.all(t == -np.inf) for t in thr)

    def test_bank_without_centers_rejected(self, rng):
        filters = rng.standard_normal((2, 16)) + 0j
        fb = audfb.FilterBank(
            filters=filters,
            decimations=np.array([2, 2]),
            sample_rate=16.0,
            one_sided=False,
        )
        c = [np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)]
        with pytest.raises(DomainError):
            masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())


@given(
    scale=st.sampled_from([audfb.ERB, audfb.BARK]),
    channels_per_unit=st.floats(0.5, 3.0),
    f_min=st.one_of(st.just(0.0), st.floats(30.0, 800.0)),
    signal_length=st.sampled_from([128, 256, 512, 1024]),
    doubled=st.booleans(),
    random_centers=st.booleans(),
    signal=st.sampled_from(["noise", "silence", "impulse"]),
    model_scale=st.sampled_from([audfb.ERB, audfb.BARK]),
    offset=st.one_of(st.just(0.0), st.floats(-30.0, 30.0)),
    lower=st.floats(0.5, 60.0),
    upper=st.floats(0.5, 60.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_threshold_matches_pair_loop_oracle(
    scale, channels_per_unit, f_min, signal_length, doubled, random_centers,
    signal, model_scale, offset, lower, upper, seed,
):
    """Thresholds lie within the stated tolerance of the pair-loop oracle,
    and the mask, masked coefficients and fraction are consistent."""
    try:
        fb = audfb.build_audlet(
            f_min, 4000.0, channels_per_unit, scale,
            sample_rate=8000.0, signal_length=signal_length,
        )
    except UnsupportedConfigError:
        assume(False)
    rng = np.random.default_rng(seed)
    if doubled:
        assume(np.all(signal_length % (2 * fb.decimations) == 0))
        fb = dataclasses.replace(fb, decimations=2 * fb.decimations)
    if random_centers:
        fb = dataclasses.replace(fb, center_frequencies=rng.uniform(0.0, 4000.0, fb.n_channels))
    x = np.zeros(signal_length)
    if signal == "noise":
        x = rng.standard_normal(signal_length)
    elif signal == "impulse":
        x[rng.integers(signal_length)] = 1.0
    model = masking.IrrelevanceModel(
        offset_db=offset,
        spread_lower_db_per_unit=lower,
        spread_upper_db_per_unit=upper,
        scale=model_scale,
    )

    c = audfb.analyze(fb, x)
    thresholds = assert_matches_oracle(c, fb, model)
    weights = [
        (level >= thr).astype(np.float64)
        for level, thr in zip(masking._levels_db(c), thresholds)
    ]
    removed = sum(int(np.count_nonzero(w == 0.0)) for w in weights)
    masked, mask, fraction = masking.irrelevance_filter(fb, x, model)
    assert all(np.array_equal(a, e) for a, e in zip(mask.weights, weights))
    assert all(np.array_equal(a, w * ck) for a, w, ck in zip(masked, weights, c))
    assert fraction == removed / sum(w.size for w in weights)


class TestSweepAgainstOracle:
    """The two-sweep threshold on fixed inputs, against the pair loop."""

    def assert_mask_equals_oracle(self, fb, x, model):
        c = audfb.analyze(fb, x)
        expected = oracle_mask(c, fb, model)
        masked, mask, fraction = masking.irrelevance_filter(fb, x, model)
        assert all(np.array_equal(a, e) for a, e in zip(mask.weights, expected))
        assert all(np.array_equal(a, w * ck) for a, w, ck in zip(masked, expected, c))
        removed = sum(int(np.count_nonzero(w == 0.0)) for w in expected)
        assert fraction == removed / sum(w.size for w in expected)

    def test_frozen_fixture_mask_is_exact(self, mask_bank):
        x = tone_plus_noise(8192, 16000.0, seed=23)
        self.assert_mask_equals_oracle(mask_bank, x, masking.IrrelevanceModel())

    def test_bark_16k_mask_is_exact(self):
        """4 s of tone plus noise on the Bark, V=6, 16 kHz, L=65536 bank."""
        fb = audfb.build_audlet(
            0.0, 8000.0, 6.0, audfb.BARK, sample_rate=16000.0, signal_length=65536
        )
        x = np.zeros(65536)
        x[:64000] = tone_plus_noise(64000, 16000.0, seed=31)
        self.assert_mask_equals_oracle(fb, x, masking.IrrelevanceModel())

    def test_lone_masker_threshold_equals_its_level(self, mask_bank):
        """At offset 0 a lone loud masker's own term enters exactly."""
        fb = mask_bank
        c = [np.zeros(n, dtype=complex) for n in fb.subband_lengths()]
        c[40][10] = 0.5 + 0.25j
        c[41][10] = 1e-3  # a neighbour far below its shadow
        model = masking.IrrelevanceModel(offset_db=0.0)
        thr = masking.irrelevance_threshold(c, fb, model)
        level = masking._levels_db(c)[40][10]
        assert level == 0.0
        assert thr[40][10] == level

    @pytest.mark.parametrize("model", [
        masking.IrrelevanceModel(),
        masking.IrrelevanceModel(offset_db=0.0, spread_upper_db_per_unit=1e308),
    ])
    def test_unsorted_and_duplicate_centers(self, rng, model):
        """Channel order does not have to follow the scale, and channels may
        share a center: a shared center casts its shadow at distance 0."""
        fb = audfb.build_audlet(
            0.0, 4000.0, 2.0, audfb.ERB, sample_rate=8000.0, signal_length=1024
        )
        centers = rng.permutation(fb.center_frequencies)
        centers[1::3] = centers[0::3][: centers[1::3].size]  # duplicates
        fb = dataclasses.replace(fb, center_frequencies=centers)
        x = tone_plus_noise(1024, 8000.0, seed=11)
        c = audfb.analyze(fb, x)
        if model.spread_upper_db_per_unit < 1e308:
            assert_matches_oracle(c, fb, model)
        else:
            assert not any(np.isnan(t).any() for t in masking.irrelevance_threshold(c, fb, model))
        self.assert_mask_equals_oracle(fb, x, model)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_coefficients_rejected(self, mask_bank, bad):
        c = [np.ones(n, dtype=complex) for n in mask_bank.subband_lengths()]
        c[7][3] = bad
        with pytest.raises(DomainError):
            masking.irrelevance_threshold(c, mask_bank, masking.IrrelevanceModel())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_centers_rejected(self, mask_bank, bad):
        centers = mask_bank.center_frequencies.copy()
        centers[5] = bad
        with pytest.raises(DomainError):
            dataclasses.replace(mask_bank, center_frequencies=centers)
        centers = mask_bank.center_frequencies.copy()
        fb = dataclasses.replace(mask_bank, center_frequencies=centers)
        centers[5] = bad  # the bank keeps the array it was given
        c = [np.ones(n, dtype=complex) for n in fb.subband_lengths()]
        with pytest.raises(DomainError):
            masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())

    @pytest.mark.parametrize("count", [-1, 1])
    def test_center_count_must_match_channels(self, mask_bank, count):
        """A short list would leave channels out of both sweeps."""
        centers = np.resize(mask_bank.center_frequencies, mask_bank.n_channels + count)
        with pytest.raises(ShapeError):
            dataclasses.replace(mask_bank, center_frequencies=centers)
        centers = list(mask_bank.center_frequencies)
        fb = dataclasses.replace(mask_bank, center_frequencies=centers)
        centers[:] = np.resize(centers, len(centers) + count)  # the bank keeps the list it was given
        c = [np.ones(n, dtype=complex) for n in fb.subband_lengths()]
        with pytest.raises(ShapeError):
            masking.irrelevance_threshold(c, fb, masking.IrrelevanceModel())

    def test_cli_huge_lower_spread(self, tmp_path, capsys):
        """``audfb irrelevance --spread-lower 1e308`` exits 0 and writes the
        oracle's mask."""
        rate, n = 8000, 12000
        samples = tone_plus_noise(n, float(rate), seed=5).astype(np.float32)
        wav, mask_path = tmp_path / "in.wav", tmp_path / "mask.afm"
        wavfile.write(wav, rate, 0.5 * samples / np.max(np.abs(samples)))
        code = cli.main([
            "irrelevance", str(wav), str(tmp_path / "out.wav"),
            "--spread-lower", "1e308", "--mask-out", str(mask_path),
        ])
        assert code == 0
        fb, mask, _ = container.read_mask(mask_path)
        _, data = wavfile.read(wav)
        x = np.zeros(fb.signal_length)
        x[:n] = data
        model = masking.IrrelevanceModel(spread_lower_db_per_unit=1e308)
        expected = oracle_mask(audfb.analyze(fb, x), fb, model)
        assert all(np.array_equal(a, e) for a, e in zip(mask.weights, expected))
        assert float(capsys.readouterr().out) == sum(
            int(np.count_nonzero(w == 0.0)) for w in expected
        ) / sum(w.size for w in expected)


class TestIrrelevanceFilter:
    def test_frozen_regression_anchor(self, mask_bank):
        """Removal fraction on the frozen tone-plus-noise fixture.

        The value is this implementation's own output, pinned so that any
        future numeric drift fails loudly; the >0.3 clause is the behavioral
        expectation (a third of the coefficients are below threshold).
        """
        x = tone_plus_noise(8192, 16000.0, seed=23)
        _, mask, fraction = audfb.irrelevance_filter(
            mask_bank, x, masking.IrrelevanceModel()
        )
        assert fraction > 0.3
        assert fraction == pytest.approx(0.32079596412556055, rel=1e-10)
        assert mask.binary

    def test_extreme_offsets(self, mask_bank):
        """Offset -> -inf keeps everything, offset -> +inf removes everything."""
        x = tone_plus_noise(8192, 16000.0, seed=23)
        _, _, none_removed = audfb.irrelevance_filter(
            mask_bank, x, masking.IrrelevanceModel(offset_db=-1e4)
        )
        _, _, all_removed = audfb.irrelevance_filter(
            mask_bank, x, masking.IrrelevanceModel(offset_db=1e4)
        )
        assert none_removed == 0.0
        assert all_removed == 1.0

    def test_fraction_monotone_in_offset(self, mask_bank):
        x = tone_plus_noise(8192, 16000.0, seed=23)
        fractions = []
        for offset in np.linspace(-40.0, 40.0, 9):
            _, _, frac = audfb.irrelevance_filter(
                mask_bank, x, masking.IrrelevanceModel(offset_db=float(offset))
            )
            fractions.append(frac)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_all_pass_mask_reconstructs(self, mask_bank):
        """With the mask forced open the roundtrip is the plain dual one."""
        fb = mask_bank
        x = tone_plus_noise(8192, 16000.0, seed=23)
        masked, mask, _ = audfb.irrelevance_filter(
            fb, x, masking.IrrelevanceModel(offset_db=-1e4)
        )
        assert all(np.all(w == 1.0) for w in mask.weights)
        y = audfb.synthesize(audfb.painless_dual(fb), masked)
        assert np.linalg.norm(y.real - x) / np.linalg.norm(x) <= 1e-10

    def test_masking_is_idempotent(self, mask_bank):
        """Re-applying the produced mask to the masked coefficients is a no-op."""
        fb = mask_bank
        x = tone_plus_noise(8192, 16000.0, seed=23)
        masked, mask, _ = audfb.irrelevance_filter(fb, x, masking.IrrelevanceModel())
        again = [w * ck for w, ck in zip(mask.weights, masked)]
        for a, b in zip(again, masked):
            np.testing.assert_array_equal(a, b)

    def test_energy_contraction_on_parseval_bank(self, rng):
        """Binary masking never raises energy when the bank is Parseval."""
        fb = audfb.parseval_normalize(
            audfb.build_audlet(
                0.0, 4000.0, 4.0, audfb.ERB, sample_rate=8000.0, signal_length=2048
            )
        )
        x = tone_plus_noise(2048, 8000.0, seed=7)
        masked, _, _ = audfb.irrelevance_filter(fb, x, masking.IrrelevanceModel())
        y = audfb.synthesize(audfb.adjoint_bank(fb), masked)
        assert np.linalg.norm(y) <= np.linalg.norm(x) * (1.0 + 1e-9)

    def test_silence_removes_nothing(self, mask_bank):
        masked, mask, fraction = audfb.irrelevance_filter(
            mask_bank, np.zeros(8192), masking.IrrelevanceModel()
        )
        assert fraction == 0.0
        assert all(np.all(w == 1.0) for w in mask.weights)


class TestIrrelevanceModel:
    def test_defaults(self):
        model = masking.IrrelevanceModel()
        assert model.offset_db == -2.59
        assert model.spread_lower_db_per_unit == 27.0
        assert model.spread_upper_db_per_unit == 12.0
        assert model.scale is audfb.ERB

    def test_offset_must_be_finite(self):
        with pytest.raises(DomainError):
            masking.IrrelevanceModel(offset_db=np.inf)

    def test_spreads_must_be_positive(self):
        with pytest.raises(DomainError):
            masking.IrrelevanceModel(spread_lower_db_per_unit=0.0)
        with pytest.raises(DomainError):
            masking.IrrelevanceModel(spread_upper_db_per_unit=-3.0)

    @pytest.mark.parametrize("slope", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["spread_lower_db_per_unit", "spread_upper_db_per_unit"])
    def test_spreads_must_be_finite(self, name, slope):
        with pytest.raises(DomainError):
            masking.IrrelevanceModel(**{name: slope})
