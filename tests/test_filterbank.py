"""Filter bank construction, analysis, synthesis, and layout handling."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import audfb
import dense_oracle as oracle
from audfb import filterbank, finite_frames
from audfb.errors import DomainError, ShapeError, UnsupportedConfigError
from conftest import random_full_bank


def test_default_bank_has_201_channels(default_erb_bank):
    """ERB, V=6, [0, 8000] at 16 kHz: 199 regular + Nyquist + none at DC."""
    assert default_erb_bank.n_channels == 201


def test_default_bank_layout(default_erb_bank):
    fb = default_erb_bank
    assert fb.one_sided
    assert fb.signal_length == 16384
    assert fb.center_frequencies[0] == 0.0
    assert fb.center_frequencies[-1] == 8000.0
    assert np.all(np.diff(fb.center_frequencies) > 0)


def test_default_bank_is_painless(default_erb_bank):
    assert audfb.painless_check(default_erb_bank)


def test_equal_filter_energies(default_erb_bank):
    """Every filter carries energy (L/fs) * ||w||^2 exactly (hann: 0.375)."""
    energies = np.sum(np.abs(default_erb_bank.filters) ** 2, axis=1)
    target = (16384 / 16000.0) * 0.375
    np.testing.assert_allclose(energies, target, rtol=1e-12)


def test_decimations_divide_length(default_erb_bank):
    fb = default_erb_bank
    assert np.all(fb.signal_length % fb.decimations == 0)
    assert np.all(fb.decimations >= 1)


def test_painless_support_condition(default_erb_bank):
    """Each stored filter's circular support fits one alias period."""
    fb = default_erb_bank
    for k in range(fb.n_channels):
        _, length = filterbank.circular_cover(np.abs(fb.filters[k]) > 0.0)
        assert length <= fb.signal_length // fb.decimations[k]


def dc_nyquist_bank():
    """A one-sided bank of only its DC and Nyquist channels: no mirrors."""
    filters = np.zeros((2, 16))
    filters[0, [15, 0, 1]] = 1.0
    filters[1, 7:10] = 1.0
    return audfb.FilterBank(filters, decimations=[2, 4], sample_rate=16.0, one_sided=True)


@pytest.mark.parametrize(
    "make, value",
    [
        pytest.param(None, 8.646484375, id="erb"),
        pytest.param(lambda: filterbank.build_gabor(np.ones(64, dtype=complex), 4, 16, 64), 4.0,
                     id="gabor"),
        pytest.param(dc_nyquist_bank, 0.75, id="dc_nyquist"),
    ],
)
def test_default_redundancy(default_erb_bank, make, value):
    """Redundancy via exact rational arithmetic, doubling the mirrored mids,
    equals the coefficient rate of the full system of expanded_filters."""
    fb = default_erb_bank if make is None else make()
    decs = [int(d) for d in fb.decimations]
    expected = sum(
        Fraction(2 if fb.one_sided and 0 < k < len(decs) - 1 else 1, d) for k, d in enumerate(decs)
    )
    assert fb.redundancy() == float(expected) == value
    assert fb.redundancy() == float(sum(Fraction(1, int(d)) for d in audfb.expanded_filters(fb)[1]))


def test_subband_lengths(default_erb_bank):
    fb = default_erb_bank
    np.testing.assert_array_equal(
        fb.subband_lengths(), fb.signal_length // fb.decimations
    )


def test_dc_channel_prepended():
    fb = audfb.build_audlet(
        200.0, 4000.0, 2.0, audfb.ERB, sample_rate=8000.0, signal_length=1024
    )
    assert fb.center_frequencies[0] == 0.0
    assert fb.center_frequencies[1] == 200.0


def test_dc_channel_suppressed():
    fb = audfb.build_audlet(
        200.0,
        4000.0,
        2.0,
        audfb.ERB,
        sample_rate=8000.0,
        signal_length=1024,
        dc_filter=False,
    )
    assert fb.center_frequencies[0] == 200.0


@pytest.mark.parametrize("prototype", ["hann", "gauss", "rect"])
@pytest.mark.parametrize("scale", [audfb.ERB, audfb.BARK])
def test_constructions_are_painless(prototype, scale):
    fb = audfb.build_audlet(
        50.0,
        3500.0,
        1.5,
        scale,
        sample_rate=8000.0,
        signal_length=2048,
        prototype=prototype,
    )
    assert audfb.painless_check(fb)


def test_analyze_matches_atom_inner_products(rng):
    """Coefficient (k, n) equals <x, phi_{k,n}> with phi[m] = conj(h_k[(nd-m) % L])."""
    L = 32
    fb = random_full_bank(L, [2, 4], seed=101)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    coeffs = audfb.analyze(fb, x)
    for k in range(fb.n_channels):
        h = oracle.idft(fb.filters[k])
        d = int(fb.decimations[k])
        for n in range(L // d):
            atom = np.conj(h[(n * d - np.arange(L)) % L])
            expected = np.sum(x * np.conj(atom))
            assert coeffs[k][n] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_analyze_equals_filter_then_downsample(rng):
    """Fast path agrees with literal filter-then-subsample per channel."""
    L = 64
    fb = random_full_bank(L, [4, 8, 2], seed=102)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    X = oracle.dft(x)
    coeffs = audfb.analyze(fb, x)
    for k in range(fb.n_channels):
        naive = oracle.downsample(oracle.idft(X * fb.filters[k]), int(fb.decimations[k]))
        np.testing.assert_allclose(coeffs[k], naive, atol=1e-11)


def test_synthesize_is_adjoint_of_analyze(rng):
    """<analyze(x), c> == <x, synthesize(adjoint_bank, c)> channel by channel."""
    L = 48
    fb = random_full_bank(L, [2, 4, 4], seed=103)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    c = [
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for n in fb.subband_lengths()
    ]
    coeffs = audfb.analyze(fb, x)
    lhs = sum(np.vdot(ck, yk) for ck, yk in zip(c, coeffs))
    rhs = np.vdot(audfb.synthesize(audfb.adjoint_bank(fb), c), x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_composition_linear_over_complex_full_layout(rng):
    fb = random_full_bank(32, [2, 4], seed=104)

    def op(v):
        return audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, v))

    x1 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    x2 = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    a, b = 1.3 - 0.4j, -0.2 + 2.1j
    np.testing.assert_allclose(
        op(a * x1 + b * x2), a * op(x1) + b * op(x2), atol=1e-10
    )


def test_composition_linear_over_reals_one_sided(rng):
    fb = audfb.build_audlet(
        0.0, 2000.0, 1.0, audfb.ERB, sample_rate=4000.0, signal_length=512
    )

    def op(v):
        return audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, v))

    x1 = rng.standard_normal(512)
    x2 = rng.standard_normal(512)
    np.testing.assert_allclose(
        op(1.7 * x1 - 0.3 * x2), 1.7 * op(x1) - 0.3 * op(x2), atol=1e-10
    )


def test_one_sided_mirror_spectra(rng):
    """Expanded mirrors satisfy H'[j] = conj(H[(-j) % L])."""
    fb = audfb.build_audlet(
        0.0, 2000.0, 1.0, audfb.ERB, sample_rate=4000.0, signal_length=256
    )
    filters, decs = filterbank.expanded_filters(fb)
    K = fb.n_channels
    n_mid = K - 2
    assert filters.shape[0] == K + n_mid
    L = fb.signal_length
    for i in range(n_mid):
        stored = fb.filters[1 + i]
        mirror = filters[K + i]
        np.testing.assert_allclose(
            mirror, np.conj(stored[(-np.arange(L)) % L]), atol=1e-14
        )
        assert decs[K + i] == fb.decimations[1 + i]


def test_expanded_filters_full_layout_identity():
    fb = random_full_bank(32, [2, 4], seed=105)
    filters, decs = filterbank.expanded_filters(fb)
    np.testing.assert_array_equal(filters, fb.filters)
    np.testing.assert_array_equal(decs, fb.decimations)


def test_adjoint_bank_conjugates_filters():
    fb = random_full_bank(16, [2, 2], seed=106)
    adj = audfb.adjoint_bank(fb)
    np.testing.assert_array_equal(adj.filters, np.conj(fb.filters))
    np.testing.assert_array_equal(adj.decimations, fb.decimations)
    assert adj.one_sided == fb.one_sided


def test_parseval_normalized_roundtrip(rng):
    """After Parseval normalization the conjugate bank is its own dual."""
    fb = audfb.parseval_normalize(
        audfb.build_audlet(
            0.0, 4000.0, 2.0, audfb.ERB, sample_rate=8000.0, signal_length=1024
        )
    )
    x = rng.standard_normal(1024)
    rebuilt = audfb.synthesize(audfb.adjoint_bank(fb), audfb.analyze(fb, x))
    np.testing.assert_allclose(rebuilt.real, x, atol=1e-10)
    assert np.max(np.abs(rebuilt.imag)) < 1e-10


def test_build_gabor_matches_dense_gabor_frame(rng):
    """Uniform bank coefficients equal dense Gabor inner products.

    Channel k of the bank built from conj(dft(g)) carries, at time index n,
    the coefficient of the dense atom with shift n*a and modulation k.
    """
    L, a, M = 16, 2, 4
    g = rng.standard_normal(L)
    fbg = filterbank.build_gabor(np.conj(oracle.dft(g)), a, M, L)
    frame = finite_frames.gabor_frame(g, a, M)
    x = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    coeffs = audfb.analyze(fbg, x)
    dense = finite_frames.analyze(frame, x)
    for k in range(M):
        for n in range(L // a):
            assert coeffs[k][n] == pytest.approx(dense[n * M + k], rel=1e-10, abs=1e-12)


def test_build_gabor_redundancy():
    fbg = filterbank.build_gabor(np.ones(16, dtype=complex), 2, 8, 16)
    assert fbg.redundancy() == 4.0


@pytest.mark.parametrize(
    "mask, expected",
    [
        (np.zeros(6, dtype=bool), (0, 0)),
        (np.ones(6, dtype=bool), (0, 6)),
        (np.array([0, 0, 1, 1, 0, 0], dtype=bool), (2, 2)),
        (np.array([1, 1, 0, 0, 0, 1], dtype=bool), (5, 3)),
        (np.array([0, 0, 0, 1, 0, 0], dtype=bool), (3, 1)),
    ],
)
def test_circular_cover(mask, expected):
    assert filterbank.circular_cover(mask) == expected


def test_analyze_length_mismatch(default_erb_bank):
    with pytest.raises(ShapeError):
        audfb.analyze(default_erb_bank, np.zeros(100))


def test_synthesize_channel_count_mismatch():
    fb = random_full_bank(16, [2, 2], seed=107)
    with pytest.raises(ShapeError):
        audfb.synthesize(fb, [np.zeros(8)])


def test_synthesize_channel_length_mismatch():
    fb = random_full_bank(16, [2, 2], seed=108)
    with pytest.raises(ShapeError):
        audfb.synthesize(fb, [np.zeros(8), np.zeros(4)])


def test_decimation_must_divide_signal_length():
    with pytest.raises(ShapeError):
        audfb.FilterBank(
            filters=np.ones((1, 8), dtype=complex),
            decimations=np.array([3]),
            sample_rate=8.0,
            one_sided=False,
        )


@pytest.mark.parametrize("decimations, named", [([2, 3, 0, 5], 3), ([4, 0, 3], 0), ([8, -2], -2)])
def test_first_bad_decimation_is_named(decimations, named):
    with pytest.raises(ShapeError, match=rf"^downsampling factor {named} must divide L=8$"):
        audfb.FilterBank(
            filters=np.ones((len(decimations), 8), dtype=complex),
            decimations=np.array(decimations),
            sample_rate=8.0,
            one_sided=False,
        )


@pytest.mark.parametrize("name", ["center_frequencies", "dilations"])
def test_per_channel_values_are_checked(default_erb_bank, name):
    """Centers and dilations hold one finite value per channel; a bank with
    one center too few wrote a container its own reader refused."""
    values = getattr(default_erb_bank, name)
    for wrong in (values[:-1], np.append(values, values[-1]), values.reshape(1, -1)):
        with pytest.raises(ShapeError):
            dataclasses.replace(default_erb_bank, **{name: wrong})
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError):
            dataclasses.replace(default_erb_bank, **{name: np.where(np.arange(values.size) == 5, bad, values)})
    assert getattr(dataclasses.replace(default_erb_bank, **{name: list(values)}), name) == list(values)


class TestFrozenBank:
    """A bank never changes after construction, so the values it derives
    (Walnut terms, dense view, inverse blocks) cannot go stale."""

    def bank(self):
        return audfb.build_audlet(0.0, 4000.0, 3.0, audfb.ERB, sample_rate=8000.0, signal_length=1024)

    @pytest.mark.parametrize("name", ["decimations", "sample_rate", "one_sided", "center_frequencies",
                                      "config", "_covers"])
    def test_assignment_raises(self, name):
        fb = self.bank()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fb, name, getattr(fb, name))

    def test_in_place_update_of_decimations_raises(self):
        fb = self.bank()
        x = np.random.default_rng(2).standard_normal(1024)
        before = audfb.walnut_apply(fb, x)
        with pytest.raises(ValueError):
            fb.decimations *= 2
        with pytest.raises(ValueError):
            fb.decimations[0] = 2
        assert np.array_equal(audfb.walnut_apply(fb, x), before)
        doubled = dataclasses.replace(fb, decimations=2 * fb.decimations)
        assert audfb.estimate_bounds(doubled).method == "diag-dominance"

    def test_callers_array_stays_writable(self):
        fb = self.bank()
        given = fb.decimations.copy()
        other = dataclasses.replace(fb, decimations=given)
        assert given.flags.writeable and not other.decimations.flags.writeable
        given[0] = 2
        assert other.decimations[0] == fb.decimations[0]

    def test_banks_compare_and_hash_by_identity(self):
        """The generated field-wise __eq__ compared ndarray fields through
        tuple equality and raised ValueError; banks compare by identity."""
        fb = self.bank()
        other = dataclasses.replace(fb)
        assert fb == fb and fb != other
        assert hash(fb) == hash(fb)
        assert len({fb, other, fb}) == 2

    @pytest.mark.parametrize("offset", [0.5, 0.999, np.nan, np.inf])
    def test_non_integral_decimations_refused(self, offset):
        fb = self.bank()
        with np.errstate(invalid="raise"), pytest.raises(ShapeError):
            dataclasses.replace(fb, decimations=fb.decimations + offset)
        integral = dataclasses.replace(fb, decimations=fb.decimations.astype(float).tolist())
        assert integral.decimations.dtype == np.int64
        assert np.array_equal(integral.decimations, fb.decimations)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(f_min=-1.0, f_max=4000.0),
        dict(f_min=4000.0, f_max=4000.0),
        dict(f_min=0.0, f_max=9000.0),
        dict(f_min=0.0, f_max=4000.0, channels_per_unit=0.0),
        dict(f_min=0.0, f_max=4000.0, r_bw=-1.0),
        dict(f_min=0.0, f_max=4000.0, prototype="kaiser"),
    ],
)
def test_build_audlet_rejects_bad_parameters(kwargs):
    full = dict(channels_per_unit=2.0, sample_rate=8000.0, signal_length=512)
    full.update(kwargs)
    f_min = full.pop("f_min")
    f_max = full.pop("f_max")
    v = full.pop("channels_per_unit")
    with pytest.raises(DomainError):
        audfb.build_audlet(f_min, f_max, v, audfb.ERB, **full)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["channels_per_unit", "r_bw", "r_d"])
def test_build_audlet_rejects_non_finite_parameters(name, value):
    full = dict(channels_per_unit=2.0, r_bw=1.0, r_d=1.0)
    full[name] = value
    v = full.pop("channels_per_unit")
    with pytest.raises(DomainError):
        audfb.build_audlet(0.0, 4000.0, v, audfb.ERB, sample_rate=8000.0, signal_length=512, **full)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides", [dict(r_bw=1e308), dict(r_d=1e308), dict(r_bw=1e10, r_d=1e300)])
def test_build_audlet_rejects_overflowing_factors(overrides):
    """Finite factors whose widest dilation or rate cap r_d * fs * r_bw
    overflows are refused before any multiply can warn."""
    full = {"r_bw": 1.0, "r_d": 1.0, **overrides}
    with pytest.raises(DomainError, match="what they scale"):
        audfb.build_audlet(0.0, 4000.0, 2.0, audfb.ERB, sample_rate=8000.0, signal_length=512, **full)


def test_build_audlet_bounds_channel_count():
    """More than 4 L regular channels is rejected before any allocation.

    Up to 4 kHz the ERB scale spans 27.02 units, so at L=512 a density of 75
    gives 2027 regular channels and 76 gives 2054; 1.7e308 overflows to inf.
    """
    fb = audfb.build_audlet(0.0, 4000.0, 75.0, audfb.ERB, sample_rate=8000.0, signal_length=512)
    assert fb.n_channels == 2028
    for density in (76.0, 1e300, 1.7e308):
        with pytest.raises(DomainError, match="signal_length"):
            audfb.build_audlet(
                0.0, 4000.0, density, audfb.ERB, sample_rate=8000.0, signal_length=512
            )


def test_build_audlet_rejects_empty_support():
    """A channel whose support contains no spectral bin cannot be built."""
    with pytest.raises(UnsupportedConfigError):
        audfb.build_audlet(
            100.0, 8000.0, 1.0, audfb.ERB, sample_rate=16000.0, signal_length=32
        )


def test_build_gabor_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        filterbank.build_gabor(np.ones(10, dtype=complex), 2, 4, 16)
    with pytest.raises(ShapeError):
        filterbank.build_gabor(np.ones(16, dtype=complex), 3, 4, 16)
    with pytest.raises(ShapeError):
        filterbank.build_gabor(np.ones(16, dtype=complex), 2, 5, 16)
