"""Transform conventions and multirate primitives of the test oracle.

The DFT convention is pinned here once (forward unnormalized, inverse 1/L,
delay of s multiplies bin j by exp(-2i pi j s / L)) on the signal helpers of
``dense_oracle``, which the filter-bank tests use as their time-domain oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle as oracle
from audfb.errors import DomainError, ShapeError


def _random_signal(seed, L, complex_valued=True):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(L)
    if complex_valued:
        x = x + 1j * gen.standard_normal(L)
    return x


def test_dft_matches_direct_sum():
    """Forward transform equals the unnormalized analysis sum."""
    x = _random_signal(1, 9)
    j, t = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    direct = (np.exp(-2j * np.pi * j * t / 9) * x).sum(axis=1)
    np.testing.assert_allclose(oracle.dft(x), direct, atol=1e-12)


def test_idft_inverts_dft():
    x = _random_signal(2, 64)
    np.testing.assert_allclose(oracle.idft(oracle.dft(x)), x, atol=1e-12)


def test_dft_of_delta_is_flat():
    x = np.zeros(16)
    x[0] = 1.0
    np.testing.assert_allclose(oracle.dft(x), np.ones(16), atol=1e-14)


def test_delay_theorem():
    """Circular shift by s multiplies bin j by exp(-2i pi j s / L)."""
    L, s = 31, 7
    x = _random_signal(3, L)
    shifted = np.roll(x, s)
    ramp = np.exp(-2j * np.pi * np.arange(L) * s / L)
    np.testing.assert_allclose(oracle.dft(shifted), ramp * oracle.dft(x), atol=1e-11)


def test_parseval_with_convention():
    """Energy identity carries the 1/L of this convention."""
    x = _random_signal(4, 128)
    lhs = np.sum(np.abs(x) ** 2)
    rhs = np.sum(np.abs(oracle.dft(x)) ** 2) / 128
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_downsample_picks_every_dth(d, blocks):
    L = d * blocks
    x = np.arange(L, dtype=np.float64)
    np.testing.assert_array_equal(oracle.downsample(x, d), x[::d])


def test_downsample_requires_divisor():
    with pytest.raises(ShapeError):
        oracle.downsample(np.zeros(10), 3)


def test_downsample_rejects_nonpositive_factor():
    with pytest.raises(DomainError):
        oracle.downsample(np.zeros(10), 0)


def test_upsample_inserts_zeros():
    c = np.array([1.0, 2.0, 3.0])
    out = oracle.upsample(c, 2)
    np.testing.assert_array_equal(out, [1.0, 0.0, 2.0, 0.0, 3.0, 0.0])


def test_up_down_adjointness():
    """<down(x), c> == <x, up(c)> for the unweighted pair."""
    d, n = 4, 12
    x = _random_signal(5, d * n)
    c = _random_signal(6, n)
    lhs = np.vdot(oracle.downsample(x, d), c)
    rhs = np.vdot(x, oracle.upsample(c, d))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_downsample_folds_spectrum():
    """dft(down(x, d)) equals the d-fold aliased spectrum over d."""
    d, L = 4, 32
    x = _random_signal(7, L)
    X = oracle.dft(x)
    folded = X.reshape(d, L // d).sum(axis=0) / d
    np.testing.assert_allclose(oracle.dft(oracle.downsample(x, d)), folded, atol=1e-11)


def test_upsample_tiles_spectrum():
    """dft(up(c, d)) is d periods of dft(c)."""
    d, n = 3, 8
    c = _random_signal(8, n)
    expected = np.tile(oracle.dft(c), d)
    np.testing.assert_allclose(oracle.dft(oracle.upsample(c, d)), expected, atol=1e-11)


def test_circular_convolve_against_direct_sum():
    """O(L^2) definition: y[t] = sum_m x[m] h[(t - m) % L]."""
    L = 17
    x = _random_signal(9, L)
    h = _random_signal(10, L)
    direct = np.empty(L, dtype=np.complex128)
    for t in range(L):
        direct[t] = sum(x[m] * h[(t - m) % L] for m in range(L))
    np.testing.assert_allclose(oracle.circular_convolve(x, h), direct, atol=1e-10)


def test_circular_convolve_identity_kernel():
    x = _random_signal(11, 24)
    delta = np.zeros(24)
    delta[0] = 1.0
    np.testing.assert_allclose(oracle.circular_convolve(x, delta), x, atol=1e-12)


@given(st.integers(min_value=0, max_value=15))
@settings(max_examples=16, deadline=None)
def test_circular_convolve_with_shifted_delta(shift):
    """Convolving with a shifted delta rotates the signal."""
    x = _random_signal(12, 16)
    delta = np.zeros(16)
    delta[shift] = 1.0
    np.testing.assert_allclose(
        oracle.circular_convolve(x, delta), np.roll(x, shift), atol=1e-12
    )


def test_circular_convolve_length_mismatch():
    with pytest.raises(ShapeError):
        oracle.circular_convolve(np.zeros(8), np.zeros(9))


@pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((2, 3)), np.array([1.0, np.inf])])
def test_signal_validation(bad):
    with pytest.raises((ShapeError, DomainError)):
        oracle.dft(bad)
