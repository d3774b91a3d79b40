"""Auditory scale maps: bandwidths, scale values, inverses.

Reference values in this file are computed directly from the closed-form
definitions (by hand or with a separate script), not by calling the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audfb
from audfb import scales
from audfb.errors import DomainError

frequencies = st.floats(min_value=1.0, max_value=20000.0)


class TestBandwidth:
    """bandwidth() against hand-evaluated anchor points."""

    def test_erb_at_zero(self):
        assert audfb.bandwidth(audfb.ERB, 0.0) == pytest.approx(24.7, rel=1e-12)

    def test_erb_at_1khz(self):
        expected = 132.63308148947652  # 24.7 + 1000/9.265
        assert audfb.bandwidth(audfb.ERB, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_bark_at_zero(self):
        assert audfb.bandwidth(audfb.BARK, 0.0) == pytest.approx(100.0, rel=1e-12)

    @pytest.mark.parametrize(
        "freq, expected",
        [
            (1000.0, 162.21671568515828),
            (8000.0, 1705.6594422698365),
        ],
    )
    def test_bark_anchors(self, freq, expected):
        assert audfb.bandwidth(audfb.BARK, freq) == pytest.approx(expected, rel=1e-12)

    def test_vectorized(self):
        freqs = np.array([0.0, 500.0, 1000.0, 4000.0])
        out = audfb.bandwidth(audfb.ERB, freqs)
        assert out.shape == freqs.shape
        np.testing.assert_allclose(out, 24.7 + freqs / 9.265, rtol=1e-14)

    @pytest.mark.parametrize("scale", [audfb.ERB, audfb.BARK])
    def test_monotone_increasing(self, scale):
        freqs = np.linspace(0.0, 20000.0, 400)
        assert np.all(np.diff(audfb.bandwidth(scale, freqs)) > 0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            audfb.bandwidth(audfb.ERB, -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            audfb.bandwidth(audfb.BARK, np.nan)


class TestScaleValue:
    """scale_value() against hand-evaluated anchor points."""

    def test_erb_at_zero(self):
        assert audfb.scale_value(audfb.ERB, 0.0) == 0.0

    def test_erb_knee(self):
        # 9.265 * ln(1 + 228.8455/228.8455) = 9.265 * ln 2
        expected = 6.422008627887894
        assert audfb.scale_value(audfb.ERB, 228.8455) == pytest.approx(
            expected, rel=1e-12
        )

    def test_erb_at_1khz(self):
        expected = 15.572457147860659
        assert audfb.scale_value(audfb.ERB, 1000.0) == pytest.approx(expected, rel=1e-12)

    def test_bark_at_zero(self):
        assert audfb.scale_value(audfb.BARK, 0.0) == 0.0

    def test_bark_at_1khz(self):
        expected = 8.510531510721993
        assert audfb.scale_value(audfb.BARK, 1000.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scale", [audfb.ERB, audfb.BARK])
    def test_strictly_monotone(self, scale):
        freqs = np.linspace(0.0, 22050.0, 500)
        assert np.all(np.diff(audfb.scale_value(scale, freqs)) > 0)

    def test_scalar_in_scalar_out(self):
        out = audfb.scale_value(audfb.ERB, 440.0)
        assert np.ndim(out) == 0

    def test_negative_frequency_rejected(self):
        with pytest.raises(DomainError):
            audfb.scale_value(audfb.BARK, -10.0)


class TestInverseScale:
    """inverse_scale() closed form (ERB) and bracketed solve (Bark)."""

    def test_erb_zero(self):
        assert audfb.inverse_scale(audfb.ERB, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_erb_closed_form(self):
        # 228.8455 * expm1(u/9.265) at u = 9.265 ln 2 gives the knee back
        assert audfb.inverse_scale(audfb.ERB, 6.422008627887894) == pytest.approx(
            228.8455, rel=1e-12
        )

    def test_bark_recovers_20khz(self):
        u = audfb.scale_value(audfb.BARK, 20000.0)
        assert audfb.inverse_scale(audfb.BARK, u) == pytest.approx(20000.0, rel=1e-9)

    def test_bark_above_bracket_rejected(self):
        # scale_value(BARK, 30000) = 25.129863306696652 tops out the bracket
        with pytest.raises(DomainError):
            audfb.inverse_scale(audfb.BARK, 25.2)

    def test_negative_units_rejected(self):
        with pytest.raises(DomainError):
            audfb.inverse_scale(audfb.ERB, -0.5)

    def test_vectorized(self):
        units = np.array([0.0, 5.0, 15.0, 20.0])
        freqs = audfb.inverse_scale(audfb.BARK, units)
        np.testing.assert_allclose(
            audfb.scale_value(audfb.BARK, freqs), units, rtol=1e-9, atol=1e-9
        )

    @staticmethod
    def full_bisection(units):
        """The Bark inverse with all 100 halvings."""
        lo, hi = np.zeros_like(units), np.full_like(units, scales._BARK_FMAX)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = scales._bark_value(mid) < units
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return np.where(units == 0, 0.0, 0.5 * (lo + hi))

    def test_bark_bisection_stops_at_its_fixed_point(self, monkeypatch):
        """Stopping once a halving moves no bracket at u > 0 gives the bits
        of all 100 halvings, zeros included, in fewer halvings. A value so
        small that its bracket never settles takes all 100."""
        units = np.concatenate([[0.0, 0.0], np.linspace(0.0, 24.0, 129)[1:], [25.1]])
        calls, bark_value = [], scales._bark_value
        monkeypatch.setattr(scales, "_bark_value", lambda f: calls.append(f.size) or bark_value(f))
        for values, halvings in ((units, range(2, 100)), (np.append(units, 1e-300), [100])):
            full = self.full_bisection(values)
            calls.clear()
            fast = audfb.inverse_scale(audfb.BARK, values)
            assert np.array_equal(fast, full) and np.array_equal(np.signbit(fast), np.signbit(full))
            assert len(calls) - 1 in halvings  # the first call checks the range
        for u in (units[5], 0.0):
            assert np.array_equal(audfb.inverse_scale(audfb.BARK, u), self.full_bisection(np.array(u)))

    @settings(max_examples=200, deadline=None)
    @given(freq=frequencies, name=st.sampled_from(["erb", "bark"]))
    def test_roundtrip_property(self, freq, name):
        """inverse_scale(scale_value(f)) == f to 1e-9 relative on [1, 20k]."""
        scale = scales.from_name(name)
        back = audfb.inverse_scale(scale, audfb.scale_value(scale, freq))
        assert back == pytest.approx(freq, rel=1e-9)


class TestFromName:
    """Scale lookup by name."""

    @pytest.mark.parametrize("name, scale", [("erb", audfb.ERB), ("bark", audfb.BARK)])
    def test_known_names(self, name, scale):
        assert scales.from_name(name) is scale

    def test_case_insensitive(self):
        assert scales.from_name("ERB") is audfb.ERB

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            scales.from_name("mel")
