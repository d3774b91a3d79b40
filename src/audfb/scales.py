"""Auditory frequency scales (ERB and Bark) and critical bandwidths.

Two maps per scale: a critical bandwidth ``BW(f)`` in Hz and a scale value
``F(f)`` in auditory units (ERB-rate or Bark). Both are strictly increasing
in frequency, so ``F`` is invertible; the ERB inverse has a closed form and
the Bark inverse is found numerically on [0, 30 kHz].

All functions accept scalars or numpy arrays and compute in double precision.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "AuditoryScale",
    "ERB",
    "BARK",
    "from_name",
    "bandwidth",
    "scale_value",
    "inverse_scale",
]

# Hz ceiling for the numeric Bark inversion bracket. The Bark scale value at
# this frequency (~25.13) caps the invertible range.
_BARK_FMAX = 30000.0

# 24.7 * 9.265: makes d/df [9.265*ln(1 + f/228.8455)] = 1/(24.7 + f/9.265).
_ERB_Q = 228.8455


class AuditoryScale:
    """One of the supported auditory scales, identified by ``kind``.

    Use the module-level singletons :data:`ERB` and :data:`BARK`.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("erb", "bark"):
            raise DomainError(f"unknown auditory scale {kind!r}")
        self.kind = kind

    def __repr__(self) -> str:
        return f"AuditoryScale({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, AuditoryScale) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash((AuditoryScale, self.kind))


ERB = AuditoryScale("erb")
BARK = AuditoryScale("bark")


def from_name(name: str) -> AuditoryScale:
    """Return the scale singleton for ``'erb'`` or ``'bark'``."""
    name = name.lower()
    if name == "erb":
        return ERB
    if name == "bark":
        return BARK
    raise DomainError(f"unknown auditory scale {name!r}")


def _check_freq(freq):
    f = np.asarray(freq, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise DomainError("frequency must be finite")
    if np.any(f < 0):
        raise DomainError("frequency must be non-negative")
    return f


def _scalar_like(template, value: np.ndarray):
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(value)
    return value


def bandwidth(scale: AuditoryScale, freq):
    """Critical bandwidth in Hz at frequency ``freq``.

    ERB: ``24.7 + f/9.265``. Bark: ``25 + 75*(1 + 1.4e-6*f^2)^0.69``.

    Parameters
    ----------
    scale : AuditoryScale
    freq : float or array
        Frequency in Hz, non-negative and finite.

    Returns
    -------
    float or array
        Bandwidth in Hz, strictly positive.
    """
    f = _check_freq(freq)
    if scale.kind == "erb":
        bw = 24.7 + f / 9.265
    else:
        bw = 25.0 + 75.0 * (1.0 + 1.4e-6 * f * f) ** 0.69
    return _scalar_like(freq, bw)


def scale_value(scale: AuditoryScale, freq):
    """Auditory-scale value (ERB-rate or Bark) at frequency ``freq``.

    ERB: ``9.265*ln(1 + f/228.8455)``.
    Bark: ``13*arctan(0.00076*f) + 3.5*arctan((f/7500)^2)``.

    Parameters
    ----------
    scale : AuditoryScale
    freq : float or array
        Frequency in Hz, non-negative and finite.

    Returns
    -------
    float or array
        Scale value in auditory units; 0 at 0 Hz, strictly increasing.
    """
    f = _check_freq(freq)
    if scale.kind == "erb":
        u = 9.265 * np.log1p(f / _ERB_Q)
    else:
        u = _bark_value(f)
    return _scalar_like(freq, u)


def _bark_value(f: np.ndarray) -> np.ndarray:
    r = f / 7500.0
    return 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan(r * r)


def inverse_scale(scale: AuditoryScale, units):
    """Frequency in Hz whose scale value equals ``units``.

    The ERB inverse is the closed form ``228.8455*(exp(u/9.265) - 1)``. The
    Bark inverse is computed by bisection on [0, 30 kHz] (the scale is
    strictly increasing, so the bracket is valid for any reachable value).

    Parameters
    ----------
    scale : AuditoryScale
    units : float or array
        Scale value, non-negative. For Bark it must not exceed the value at
        30 kHz (~25.13).

    Returns
    -------
    float or array
        Frequency f with |scale_value(f) - units| <= 1e-9 * max(1, units).
    """
    u = np.asarray(units, dtype=np.float64)
    if not np.all(np.isfinite(u)):
        raise DomainError("scale value must be finite")
    if np.any(u < 0):
        raise DomainError("scale value must be non-negative")

    if scale.kind == "erb":
        f = _ERB_Q * np.expm1(u / 9.265)
        return _scalar_like(units, f)

    if np.any(u > _bark_value(np.asarray(_BARK_FMAX))):
        raise DomainError(f"Bark value outside the invertible range [0, {_BARK_FMAX} Hz]")

    lo = np.zeros_like(u)
    hi = np.full_like(u, _BARK_FMAX)
    # ~100 halvings take the bracket below double-precision resolution for
    # every element at once; monotonicity makes the predicate exact.
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = _bark_value(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    f = 0.5 * (lo + hi)
    f = np.where(u == 0, 0.0, f)
    return _scalar_like(units, f)
