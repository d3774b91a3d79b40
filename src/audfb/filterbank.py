"""Auditory-scale and Gabor filter banks on C^L, all in the frequency domain.

A bank stores one frequency-domain transfer H_k of length L per channel plus
a per-channel downsampling factor d_k (every d_k divides L). Analysis of a
signal x is y_k = downsample(idft(dft(x) * H_k), d_k); synthesis of subband
coefficients c is the adjoint-shaped sum over channels of
idft(dft(upsample(c_k, d_k)) * G_k) with the stored filters used as G_k.

Two layouts exist:

* full (``one_sided=False``): the channels are the whole system. Analysis and
  synthesis are complex-linear.
* one-sided (``one_sided=True``): channels cover only the non-negative
  frequency range; every channel except the first (DC) and last (Nyquist)
  implicitly owns a conjugate mirror channel. Built for real signals:
  synthesis completes the mirror terms as conj(u_k), which is linear over
  real scalars and reconstructs real inputs exactly. The full atom system
  (stored plus mirror channels) is what diagnostics and frame statements
  refer to; :func:`expanded_filters` materializes it and
  :func:`frequency_response` gives its diagonal term H0.

Subband coefficients are plain lists of 1-D complex arrays, channel k having
L/d_k entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import scales
from .errors import DomainError, ShapeError, UnsupportedConfigError

__all__ = [
    "BankConfig",
    "FilterBank",
    "build_audlet",
    "build_gabor",
    "analyze",
    "synthesize",
    "adjoint_bank",
    "parseval_normalize",
    "expanded_filters",
    "frequency_response",
    "circular_cover",
    "PROTOTYPES",
]

# prototype name -> (window callable on the normalized argument,
#                    support half-width, L2 norm squared of the window)
# "Bandwidth 1" means full support 1 for hann/rect and -6.02 dB width 1 for
# the Gaussian 2^(-4 t^2), truncated where it falls below 1e-8.
_GAUSS_TRUNC = math.sqrt(2.0 * math.log(10.0) / math.log(2.0))  # 2.5775678826705466

PROTOTYPES = {
    "hann": (
        lambda t: np.where(np.abs(t) <= 0.5, np.cos(np.pi * np.clip(t, -0.5, 0.5)) ** 2, 0.0),
        0.5,
        0.375,
    ),
    "rect": (
        lambda t: np.where(np.abs(t) <= 0.5, 1.0, 0.0),
        0.5,
        1.0,
    ),
    "gauss": (
        lambda t: np.where(np.abs(t) <= _GAUSS_TRUNC, 2.0 ** (-4.0 * t * t), 0.0),
        _GAUSS_TRUNC,
        math.sqrt(math.pi / (8.0 * math.log(2.0))),
    ),
}


@dataclass(frozen=True)
class BankConfig:
    """Construction parameters of an auditory bank (kept for serialization)."""

    scale: str
    f_min: float
    f_max: float
    channels_per_unit: float
    r_bw: float
    r_d: float
    prototype: str
    dc_filter: bool = True
    parseval: bool = False


@dataclass
class FilterBank:
    """Frequency-domain filter bank; see the module docstring for semantics."""

    filters: np.ndarray
    decimations: np.ndarray
    sample_rate: float
    one_sided: bool
    center_frequencies: np.ndarray | None = None
    dilations: np.ndarray | None = None
    config: BankConfig | None = None

    def __post_init__(self):
        self.filters = np.ascontiguousarray(self.filters, dtype=np.complex128)
        if self.filters.ndim != 2 or self.filters.shape[0] < 1:
            raise ShapeError("filters must be a non-empty (channels, L) array")
        if not np.all(np.isfinite(self.filters)):
            raise DomainError("filters must be finite-valued")
        self.decimations = np.asarray(self.decimations, dtype=np.int64)
        if self.decimations.shape != (self.filters.shape[0],):
            raise ShapeError("need one downsampling factor per channel")
        L = self.filters.shape[1]
        for d in self.decimations:
            if d < 1 or L % int(d) != 0:
                raise ShapeError(f"downsampling factor {int(d)} must divide L={L}")
        if self.one_sided and self.filters.shape[0] < 2:
            raise ShapeError("a one-sided bank needs at least DC and Nyquist channels")

    @property
    def n_channels(self) -> int:
        return self.filters.shape[0]

    @property
    def signal_length(self) -> int:
        return self.filters.shape[1]

    def subband_lengths(self) -> list[int]:
        L = self.signal_length
        return [L // int(d) for d in self.decimations]

    def redundancy(self) -> float:
        """Coefficient count per input sample, counting conjugate mirrors."""
        r = Fraction(0)
        n = self.n_channels
        for k, d in enumerate(self.decimations):
            twice = self.one_sided and 0 < k < n - 1
            r += Fraction(2 if twice else 1, int(d))
        return float(r)


def circular_cover(mask: np.ndarray) -> tuple[int, int]:
    """Smallest circular interval (start, length) containing all True bins.

    Returns (0, 0) for an all-False mask. The cover is the complement of the
    longest circular run of False values.
    """
    idx = np.flatnonzero(mask)
    n = idx.size
    L = mask.size
    if n == 0:
        return (0, 0)
    if n == L:
        return (0, L)
    # zeros strictly between consecutive True bins, wrapping at the end
    gaps = np.empty(n, dtype=np.int64)
    gaps[:-1] = np.diff(idx) - 1
    gaps[-1] = idx[0] + L - idx[-1] - 1
    i = int(np.argmax(gaps))
    start = int(idx[(i + 1) % n])
    return (start, int(L - gaps[i]))


def _divisors(L: int) -> np.ndarray:
    out = [d for d in range(1, L + 1) if L % d == 0]
    return np.asarray(out, dtype=np.int64)


def _signed_offsets(L: int, sample_rate: float, center: float) -> np.ndarray:
    """Signed circular frequency distance of every bin from ``center`` (Hz).

    Computed in bin units first; when the center falls exactly on a bin (DC
    and, for even L, Nyquist) the bin arithmetic is integer-exact, which makes
    those filters bit-exactly even under j -> -j.
    """
    c_bins = center * L / sample_rate
    if abs(c_bins - round(c_bins)) < 1e-9:
        c_bins = float(round(c_bins))
    t = (np.arange(L) - c_bins + L / 2.0) % L - L / 2.0
    return t * (sample_rate / L)


def build_audlet(
    f_min: float,
    f_max: float,
    channels_per_unit: float,
    scale: scales.AuditoryScale,
    *,
    sample_rate: float,
    signal_length: int,
    prototype: str = "hann",
    r_bw: float = 1.0,
    r_d: float = 1.0,
    dc_filter: bool = True,
) -> FilterBank:
    """Build a one-sided auditory filter bank.

    Regular channels sit at f_k = F^-1(F(f_min) + k/V) for
    k = 0..ceil(V*(F(f_max)-F(f_min)))-1 with dilation (frequency width)
    r_bw * BW(f_k). A low-pass channel at 0 Hz is prepended when f_min > 0
    (unless ``dc_filter=False``), and a channel at the Nyquist frequency is
    always appended, both sized to overlap their regular neighbors. All
    filters are normalized to exactly equal L2 energy.

    Downsampling factors are the largest divisors of L compatible with both
    the painless support condition and the time-resolution cap
    r_d * f_s / BW(f_k), so the result is always painless.

    Parameters
    ----------
    f_min, f_max : float
        Frequency range covered by the regular channels, 0 <= f_min < f_max
        <= sample_rate/2.
    channels_per_unit : float
        Channel density V per auditory unit.
    scale : AuditoryScale
        ERB or BARK.
    sample_rate : float
    signal_length : int
        L; every chosen downsampling factor divides it.
    prototype : {'hann', 'gauss', 'rect'}
    r_bw, r_d : float
        Bandwidth and downsampling scaling factors.
    dc_filter : bool
        When False and f_min > 0, the 0 Hz gap filter is omitted (the bank
        then fails the frame condition; useful for diagnostics only).
    """
    if not (0.0 <= f_min < f_max <= sample_rate / 2.0):
        raise DomainError("need 0 <= f_min < f_max <= sample_rate/2")
    if channels_per_unit <= 0:
        raise DomainError("channels_per_unit must be positive")
    if r_bw <= 0 or r_d <= 0:
        raise DomainError("r_bw and r_d must be positive")
    if prototype not in PROTOTYPES:
        raise DomainError(f"unknown prototype {prototype!r}")
    L = int(signal_length)
    if L < 2:
        raise DomainError("signal_length must be at least 2")

    window, half_width, norm_sq = PROTOTYPES[prototype]

    u_lo = scales.scale_value(scale, f_min)
    u_hi = scales.scale_value(scale, f_max)
    n_regular = max(1, math.ceil(channels_per_unit * (u_hi - u_lo)))
    centers = scales.inverse_scale(
        scale, u_lo + np.arange(n_regular) / channels_per_unit
    )
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    centers[0] = f_min
    gammas = r_bw * np.asarray(scales.bandwidth(scale, centers), dtype=np.float64)

    f_last = float(centers[-1])
    gamma_last = float(gammas[-1])
    nyq = sample_rate / 2.0

    all_centers = list(centers)
    all_gammas = list(gammas)
    if f_min > 0.0 and dc_filter:
        all_centers.insert(0, 0.0)
        all_gammas.insert(0, 2.0 * f_min + r_bw * float(scales.bandwidth(scale, f_min)))
    all_centers.append(nyq)
    all_gammas.append(2.0 * (nyq - f_last) + gamma_last)

    n = len(all_centers)
    filters = np.zeros((n, L), dtype=np.complex128)
    covers = []
    # exact equal-energy normalization to the analytic target (L/f_s)*||w||^2
    target = (L / sample_rate) * norm_sq
    for k in range(n):
        gamma = all_gammas[k]
        offs = _signed_offsets(L, sample_rate, all_centers[k])
        vals = window(offs / gamma) / math.sqrt(gamma)
        if not np.any(vals > 0.0):
            raise UnsupportedConfigError(
                f"channel {k} (center {all_centers[k]:.6g} Hz) has no nonzero bins; "
                "increase signal_length or r_bw"
            )
        filters[k] = vals * math.sqrt(target / float(np.sum(vals**2)))
        covers.append(circular_cover(vals > 0.0))

    divisors = _divisors(L)
    decimations = np.empty(n, dtype=np.int64)
    for k in range(n):
        cap_painless = L // covers[k][1]
        cap_rate = math.floor(r_d * sample_rate * r_bw / all_gammas[k])
        cap = max(1, min(cap_painless, cap_rate))
        decimations[k] = int(divisors[divisors <= cap][-1])

    return FilterBank(
        filters=filters,
        decimations=decimations,
        sample_rate=float(sample_rate),
        one_sided=True,
        center_frequencies=np.asarray(all_centers, dtype=np.float64),
        dilations=np.asarray(all_gammas, dtype=np.float64),
        config=BankConfig(
            scale=scale.kind,
            f_min=float(f_min),
            f_max=float(f_max),
            channels_per_unit=float(channels_per_unit),
            r_bw=float(r_bw),
            r_d=float(r_d),
            prototype=prototype,
            dc_filter=bool(dc_filter),
        ),
    )


def build_gabor(window: np.ndarray, a: int, M: int, L: int, sample_rate: float = 1.0) -> FilterBank:
    """Uniform bank of the M modulates of one frequency-domain prototype.

    Channel k has transfer H_k[j] = window[(j - k*L/M) % L] and downsampling
    factor a. With window = conj(dft(g)) the analysis coefficients equal the
    inner products against the Gabor system of the time-domain window g
    (same ordering as :func:`audfb.finite_frames.gabor_frame`, channel-major
    in k with time index inside the channel).
    """
    w = np.asarray(window, dtype=np.complex128)
    if w.ndim != 1 or w.shape[0] != L:
        raise ShapeError("window must be a length-L frequency-domain vector")
    a = int(a)
    M = int(M)
    if a < 1 or M < 1:
        raise DomainError("a and M must be positive")
    if L % a != 0:
        raise ShapeError(f"downsampling factor {a} does not divide L={L}")
    if L % M != 0:
        raise ShapeError(f"modulation count {M} does not divide L={L}")
    filters = np.empty((M, L), dtype=np.complex128)
    for k in range(M):
        filters[k] = np.roll(w, k * (L // M))
    return FilterBank(
        filters=filters,
        decimations=np.full(M, a, dtype=np.int64),
        sample_rate=float(sample_rate),
        one_sided=False,
    )


def _check_coefficients(fb: FilterBank, coefficients) -> list[np.ndarray]:
    if len(coefficients) != fb.n_channels:
        raise ShapeError(
            f"expected {fb.n_channels} coefficient channels, got {len(coefficients)}"
        )
    out = []
    for k, (c, n) in enumerate(zip(coefficients, fb.subband_lengths())):
        c = np.asarray(c, dtype=np.complex128)
        if c.shape != (n,):
            raise ShapeError(f"channel {k} must hold {n} coefficients, got {c.shape}")
        out.append(c)
    return out


def _fold(V: np.ndarray, d: int) -> np.ndarray:
    """Alias fold of a length-L spectrum onto L/d bins: sum_s V[i + s*L/d]."""
    return V.reshape(d, V.shape[0] // d).sum(axis=0)


def analyze(fb: FilterBank, x) -> list[np.ndarray]:
    """Subband coefficients y_k = downsample(idft(dft(x) * H_k), d_k).

    The downsampled spectrum is formed by alias-folding X * H_k, which is the
    same map computed with length-L/d_k inverse transforms.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != fb.signal_length:
        raise ShapeError(f"signal must have length {fb.signal_length}")
    if not np.all(np.isfinite(x)):
        raise DomainError("signal must be finite")
    X = np.fft.fft(x)
    out = []
    for k in range(fb.n_channels):
        d = int(fb.decimations[k])
        out.append(np.fft.ifft(_fold(X * fb.filters[k], d) / d))
    return out


def _mirror_spectrum(V: np.ndarray) -> np.ndarray:
    """Spectrum of conj(v) given the spectrum of v: conj(V[(-j) mod L])."""
    return np.conj(np.roll(V[::-1], 1))


def synthesize(fb: FilterBank, coefficients) -> np.ndarray:
    """Signal sum_k idft(dft(upsample(c_k, d_k)) * G_k), G_k the stored filters.

    For one-sided banks the conjugate mirror channels are completed as well:
    the DC and Nyquist terms enter once and every mid channel enters as
    u_k + conj(u_k). That completion reconstructs real signals exactly and is
    linear over real scalars (full-layout banks are complex-linear).
    """
    coefficients = _check_coefficients(fb, coefficients)
    L = fb.signal_length
    total = np.zeros(L, dtype=np.complex128)
    last = fb.n_channels - 1
    for k, c in enumerate(coefficients):
        d = int(fb.decimations[k])
        spectrum_up = np.tile(np.fft.fft(c), d)
        term = spectrum_up * fb.filters[k]
        total += term
        if fb.one_sided and 0 < k < last:
            total += _mirror_spectrum(term)
    return np.fft.ifft(total)


def adjoint_bank(fb: FilterBank) -> FilterBank:
    """Bank with filters conj(H_k): synthesizing analysis coefficients with it
    applies the frame operator (on real signals for one-sided banks)."""
    return replace(fb, filters=np.conj(fb.filters))


def expanded_filters(fb: FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """The full channel system (filters, decimations) the bank realizes.

    Full-layout banks return their channels unchanged. One-sided banks append
    the conjugate mirror of every mid channel: H'[j] = conj(H[(-j) mod L]).
    """
    if not fb.one_sided:
        return fb.filters, fb.decimations
    mids = range(1, fb.n_channels - 1)
    mirrors = np.array([_mirror_spectrum(fb.filters[k]) for k in mids])
    if mirrors.size == 0:
        return fb.filters, fb.decimations
    filters = np.concatenate([fb.filters, mirrors], axis=0)
    decs = np.concatenate([fb.decimations, fb.decimations[1:-1]])
    return filters, decs


def frequency_response(fb: FilterBank) -> np.ndarray:
    """Diagonal term H0[j] = sum_k |H_k[j]|^2 / d_k over the full system."""
    filters, decs = expanded_filters(fb)
    response = np.zeros(fb.signal_length)
    for H, d in zip(filters, decs):
        response += (H.real**2 + H.imag**2) / int(d)
    return response


def parseval_normalize(fb: FilterBank) -> FilterBank:
    """Divide all filters by sqrt of the bank's frequency response.

    For painless banks the result is an exact Parseval system (frame bounds
    (1, 1)); for non-painless banks it only flattens the diagonal term.
    """
    response = frequency_response(fb)
    scale = np.where(response > 0.0, 1.0 / np.sqrt(np.where(response > 0.0, response, 1.0)), 0.0)
    config = replace(fb.config, parseval=True) if fb.config is not None else None
    return replace(fb, filters=fb.filters * scale, config=config)
