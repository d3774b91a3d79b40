"""Auditory-scale and Gabor filter banks on C^L, all in the frequency domain.

A bank holds one frequency-domain transfer H_k of length L per channel plus
a per-channel downsampling factor d_k (every d_k divides L). Analysis of a
signal x is y_k = downsample(idft(dft(x) * H_k), d_k); synthesis of subband
coefficients c is the adjoint-shaped sum over channels of
idft(dft(upsample(c_k, d_k)) * G_k) with the stored filters used as G_k.
The DFT is unnormalized, the inverse carries the 1/L factor, and bin j holds
the transfer value at e^(2*pi*i*j/L).

Storage: each H_k is kept as its circular cover, the shortest circular
interval of bins outside which H_k vanishes, as a start bin plus the values
on that interval; L is stored with the covers. An auditory filter lives on
about L/d_k bins, so construction, analysis, synthesis, the frequency
response, the painless test and the dual all cost time and memory in
proportion to the total support and the coefficient count, not to
channels x L. ``FilterBank.filters`` is a dense (channels, L) view of the
covers, built on first read; a bank constructed from a dense array keeps
only the covers of its rows.

Two layouts exist:

* full (``one_sided=False``): the channels are the whole system. Analysis and
  synthesis are complex-linear.
* one-sided (``one_sided=True``): channels cover only the non-negative
  frequency range; every channel except the first (DC) and last (Nyquist)
  implicitly owns a conjugate mirror channel. Built for real signals:
  synthesis completes the mirror terms as conj(u_k), which is linear over
  real scalars and reconstructs real inputs exactly. The full atom system
  (stored plus mirror channels) is what diagnostics and frame statements
  refer to; :func:`expanded_filters` materializes it densely and
  :func:`frequency_response` gives its diagonal term H0.

Subband coefficients are plain lists of 1-D complex arrays, channel k having
L/d_k entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


@dataclass(init=False, frozen=True, eq=False)
class FilterBank:
    """Frequency-domain filter bank; see the module docstring for semantics.

    Construct it from dense ``filters`` of shape (channels, L), which are
    reduced to one circular cover per row and not kept. ``filters`` reads
    back a dense, read-only (channels, L) view of the covers that is built
    on first access and cached. A bank never changes: its fields cannot be
    reassigned and ``decimations`` is a read-only int64 copy of integral
    factors, so the values derived from it stay valid. Derive a changed
    bank with ``dataclasses.replace``, which keeps the covers unless it is
    given new ``filters``. ``center_frequencies`` and ``dilations``, when
    given, hold one finite value per channel.
    """

    decimations: np.ndarray
    sample_rate: float
    one_sided: bool
    center_frequencies: np.ndarray | None = None
    dilations: np.ndarray | None = None
    config: BankConfig | None = None
    # L and one (start bin, values) cover per channel
    _length: int = field(default=0, repr=False)
    _covers: tuple = field(default=(), repr=False)

    def __init__(
        self,
        filters=None,
        *,
        decimations,
        sample_rate,
        one_sided,
        center_frequencies=None,
        dilations=None,
        config=None,
        _length=0,
        _covers=(),
    ):
        if filters is not None:
            filters = np.asarray(filters, dtype=np.complex128)
            if filters.ndim != 2 or filters.shape[0] < 1:
                raise ShapeError("filters must be a non-empty (channels, L) array")
            if not np.all(np.isfinite(filters)):
                raise DomainError("filters must be finite-valued")
            _length = filters.shape[1]
            _covers = [_cover_of(row) for row in filters]
        elif not _covers:
            raise ShapeError("filters must be a non-empty (channels, L) array")
        given = np.asarray(decimations)
        with np.errstate(invalid="ignore"):  # a non-finite factor fails the test below
            decimations = given.astype(np.int64)
        if decimations.shape != (len(_covers),):
            raise ShapeError("need one downsampling factor per channel")
        if np.any(decimations != given):
            raise ShapeError("downsampling factors must be integers")
        decimations.flags.writeable = False
        L = int(_length)
        for d in decimations:
            if d < 1 or L % int(d) != 0:
                raise ShapeError(f"downsampling factor {int(d)} must divide L={L}")
        if one_sided and len(_covers) < 2:
            raise ShapeError("a one-sided bank needs at least DC and Nyquist channels")
        for name, per_channel in (("center_frequencies", center_frequencies),
                                  ("dilations", dilations)):
            if per_channel is None:
                continue
            per_channel = np.asarray(per_channel, dtype=np.float64)
            if per_channel.shape != (len(_covers),):
                raise ShapeError(f"{name} must hold one value per channel")
            if not np.all(np.isfinite(per_channel)):
                raise DomainError(f"{name} must be finite")
        state = dict(decimations=decimations, sample_rate=sample_rate, one_sided=one_sided,
                     center_frequencies=center_frequencies, dilations=dilations, config=config,
                     _length=L, _covers=tuple(_covers))
        for name, value in state.items():
            object.__setattr__(self, name, value)
        # values derived from the fields, one key per writer; the only mutable part
        object.__setattr__(self, "_derived", {})

    @property
    def filters(self) -> np.ndarray:
        """Dense (channels, L) transfers, zero outside each channel's cover."""
        if "filters" not in self._derived:
            self._derived["filters"] = _dense(self._length, self._covers)
            self._derived["filters"].flags.writeable = False
        return self._derived["filters"]

    @property
    def n_channels(self) -> int:
        return len(self._covers)

    @property
    def signal_length(self) -> int:
        return self._length

    def subband_lengths(self) -> list[int]:
        L = self.signal_length
        return [L // int(d) for d in self.decimations]

    def redundancy(self) -> float:
        """Coefficient count per input sample, counting conjugate mirrors."""
        mirrored = _mirrored(self)
        return float(sum(Fraction(2 if k in mirrored else 1, int(d))
                         for k, d in enumerate(self.decimations)))


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
    if idx[-1] - idx[0] + 1 == n:  # one run: what the gap scan below returns
        return (int(idx[0]), n)
    # zeros strictly between consecutive True bins, wrapping at the end
    gaps = np.empty(n, dtype=np.int64)
    gaps[:-1] = np.diff(idx) - 1
    gaps[-1] = idx[0] + L - idx[-1] - 1
    i = int(np.argmax(gaps))
    start = int(idx[(i + 1) % n])
    return (start, int(L - gaps[i]))


def _take(a: np.ndarray, start: int, n: int) -> np.ndarray:
    """a[(start + t) mod a.size] for t = 0 .. n-1."""
    return a.take(np.arange(start, start + n), mode="wrap")


def _add_at(out: np.ndarray, start: int, values: np.ndarray) -> None:
    """out[(start + t) mod L] += values[t], for at most L values."""
    head = min(values.size, out.size - start)
    out[start : start + head] += values[:head]
    out[: values.size - head] += values[head:]


def _cover_of(H: np.ndarray) -> tuple[int, np.ndarray]:
    """(start, values) of the circular cover of a dense transfer."""
    start, n = circular_cover(H != 0.0)
    return start, _take(H, start, n)


def _dense(L: int, covers) -> np.ndarray:
    """Dense (channels, L) transfers from (start, values, ...) covers."""
    out = np.zeros((len(covers), L), dtype=np.complex128)
    for row, (start, values, *_) in zip(out, covers):
        _add_at(row, start, values)
    return out


def _mirror(start: int, values: np.ndarray, L: int) -> tuple[int, np.ndarray]:
    """Cover of the mirror spectrum conj(V[(-j) mod L]) of the cover of V."""
    return (1 - start - values.size) % L, np.conj(values[::-1])


def _mirrored(fb: FilterBank) -> range:
    """Indices of the stored channels that own a conjugate mirror: every
    channel of a one-sided bank but DC and Nyquist, none of a full one."""
    return range(1, fb.n_channels - 1) if fb.one_sided else range(0)


def _expanded_covers(fb: FilterBank) -> tuple[tuple[int, np.ndarray, int], ...]:
    """(start, values, d) of every channel of the full system, kept read-only on
    the bank: the stored channels, then the mirror of every channel in :func:`_mirrored`."""
    if "expanded_covers" not in fb._derived:
        out = [(start, values, int(d)) for (start, values), d in zip(fb._covers, fb.decimations)]
        L, mirrored = fb.signal_length, [out[k] for k in _mirrored(fb)]
        out += [(*_mirror(start, values, L), d) for start, values, d in mirrored]
        for _, values, _ in out:
            values.flags.writeable = False
        fb._derived["expanded_covers"] = tuple(out)
    return fb._derived["expanded_covers"]


def _fold(values: np.ndarray, start: int, N: int) -> np.ndarray:
    """Alias fold onto N bins (N divides L) of the spectrum V that equals
    ``values`` on the circular interval from bin ``start`` and vanishes
    elsewhere: sum_s V[i + s*N].

    The interval is padded to whole rows of N bins and summed row by row, so
    a cover of at most N bins folds without adding two nonzero terms.
    """
    offset = start % N
    rows = -(-(offset + values.size) // N)
    padded = np.zeros(rows * N, dtype=np.complex128)
    padded[offset : offset + values.size] = values
    return padded.reshape(rows, N).sum(axis=0)


def _divisors(L: int) -> np.ndarray:
    """Divisors of L in ascending order, found among 1 .. isqrt(L)."""
    small = np.arange(1, math.isqrt(L) + 1, dtype=np.int64)
    small = small[L % small == 0]
    return np.union1d(small, L // small)


def _window_cover(window, half_width: float, L: int, sample_rate: float,
                  center: float, gamma: float) -> tuple[int, np.ndarray]:
    """Cover of the bins where window(offset / gamma) / sqrt(gamma) > 0,
    offset being each bin's signed circular distance (Hz) from ``center``.

    Only the bins within the window's reach of the center are evaluated.
    Distances are computed in bin units first; when the center falls exactly
    on a bin (DC and, for even L, Nyquist) the bin arithmetic is
    integer-exact, which makes those filters bit-exactly even under j -> -j.
    """
    c_bins = center * L / sample_rate
    if abs(c_bins - round(c_bins)) < 1e-9:
        c_bins = float(round(c_bins))
    reach = half_width * gamma * L / sample_rate
    first, count = 0, L
    if reach < L / 2.0 - 2.0:
        first = math.floor(c_bins - reach) - 1
        count = math.ceil(c_bins + reach) + 2 - first
    # A range inside [0, L) has |j - c_bins| <= reach + 2 < L/2, where both
    # reductions mod L are exact no-ops; wrapping and full-circle ranges need them.
    inside = count < L and 0 <= first and first + count <= L
    j = np.arange(first, first + count)
    if not inside:
        j %= L
    t = j - c_bins + L / 2.0 if inside else (j - c_bins + L / 2.0) % L
    values = window((t - L / 2.0) * (sample_rate / L) / gamma) / math.sqrt(gamma)
    start, n = circular_cover(values > 0.0)
    cover = values[start : start + n] if start + n <= count else _take(values, start, n)
    return int(j[start]), cover


def _channel_count(f_min, f_max, channels_per_unit, scale, *, sample_rate, signal_length,
                   dc_filter) -> tuple[int, bool]:
    """Check the range and density of :func:`build_audlet` and return, without
    allocating, its number of regular channels and whether a DC channel is
    prepended; a Nyquist channel is always appended."""
    if not (0.0 <= f_min < f_max <= sample_rate / 2.0):
        raise DomainError("need 0 <= f_min < f_max <= sample_rate/2")
    if not (math.isfinite(channels_per_unit) and channels_per_unit > 0):
        raise DomainError("channels_per_unit must be positive and finite")
    L = int(signal_length)
    if L < 2:
        raise DomainError("signal_length must be at least 2")
    u_span = scales.scale_value(scale, f_max) - scales.scale_value(scale, f_min)
    count = channels_per_unit * u_span  # checked before math.ceil, which rejects inf
    if count > 4 * L:
        raise DomainError(f"{count:.6g} channels exceed 4 * signal_length = {4 * L}")
    return max(1, math.ceil(count)), f_min > 0.0 and dc_filter


def _audlet_channels(f_min, f_max, channels_per_unit, scale, *, sample_rate, signal_length,
                     prototype, r_bw, r_d, dc_filter) -> tuple[list[float], list[float]]:
    """Check the arguments of :func:`build_audlet` and return the centers
    and dilations (Hz) of all its channels, DC and Nyquist included."""
    n_regular, dc = _channel_count(f_min, f_max, channels_per_unit, scale, sample_rate=sample_rate,
                                   signal_length=signal_length, dc_filter=dc_filter)
    r_bw, r_d, fs = float(r_bw), float(r_d), float(sample_rate)
    scaled = (fs + r_bw * scales.bandwidth(scale, fs / 2.0), r_d * fs * r_bw)  # widest, rate cap
    if not all(math.isfinite(r) and r > 0 for r in (r_bw, r_d, *scaled)):
        raise DomainError("r_bw and r_d must be positive and finite, and so must what they scale")
    if prototype not in PROTOTYPES:
        raise DomainError(f"unknown prototype {prototype!r}")
    centers = scales.inverse_scale(
        scale, scales.scale_value(scale, f_min) + np.arange(n_regular) / channels_per_unit
    )
    centers = np.atleast_1d(np.asarray(centers, dtype=np.float64))
    centers[0] = f_min
    gammas = r_bw * np.asarray(scales.bandwidth(scale, centers), dtype=np.float64)

    all_centers, all_gammas = list(centers), list(gammas)
    nyq = sample_rate / 2.0
    if dc:
        all_centers.insert(0, 0.0)
        all_gammas.insert(0, 2.0 * f_min + r_bw * float(scales.bandwidth(scale, f_min)))
    all_centers.append(nyq)
    all_gammas.append(2.0 * (nyq - float(centers[-1])) + float(gammas[-1]))
    return all_centers, all_gammas


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
        Channel density V per auditory unit. The derived regular channel
        count may be at most 4 * signal_length; a denser bank raises
        DomainError before anything is allocated.
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
    all_centers, all_gammas = _audlet_channels(
        f_min, f_max, channels_per_unit, scale, sample_rate=sample_rate,
        signal_length=signal_length, prototype=prototype, r_bw=r_bw, r_d=r_d, dc_filter=dc_filter,
    )
    L = int(signal_length)
    window, half_width, norm_sq = PROTOTYPES[prototype]

    n = len(all_centers)
    covers = []
    # exact equal-energy normalization to the analytic target (L/f_s)*||w||^2
    target = (L / sample_rate) * norm_sq
    for k in range(n):
        start, vals = _window_cover(
            window, half_width, L, sample_rate, all_centers[k], all_gammas[k]
        )
        if vals.size == 0:
            raise UnsupportedConfigError(
                f"channel {k} (center {all_centers[k]:.6g} Hz) has no nonzero bins; "
                "increase signal_length or r_bw"
            )
        gain = math.sqrt(target / float(np.sum(vals**2)))
        covers.append((start, np.multiply(vals, gain, out=np.empty(vals.size, np.complex128))))

    sizes = np.array([values.size for _, values in covers])
    cap_rate = np.floor(r_d * sample_rate * r_bw / np.asarray(all_gammas))
    cap = np.maximum(1, np.minimum(L // sizes, cap_rate))
    divisors = _divisors(L)
    decimations = divisors[np.searchsorted(divisors, cap, side="right") - 1]

    return FilterBank(
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
        _length=L,
        _covers=covers,
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


def _as_signal(x) -> np.ndarray:
    """x as a non-empty 1-D array of finite samples."""
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ShapeError("expected a non-empty 1-D sample array")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")
    return x


def _check_coefficients(fb: FilterBank, coefficients, dtype=np.complex128) -> list[np.ndarray]:
    """One array of the bank's subband length per channel, converted to
    ``dtype`` (``None`` keeps each array's own, as for mask weights)."""
    if len(coefficients) != fb.n_channels:
        raise ShapeError(
            f"expected {fb.n_channels} coefficient channels, got {len(coefficients)}"
        )
    out = []
    for k, (c, n) in enumerate(zip(coefficients, fb.subband_lengths())):
        c = np.asarray(c, dtype=dtype)
        if c.shape != (n,):
            raise ShapeError(f"channel {k} must hold {n} coefficients, got {c.shape}")
        out.append(c)
    return out


def analyze(fb: FilterBank, x) -> list[np.ndarray]:
    """Subband coefficients y_k = downsample(idft(dft(x) * H_k), d_k).

    The downsampled spectrum is formed by alias-folding X * H_k, which is the
    same map computed with length-L/d_k inverse transforms.
    """
    x = _as_signal(x)
    if x.shape[0] != fb.signal_length:
        raise ShapeError(f"signal must have length {fb.signal_length}")
    X = np.fft.fft(x)
    L = fb.signal_length
    out = []
    for (start, values), d in zip(fb._covers, fb.decimations):
        d = int(d)
        spectrum = _take(X, start, values.size) * values
        out.append(np.fft.ifft(_fold(spectrum, start, L // d) / d))
    return out


def synthesize(fb: FilterBank, coefficients) -> np.ndarray:
    """Signal sum_k idft(dft(upsample(c_k, d_k)) * G_k), G_k the stored filters.

    For one-sided banks the conjugate mirror channels are completed as well:
    the DC and Nyquist terms enter once and every mid channel enters as
    u_k + conj(u_k). That completion reconstructs real signals exactly and is
    linear over real scalars (full-layout banks are complex-linear).
    """
    return np.fft.ifft(_synthesis_spectrum(fb, coefficients))


def _synthesis_spectrum(fb: FilterBank, coefficients) -> np.ndarray:
    """The spectrum of :func:`synthesize`'s signal, before the inverse DFT."""
    coefficients = _check_coefficients(fb, coefficients)
    L = fb.signal_length
    total = np.zeros(L, dtype=np.complex128)
    mirrored = _mirrored(fb)
    for k, (c, (start, values)) in enumerate(zip(coefficients, fb._covers)):
        term = _take(np.fft.fft(c), start, values.size) * values
        _add_at(total, start, term)
        if k in mirrored:
            _add_at(total, *_mirror(start, term, L))
    return total


def adjoint_bank(fb: FilterBank) -> FilterBank:
    """Bank with filters conj(H_k): synthesizing analysis coefficients with it
    applies the frame operator (on real signals for one-sided banks)."""
    return replace(fb, _covers=[(start, np.conj(values)) for start, values in fb._covers])


def expanded_filters(fb: FilterBank) -> tuple[np.ndarray, np.ndarray]:
    """The full channel system (filters, decimations) the bank realizes.

    Full-layout banks return their channels unchanged. One-sided banks append
    the conjugate mirror of every mid channel: H'[j] = conj(H[(-j) mod L]).
    The filters come back as a new dense (channels, L) array.
    """
    covers = _expanded_covers(fb)
    decimations = np.array([d for *_, d in covers], dtype=np.int64)
    return _dense(fb.signal_length, covers), decimations


def frequency_response(fb: FilterBank) -> np.ndarray:
    """Diagonal term H0[j] = sum_k |H_k[j]|^2 / d_k over the full system."""
    response, mirrored = np.zeros(fb.signal_length), _mirrored(fb)
    mirrors = []  # added after the stored channels, as in the full system
    for k, ((start, values), d) in enumerate(zip(fb._covers, fb.decimations)):
        energy = (values.real**2 + values.imag**2) / int(d)
        _add_at(response, start, energy)
        if k in mirrored:  # its channel's energy, reversed
            mirrors.append(_mirror(start, energy, response.size))
    for start, energy in mirrors:
        _add_at(response, start, energy)
    return response


def parseval_normalize(fb: FilterBank) -> FilterBank:
    """Divide all filters by sqrt of the bank's frequency response.

    For painless banks the result is an exact Parseval system (frame bounds
    (1, 1)); for non-painless banks it only flattens the diagonal term. H0
    is summed per bin as in :func:`frequency_response`, in O(total support).
    """
    covers, L = _expanded_covers(fb), fb.signal_length
    bins = np.concatenate([np.arange(start, start + v.size) for start, v, _ in covers]) % L
    # each value's index among the covered bins, or among all L when they are as many
    where = bins if bins.size >= L else np.unique(bins, return_inverse=True)[1]
    energy = np.concatenate([(values.real**2 + values.imag**2) / d for _, values, d in covers])
    response = np.bincount(where, weights=energy)
    scale = np.where(response > 0.0, 1.0 / np.sqrt(np.where(response > 0.0, response, 1.0)), 0.0)
    config = replace(fb.config, parseval=True) if fb.config is not None else None
    ends = np.cumsum([values.size for _, values in fb._covers]).tolist()
    covers = [(start, values * scale[where[end - values.size : end]])
              for (start, values), end in zip(fb._covers, ends)]
    return replace(fb, config=config, _covers=covers)
