"""Frame-theoretic diagnostics for filter banks.

With D = lcm(d_k) the frame operator S of a bank acts on spectra as a banded
matrix in the DFT domain:

    (S x)^[j] = sum_{r=0}^{D-1} Hr[j] * X[(j - r*L/D) mod L]

where H0 (the frequency response) collects the diagonal and the Hr for r >= 1
(the alias components) collect everything off it. This module computes those
terms (H0 comes from :mod:`audfb.filterbank` and is re-exported here),
classifies banks (painless, diagonally dominant), estimates frame bounds
three ways, applies S directly in the spectral domain, measures the
perfect-reconstruction residual of an analysis/synthesis pair, and rewrites a
non-uniform bank as an equivalent uniform one.

One-sided banks are handled through their full channel system (stored plus
mirror channels), so every statement below is about the complex-linear frame
operator that :func:`walnut_apply` realizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import finite_frames
from .dsp_core import _as_signal
from .errors import DomainError, ShapeError, UnsupportedConfigError
from .filterbank import (
    FilterBank,
    _add_at,
    _expanded_covers,
    _fold,
    _take,
    expanded_filters,
    frequency_response,
)

__all__ = [
    "DENSE_EIGEN_MAX_LENGTH",
    "FrameReport",
    "PRResidual",
    "frequency_response",
    "alias_components",
    "painless_check",
    "estimate_bounds",
    "walnut_apply",
    "pr_residual",
    "equivalent_uniform",
]

# Dense bound estimation assembles all L/d_k atoms per channel and calls an
# O(L^3) eigensolver; refuse above this signal length.
DENSE_EIGEN_MAX_LENGTH = 1024

_METHODS = ("painless-exact", "diag-dominance", "dense-eigen")


@dataclass(frozen=True)
class FrameReport:
    """Summary of the frame properties of one filter bank.

    Attributes
    ----------
    frequency_response : ndarray
        The diagonal term H0 over the L bins, always non-negative.
    alias_norms : ndarray
        sum_{r>=1} |Hr| per bin; identically zero for painless banks.
    painless : bool
        Result of :func:`painless_check`.
    bounds : Bounds
        Estimated frame bounds (A, B). Exact for the painless and dense
        methods, a valid but possibly loose bracket for diag-dominance.
    method : str
        One of ``painless-exact``, ``diag-dominance``, ``dense-eigen``.
    """

    frequency_response: np.ndarray
    alias_norms: np.ndarray
    painless: bool
    bounds: finite_frames.Bounds
    method: str

    def condition_number(self) -> float:
        """B/A, infinite when the lower bound is not positive."""
        if self.bounds.lower <= 0.0:
            return math.inf
        return self.bounds.upper / self.bounds.lower

    def summary(self) -> str:
        """Line-oriented text rendering, one ``name: value`` pair per line."""
        return "\n".join(
            [
                f"painless: {'yes' if self.painless else 'no'}",
                f"method: {self.method}",
                "lower frame bound A: %.17g" % self.bounds.lower,
                "upper frame bound B: %.17g" % self.bounds.upper,
                "condition number B/A: %.17g" % self.condition_number(),
            ]
        )


@dataclass(frozen=True)
class PRResidual:
    """Deviation of an analysis/synthesis pair from perfect reconstruction.

    ``delay`` is the reconstruction delay l (in samples) that fits best;
    ``max_deviation`` is the largest entry-wise departure of the composed
    alias-domain transfer from a pure delay, normalized so that a zero
    synthesis bank scores exactly 1.
    """

    delay: int
    max_deviation: float


def _lcm_decimation(decimations) -> int:
    return math.lcm(*(int(d) for d in decimations))


def alias_components(fb: FilterBank) -> np.ndarray:
    """Off-diagonal terms Hr for r = 1 .. D-1, D = lcm(d_k), as an array
    of shape (D-1, L).

    Channel k contributes conj(H_k[j]) * H_k[(j - r*L/D) mod L] / d_k exactly
    at the r that are multiples of q_k = D/d_k. The values are complex; for
    painless banks every entry is exactly zero (supports of the shifted
    copies are disjoint).
    """
    covers = _expanded_covers(fb)
    L = fb.signal_length
    D = _lcm_decimation(d for *_, d in covers)
    out = np.zeros((D - 1, L), dtype=np.complex128)
    for start, values, d in covers:
        for i, at, product in _shifted_products((start, np.conj(values)), (start, values), d, L):
            if i:
                _add_at(out[i * (D // d) - 1], at, product / d)
    return out


def _shifted_products(a, b, d: int, L: int):
    """Nonzero runs of A[j] * B[(j - i*L/d) mod L] over the shifts i = 0 .. d-1.

    ``a`` and ``b`` are covers (start, values) of A and B. Yields
    (i, start, product) for every circular run of bins where the cover of A
    meets the cover of B shifted by i*L/d; shifts where they do not meet
    are skipped.
    """
    (start_a, va), (start_b, vb) = a, b
    na, nb = va.size, vb.size
    # where A's cover starts inside the shifted cover of B
    offsets = (start_a - start_b - (L // d) * np.arange(d)) % L
    for i in np.flatnonzero((offsets < nb) | (offsets > L - na)).tolist():
        e = int(offsets[i])
        if e < nb:
            n = min(na, nb - e)
            yield i, start_a, va[:n] * vb[e : e + n]
        if L - e < na:
            n = min(na - (L - e), nb)
            yield i, (start_a + L - e) % L, va[L - e : L - e + n] * vb[:n]


def painless_check(fb: FilterBank) -> bool:
    """True when every channel's support fits one circular interval of at
    most L/d_k bins, which makes the frame operator a spectral multiplier."""
    L = fb.signal_length
    return all(values.size <= L // int(d) for (_, values), d in zip(fb._covers, fb.decimations))


def _atom_frame(fb: FilterBank) -> finite_frames.FiniteFrame:
    """The bank's full atom system as a finite frame: channel k and time n
    give the vector m -> conj(h_k[(n*d_k - m) mod L])."""
    filters, decs = expanded_filters(fb)
    L = fb.signal_length
    rows = []
    for H, d in zip(filters, decs):
        d = int(d)
        base = np.roll(np.conj(np.fft.ifft(H))[::-1], 1)
        for n in range(L // d):
            rows.append(np.roll(base, n * d))
    return finite_frames.FiniteFrame(np.array(rows))


def estimate_bounds(fb: FilterBank, method: str = "auto") -> FrameReport:
    """Estimate frame bounds and assemble a :class:`FrameReport`.

    Parameters
    ----------
    fb : FilterBank
    method : str
        ``painless-exact`` (optimal bounds min/max H0, requires a painless
        bank), ``diag-dominance`` (Gershgorin-style bracket from H0 and the
        alias norms, lower bound clamped at zero), ``dense-eigen`` (exact
        extreme eigenvalues of the assembled frame operator, refused for
        L > DENSE_EIGEN_MAX_LENGTH), or ``auto`` to pick painless-exact when
        the bank is painless and diag-dominance otherwise.

    Raises
    ------
    DomainError
        Unknown method name.
    UnsupportedConfigError
        painless-exact on a non-painless bank, or dense-eigen beyond the
        length ceiling.
    """
    painless = painless_check(fb)
    if method == "auto":
        method = "painless-exact" if painless else "diag-dominance"
    if method not in _METHODS:
        raise DomainError(f"unknown bound method {method!r}")

    L = fb.signal_length
    response = frequency_response(fb)
    if method == "painless-exact":
        if not painless:
            raise UnsupportedConfigError("painless-exact bounds need a painless bank")
        alias_norms = np.zeros(L)
        bounds = finite_frames.Bounds(float(response.min()), float(response.max()))
    else:
        if method == "dense-eigen" and L > DENSE_EIGEN_MAX_LENGTH:
            raise UnsupportedConfigError(
                f"dense-eigen bounds are limited to L <= {DENSE_EIGEN_MAX_LENGTH}, got {L}"
            )
        alias_norms = np.abs(alias_components(fb)).sum(axis=0)
        if method == "diag-dominance":
            lower = max(0.0, float((response - alias_norms).min()))
            upper = float((response + alias_norms).max())
            bounds = finite_frames.Bounds(lower, upper)
        else:
            bounds = finite_frames.frame_bounds(_atom_frame(fb))
    return FrameReport(
        frequency_response=response,
        alias_norms=alias_norms,
        painless=painless,
        bounds=bounds,
        method=method,
    )


def walnut_apply(fb: FilterBank, x) -> np.ndarray:
    """Apply the frame operator S to x directly in the spectral domain.

    For painless banks S is multiplication of the spectrum by the frequency
    response. Otherwise the banded form is summed per channel:

        (S x)^[j] = sum_k conj(H_k[j]) / d_k
                    * sum_{s=0}^{d_k - 1} (H_k * X)[(j - s*L/d_k) mod L]

    Either way this is an independent route to S; it never runs the
    analysis/synthesis pipeline.
    """
    x = _as_signal(x)
    L = fb.signal_length
    if x.shape[0] != L:
        raise ShapeError(f"signal length {x.shape[0]} does not match bank length {L}")
    X = np.fft.fft(x)
    if painless_check(fb):
        return np.fft.ifft(frequency_response(fb) * X)
    out = np.zeros(L, dtype=np.complex128)
    for start, values, d in _expanded_covers(fb):
        folded = _fold(_take(X, start, values.size) * values, start, L // d)
        _add_at(out, start, np.conj(values) * _take(folded, start, values.size) / d)
    return np.fft.ifft(out)


def pr_residual(fb_ana: FilterBank, fb_syn: FilterBank) -> PRResidual:
    """Perfect-reconstruction residual of an analysis/synthesis bank pair.

    Evaluates the composed alias-domain transfer on every DFT bin: with
    T_r[j] = sum_{k: q_k | r} G_k[j] * H_k[(j - r*L/D) mod L] / d_k,
    reconstruction equals a delay by l exactly when T_0[j] = e^(-2*pi*i*j*l/L)
    and T_r vanishes for r >= 1. The delay is found by exhaustive search over
    l = 0 .. L-1; the reported deviation is the worst entry-wise error at the
    best l (so a zero synthesis bank scores 1).

    Raises
    ------
    ShapeError
        Mismatched length, layout, channel count, or decimations.
    """
    if fb_ana.signal_length != fb_syn.signal_length:
        raise ShapeError("analysis and synthesis banks have different signal lengths")
    if fb_ana.one_sided != fb_syn.one_sided:
        raise ShapeError("analysis and synthesis banks have different layouts")
    if fb_ana.n_channels != fb_syn.n_channels:
        raise ShapeError("analysis and synthesis banks have different channel counts")
    if np.any(fb_ana.decimations != fb_syn.decimations):
        raise ShapeError("analysis and synthesis banks have different decimations")

    L = fb_ana.signal_length
    analysis = _expanded_covers(fb_ana)
    D = _lcm_decimation(d for *_, d in analysis)
    terms = {}
    for (start_h, vh, d), (start_g, vg, _) in zip(analysis, _expanded_covers(fb_syn)):
        for i, at, product in _shifted_products((start_g, vg), (start_h, vh), d, L):
            r = i * (D // d)
            if r not in terms:
                terms[r] = np.zeros(L, dtype=np.complex128)
            _add_at(terms[r], at, product / d)
    T0 = terms.pop(0, np.zeros(L, dtype=np.complex128))
    rest = max((float(np.abs(T).max()) for T in terms.values()), default=0.0)

    # Best delay: minimize max_j |T0[j] e^(2*pi*i*j*l/L) - 1| over l. The
    # ramp advances by one multiplication per candidate and is recomputed
    # exactly every 128 steps to keep rounding drift out of the result.
    j = np.arange(L)
    base = np.exp(2j * np.pi * j / L)
    ramp = np.ones(L, dtype=np.complex128)
    best_delay = 0
    best_dev = math.inf
    for delay in range(L):
        if delay % 128 == 0:
            ramp = np.exp(2j * np.pi * ((j * delay) % L) / L)
        dev = float(np.abs(T0 * ramp - 1.0).max())
        if dev < best_dev:
            best_delay, best_dev = delay, dev
        ramp = ramp * base
    return PRResidual(delay=best_delay, max_deviation=max(best_dev, rest))


def equivalent_uniform(fb: FilterBank) -> FilterBank:
    """Rewrite the bank as a uniform one with decimation D = lcm(d_k).

    Channel k splits into q_k = D/d_k channels whose transfers are
    H_k[j] * e^(-2*pi*i*j*l*d_k/L) for l = 0 .. q_k-1 (a delay by l*d_k
    samples), all decimated by D. The union of atoms is unchanged, so the
    frame operator of the result equals the original's exactly. One-sided
    banks are materialized into their full channel system first; the result
    is always full-layout.

    Raises
    ------
    UnsupportedConfigError
        D exceeds the signal length.
    """
    covers = _expanded_covers(fb)
    L = fb.signal_length
    D = _lcm_decimation(d for *_, d in covers)
    if D > L:
        raise UnsupportedConfigError(f"common decimation {D} exceeds signal length {L}")
    rows = []
    for start, values, d in covers:
        j = (start + np.arange(values.size)) % L
        for shift in range(0, D, d):
            rows.append((start, values * np.exp(-2j * np.pi * ((j * shift) % L) / L)))
    return FilterBank(
        decimations=np.full(len(rows), D, dtype=np.int64),
        sample_rate=fb.sample_rate,
        one_sided=False,
        _length=L,
        _covers=rows,
    )
