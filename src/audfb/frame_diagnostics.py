"""Frame-theoretic diagnostics for filter banks.

With D = lcm(d_k) the frame operator S of a bank acts on spectra as a banded
matrix in the DFT domain:

    (S x)^[j] = sum_{r=0}^{D-1} Hr[j] * X[(j - r*L/D) mod L]

where H0 (the frequency response) collects the diagonal and the Hr for r >= 1
(the alias components) collect everything off it. This module computes those
terms once per bank, over the r that occur, and keeps them on the bank (H0
comes from :mod:`audfb.filterbank` and is re-exported here). The bounds,
:func:`walnut_apply` and :func:`alias_components` all read them. The
connected components of the links j ~ j - r*L/D (polyphase blocks of the
equivalent uniform bank, split further) are small Hermitian blocks of S,
written by one function: the exact bounds are their extreme eigenvalues,
and their inverses, kept on the bank, precondition CG. It also
classifies banks (painless, diagonally dominant), measures the
perfect-reconstruction residual of an analysis/synthesis pair from the same
kind of terms, and rewrites a non-uniform bank as an equivalent uniform one.

One-sided banks are handled through their full channel system (stored plus
mirror channels), so every statement below is about the complex-linear frame
operator that :func:`walnut_apply` realizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import finite_frames
from .dsp_core import _as_signal
from .errors import DomainError, NotAFrameError, ShapeError, UnsupportedConfigError
from .filterbank import FilterBank, _add_at, _expanded_covers, frequency_response

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

# Largest block of S, in bins, and the most entries of all its blocks
# together, per bin, that _component_blocks writes under its budget.
_COMPONENT_BUDGET = 128
_ENTRY_BUDGET = 32

# dense-eigen lifts that budget up to this signal length (the blocks hold at
# most L*D <= L^2 entries) and refuses over-budget banks above it.
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


def _walnut_terms(left, right, L: int) -> dict[int, np.ndarray]:
    """Alias-domain terms {r: T_r} of two channel systems, in ascending r.

    ``left`` and ``right`` are (start, values, d) covers of G_k and H_k with
    equal decimations. With D = lcm(d_k) and q_k = D/d_k,

        T_r[j] = sum_{k: q_k | r} G_k[j] * H_k[(j - r*L/D) mod L] / d_k.

    Each product is summed only over the circular runs of bins where the
    cover of G_k meets the cover of H_k shifted by i*L/d_k (r = i*q_k), so
    T_0 is always present and T_r for r >= 1 only where such runs exist.
    """
    D = _lcm_decimation(d for *_, d in right)
    terms = {0: np.zeros(L, dtype=np.complex128)}
    for (start_g, vg, _), (start_h, vh, d) in zip(left, right):
        ng, nh = vg.size, vh.size
        # where G's cover starts inside the shifted cover of H
        offsets = (start_g - start_h - (L // d) * np.arange(d)) % L
        for i in np.flatnonzero((offsets < nh) | (offsets > L - ng)).tolist():
            e, r = int(offsets[i]), i * (D // d)
            if r not in terms:
                terms[r] = np.zeros(L, dtype=np.complex128)
            if e < nh:
                n = min(ng, nh - e)
                _add_at(terms[r], start_g, vg[:n] * vh[e : e + n] / d)
            if L - e < ng:
                n = min(ng - (L - e), nh)
                _add_at(terms[r], (start_g + L - e) % L, vg[L - e : L - e + n] * vh[:n] / d)
    return dict(sorted(terms.items()))


def _frame_terms(fb: FilterBank) -> dict[int, np.ndarray]:
    """Walnut terms {r: H_r} of the bank's frame operator, H_0 being
    :func:`frequency_response`. Computed on first use and kept read-only on
    the bank; ``dataclasses.replace`` makes a new bank with none. A painless
    bank has no shifted overlaps, so only H_0 is computed for it."""
    if fb._walnut is None:
        terms = {0: None}
        if not painless_check(fb):
            covers = _expanded_covers(fb)
            adjoint = [(start, np.conj(values), d) for start, values, d in covers]
            terms = _walnut_terms(adjoint, covers, fb.signal_length)
        terms[0] = frequency_response(fb)
        for H in terms.values():
            H.flags.writeable = False
        fb._walnut = terms
    return fb._walnut


def _component_blocks(fb: FilterBank, budget: bool):
    """Blocks of S in the DFT domain: the terms link bin j with bin j - r*L/D
    where H_r[j] != 0, and each connected component is a Hermitian block of
    S. Returns one (bins, S) pair per block size, ascending, with S a view
    of one flat array, and the largest row sum of |S| (a bound on its
    spectrum). With ``budget`` it returns None when the largest component
    exceeds ``_COMPONENT_BUDGET`` bins or all blocks together exceed
    ``_ENTRY_BUDGET * L`` entries, which the nonzero terms alone may show
    before any link is listed."""
    terms, L = _frame_terms(fb), fb.signal_length
    if budget and L + sum(np.count_nonzero(H) for r, H in terms.items() if r) > _ENTRY_BUDGET * L:
        return None
    hop = L // _lcm_decimation(fb.decimations)
    rows = [np.flatnonzero(H) if r else np.arange(L) for r, H in terms.items()]
    cols = np.concatenate([(j - r * hop) % L for r, j in zip(terms, rows)])
    values = np.concatenate([H[j] for H, j in zip(terms.values(), rows)])
    rows = np.concatenate(rows)
    # min-label propagation with pointer jumping over the links (entries past
    # the L diagonal ones) labels each bin with the first bin of its component
    labels, previous = np.arange(L), None
    while not np.array_equal(labels, previous):
        previous = labels.copy()
        np.minimum.at(labels, rows[L:], labels[cols[L:]])
        np.minimum.at(labels, cols[L:], labels[rows[L:]])
        labels = labels[labels]
    size = np.bincount(labels, minlength=L)[labels]
    # size.sum() is the number of entries of all blocks together
    if budget and (size.max() > _COMPONENT_BUDGET or size.sum() > _ENTRY_BUDGET * L):
        return None
    # Bins in order of block size, then block. The blocks lie row-major in
    # one flat array in that order, so a block starts after as many entries
    # as the sizes of the bins before it add up to.
    order = np.lexsort((labels, size))
    n = size[order]
    before = np.cumsum(n) - n
    head = np.flatnonzero(np.diff(labels[order], prepend=-1))  # of each block
    start = np.repeat(head, np.diff(head, append=L))
    place, base = np.empty(L, dtype=np.int64), np.empty(L, dtype=np.int64)
    place[order], base[order] = np.arange(L) - start, before[start]
    flat = np.zeros(int(size.sum()), dtype=np.complex128)
    flat[base[rows] + place[rows] * size[rows] + place[cols]] = values
    cuts = np.flatnonzero(np.diff(n)) + 1  # where the block size changes
    groups = zip(np.split(order, cuts), np.split(flat, before[cuts]), n[np.r_[0, cuts]].tolist())
    blocks = [(bins.reshape(-1, k), S.reshape(-1, k, k)) for bins, S, k in groups]
    return blocks, np.bincount(rows, np.abs(values)).max()


def _component_inverse(fb: FilterBank) -> tuple:
    """S^-1 in the DFT domain as read-only (bins, inverse) pairs: the blocks
    of :func:`_component_blocks`, inverted in place by one batched ``inv``
    per size and kept on the bank, so it pays off over repeated solves.
    Empty when the bank is painless or its blocks are over the budgets.
    Raises NotAFrameError when a block is not clearly positive definite:
    S - floor*I has no Cholesky factor, floor being n*eps times the bound
    on the spectrum, so S has an eigenvalue within rounding of 0."""
    if fb._inverse is None:
        found = _component_blocks(fb, budget=True) if len(_frame_terms(fb)) > 1 else None
        blocks, bound = found or ((), 0.0)
        floor = (blocks[-1][0].shape[1] if blocks else 0) * np.finfo(float).eps * bound
        for bins, S in blocks:
            try:
                np.linalg.cholesky(S - floor * np.eye(bins.shape[1]))
            except np.linalg.LinAlgError:
                raise NotAFrameError("frame operator singular to rounding: not a frame") from None
            S[...] = np.linalg.inv(S)  # in place: the blocks share one array
            bins.flags.writeable = S.flags.writeable = False
        fb._inverse = tuple(blocks)
    return fb._inverse


def alias_components(fb: FilterBank) -> np.ndarray:
    """Off-diagonal terms Hr for r = 1 .. D-1, D = lcm(d_k), as an array
    of shape (D-1, L).

    Channel k contributes conj(H_k[j]) * H_k[(j - r*L/D) mod L] / d_k exactly
    at the r that are multiples of q_k = D/d_k. The values are complex; for
    painless banks every entry is exactly zero (supports of the shifted
    copies are disjoint).
    """
    out = np.zeros((_lcm_decimation(fb.decimations) - 1, fb.signal_length), dtype=np.complex128)
    for r, H in _frame_terms(fb).items():
        if r:
            out[r - 1] = H
    return out


def painless_check(fb: FilterBank) -> bool:
    """True when every channel's support fits one circular interval of at
    most L/d_k bins, which makes the frame operator a spectral multiplier."""
    L = fb.signal_length
    return all(values.size <= L // int(d) for (_, values), d in zip(fb._covers, fb.decimations))


def estimate_bounds(fb: FilterBank, method: str = "auto") -> FrameReport:
    """Estimate frame bounds and assemble a :class:`FrameReport`.

    Parameters
    ----------
    fb : FilterBank
    method : str
        ``painless-exact`` (optimal bounds min/max H0, requires a painless
        bank), ``diag-dominance`` (Gershgorin-style bracket from H0 and the
        alias norms sum_{r>=1} |Hr|, lower bound clamped at zero),
        ``dense-eigen`` (exact extreme eigenvalues of the frame operator,
        taken over the Hermitian blocks of its connected components with
        one ``eigvalsh`` per block size; refused when the blocks are over
        budget and L > DENSE_EIGEN_MAX_LENGTH), or ``auto`` to pick
        painless-exact when the bank is painless and diag-dominance
        otherwise. Every method reads the Walnut terms cached on the bank.

    Raises
    ------
    DomainError
        Unknown method name.
    UnsupportedConfigError
        painless-exact on a non-painless bank, or dense-eigen on blocks
        over budget beyond the length ceiling.
    """
    painless = painless_check(fb)
    if method == "auto":
        method = "painless-exact" if painless else "diag-dominance"
    if method not in _METHODS:
        raise DomainError(f"unknown bound method {method!r}")

    L = fb.signal_length
    if method == "painless-exact" and not painless:
        raise UnsupportedConfigError("painless-exact bounds need a painless bank")
    terms = _frame_terms(fb)
    response = terms[0]
    # summed in ascending r; a painless bank has no r >= 1 and gets zeros
    alias_norms = sum((np.abs(H) for r, H in terms.items() if r), np.zeros(L))
    if method == "painless-exact":
        bounds = finite_frames.Bounds(float(response.min()), float(response.max()))
    elif method == "diag-dominance":
        lower = max(0.0, float((response - alias_norms).min()))
        upper = float((response + alias_norms).max())
        bounds = finite_frames.Bounds(lower, upper)
    else:
        found = _component_blocks(fb, budget=L > DENSE_EIGEN_MAX_LENGTH)
        if found is None:
            raise UnsupportedConfigError(
                f"dense-eigen over the block budget needs L <= {DENSE_EIGEN_MAX_LENGTH}, got {L}"
            )
        bounds = finite_frames._operator_bounds(*(S for _, S in found[0]))
    return FrameReport(
        frequency_response=response,
        alias_norms=alias_norms,
        painless=painless,
        bounds=bounds,
        method=method,
    )


def walnut_apply(fb: FilterBank, x) -> np.ndarray:
    """Apply the frame operator S to x directly in the spectral domain.

    Sums the bank's Walnut terms against shifted copies of the spectrum,

        (S x)^[j] = sum_r Hr[j] * X[(j - r*L/D) mod L],

    over the r that occur, in ascending order. A painless bank has only
    r = 0, so S multiplies the spectrum by the frequency response. The terms
    are computed on the first call and cached on the bank. This is an
    independent route to S; it never runs the analysis/synthesis pipeline.
    """
    x = _as_signal(x)
    L = fb.signal_length
    if x.shape[0] != L:
        raise ShapeError(f"signal length {x.shape[0]} does not match bank length {L}")
    X = np.fft.fft(x)
    hop = L // _lcm_decimation(fb.decimations)
    XX = np.concatenate([X, X])  # X[(j - s) mod L] over j is XX[L - s : 2L - s]
    terms = _frame_terms(fb).items()
    return np.fft.ifft(sum(H * XX[L - r * hop : 2 * L - r * hop] for r, H in terms))


def pr_residual(fb_ana: FilterBank, fb_syn: FilterBank) -> PRResidual:
    """Perfect-reconstruction residual of an analysis/synthesis bank pair.

    Evaluates the composed alias-domain transfer on every DFT bin: with
    T_r[j] = sum_{k: q_k | r} G_k[j] * H_k[(j - r*L/D) mod L] / d_k,
    reconstruction equals a delay by l exactly when T_0[j] = e^(-2*pi*i*j*l/L)
    and T_r vanishes for r >= 1. The delay l = 0 .. L-1 with the smallest
    worst entry-wise error wins, the smallest l on a tie; the reported
    deviation is that error (so a zero synthesis bank scores 1).

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
    terms = _walnut_terms(_expanded_covers(fb_syn), _expanded_covers(fb_ana), L)
    T0 = terms.pop(0)
    rest = max((float(np.abs(T).max()) for T in terms.values()), default=0.0)

    # Best delay: minimize max_j |T0[j] e^(2*pi*i*j*l/L) - 1| over l. That
    # maximum is at least the RMS over j, and one inverse DFT gives the mean
    # square for every l. Delays are visited in ascending mean square until
    # none left can beat the best or tie it at a smaller l.
    mean_square = np.mean(T0.real**2 + T0.imag**2) + 1.0 - 2.0 * np.fft.ifft(T0).real
    j = np.arange(L)
    roots = np.exp(2j * np.pi * j / L)
    best_dev, best_delay = math.inf, 0
    for delay in np.argsort(mean_square, kind="stable").tolist():
        if (mean_square[delay], delay) > (best_dev**2, best_delay):
            break
        dev = float(np.abs(T0 * roots[(j * delay) % L] - 1.0).max())
        if (dev, delay) < (best_dev, best_delay):
            best_dev, best_delay = dev, delay
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
