"""Frame-theoretic diagnostics for filter banks.

The frame operator S of a bank acts on spectra as a sum of shifted copies in
the DFT domain (the Walnut representation):

    (S x)^[j] = sum_s H_s[j] * X[(j - s) mod L]

over the bin shifts s = i*L/d_k, where H_0 (the frequency response) collects
the diagonal and the H_s for s >= 1 (the alias components) collect everything
off it. This module computes the terms once per bank and keeps on it H_0 on
all L bins and the nonzero entries of each H_s that occurs, which follow the
filters' support: 6.5 MiB for the doubled ERB V=6 bank at 44.1 kHz, L=131072,
against 33 MiB as dense arrays. The bounds, :func:`walnut_apply` and
:func:`alias_components` all read them. The connected components of the links
j ~ j - s (polyphase blocks of the equivalent uniform bank, split further) are
small Hermitian blocks of S, written by one function: the exact bounds are
their extreme eigenvalues, and their inverses, kept on the bank, precondition
CG. It also classifies banks (painless, diagonally dominant), measures the
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
from .errors import DomainError, NotAFrameError, ShapeError, UnsupportedConfigError
from .filterbank import FilterBank, _add_at, _as_signal, _expanded_covers, frequency_response

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
        sum_{s>=1} |H_s| over bin shifts s; identically zero for painless banks.
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


def _walnut_terms(left, right, L: int, diagonal: bool = True) -> list:
    """Alias-domain terms of two channel systems as (s, rows, T_s[rows]) by
    ascending bin shift s: T_0 on all L bins if ``diagonal``, the others where
    nonzero. ``left`` and ``right`` are (start, values, d) covers of G_k and
    H_k with equal decimations. Channel k adds G_k[j]*H_k[(j - s) mod L]/d_k to
    T_s at s = i*L/d_k: with G_k's cover at [a, a + |G_k|) and H_k's at b, each
    placement c = b + s (mod L) in (a - |H_k|, a + |G_k|), stepping by L/d_k,
    adds one run [max(a, c), min(a + |G_k|, c + |H_k|)), and a shift s >= 1 is
    listed where it has such a c, even with no nonzero entry. The runs are
    summed shift by shift into one scratch array, cleared at its rows: doubled
    ERB V=6 at 44.1 kHz peaks at 28 MiB."""
    runs: dict[int, list] = {0: []}  # s -> views (start, G run, H run, d), channel order
    for (a, vg, _), (b, vh, d) in zip(left, right):
        low, step = a - vh.size + 1, L // d
        for c in range(low + (b - low) % step, a + vg.size, step):
            lo, hi = max(a, c), min(a + vg.size, c + vh.size)
            run = (lo % L, vg[lo - a : hi - a], vh[lo - c : hi - c], d)
            runs.setdefault((c - b) % L, []).append(run)
    scratch, entries = np.zeros(L, dtype=np.complex128), []
    for s in sorted(runs)[0 if diagonal else 1 :]:
        for start, g, h, d in runs[s]:
            _add_at(scratch, start, g * h / d)
        rows = np.flatnonzero(scratch) if s else np.arange(L)
        entries.append((s, rows, scratch[rows]))
        scratch[rows] = 0.0  # every other bin summed to zero
    return entries


def _frame_terms(fb: FilterBank) -> tuple[np.ndarray, tuple]:
    """Walnut terms (H_0, entries) of the bank's frame operator, H_0 being
    :func:`frequency_response` and the entries those of :func:`_walnut_terms`.
    Computed on first use and kept read-only on the bank; ``dataclasses.replace``
    makes a new bank with none. A painless bank has no entries."""
    if "walnut_terms" not in fb._derived:
        entries = []
        if not painless_check(fb):
            covers = _expanded_covers(fb)
            adjoint = [(start, np.conj(values), d) for start, values, d in covers]
            entries = _walnut_terms(adjoint, covers, fb.signal_length, diagonal=False)
        H0 = frequency_response(fb)
        for array in (H0, *(a for _, rows, values in entries for a in (rows, values))):
            array.flags.writeable = False
        fb._derived["walnut_terms"] = H0, tuple(entries)
    return fb._derived["walnut_terms"]


def _component_blocks(fb: FilterBank, budget: bool):
    """Blocks of S in the DFT domain: the terms link bin j with bin j - s
    where H_s[j] != 0, and each connected component is a Hermitian block of
    S. Returns one (bins, S) pair per block size, ascending, with S a view
    of one flat array, and the largest row sum of |S| (a bound on its
    spectrum). With ``budget`` it returns None when the largest component
    exceeds ``_COMPONENT_BUDGET`` bins or all blocks together exceed
    ``_ENTRY_BUDGET * L`` entries, which the entry count alone may show
    before any link is listed."""
    (H0, entries), L = _frame_terms(fb), fb.signal_length
    if budget and L + sum(rows.size for _, rows, _ in entries) > _ENTRY_BUDGET * L:
        return None
    rows = np.concatenate([np.arange(L), *(j for _, j, _ in entries)])
    cols = np.concatenate([np.arange(L), *((j - s) % L for s, j, _ in entries)])
    values = np.concatenate([H0, *(v for *_, v in entries)])
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
    if "inverse" not in fb._derived:
        found = _component_blocks(fb, budget=True) if _frame_terms(fb)[1] else None
        blocks, bound = found or ((), 0.0)
        floor = (blocks[-1][0].shape[1] if blocks else 0) * np.finfo(float).eps * bound
        for bins, S in blocks:
            try:
                np.linalg.cholesky(S - floor * np.eye(bins.shape[1]))
            except np.linalg.LinAlgError:
                raise NotAFrameError("frame operator singular to rounding: not a frame") from None
            S[...] = np.linalg.inv(S)  # in place: the blocks share one array
            bins.flags.writeable = S.flags.writeable = False
        fb._derived["inverse"] = tuple(blocks)
    return fb._derived["inverse"]


def alias_components(fb: FilterBank) -> np.ndarray:
    """Off-diagonal Walnut terms as an array of shape (D-1, L), D = lcm(d_k):
    row r-1 holds H_s at the bin shift s = r*L/D, for r = 1 .. D-1.

    Channel k contributes conj(H_k[j]) * H_k[(j - s) mod L] / d_k exactly at
    the shifts s that are multiples of L/d_k. The values are complex; for
    painless banks every entry is exactly zero (supports of the shifted
    copies are disjoint).

    Raises
    ------
    UnsupportedConfigError
        (D-1)*L exceeds DENSE_EIGEN_MAX_LENGTH**2 entries (16 MiB),
        checked before anything is allocated. That refuses auditory banks
        at audio lengths too, e.g. ERB V=6 at 16 kHz, L=8192 (D=512, 4.2 M
        entries) and Bark V=6 at 16 kHz, L=65536 (D=128, 8.3 M entries).
    """
    D, L = _lcm_decimation(fb.decimations), fb.signal_length
    if (D - 1) * L > DENSE_EIGEN_MAX_LENGTH**2:
        raise UnsupportedConfigError(
            f"alias components need (D-1)*L <= {DENSE_EIGEN_MAX_LENGTH**2}, got {(D - 1) * L}"
        )
    out = np.zeros((D - 1, L), dtype=np.complex128)
    for s, rows, values in _frame_terms(fb)[1]:
        out[s * D // L - 1, rows] = values
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
        alias norms sum_{s>=1} |H_s|, lower bound clamped at zero),
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
    response, entries = _frame_terms(fb)
    # summed in ascending s; a painless bank has no s >= 1 and gets zeros
    alias_norms = sum((np.bincount(j, np.abs(v), minlength=L) for _, j, v in entries), np.zeros(L))
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

        (S x)^[j] = sum_s H_s[j] * X[(j - s) mod L],

    over the bin shifts s that occur, in ascending order, each H_s for s >= 1
    only at its nonzero entries. A painless bank has only s = 0, so S multiplies
    the spectrum by the frequency response. This is an independent route to S;
    it never runs the analysis/synthesis pipeline.
    """
    x = _as_signal(x)
    L = fb.signal_length
    if x.shape[0] != L:
        raise ShapeError(f"signal length {x.shape[0]} does not match bank length {L}")
    return np.fft.ifft(_walnut_spectrum(fb, np.fft.fft(x)))


def _walnut_spectrum(fb: FilterBank, X: np.ndarray) -> np.ndarray:
    """The Walnut sum of :func:`walnut_apply` on a spectrum X: the DFT of S x."""
    H0, entries = _frame_terms(fb)
    out = H0 * X + 0.0  # + 0.0 turns a -0.0 into 0.0, as a sum from zero does
    for s, rows, values in entries:  # rows are distinct; add.at is the faster scatter-add
        np.add.at(out, rows, values * X.take(rows - s))  # rows - s wraps to (rows - s) mod L
    return out


def pr_residual(fb_ana: FilterBank, fb_syn: FilterBank) -> PRResidual:
    """Perfect-reconstruction residual of an analysis/synthesis bank pair.

    Evaluates the composed alias-domain transfer on every DFT bin: with
    T_s[j] = sum_{k: (L/d_k) | s} G_k[j] * H_k[(j - s) mod L] / d_k,
    reconstruction equals a delay by l exactly when T_0[j] = e^(-2*pi*i*j*l/L)
    and T_s vanishes for every bin shift s >= 1. The delay l = 0 .. L-1 with the smallest
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
    (*_, T0), *entries = _walnut_terms(_expanded_covers(fb_syn), _expanded_covers(fb_ana), L)
    rest = max((float(np.abs(values).max()) for *_, values in entries if values.size), default=0.0)

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
    samples, its ramp read from one table of the L roots of unity), all
    decimated by D. The union of atoms is unchanged, so the frame operator of
    the result equals the original's exactly. A one-sided bank is expanded to
    its full channel system first; the result is always full-layout.

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
    roots, rows = np.exp(-2j * np.pi * np.arange(L) / L), []
    for start, values, d in covers:
        j = (start + np.arange(values.size)) % L
        rows += [(start, values * roots[(j * shift) % L]) for shift in range(0, D, d)]
    return FilterBank(
        decimations=np.full(len(rows), D, dtype=np.int64),
        sample_rate=fb.sample_rate,
        one_sided=False,
        _length=L,
        _covers=rows,
    )
