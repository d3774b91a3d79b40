"""Frame multipliers on subband coefficients and an irrelevance filter.

A multiplier weights every analysis coefficient before synthesis,
M x = synthesize(fb_syn, m * analyze(fb_ana, x)); with weights in {0, 1} it
is a time-frequency mask. The irrelevance filter builds such a binary mask
automatically: per time slice, every channel whose level falls below an
adaptive threshold is zeroed. The threshold is a two-slope spreading model
on an auditory scale: each masker channel casts a shadow that decays
linearly in scale units away from it (one slope toward lower frequencies,
one toward higher), and the pointwise maximum of all shadows plus a global
offset is the threshold.

Levels are measured in dB relative to the largest coefficient magnitude of
the whole signal, so the offset has the same meaning at any input gain.
Silent input gives thresholds of -inf (nothing is masked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scales
from .errors import DomainError, ShapeError
from .filterbank import FilterBank, _check_coefficients, analyze, synthesize

__all__ = [
    "MaskSymbol",
    "IrrelevanceModel",
    "apply_multiplier",
    "irrelevance_threshold",
    "irrelevance_filter",
]


@dataclass(frozen=True)
class MaskSymbol:
    """Multiplier weights, one real 1-D array per channel.

    ``binary`` asserts that every weight is 0 or 1; it is validated at
    construction so downstream code can rely on it.
    """

    weights: list[np.ndarray]
    binary: bool = False

    def __post_init__(self):
        checked = []
        for w in self.weights:
            w = np.asarray(w, dtype=np.float64)
            if w.ndim != 1:
                raise ShapeError("mask weights must be 1-D per channel")
            if not np.all(np.isfinite(w)):
                raise DomainError("mask weights must be finite")
            if self.binary and not np.all((w == 0.0) | (w == 1.0)):
                raise DomainError("mask marked binary but has weights outside {0, 1}")
            checked.append(w)
        object.__setattr__(self, "weights", checked)


@dataclass(frozen=True)
class IrrelevanceModel:
    """Parameters of the spreading threshold.

    Attributes
    ----------
    offset_db : float
        Added to every threshold; more positive removes more.
    spread_lower_db_per_unit : float
        Decay of a masker's shadow toward lower frequencies, dB per scale
        unit.
    spread_upper_db_per_unit : float
        Decay toward higher frequencies, dB per scale unit.
    scale : AuditoryScale
        The scale in which channel distances are measured.
    """

    offset_db: float = -2.59
    spread_lower_db_per_unit: float = 27.0
    spread_upper_db_per_unit: float = 12.0
    scale: scales.AuditoryScale = scales.ERB

    def __post_init__(self):
        if not math.isfinite(self.offset_db):
            raise DomainError("offset_db must be finite")
        slopes = (self.spread_lower_db_per_unit, self.spread_upper_db_per_unit)
        if not all(math.isfinite(s) and s > 0.0 for s in slopes):
            raise DomainError("spread slopes must be positive and finite")


def apply_multiplier(m: MaskSymbol, fb_syn: FilterBank, fb_ana: FilterBank, x) -> np.ndarray:
    """M x = synthesize(fb_syn, m * analyze(fb_ana, x)).

    Linear in x with operator norm at most max|m| * sqrt(B_ana * B_syn).

    Raises
    ------
    ShapeError
        Mask shape does not match the analysis coefficients, or the two
        banks disagree structurally.
    """
    weights = _check_coefficients(fb_ana, m.weights, dtype=None)
    return synthesize(fb_syn, [w * ck for w, ck in zip(weights, analyze(fb_ana, x))])


def _levels_db(coefficients) -> list[np.ndarray]:
    """20*log10(|c| / peak) per channel; -inf where c = 0 or on silence.

    Raises ``DomainError`` when a coefficient is not finite."""
    magnitudes = [np.abs(ck) for ck in coefficients]
    peak = float(np.max([m.max() for m in magnitudes]))  # NaN propagates
    if not math.isfinite(peak):
        raise DomainError("coefficients must be finite")
    if peak == 0.0:
        return [np.full(m.shape[0], -np.inf) for m in magnitudes]
    with np.errstate(divide="ignore"):
        for m in magnitudes:  # in place: the same operations as 20*log10(|c| / peak)
            np.multiply(np.log10(np.divide(m, peak, out=m), out=m), 20.0, out=m)
    return magnitudes


def irrelevance_threshold(coefficients, fb: FilterBank, model: IrrelevanceModel) -> list[np.ndarray]:
    """Masking threshold in dB for every coefficient.

    For target channel k at time index n, every masker channel kappa
    contributes level(kappa, n') - slope * |u_k - u_kappa| where n' is the
    masker's time index nearest to n (subband rates differ), u are channel
    centers in scale units, and the slope is the upper spread when the
    target lies above the masker, the lower spread otherwise. The threshold
    is the maximum contribution plus the model offset.

    The maximum is a lower envelope of cones, taken per subband rate in two
    sweeps over the channels in scale order (as in the L1 distance
    transform): a running row drops by slope times each gap between
    neighbouring centers and absorbs each masker, resampled to the target
    rate. A target reads the forward run (maskers below it, upper slope)
    and the backward run (maskers above, lower slope) before absorbing its
    own level, which enters exactly. A sweep stops at its rate's last target, so K channels
    cost at most 2K times the sum of L/d over the distinct rates d, not K per coefficient.
    Summing gaps rounds differently from one difference per pair:
    thresholds lie within 4*K*eps*(max |level| + max slope * (u_max -
    u_min)) dB of the per-pair maximum.

    Raises
    ------
    DomainError
        The bank carries no center frequencies, or coefficients or centers
        are not finite.
    ShapeError
        Coefficients do not match the bank, or the bank does not carry one
        center frequency per channel.
    """
    return _threshold_and_levels(coefficients, fb, model)[0]


def _threshold_and_levels(coefficients, fb: FilterBank, model: IrrelevanceModel):
    """(irrelevance_threshold, _levels_db) of the coefficients."""
    c = _check_coefficients(fb, coefficients)
    if fb.center_frequencies is None:
        raise DomainError("bank carries no center frequencies")
    centers = np.asarray(fb.center_frequencies, dtype=np.float64)
    if centers.shape != (fb.n_channels,):
        raise ShapeError("need one center frequency per channel")
    units = scales.scale_value(model.scale, centers)
    levels = _levels_db(c)
    upper, lower = model.spread_upper_db_per_unit, model.spread_lower_db_per_unit
    order = np.argsort(units, kind="stable")
    gaps = np.diff(units[order], prepend=units[order[0]], append=units[order[-1]]).tolist()
    # up the scale from the maskers below each target, then down from those above
    sweeps = ((order.tolist(), gaps[:-1], upper), (order[::-1].tolist(), gaps[:0:-1], lower))
    L, decimations = fb.signal_length, fb.decimations.tolist()
    thresholds = [level.copy() for level in levels]  # each target's own level, exactly
    for d_k in set(decimations):
        n = np.arange(L // d_k)
        # nearest masker time index: round(n * d_k / d_kap), exactly in
        # integer arithmetic, wrapped into the masker's subband
        nearest = {d: ((2 * n * d_k + d) // (2 * d)) % (L // d) for d in set(decimations)}
        for channels, steps, slope in sweeps:
            stop = 1 + max(i for i, kappa in enumerate(channels) if decimations[kappa] == d_k)
            run = np.full(n.size, -np.inf)
            for kappa, step in zip(channels[:stop], steps):
                run -= slope * step  # gaps, not R + s*u offsets: huge slopes give -inf
                d_kap = decimations[kappa]
                if d_kap == d_k:  # read the run before it absorbs the target
                    np.maximum(thresholds[kappa], run, out=thresholds[kappa])
                np.maximum(run, levels[kappa][nearest[d_kap]], out=run)
    for thr in thresholds:
        thr += model.offset_db
    return thresholds, levels


def irrelevance_filter(
    fb: FilterBank, x, model: IrrelevanceModel
) -> tuple[list[np.ndarray], MaskSymbol, float]:
    """Analyze x, zero every coefficient below its masking threshold.

    Returns the masked coefficients, the binary mask, and the fraction of
    coefficients that were zeroed. Raising ``offset_db`` never lowers that
    fraction. Reconstruction from the masked coefficients is the caller's
    step (painless dual or an iterative solver).
    """
    c = analyze(fb, x)
    thresholds, levels = _threshold_and_levels(c, fb, model)
    weights = [(lev >= thr).astype(np.float64) for lev, thr in zip(levels, thresholds)]
    masked = [w * ck for w, ck in zip(weights, c)]
    total = sum(w.shape[0] for w in weights)
    removed = sum(int(np.count_nonzero(w == 0.0)) for w in weights)
    return masked, MaskSymbol(weights, binary=True), removed / total
