"""Invertible auditory-scale filter banks on C^L.

Analysis and perfect-reconstruction synthesis with non-uniform downsampling,
frame diagnostics (bounds, painless and diagonal-dominance checks, alias
structure), dual and iterative inversion, and frame-multiplier masking with
a simple psychoacoustic irrelevance filter. ``audfb.finite_frames`` holds
the generic finite-dimensional frame tools; everything else works on
:class:`~audfb.filterbank.FilterBank` objects.
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import container, finite_frames
from .errors import (
    AudfbError,
    ContainerError,
    ConvergenceError,
    DomainError,
    NotAFrameError,
    ShapeError,
    UnsupportedConfigError,
)
from .filterbank import (
    BankConfig,
    FilterBank,
    adjoint_bank,
    analyze,
    build_audlet,
    build_gabor,
    expanded_filters,
    parseval_normalize,
    synthesize,
)
from .finite_frames import Bounds, FiniteFrame
from .frame_diagnostics import (
    FrameReport,
    PRResidual,
    alias_components,
    equivalent_uniform,
    estimate_bounds,
    frequency_response,
    painless_check,
    pr_residual,
    walnut_apply,
)
from .masking import (
    IrrelevanceModel,
    MaskSymbol,
    apply_multiplier,
    irrelevance_filter,
    irrelevance_threshold,
)
from .scales import BARK, ERB, AuditoryScale, bandwidth, inverse_scale, scale_value
from .synthesis import (
    CGConfig,
    IterationTrace,
    cg_synthesize,
    neumann_synthesize,
    painless_dual,
)

__all__ = [
    "__version__",
    "AudfbError",
    "ContainerError",
    "ConvergenceError",
    "DomainError",
    "NotAFrameError",
    "ShapeError",
    "UnsupportedConfigError",
    "AuditoryScale",
    "ERB",
    "BARK",
    "bandwidth",
    "scale_value",
    "inverse_scale",
    "Bounds",
    "FiniteFrame",
    "BankConfig",
    "FilterBank",
    "build_audlet",
    "build_gabor",
    "analyze",
    "synthesize",
    "adjoint_bank",
    "parseval_normalize",
    "expanded_filters",
    "FrameReport",
    "PRResidual",
    "frequency_response",
    "alias_components",
    "painless_check",
    "estimate_bounds",
    "walnut_apply",
    "pr_residual",
    "equivalent_uniform",
    "CGConfig",
    "IterationTrace",
    "painless_dual",
    "cg_synthesize",
    "neumann_synthesize",
    "MaskSymbol",
    "IrrelevanceModel",
    "apply_multiplier",
    "irrelevance_threshold",
    "irrelevance_filter",
    "container",
    "finite_frames",
]
