"""Perfect-reconstruction synthesis from subband coefficients.

Three routes back to the signal:

* :func:`painless_dual` computes the canonical dual filters in closed form,
  G_k = conj(H_k) / H0 -- available exactly when the bank is painless and its
  frequency response never vanishes.
* :func:`cg_synthesize` solves S x = D c (frame operator against the adjoint
  image of the coefficients) by conjugate gradients, optionally
  preconditioned by the exact inverse of S, which leaves one iteration.
  Works for any frame bank and converges in at most L steps in exact
  arithmetic.
* :func:`neumann_synthesize` runs the classical frame algorithm
  x_{m+1} = x_m + 2/(A+B) (D c - S x_m), a Neumann-series inversion of S
  with geometric error ratio at most (B-A)/(B+A).

For one-sided banks all of this acts on the full channel system (stored plus
mirrors), so reconstruction targets real signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError, NotAFrameError, UnsupportedConfigError
from .filterbank import FilterBank, _synthesis_spectrum, _take, adjoint_bank
from .frame_diagnostics import _component_inverse, _frame_terms, _walnut_spectrum
from .frame_diagnostics import frequency_response, painless_check

__all__ = [
    "CGConfig",
    "IterationTrace",
    "painless_dual",
    "cg_synthesize",
    "neumann_synthesize",
]

_TRACE_MAX_BYTES = 2**26  # of the iterates one traced solve keeps: 1024 at L=4096


@dataclass(frozen=True)
class CGConfig:
    """Settings for :func:`cg_synthesize`.

    Attributes
    ----------
    tolerance : float
        Relative residual threshold, ||r|| <= tolerance * ||b||; positive
        and finite.
    max_iterations : int or None
        Iteration budget, an integer of at least 1; None means the signal
        length L (the exact-arithmetic worst case).
    preconditioned : bool
        Precondition with the exact inverse of S, so CG converges at once:
        1/H0 on painless banks, the inverses of the connected blocks of S
        otherwise, and 1/H0 where those are over budget (see
        :func:`cg_synthesize`).
    """

    tolerance: float = 1e-10
    max_iterations: int | None = None
    preconditioned: bool = True

    def __post_init__(self):
        _check_stopping(self.tolerance, 1 if self.max_iterations is None else self.max_iterations)


def _check_stopping(tolerance, max_iterations) -> None:
    """DomainError unless tolerance > 0 is finite and max_iterations an int >= 1."""
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise DomainError("tolerance must be positive and finite")
    if not (isinstance(max_iterations, (int, np.integer)) and max_iterations >= 1):
        raise DomainError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")


@dataclass
class IterationTrace:
    """Per-iteration record of an iterative solve.

    ``residuals`` holds the stopping quantity per iteration (relative
    residual for CG, relative update norm for the Neumann iteration);
    ``iterates`` the successive solution estimates, at most 64 MiB of them: a
    solve raises UnsupportedConfigError before it would keep more.
    """

    residuals: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)

    def _keep(self, X: np.ndarray) -> None:
        """Append idft(X) to ``iterates`` unless that passes _TRACE_MAX_BYTES."""
        if (len(self.iterates) + 1) * X.nbytes > _TRACE_MAX_BYTES:
            raise UnsupportedConfigError(f"iterate trace over {_TRACE_MAX_BYTES} bytes")
        self.iterates.append(np.fft.ifft(X))


def painless_dual(fb: FilterBank) -> FilterBank:
    """Canonical dual bank of a painless filter bank.

    The dual filters are G_k[j] = conj(H_k[j]) / H0[j]; since H_k vanishes
    outside its support, so does G_k. Synthesizing analysis coefficients with
    the dual reconstructs the input exactly (real inputs, for one-sided
    banks).

    Raises
    ------
    UnsupportedConfigError
        The bank is not painless (the closed form does not apply).
    NotAFrameError
        The frequency response vanishes at some bin.
    """
    if not painless_check(fb):
        raise UnsupportedConfigError("canonical dual in closed form needs a painless bank")
    response = frequency_response(fb)
    if float(response.min()) <= 0.0:
        raise NotAFrameError("frequency response vanishes: the bank is not a frame")
    covers = [
        (start, np.conj(values) / _take(response, start, values.size))
        for start, values in fb._covers
    ]
    return replace(fb, config=None, _covers=covers)


def _rhs(fb: FilterBank, coefficients) -> np.ndarray:
    """Spectrum of D c, c pushed back through the adjoint of analysis; DomainError unless finite."""
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite D c fails the test below
        B = _synthesis_spectrum(adjoint_bank(fb), coefficients)
    if not np.all(np.isfinite(B)):
        raise DomainError("coefficients must be finite")
    return B


def cg_synthesize(
    fb: FilterBank,
    coefficients,
    config: CGConfig | None = None,
    *,
    return_trace: bool = False,
):
    """Reconstruct a signal from subband coefficients by conjugate gradients.

    Solves S x = D c on spectra with the Walnut sum of :func:`walnut_apply` (no
    transform). When the coefficients came from ``analyze(fb, x0)``, the relative
    error is at most B/A times the relative residual: at B/A = 1.5e15 (Gauss,
    r_bw 0.1, V=2, 8 kHz, ERB, L=4096) preconditioned CG stops after 1
    iteration at a residual of 5.7e-16 and an error of 5.7e-3; the painless
    dual gives 1.6e-10. The preconditioned variant applies the exact inverse of
    S to every residual spectrum R: Z = R / H0 on a painless bank, otherwise
    the inverses of the small connected blocks of S in the DFT domain, factored
    once per bank (see :mod:`audfb.frame_diagnostics`). That factorization is
    kept on the bank and pays off when one bank is solved repeatedly. A bank
    whose blocks are over the size budgets gets 1/H0 alone and is not checked
    for being a frame: CG may then return without error on a non-frame.

    Parameters
    ----------
    fb : FilterBank
    coefficients : list of 1-D complex arrays
    config : CGConfig, optional
    return_trace : bool
        Also return the :class:`IterationTrace`.

    Returns
    -------
    ndarray, or (ndarray, IterationTrace)

    Raises
    ------
    DomainError
        A coefficient is not finite, found before the first iteration.
    NotAFrameError
        The frequency response vanishes at some bin, or a block of S
        within the budgets is not clearly positive definite.
    ConvergenceError
        Tolerance not reached within the iteration budget, or the operator
        is found to be numerically indefinite. Carries the residual history.
    """
    if config is None:
        config = CGConfig()
    L = fb.signal_length
    max_iterations = L if config.max_iterations is None else config.max_iterations

    B = _rhs(fb, coefficients)
    b_norm = float(np.linalg.norm(B))
    trace = IterationTrace()
    if b_norm == 0.0:
        x = np.zeros(L, dtype=np.complex128)
        return (x, trace) if return_trace else x

    response = _frame_terms(fb)[0]
    if float(response.min()) <= 0.0:
        raise NotAFrameError("frequency response vanishes: not a frame")
    blocks = _component_inverse(fb) if config.preconditioned else ()

    def apply_preconditioner(R: np.ndarray) -> np.ndarray:
        if not blocks:
            return R / response if config.preconditioned else R
        Z = R.copy()
        for bins, inverse in blocks:
            Z[bins] = (inverse @ Z[bins][..., None])[..., 0]
        return Z

    # spectra of the iterate, residual, search direction and preconditioned residual
    X, R = np.zeros(L, dtype=np.complex128), B
    Z = apply_preconditioner(R)
    P = Z.copy()
    rz = np.vdot(R, Z)
    for _ in range(max_iterations):
        Q = _walnut_spectrum(fb, P)
        pq = np.vdot(P, Q)
        if not pq.real > 0.0:
            raise ConvergenceError(
                "conjugate gradients broke down: operator not positive definite",
                residuals=trace.residuals,
            )
        alpha = rz / pq
        X = X + alpha * P
        R = R - alpha * Q
        relative = float(np.linalg.norm(R)) / b_norm
        trace.residuals.append(relative)
        if return_trace:
            trace._keep(X)
        if relative <= config.tolerance:
            return (np.fft.ifft(X), trace) if return_trace else np.fft.ifft(X)
        Z = apply_preconditioner(R)
        rz_next = np.vdot(R, Z)
        P = Z + (rz_next / rz) * P
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients: residual {trace.residuals[-1]:.3e} above tolerance "
        f"{config.tolerance:.3e} after {max_iterations} iterations",
        residuals=trace.residuals,
    )


def neumann_synthesize(
    fb: FilterBank,
    coefficients,
    bounds,
    tolerance: float = 1e-10,
    max_iterations: int = 10000,
    *,
    return_trace: bool = False,
):
    """Reconstruct by the frame algorithm (Neumann-series inversion of S).

    Iterates x_{m+1} = x_m + 2/(A+B) (D c - S x_m) until the relative update
    ||x_{m+1} - x_m|| <= tolerance * ||x_{m+1}||. With frame bounds
    A <= A_true <= B_true <= B the error contracts geometrically with ratio
    at most (B-A)/(B+A); a tight bank converges in one step.

    Parameters
    ----------
    fb : FilterBank
    coefficients : list of 1-D complex arrays
    bounds : Bounds
        Frame bound estimates (lower, upper) with 0 < lower <= upper < inf.
        For a non-painless bank pass exact bounds: the diag-dominance
        bracket can put A at 0 for a frame (exact A = 1.73e-5 for the
        ERB/rect bank at L=4096 with doubled decimations).
    tolerance, max_iterations, return_trace
        Stopping controls as above; tolerance is positive and finite and
        max_iterations an integer of at least 1.

    Raises
    ------
    NotAFrameError
        bounds.lower is not positive.
    DomainError
        bounds are not ordered and finite, tolerance is not positive and
        finite, max_iterations is not an integer of at least 1, or a
        coefficient is not finite.
    ConvergenceError
        Update still above tolerance at the iteration cap.
    """
    lower, upper = float(bounds[0]), float(bounds[1])
    if not lower > 0.0:
        raise NotAFrameError("lower frame bound is zero: frame algorithm undefined")
    if not lower <= upper < math.inf:
        raise DomainError(f"frame bounds need A <= B < inf, got ({lower}, {upper})")
    _check_stopping(tolerance, max_iterations)
    relax = 2.0 / (lower + upper)

    B = _rhs(fb, coefficients)
    X = np.zeros(fb.signal_length, dtype=np.complex128)  # spectrum of the iterate
    trace = IterationTrace()
    for _ in range(max_iterations):
        delta = relax * (B - _walnut_spectrum(fb, X))
        X = X + delta
        update = float(np.linalg.norm(delta))
        scale = float(np.linalg.norm(X))
        relative = update / scale if scale > 0.0 else (0.0 if update == 0.0 else np.inf)
        trace.residuals.append(relative)
        if return_trace:
            trace._keep(X)
        if relative <= tolerance:
            return (np.fft.ifft(X), trace) if return_trace else np.fft.ifft(X)
    raise ConvergenceError(
        f"frame algorithm: relative update {trace.residuals[-1]:.3e} above tolerance "
        f"{tolerance:.3e} after {max_iterations} iterations",
        residuals=trace.residuals,
    )
