"""Dense finite-dimensional frames over C^L.

A frame is any spanning family (phi_k), k = 0..N-1, of vectors in C^L; the
analysis map x -> (<x, phi_k>) then has two-sided energy bounds
A*||x||^2 <= sum_k |<x, phi_k>|^2 <= B*||x||^2 with A > 0. This module keeps
everything dense and exact: bounds are eigenvalues of the frame operator,
duals come from a Hermitian eigendecomposition.

Inner products are conjugate-linear in the second argument, so the
coefficient of x against atom phi is <x, phi> = sum x[m] * conj(phi[m]).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotAFrameError, ShapeError

__all__ = [
    "FiniteFrame",
    "Bounds",
    "analyze",
    "synthesize",
    "frame_operator",
    "frame_bounds",
    "canonical_dual",
    "parsevalize",
    "multiplier",
    "gabor_frame",
    "is_riesz_basis",
]

# Relative eigenvalue cutoff below which the frame operator counts as singular.
_RANK_TOL = 1e-12


class Bounds(NamedTuple):
    """Frame bound pair, 0 <= lower <= upper."""

    lower: float
    upper: float


@dataclass(frozen=True)
class FiniteFrame:
    """An ordered family of N vectors in C^L, stored as rows of ``vectors``."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ShapeError("vectors must be a non-empty (N, L) array")
        if not np.all(np.isfinite(v)):
            raise DomainError("frame vectors must be finite")
        object.__setattr__(self, "vectors", v)

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def analyze(frame: FiniteFrame, x) -> np.ndarray:
    """Coefficient sequence c_k = <x, phi_k>."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (frame.dimension,):
        raise ShapeError(f"expected a vector of length {frame.dimension}")
    return frame.vectors.conj() @ x


def synthesize(frame: FiniteFrame, c) -> np.ndarray:
    """Linear combination sum_k c_k phi_k (the adjoint of analyze)."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape != (frame.n_vectors,):
        raise ShapeError(f"expected {frame.n_vectors} coefficients")
    return frame.vectors.T @ c


def frame_operator(frame: FiniteFrame) -> np.ndarray:
    """The L x L matrix S x = sum_k <x, phi_k> phi_k (Hermitian PSD)."""
    v = frame.vectors
    return v.T @ v.conj()


def _operator_bounds(S: np.ndarray) -> Bounds:
    """Extreme eigenvalues of the Hermitian matrix S, or over a stack of
    them, clamped at 0."""
    w = np.linalg.eigvalsh(S)
    return Bounds(max(float(w[..., 0].min()), 0.0), max(float(w[..., -1].max()), 0.0))


def frame_bounds(frame: FiniteFrame) -> Bounds:
    """Optimal bounds: extreme eigenvalues of the frame operator.

    A lower bound of 0 means the family does not span C^L (not a frame).
    """
    return _operator_bounds(frame_operator(frame))


def _inverse_power(frame: FiniteFrame, exponent: float) -> np.ndarray:
    """S^exponent via eigendecomposition; raises if S is numerically singular."""
    w, u = np.linalg.eigh(frame_operator(frame))
    w = np.maximum(w, 0.0)
    if w[-1] <= 0.0 or w[0] <= _RANK_TOL * w[-1]:
        raise NotAFrameError("frame operator is singular: the family does not span the space")
    return (u * w**exponent) @ u.conj().T


def canonical_dual(frame: FiniteFrame) -> FiniteFrame:
    """The dual family (S^-1 phi_k); its bounds are (1/B, 1/A)."""
    s_inv = _inverse_power(frame, -1.0)
    return FiniteFrame((s_inv @ frame.vectors.T).T)


def parsevalize(frame: FiniteFrame) -> FiniteFrame:
    """The family (S^-1/2 phi_k), a Parseval frame (bounds (1, 1))."""
    s_root_inv = _inverse_power(frame, -0.5)
    return FiniteFrame((s_root_inv @ frame.vectors.T).T)


def multiplier(m, frame_out: FiniteFrame, frame_in: FiniteFrame, x) -> np.ndarray:
    """Frame multiplier sum_k m_k <x, psi_k> phi_k.

    Analysis with ``frame_in``, pointwise weighting by ``m``, synthesis with
    ``frame_out``. Operator norm is at most ||m||_inf * sqrt(B_out * B_in).
    """
    m = np.asarray(m)
    if m.shape != (frame_in.n_vectors,):
        raise ShapeError("weight count must match the frame size")
    if frame_out.n_vectors != frame_in.n_vectors:
        raise ShapeError("frames must have the same number of vectors")
    if frame_out.dimension != frame_in.dimension:
        raise ShapeError("frames must share the ambient dimension")
    return synthesize(frame_out, m * analyze(frame_in, x))


def gabor_frame(window, a: int, M: int) -> FiniteFrame:
    """Modulated translates of ``window``: (L/a)*M atoms ordered (l, k).

    Atom (l, k) is t -> e^(2*pi*i*k*(t - l*a)/M) * window[t - l*a], i.e. the
    modulation phase is anchored at the translate position, so filter bank
    analysis with the matching modulated filters reproduces these inner
    products exactly.

    Parameters
    ----------
    window : array of length L
        Time-domain prototype.
    a : int
        Translation step; must divide L.
    M : int
        Number of modulations. a/M > 1 cannot give a frame and is warned
        about.
    """
    g = np.asarray(window, dtype=np.complex128)
    if g.ndim != 1 or g.shape[0] < 1:
        raise ShapeError("window must be a non-empty vector")
    L = g.shape[0]
    a = int(a)
    M = int(M)
    if a < 1 or M < 1:
        raise DomainError("a and M must be positive")
    if L % a != 0:
        raise ShapeError(f"translation step {a} does not divide length {L}")
    if a > M:
        warnings.warn(
            "a/M > 1: the system is undersampled and cannot be a frame",
            stacklevel=2,
        )
    t = np.arange(L)
    atoms = np.empty((L // a * M, L), dtype=np.complex128)
    for l in range(L // a):
        shifted = np.roll(g, l * a)
        anchor = (t - l * a) % L
        for k in range(M):
            atoms[l * M + k] = np.exp(2j * np.pi * k * anchor / M) * shifted
    return FiniteFrame(atoms)


def is_riesz_basis(frame: FiniteFrame) -> bool:
    """True iff the family is a basis: N = L and the frame operator is regular."""
    if frame.n_vectors != frame.dimension:
        return False
    lower, upper = frame_bounds(frame)
    return bool(lower > _RANK_TOL * upper and upper > 0.0)
