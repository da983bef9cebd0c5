"""Multiplier operators on grid functions and their rotation conjugates.

M_phi acts as transform -> pointwise multiply by the sampled symbol ->
inverse transform.  The vector-valued extension acts componentwise on
the fiber.  Rotation conjugation S_R^-1 M_phi S_R is available in two
modes: "exact" for lattice-preserving rotations (pure index
permutation, isometric) and "interp" for general rotations (periodic
cubic-spline interpolation, tolerance-based assertions only).

Positivity is decided through the convolution kernel K = F^-1 phi: the
operator matrix has entries K(x_k - x_l), so the operator maps
nonnegative functions to nonnegative functions exactly when the kernel
is (real and) nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .grid import FrequencyGrid, GridFunction, VectorGridFunction
from .rotation import Rotation, RotationQuadrature, _permute_lattice, is_lattice_preserving
from .symbols import Symbol, sample_symbol

__all__ = [
    "MultiplierOperator",
    "apply",
    "apply_vector",
    "rotate_function",
    "conjugated_apply",
    "average_conjugated",
    "kernel",
    "positivity_report",
    "PositivityReport",
]


@dataclass(frozen=True)
class MultiplierOperator:
    """M_phi on one grid, with the symbol cached on the frequency lattice."""

    phi: Symbol
    grid: FrequencyGrid
    sampled: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sampled", sample_symbol(self.phi, self.grid).values)


def apply(op: MultiplierOperator, f: GridFunction) -> GridFunction:
    """M_phi f = F^-1 [phi . F f].

    The forward dx^n and inverse N^n/L^n scalings cancel, so the raw
    fft/ifft pair is used directly.
    """
    if f.grid != op.grid:
        raise ValueError("grid mismatch between operator and function")
    if f.domain != "space":
        raise ValueError("apply expects a space-domain function")
    out = np.fft.ifftn(np.fft.fftn(f.values) * op.sampled)
    return GridFunction(op.grid, out, domain="space")


def apply_vector(op: MultiplierOperator, F: VectorGridFunction) -> VectorGridFunction:
    """(M_phi tensor Id) F: the scalar operator applied to each fiber component."""
    if F.grid != op.grid:
        raise ValueError("grid mismatch between operator and function")
    if F.domain != "space":
        raise ValueError("apply_vector expects a space-domain function")
    axes = tuple(range(op.grid.n))
    fhat = np.fft.fftn(F.values, axes=axes)
    out = np.fft.ifftn(fhat * op.sampled[..., None], axes=axes)
    return VectorGridFunction(F.grid, F.d, F.q, out, domain="space")


def _rotate_values(values: np.ndarray, grid: FrequencyGrid, R: Rotation, mode: str) -> np.ndarray:
    """out(x_k) = values(R x_k) for one scalar array in grid storage order."""
    if mode == "exact":
        if not is_lattice_preserving(R):
            raise ValueError("exact-mode rotation requires a lattice-preserving R")
        return _permute_lattice(values, grid, R)
    if mode == "interp":
        return _kernels.rotate_interp(values, R.M, grid.index_axis())
    raise ValueError(f"mode must be 'exact' or 'interp', got {mode!r}")


def rotate_function(f: GridFunction, R: Rotation, mode: str = "exact") -> GridFunction:
    """S_R f = f(R .); exact mode is a pure index permutation and an isometry."""
    if R.n != f.grid.n:
        raise ValueError("rotation dimension does not match grid")
    return GridFunction(f.grid, _rotate_values(f.values, f.grid, R, mode), domain=f.domain)


def conjugated_apply(
    op: MultiplierOperator, R: Rotation, f: GridFunction, mode: str = "exact"
) -> GridFunction:
    """(S_R^-1 M_phi S_R) f; equals the operator with symbol phi(R^-1 .)."""
    rotated = rotate_function(f, R, mode)
    applied = apply(op, rotated)
    return rotate_function(applied, R.inverse(), mode)


def average_conjugated(
    op: MultiplierOperator,
    rq: RotationQuadrature,
    f: GridFunction | VectorGridFunction,
    mode: str = "exact",
):
    """Weighted sum over rotation nodes of the conjugated operator applied to f.

    The reduction runs in the fixed node order of `rq`, so results are
    bit-reproducible.  Vector-valued inputs are rotated componentwise
    and pushed through the componentwise operator.
    """
    if isinstance(f, VectorGridFunction):
        acc = np.zeros(f.values.shape, dtype=complex)
        for R, w in zip(rq.rotations, rq.weights):
            rot = np.stack(
                [_rotate_values(f.values[..., i], f.grid, R, mode) for i in range(f.d)], axis=-1
            )
            applied = apply_vector(op, VectorGridFunction(f.grid, f.d, f.q, rot))
            Rinv = R.inverse()
            back = np.stack(
                [_rotate_values(applied.values[..., i], f.grid, Rinv, mode) for i in range(f.d)],
                axis=-1,
            )
            acc += w * back
        return VectorGridFunction(f.grid, f.d, f.q, acc, domain="space")
    acc = np.zeros(f.values.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        acc += w * conjugated_apply(op, R, f, mode).values
    return GridFunction(f.grid, acc, domain="space")


def kernel(op: MultiplierOperator) -> GridFunction:
    """Convolution kernel K = F^-1 phi; apply() is periodic convolution with K."""
    values = np.fft.ifftn(op.sampled) * (op.grid.N**op.grid.n / op.grid.L**op.grid.n)
    return GridFunction(op.grid, values, domain="space")


@dataclass(frozen=True)
class PositivityReport:
    min_kernel: float
    max_imag: float
    tol: float
    verdict: str  # positive | not-positive
    reason: str  # ok | negative-kernel | complex-kernel


def positivity_report(op: MultiplierOperator, tol: float = 1e-10) -> PositivityReport:
    """Decide operator positivity from the kernel sign pattern.

    A complex kernel residue above tol forces a not-positive verdict
    with its own reason code: a positive operator must have a real
    kernel, and silently dropping the imaginary part would mask symbol
    asymmetry bugs.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    K = kernel(op).values
    min_kernel = float(np.min(K.real))
    max_imag = float(np.max(np.abs(K.imag)))
    if max_imag > tol:
        return PositivityReport(min_kernel, max_imag, tol, "not-positive", "complex-kernel")
    if min_kernel < -tol:
        return PositivityReport(min_kernel, max_imag, tol, "not-positive", "negative-kernel")
    return PositivityReport(min_kernel, max_imag, tol, "positive", "ok")
