"""Multiplier operators on grid functions and their rotation conjugates.

M_phi acts as transform -> pointwise multiply by the sampled symbol ->
inverse transform over the grid axes.  Every operation takes one field
type, `GridFunction`: on a field valued in X = l_q^d, whose fiber is a
trailing axis, the operator is M_phi tensor Id_X, so the fiber axis is
carried through every transform, multiply and rotation unchanged.
Rotation conjugation S_R^-1 M_phi S_R is available in two modes:
"exact" for lattice-preserving rotations (pure index permutation,
isometric) and "interp" for general rotations (periodic cubic-spline
interpolation, tolerance-based assertions only).  An interp-mode
average prefilters f once per call and applies the symbol with the
spline response 1/B folded in, so each node costs one transform pair.

Positivity is decided through the convolution kernel K = F^-1 phi: the
operator matrix has entries K(x_k - x_l), so the operator maps
nonnegative functions to nonnegative functions exactly when the kernel
is (real and) nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .grid import FrequencyGrid, GridFunction, _inverse_dft, _multiply
from .rotation import Rotation, RotationQuadrature, _permute_lattice, subgroup_quadrature
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


def _check_operand(op: MultiplierOperator, f: GridFunction) -> None:
    if f.grid != op.grid:
        raise ValueError("grid mismatch between operator and function")
    if f.domain != "space":
        raise ValueError("multiplier operators act on space-domain functions")


def apply(op: MultiplierOperator, f: GridFunction) -> GridFunction:
    """M_phi f = F^-1 [phi . F f]; on an X-valued f this is (M_phi tensor Id_X) f."""
    _check_operand(op, f)
    return replace(f, values=_multiply(op.sampled, f.values))


#: The X-valued extension is `apply` itself; the name is kept for callers.
apply_vector = apply


def _rotation_source(f: GridFunction, rotations, mode: str) -> np.ndarray:
    """What `_rotate_values` gathers from: f's values, or in interp mode their spline coefficients.

    Every rotation's dimension and the mode are checked first, before
    any transform; the interp prefilter then runs once per call, not once
    per rotation.
    """
    if any(R.n != f.grid.n for R in rotations):
        raise ValueError("rotation dimension does not match grid")
    if mode == "exact":
        return f.values
    if mode == "interp":
        return _kernels.spline_prefilter(f.values, f.grid.n)
    raise ValueError(f"mode must be 'exact' or 'interp', got {mode!r}")


def _rotate_values(values: np.ndarray, grid: FrequencyGrid, R: Rotation, mode: str) -> np.ndarray:
    """out(x_k) = values(R x_k) over the grid axes, in grid storage order.

    In interp mode `values` are spline coefficients (`_rotation_source`)
    and out is their spline at R x_k.  Trailing fiber axes are carried,
    so all components rotate in one call.
    """
    if mode == "exact":
        return _permute_lattice(values, grid, R.M)
    return _kernels.rotate_interp(values, R.M, grid.index_axis())


def rotate_function(f: GridFunction, R: Rotation, mode: str = "exact") -> GridFunction:
    """S_R f = f(R .); exact mode is a pure index permutation and an isometry."""
    return replace(f, values=_rotate_values(_rotation_source(f, [R], mode), f.grid, R, mode))


def conjugated_apply(op: MultiplierOperator, R: Rotation, f: GridFunction, mode: str = "exact"):
    """(S_R^-1 M_phi S_R) f, the one-node `average_conjugated`; symbol phi(R^-1 .)."""
    return average_conjugated(op, subgroup_quadrature([R]), f, mode)


def average_conjugated(
    op: MultiplierOperator, rq: RotationQuadrature, f: GridFunction, mode: str = "exact"
) -> GridFunction:
    """Weighted sum over rotation nodes of the conjugated operator applied to f.

    Each node is one gather at R, one transform pair and one gather at
    R^-1.  In interp mode f is prefiltered once, and the prefilter 1/B of
    each node's product rides on the symbol: the spline coefficients of
    M_phi g are F^-1 [(phi / B) . F g].  The reduction runs in the fixed
    node order of `rq`, so results are bit-reproducible.
    """
    _check_operand(op, f)
    values = _rotation_source(f, rq.rotations, mode)
    symbol = op.sampled
    if mode == "interp":
        symbol = symbol * _kernels._prefilter_symbol(f.grid.N, f.grid.n)
    acc = np.zeros(f.values.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        multiplied = _multiply(symbol, _rotate_values(values, f.grid, R, mode))
        acc += w * _rotate_values(multiplied, f.grid, R.inverse(), mode)
    return replace(f, values=acc)


def kernel(op: MultiplierOperator) -> GridFunction:
    """Convolution kernel K = F^-1 phi; apply() is periodic convolution with K."""
    # the grid's inverse DFT, not the public `transform`: the benchmark's
    # tracer counts this FFT in the multiplier layer
    return GridFunction(op.grid, _inverse_dft(op.sampled, op.grid), domain="space")


#: Default tolerance of `positivity_report` on the kernel's negative part and imaginary residue.
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class PositivityReport:
    min_kernel: float
    max_imag: float
    tol: float
    verdict: str  # positive | not-positive
    reason: str  # ok | non-finite-kernel | negative-kernel | complex-kernel


def positivity_report(op: MultiplierOperator, tol: float = POSITIVITY_TOL) -> PositivityReport:
    """Decide operator positivity from the kernel sign pattern.

    A complex kernel residue above tol forces a not-positive verdict
    with its own reason code: a positive operator must have a real
    kernel, and silently dropping the imaginary part would mask symbol
    asymmetry bugs.  A kernel with a NaN or infinite entry certifies
    nothing, so it is not positive either, whatever its other entries.
    """
    if not 0.0 <= tol < np.inf:  # NaN fails too
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")
    K = kernel(op).values
    min_kernel = float(np.min(K.real))
    max_imag = float(np.max(np.abs(K.imag)))
    if not np.all(np.isfinite(K)):
        return PositivityReport(min_kernel, max_imag, tol, "not-positive", "non-finite-kernel")
    if max_imag > tol:
        return PositivityReport(min_kernel, max_imag, tol, "not-positive", "complex-kernel")
    if min_kernel < -tol:
        return PositivityReport(min_kernel, max_imag, tol, "not-positive", "negative-kernel")
    return PositivityReport(min_kernel, max_imag, tol, "positive", "ok")
