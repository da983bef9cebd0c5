"""Multiplier operators on grid functions and their rotation conjugates.

M_phi acts as transform -> pointwise multiply by the sampled symbol ->
inverse transform over the grid axes.  Every operation takes one field
type, `GridFunction`: on a field valued in X = l_q^d, whose fiber is a
trailing axis, the operator is M_phi tensor Id_X, so the fiber axis is
carried through every transform, multiply and rotation unchanged.
`rotate_function` and `conjugated_apply` take lattice symmetries only,
where S_R is an index permutation and an isometry; `average_conjugated`
is the one entry point with a mode: "exact" for lattice symmetries and
"interp" for general rotations (periodic cubic-spline interpolation,
tolerance-based assertions only).  For a lattice symmetry G the
conjugate S_G^-1 M_phi S_G is the multiplier M_(phi o G^-1) exactly, so
an exact-mode average is one multiply by the averaged permuted symbol.
An interp-mode average groups its nodes into the lattice orbits G R
that the spline's source-side symmetry allows and pays one inverse
transform and one gather at R^-1 per orbit, a forward transform per
member; it prefilters f once per call and applies the symbol with the
spline response 1/B folded in.

Positivity is decided through the convolution kernel K = F^-1 phi: the
operator matrix has entries K(x_k - x_l), so the operator maps
nonnegative functions to nonnegative functions exactly when the kernel
is (real and) nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .grid import FrequencyGrid, GridFunction, _dft_sum, _inverse_dft_sum, _multiply
from .rotation import Rotation, RotationQuadrature, _lattice_orbits, _permute_lattice, subgroup_quadrature
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


def _check_rotations(grid: FrequencyGrid, rotations) -> None:
    """The one rotation-dimension rule; callers run it before any transform."""
    if any(R.n != grid.n for R in rotations):
        raise ValueError("rotation dimension does not match grid")


def _rotate_values(values: np.ndarray, grid: FrequencyGrid, R: Rotation, mode: str) -> np.ndarray:
    """out(x_k) = values(R x_k) over the grid axes, in grid storage order.

    In interp mode `values` are spline coefficients and out is their
    spline at R x_k.  Trailing axes (fibers, stacked fields) are
    carried, so all of them rotate in one call.
    """
    if mode == "exact":
        return _permute_lattice(values, grid, R.M)
    return _kernels.rotate_interp(values, R.M, grid.index_axis())


def rotate_function(f: GridFunction, R: Rotation) -> GridFunction:
    """S_R f = f(R .) for a signed permutation R: an index permutation and an isometry.

    Interpolated rotation has one entry point, `average_conjugated(..., mode="interp")`.
    """
    _check_rotations(f.grid, [R])
    return replace(f, values=_rotate_values(f.values, f.grid, R, "exact"))


def conjugated_apply(op: MultiplierOperator, R: Rotation, f: GridFunction) -> GridFunction:
    """(S_R^-1 M_phi S_R) f for a signed permutation R: one exact node of `average_conjugated`."""
    return average_conjugated(op, subgroup_quadrature([R]), f)


def _weighted_sum(terms) -> np.ndarray:
    """sum_j w_j a_j over pairs (a_j, w_j) of fresh arrays, in order, summed into the first a_j in place."""
    total = None
    for a, w in terms:
        a *= w
        if total is None:
            total = a
        else:
            total += a
    return total


def average_conjugated(
    op: MultiplierOperator, rq: RotationQuadrature, f: GridFunction, mode: str = "exact"
) -> GridFunction:
    """Weighted sum over rotation nodes of the conjugated operator applied to f.

    The one entry point with a mode, checked with every node's dimension
    before any transform.  Exact mode: for a lattice symmetry G,
    S_G^-1 M_phi S_G is exactly the multiplier with symbol phi o G^-1,
    the lattice sample permuted by G^-1 = G^T.  So the average is one
    multiply of f by sum_G w_G (phi o G^-1): one transform pair for any
    number of nodes, and a node that is not a signed permutation raises
    before it.

    Interp mode groups the nodes into lattice orbits (`_lattice_orbits`):
    nodes G R with G in `lattice_group(n)` and G R = R G.  For a signed
    permutation G and c o G = `_permute_lattice(c, grid, G)` three
    identities hold exactly on the periodic grid: the spline gather at
    G R of c is the gather at R of c o G (the tensor B-spline is
    invariant under signed permutations of its source); F(d o G) =
    (F d) o G; and the gathers are linear.  So a node's term
    S_(GR)^-1 M_phi S_(GR) f is S_R^-1 F^-1 [(psi . F S_R (c o G)) o G^-1],
    and an orbit costs one gather at R of its members' sources c o G
    stacked on a trailing axis, one forward transform per member, one
    inverse transform of the weighted sum of the permuted spectra, and
    one gather at R^-1.  Here c are f's spline coefficients from one
    prefilter per call, and psi the sampled symbol with the prefilter
    1/B folded in: the spline coefficients of M_phi g are
    F^-1 [(phi / B) . F g].  On SO(2) Haar measure is C4 x [0, pi/2),
    and `so_quadrature(2, m)` builds its nodes as such products, so with
    4 | m an orbit holds four nodes; at n = 3 every node is an orbit of
    one, and an orbit whose one member is the identity gathers from c
    itself, with no stacked copy.  Both modes reduce in a fixed order,
    so results are bit-reproducible.
    """
    _check_operand(op, f)
    grid = f.grid
    _check_rotations(grid, rq.rotations)
    if mode == "exact":
        symbol = _weighted_sum(
            (_permute_lattice(op.sampled, grid, G.M.T), w) for G, w in zip(rq.rotations, rq.weights)
        )
        return replace(f, values=_multiply(symbol, f.values))
    if mode != "interp":
        raise ValueError(f"mode must be 'exact' or 'interp', got {mode!r}")
    values = _kernels.spline_prefilter(f.values, grid.n)
    symbol = op.sampled * _kernels._prefilter_symbol(grid.N, grid.n)
    symbol = symbol.reshape(symbol.shape + (1,) * (values.ndim - grid.n))
    acc = None
    identity = np.eye(grid.n)
    for R, members in _lattice_orbits(rq, grid.n):
        if len(members) == 1 and np.array_equal(members[0][0].M, identity):
            sources = values[..., None]  # the identity's source is c itself: a view, no copy
        else:
            sources = np.empty(values.shape + (len(members),), dtype=complex)
            for j, (G, _) in enumerate(members):
                sources[..., j] = _permute_lattice(values, grid, G.M)
        rotated = _rotate_values(sources, grid, R, mode)
        del sources
        spectrum = _weighted_sum(
            (_permute_lattice(_dft_sum(rotated[..., j], grid.shape) * symbol, grid, G.M.T), w)
            for j, (G, w) in enumerate(members)
        )
        del rotated
        term = _inverse_dft_sum(spectrum, grid.shape)
        del spectrum  # before the gather at R^-1
        term = _rotate_values(term, grid, R.inverse(), mode)
        if acc is None:
            acc = term
        else:
            acc += term
    return replace(f, values=acc)


def kernel(op: MultiplierOperator) -> GridFunction:
    """Convolution kernel K = F^-1 phi; apply() is periodic convolution with K."""
    # the grid's unscaled inverse DFT times L^-n, not the public `transform`:
    # the benchmark's tracer counts this FFT in the multiplier layer
    grid = op.grid
    values = _inverse_dft_sum(op.sampled, grid.shape) * (grid.N**grid.n / grid.L**grid.n)
    return GridFunction(grid, values, domain="space")


#: Default tolerance of `positivity_report` on the kernel's negative part and imaginary residue.
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class PositivityReport:
    min_kernel: float
    max_imag: float
    tol: float
    reason: str  # ok | non-finite-kernel | negative-kernel | complex-kernel

    @property
    def verdict(self) -> str:  # positive exactly when the reason is ok
        return "positive" if self.reason == "ok" else "not-positive"


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
    return _kernel_positivity(kernel(op), tol)


def _kernel_positivity(kernel_fn: GridFunction, tol: float = POSITIVITY_TOL) -> PositivityReport:
    """`positivity_report` of the operator whose convolution kernel is `kernel_fn`."""
    K = kernel_fn.values
    min_kernel = float(np.min(K.real))
    max_imag = float(np.max(np.abs(K.imag)))
    if not np.all(np.isfinite(K)):
        return PositivityReport(min_kernel, max_imag, tol, "non-finite-kernel")
    if max_imag > tol:
        return PositivityReport(min_kernel, max_imag, tol, "complex-kernel")
    if min_kernel < -tol:
        return PositivityReport(min_kernel, max_imag, tol, "negative-kernel")
    return PositivityReport(min_kernel, max_imag, tol, "ok")
