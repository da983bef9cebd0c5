"""Rotation averaging of symbols: the projection onto radial symbols.

Two independent computation paths:

* `project` reduces the SO(n) average to a sphere average: for |xi| = r
  the orbit {R^-1 xi} sweeps the sphere of radius r uniformly, so the
  averaged symbol is the spherical mean profile evaluated at |xi|.
  `project(phi, radii, sq)` returns that profile on the given radii as
  a `RadialSymbol` of phi's dimension; sq must have the same dimension.
* `project_mc` computes the average literally as a weighted sum of
  phi(R_j^-1 xi) over rotation quadrature nodes, on a grid.

The two must agree as the quadrature orders grow; tests cross-validate
them.  Both reproduce radial inputs exactly and annihilate odd symbols.
"""

from __future__ import annotations

import numpy as np

from .grid import FrequencyGrid
from .rotation import RotationQuadrature, SphereQuadrature
from .symbols import RadialSymbol, SampledSymbol, Symbol, eval_symbol

__all__ = [
    "spherical_mean",
    "project",
    "project_mc",
    "radial_deviation",
    "default_radii",
    "SMOOTH_ORDER",
    "INDICATOR_ORDER",
]

#: Default sphere-quadrature order for smooth symbols.
SMOOTH_ORDER = 256
#: Default sphere-quadrature order for indicator symbols (kinks converge slowly).
INDICATOR_ORDER = 4096


def default_radii(grid: FrequencyGrid) -> np.ndarray:
    """Profile radii for projections meant to be sampled back on `grid`.

    Returns every distinct lattice radius dxi * sqrt(j1^2 + ... + jn^2),
    Nyquist rows included.  With knots at exactly the radii that occur
    on the lattice, sampling the projected symbol on the grid never
    interpolates, so fixed-point and positivity checks see the true
    spherical means rather than interpolation error.
    """
    half = grid.N // 2
    j = np.arange(-half, half)
    r2 = np.zeros((1,), dtype=np.int64)
    for _ in range(grid.n):
        r2 = np.unique(r2[:, None] + (j**2)[None, :]).ravel()
    return grid.dxi * np.sqrt(np.unique(r2).astype(float))


def _require_pointwise(phi: Symbol) -> None:
    if isinstance(phi, SampledSymbol):
        raise ValueError("sampled symbols cannot be evaluated off-lattice; resample a closed form")


def _sphere_means(phi: Symbol, radii: np.ndarray, sq: SphereQuadrature) -> np.ndarray:
    """Average of phi over the sphere of each radius; phi(0) exactly at r = 0.

    All positive radii are evaluated in one batch of radii x nodes points.
    Each radius's row is then reduced by its own dot product: a
    matrix-vector product rounds differently from a dot product, which
    would make a radius's mean depend on how many radii share the call.
    """
    _require_pointwise(phi)
    if phi.n != sq.n:
        raise ValueError("symbol and quadrature dimension mismatch")
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0):
        raise ValueError(f"radii must be nonnegative, got {radii.min()}")
    means = np.empty(radii.shape, dtype=complex)
    origin = radii == 0.0
    if origin.any():
        means[origin] = eval_symbol(phi, np.zeros(phi.n))
    if not origin.all():
        vals = phi.evaluate(radii[~origin, None, None] * sq.nodes[None, :, :])  # (K, m)
        weights = sq.weights.astype(complex)
        means[~origin] = [np.dot(row, weights) for row in vals]
        # convex-average bound; the mechanism behind contractivity at p = 2
        if np.any(np.abs(means[~origin]) > np.max(np.abs(vals), axis=1) + 1e-13):
            raise ArithmeticError("sphere mean exceeds the largest sampled value")
    return means


def spherical_mean(phi: Symbol, r: float, sq: SphereQuadrature) -> complex:
    """Average of phi over the sphere of radius r; phi(0) exactly at r = 0."""
    return complex(_sphere_means(phi, np.array([r]), sq)[0])


def project(phi: Symbol, radii: np.ndarray, sq: SphereQuadrature) -> RadialSymbol:
    """Rotation average of phi as a radial symbol with a profile on the given radii."""
    radii = np.asarray(radii, dtype=float)
    return RadialSymbol(radii, _sphere_means(phi, radii, sq), phi.n)


def project_mc(phi: Symbol, grid: FrequencyGrid, rq: RotationQuadrature) -> SampledSymbol:
    """Rotation-node average sum_j w_j phi(R_j^-1 xi) sampled on the grid."""
    _require_pointwise(phi)
    if phi.n != grid.n:
        raise ValueError("symbol and grid dimension mismatch")
    mesh = grid.frequency_mesh()
    acc = np.zeros(grid.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        # R^-1 xi = R^T xi; row-vector form: mesh @ R
        acc += w * phi.evaluate(mesh @ R.M)
    return SampledSymbol(grid=grid, values=acc)


def radial_deviation(phi: Symbol, grid: FrequencyGrid, sq: SphereQuadrature) -> float:
    """Max over the lattice (Nyquist rows excluded) of |phi(xi) - mean(phi; |xi|)|."""
    _require_pointwise(phi)
    keep = ~grid.nyquist_mask()
    phi_vals = phi.evaluate(grid.frequency_mesh()[keep])
    # one sphere per lattice radius dxi * sqrt(j1^2 + ... + jn^2), as in default_radii
    j2 = grid.index_axis() ** 2
    r2, inverse = np.unique(sum(np.ix_(*([j2] * grid.n)))[keep], return_inverse=True)
    means = _sphere_means(phi, grid.dxi * np.sqrt(r2.astype(float)), sq)
    return float(np.max(np.abs(phi_vals - means[inverse])))
