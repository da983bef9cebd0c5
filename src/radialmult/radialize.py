"""Rotation averaging of symbols: the projection onto radial symbols.

Two independent computation paths:

* `project` reduces the SO(n) average to a sphere average: for |xi| = r
  the orbit {R^-1 xi} sweeps the sphere of radius r uniformly, so the
  averaged symbol is the spherical mean profile evaluated at |xi|.
  `project(phi, radii, sq)` returns that profile on the given radii as
  a `RadialSymbol` of phi's dimension; sq must have the same dimension.
  It evaluates phi over whole radii in batches of bounded size, on
  points stored coordinate-major (each coordinate one contiguous block),
  and `radial_deviation` reads the projection its caller computed.
* `project_mc` computes the average literally as a weighted sum of
  phi(R_j^-1 xi) over rotation quadrature nodes, on a grid.

The two must agree as the quadrature orders grow; tests cross-validate
them.  Both reproduce radial inputs exactly and annihilate odd symbols.
Sphere orders have one policy, `default_order`.  The measurements that
the CLI and the verify battery both make of a sphere rule live here too:
`radiality` of a projection and the `convergence_errors` of sphere means
as the order grows.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .grid import FrequencyGrid
from .rotation import RotationQuadrature, SphereQuadrature, sphere_quadrature
from .symbols import RadialSymbol, SampledSymbol, Symbol, eval_symbol, sample_symbol

__all__ = [
    "spherical_mean",
    "project",
    "project_mc",
    "radial_deviation",
    "radiality",
    "convergence_errors",
    "default_radii",
    "default_order",
    "SMOOTH_ORDER",
    "INDICATOR_ORDER",
    "RADIALITY_ORDER",
    "CONVERGENCE_ORDERS",
]

#: Default sphere-quadrature order for smooth symbols.
SMOOTH_ORDER = 256
#: Default sphere-quadrature order for indicator symbols (kinks converge slowly).
INDICATOR_ORDER = 4096
#: Order of the rule that re-projects a projection to measure its radiality.
RADIALITY_ORDER = 8
#: Sphere orders whose means `convergence_errors` compares with an oracle rule.
CONVERGENCE_ORDERS = (8, 16, 32, 64)
#: Largest number of points phi is evaluated at in one `evaluate` call of
#: the sphere means.  It bounds a projection's traced peak memory: 1.2 MiB
#: for the box indicator at n = 2, order 4096, and 2.3 MiB for an n = 3
#: Gaussian at order 256 (3.6 and 5.0 MiB with 2^16-point batches of whole
#: radii, 47.3 and 65.0 MiB at 2^20).  Batches hold whole radii; a radius
#: with more nodes, such as the 65,536 of n = 3, order 256, is evaluated in
#: chunks of its nodes.
_SPHERE_BATCH_POINTS = 2**14


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
    return grid.dxi * np.sqrt(r2.astype(float))


def default_order(
    phi: Symbol, smooth: int = SMOOTH_ORDER, indicator: int = INDICATOR_ORDER
) -> int:
    """Sphere-quadrature order for phi: `indicator` for kinked catalog symbols, else `smooth`."""
    return indicator if phi.kink else smooth


def _sphere_points(radii: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The (K, c, n) points r_k * nu_i of the given unit nodes, stored coordinate-major.

    The result is a view of a C-contiguous (n, K, c) buffer, so each
    coordinate is one contiguous block and a formula's reduction over
    the last axis reads contiguous rows.  `out=` fixes that layout:
    without it numpy lays the product out in its operands' stride order,
    which is coordinate-last again.
    """
    buf = np.empty((nodes.shape[1], len(radii), len(nodes)))
    np.multiply(radii[:, None], nodes.T[:, None, :], out=buf)
    return buf.transpose(1, 2, 0)


def _sphere_means(phi: Symbol, radii: np.ndarray, sq: SphereQuadrature) -> np.ndarray:
    """Average of phi over the sphere of each radius; phi(0) exactly at r = 0.

    No `evaluate` call sees more than `_SPHERE_BATCH_POINTS` = 2^14
    points, so the kernel's peak memory is bounded by that budget, not
    by the number of radii or of nodes (see `_SPHERE_BATCH_POINTS` for
    the traced peaks).  Positive radii are taken in batches of whole
    radii; a radius with more nodes than the budget is a batch of its
    own, evaluated in chunks of at most 2^14 of its nodes.  Each call's
    points are made inside it, on the coordinate-major layout of
    `_sphere_points`, so they are freed before the next call's are built.
    Each chunk is weighted straight into its radii's rows of one
    preallocated buffer by scaling its float view with the chunk's
    weights, each repeated for the real and the imaginary part, which
    numpy runs with SIMD; a complex multiply by zero-imaginary weights
    would be slower and could flip signed zeros.  The repeated weights
    are one chunk long, so a radius split into chunks holds no full-row
    copy of them.  A row is then reduced whole by numpy's pairwise sum,
    which calls no BLAS: its order is fixed by the row length alone, so
    a radius's mean depends neither on how many radii share the batch,
    nor on how its nodes are chunked, nor on the BLAS thread count.
    A symbol that is not finite at some point of a sphere raises
    `ArithmeticError` naming the first such radius, once every sphere is
    evaluated, so no mean is NaN or infinite.
    A lattice sample is not evaluable at points, so it raises `ValueError`.
    """
    if phi.n != sq.n:
        raise ValueError("symbol and quadrature dimension mismatch")
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii >= 0):  # NaN fails too
        raise ValueError(f"radii must be nonnegative, got {radii.min()}")
    means = np.empty(radii.shape, dtype=complex)
    origin = radii == 0.0
    if origin.any():
        means[origin] = eval_symbol(phi, np.zeros(phi.n))
    positive = np.flatnonzero(~origin)
    m = len(sq.weights)
    step = max(1, _SPHERE_BATCH_POINTS // m)  # whole radii per batch
    chunk = min(m, _SPHERE_BATCH_POINTS)  # nodes per call
    weighted = np.empty((min(step, len(positive)), m), dtype=complex)
    # the current chunk's weights, each once per real and once per imaginary
    # part of the float view; batches of whole radii fill it once
    pair_weights, filled = np.empty(2 * chunk), None
    largest = np.zeros(len(positive))  # per radius, the largest |phi| sampled
    for start in range(0, len(positive), step):
        batch = positive[start:start + step]
        rows, row_largest = weighted[:len(batch)], largest[start:start + step]
        for c0 in range(0, m, chunk):
            c1 = min(c0 + chunk, m)
            vals = phi.evaluate(_sphere_points(radii[batch], sq.nodes[c0:c1]))  # (K, c)
            # NaN where a row has one, and np.maximum keeps it
            np.maximum(row_largest, np.max(np.abs(vals), axis=1), out=row_largest)
            w = pair_weights[:2 * (c1 - c0)]
            if filled != c0:
                w[0::2] = w[1::2] = sq.weights[c0:c1]
                filled = c0
            # both views are contiguous: a batch of several radii is one chunk
            np.multiply(vals.view(float), w, out=rows[:, c0:c1].view(float))
        means[batch] = rows.sum(axis=1)
    nonfinite = ~np.isfinite(largest)
    if nonfinite.any():
        r = float(radii[positive][nonfinite][0])
        raise ArithmeticError(f"symbol is not finite on the sphere of radius {r}")
    # convex-average bound, the mechanism behind contractivity at p = 2;
    # the slack is relative above 1 because a pairwise sum rounds relatively
    if np.any(np.abs(means[positive]) > largest + 1e-13 * np.maximum(1.0, largest)):
        raise ArithmeticError("sphere mean exceeds the largest sampled value")
    return means


def spherical_mean(phi: Symbol, r: float, sq: SphereQuadrature) -> complex:
    """Average of phi over the sphere of radius r; phi(0) exactly at r = 0."""
    return complex(_sphere_means(phi, np.array([r]), sq)[0])


def project(phi: Symbol, radii: np.ndarray, sq: SphereQuadrature) -> RadialSymbol:
    """Rotation average of phi as a radial symbol with a profile on the given radii."""
    return RadialSymbol(radii, _sphere_means(phi, radii, sq), phi.n)


def project_mc(phi: Symbol, grid: FrequencyGrid, rq: RotationQuadrature) -> SampledSymbol:
    """Rotation-node average sum_j w_j phi(R_j^-1 xi) sampled on the grid.

    There is no torus wrap at R^-1 xi, so over `lattice_group` this is not
    the lattice-permutation average on the Nyquist rows (at n = 2, N = 64,
    L = 16 they differ by up to 0.707 for riesz j=2 and 1984 for monomial
    alpha=(1, 2); even symbols agree), and it is no oracle for check 9.
    """
    if phi.n != grid.n:
        raise ValueError("symbol and grid dimension mismatch")
    mesh = grid.frequency_mesh()
    acc = np.zeros(grid.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        # R^-1 xi = R^T xi; row-vector form: mesh @ R
        acc += w * phi.evaluate(mesh @ R.M)
    return SampledSymbol(grid=grid, values=acc)


def radial_deviation(phi: Symbol, proj: Symbol, grid: FrequencyGrid) -> float:
    """Max over the lattice (Nyquist rows excluded) of |phi(xi) - proj(xi)|.

    `proj` is phi's projection `project(phi, default_radii(grid), sq)`.
    """
    diff = sample_symbol(phi, grid).values - sample_symbol(proj, grid).values
    return float(np.max(np.abs(diff[~grid.nyquist_mask()])))


def radiality(proj: RadialSymbol, grid: FrequencyGrid) -> float:
    """Lattice deviation of a projection from its own re-projection at `RADIALITY_ORDER`.

    A radial symbol is its own sphere mean at every order, so a radial
    `proj` reads zero up to rounding.
    """
    reproj = project(proj, proj.radii, sphere_quadrature(proj.n, RADIALITY_ORDER))
    return radial_deviation(proj, reproj, grid)


def convergence_errors(
    phi: Symbol, r: float, orders: Sequence[int], oracle: SphereQuadrature
) -> list[float]:
    """Per order m, |spherical mean of phi at radius r under the order-m rule - under `oracle`|."""
    exact = spherical_mean(phi, r, oracle)
    return [abs(spherical_mean(phi, r, sphere_quadrature(phi.n, m)) - exact) for m in orders]
