"""Periodic cubic-spline rotation of grid values (numpy).

Interpolation-mode rotation uses a periodic cubic B-spline: the spline
coefficients come from an FFT prefilter (the Fourier multiplier 1/B,
B the B-spline frequency response; exact on a periodic grid) and
evaluation sums 4^n weighted taps per output point.  `rotate_interp`
gathers from coefficients, so its callers prefilter once per call and
may fold 1/B into a symbol they apply anyway (`_prefilter_symbol`).
Each axis gets a table of its four wrapped tap offsets in the flattened
coefficient array, so each of the 4^n corners is one flat `take` at a
sum of table entries.  Output points are gathered in batches of
`_GATHER_BATCH_POINTS`, each with its own coordinates, weights and
tables, so a gather allocates no grid-sized array but its output.
Fourth-order accuracy is needed to keep the rotation-average
comparisons inside their stated tolerances; bilinear error on
desk-scale grids is orders of magnitude too large.

Only the n grid axes are filtered and rotated; trailing axes are
carried, so every component of an X-valued field, or a stack of fields,
rotates in one call.

The gather is equivariant on its source side, exactly: for a signed
permutation G and coefficients c, the gather at G R of c equals the
gather at R of c o G = `_permute_lattice(c, grid, G)`, because the
tensor B-spline is invariant under signed permutations and the
permutation acts on the coefficient lattice mod N, -N/2 rows included.
The interp-mode `average_conjugated` rests its lattice-orbit grouping on
this; the spline is the only reason for orbits, since an exact-mode
average is one multiply by the averaged permuted symbol.  The
rotation is not equivariant on its output side: turning the samples of
S_r f by a quarter turn Q is not S_(rQ) f, because at even N the index
-N/2 rows have no partner under the turn (for a random complex 64^2
field and r = 0.3 rad the two differ by up to 3.5 on those rows, 2.7e-14
elsewhere).  So a grouping must permute sources and spectra, never
outputs.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .grid import _multiply

#: Always False: there is no compiled backend.  Kept because the
#: benchmark's machine-facts line reads it.
USING_NUMBA = False

#: Output points per `rotate_interp` batch.  A batch's coordinates,
#: weights and tap tables take about 1 MiB at n = 3, so a gather's peak
#: is its output plus batch-sized arrays, not a dozen grid-sized ones
#: (traced peak at 64^3: 5.6 MiB with batches, 51.0 MiB in one pass).
#: Every grid of at most 4,096 points, every 2-D grid up to 64^2
#: included, is one batch.
_GATHER_BATCH_POINTS = 2**12


def _prefilter_symbol(N: int, n: int) -> np.ndarray:
    """1/(B(omega_1)...B(omega_n)) on the N^n lattice in FFT order, the prefilter's multiplier.

    Interpolation by the spline is convolution with the sampled B3 stencil
    (1, 4, 1)/6 per axis, whose DFT is B(omega) = (2 + cos omega)/3 with
    omega = 2 pi k / N.
    """
    inverse = 3.0 / (2.0 + np.cos(2.0 * np.pi * np.fft.fftfreq(N)))
    return reduce(np.multiply.outer, [inverse] * n)


def spline_prefilter(values: np.ndarray, n: int) -> np.ndarray:
    """Periodic cubic B-spline coefficients of `values` over its first n axes.

    The coefficients are the Fourier multiplier `_prefilter_symbol`
    applied to the values (exact on a periodic grid).
    """
    return _multiply(_prefilter_symbol(values.shape[0], n), values)


def _bspline_weights(f: np.ndarray):
    """Cubic B-spline weights for taps at offsets -1, 0, 1, 2 from floor(t)."""
    f2 = f * f
    f3 = f2 * f
    return (
        (1.0 - 3.0 * f + 3.0 * f2 - f3) / 6.0,
        (4.0 - 6.0 * f2 + 3.0 * f3) / 6.0,
        (1.0 + 3.0 * f + 3.0 * f2 - 3.0 * f3) / 6.0,
        f3 / 6.0,
    )


def rotate_interp(values: np.ndarray, R: np.ndarray, index_axis: np.ndarray) -> np.ndarray:
    """out[k] = the periodic cubic spline with coefficients `values`, evaluated at R x_k.

    `values` are spline coefficients (`spline_prefilter` of the samples)
    holding N = len(index_axis) points along each of their first n axes,
    n the order of the square matrix R; trailing fiber axes are carried.
    Rotation acts in index space (the grid spacing cancels), so the
    spline is gathered at fractional signed indices R @ j, wrapped mod N.
    R must be finite, and every R @ j must floor to an int32; otherwise
    `ValueError`.

    Output points run in batches of at most `_GATHER_BATCH_POINTS`
    consecutive flat indices.  A batch forms its signed indices j from
    the flat index, then R @ j, the floors, the 4n weights and the n tap
    tables, and runs the corner loop into its slice of `out`.  Every
    point gets the same arithmetic in any batch, and every array but the
    output is batch-sized.

    `taps[axis][off]` is the flat offset of the tap at floor(t) + off - 1
    along `axis`: that index wrapped mod N, times the axis's flat stride.
    A corner of the 4^n taps is then one `take` at the sum of its axes'
    taps.  Corners run with axis 0 fastest, each weight is the
    left-to-right product over the axes and `out` accumulates in that
    order.
    """
    R = np.ascontiguousarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"rotation must be a square matrix, got shape {R.shape}")
    n = R.shape[0]
    N = len(index_axis)
    grid_shape = (N,) * n
    if values.shape[:n] != grid_shape:
        raise ValueError(f"values must start with the grid axes {grid_shape}, got {values.shape}")
    if N**n >= 2**31:
        raise ValueError(f"grid of {N}^{n} points exceeds the int32 tap tables")
    if not np.all(np.isfinite(R)):
        raise ValueError("rotation must be finite")
    index_axis = np.asarray(index_axis)
    # |(R @ j)_i| <= max|j| * sum_l |R_il|, so every floor fits in int32
    reach = np.max(np.abs(index_axis)) * np.max(np.abs(R).sum(axis=1))
    if reach >= 2**31 - 1:
        raise ValueError(f"sample positions reach {reach:.3g}, beyond the int32 tap tables")
    fiber = values.shape[n:]
    points = N**n
    strides = [N ** (n - 1 - axis) for axis in range(n)]
    # wrapped[b + off] = ((b + off - 1) mod N) * stride for b in [0, N)
    wrapped = [np.mod(np.arange(-1, N + 2, dtype=np.int32), N) * np.int32(stride) for stride in strides]
    offsets = np.arange(4)[:, None]
    corners = [[corner // 4**axis % 4 for axis in range(n)] for corner in range(4**n)]
    flat = values.reshape((points,) + fiber)
    out = np.zeros(flat.shape, dtype=complex)
    buf = np.empty((min(points, _GATHER_BATCH_POINTS),) + fiber, dtype=complex)
    for start in range(0, points, _GATHER_BATCH_POINTS):
        k = np.arange(start, min(start + _GATHER_BATCH_POINTS, points))
        J = np.stack([index_axis[k // stride % N] for stride in strides]).astype(float)
        t = np.tensordot(R, J, axes=([1], [0]))
        i0 = np.floor(t)
        weights = [_bspline_weights(frac) for frac in t - i0]
        base = np.mod(i0.astype(np.int32), np.int32(N))
        taps = [table[b + offsets] for table, b in zip(wrapped, base)]
        block = out[start:start + len(k)]
        scratch = buf[:len(k)]
        for offs in corners:
            w = weights[0][offs[0]]
            idx = taps[0][offs[0]]
            for axis in range(1, n):
                w = w * weights[axis][offs[axis]]
                idx = idx + taps[axis][offs[axis]]
            # cast first: numpy's mixed real * complex multiply casts the real
            # operand through a buffer anyway, more slowly
            w = w.astype(complex).reshape(w.shape + (1,) * len(fiber))
            # every index is in range, so "wrap" wraps nothing; it spares the
            # bounds pass and the buffered `out` of the default "raise"
            block += np.multiply(w, flat.take(idx, axis=0, out=scratch, mode="wrap"), out=scratch)
    return out.reshape(values.shape)
