"""Periodic cubic-spline rotation of grid values (numpy).

Interpolation-mode rotation uses a periodic cubic B-spline: the spline
coefficients come from an FFT prefilter (the Fourier multiplier 1/B,
B the B-spline frequency response; exact on a periodic grid) and
evaluation sums 4^n weighted taps per output point.  `rotate_interp`
gathers from coefficients, so its callers prefilter once per call and
may fold 1/B into a symbol they apply anyway (`_prefilter_symbol`).
Each axis gets a table of its four wrapped tap offsets in the flattened
coefficient array, so each of the 4^n corners is one flat `take` at a
sum of table entries.  Fourth-order accuracy is needed to keep the
rotation-average comparisons inside their stated tolerances; bilinear
error on desk-scale grids is orders of magnitude too large.

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
    fiber = values.shape[n:]
    # each coordinate array is freed once used, so that only the weights
    # and the int32 tap tables live through the corner loop
    J = np.stack(np.meshgrid(*([index_axis] * n), indexing="ij"), axis=0).astype(float)
    t = np.tensordot(R, J, axes=([1], [0]))
    del J
    i0 = np.floor(t)
    weights = [_bspline_weights(frac) for frac in t - i0]
    del t
    base = np.mod(i0.astype(np.int32), np.int32(N))
    del i0
    offsets = np.arange(4).reshape((4,) + (1,) * n)
    taps = []
    for axis in range(n):
        # wrapped[b + off] = ((b + off - 1) mod N) * stride for b in [0, N)
        wrapped = np.mod(np.arange(-1, N + 2, dtype=np.int32), N) * np.int32(N ** (n - 1 - axis))
        taps.append(wrapped[base[axis] + offsets])
    del base
    flat = values.reshape((N**n,) + fiber)
    out = np.zeros(values.shape, dtype=complex)
    buf = np.empty_like(out)
    for corner in range(4**n):
        offs = [corner // 4**axis % 4 for axis in range(n)]
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
        out += np.multiply(w, flat.take(idx, axis=0, out=buf, mode="wrap"), out=buf)
    return out
