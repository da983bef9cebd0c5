"""Periodic cubic-spline rotation of grid values (numpy).

Interpolation-mode rotation uses a periodic cubic B-spline: the spline
coefficients come from an FFT prefilter (division by the B-spline
frequency response, exact on a periodic grid) and evaluation gathers
4^n taps per output point.  Fourth-order accuracy is needed to keep the
rotation-average comparisons inside their stated tolerances; bilinear
error on desk-scale grids is orders of magnitude too large.

Only the n grid axes are filtered and rotated; trailing fiber axes are
carried, so every component of an X-valued field rotates in one call.
"""

from __future__ import annotations

import numpy as np

#: Always False: there is no compiled backend.  Kept because the
#: benchmark's machine-facts line reads it.
USING_NUMBA = False


def spline_prefilter(values: np.ndarray, n: int) -> np.ndarray:
    """Periodic cubic B-spline coefficients via FFT division along the n grid axes."""
    coeffs = np.asarray(values, dtype=complex)
    for axis in range(n):
        N = values.shape[axis]
        omega = 2.0 * np.pi * np.fft.fftfreq(N)
        response = (2.0 + np.cos(omega)) / 3.0  # DFT of the centered B3 stencil (1,4,1)/6
        shape = [1] * values.ndim
        shape[axis] = N
        coeffs = np.fft.ifft(np.fft.fft(coeffs, axis=axis) / response.reshape(shape), axis=axis)
    return coeffs


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


def _rotate_spline_numpy(coeffs: np.ndarray, R: np.ndarray, index_axis: np.ndarray) -> np.ndarray:
    n = R.shape[0]
    N = coeffs.shape[0]
    fiber = (1,) * (coeffs.ndim - n)
    J = np.stack(np.meshgrid(*([index_axis] * n), indexing="ij"), axis=0).astype(float)
    t = np.tensordot(R, J, axes=([1], [0]))
    i0 = np.floor(t).astype(np.int64)
    frac = t - i0
    weights = [_bspline_weights(frac[axis]) for axis in range(n)]
    out = np.zeros(coeffs.shape, dtype=complex)
    for corner in range(4**n):
        w = np.ones(coeffs.shape[:n], dtype=float)
        idx = []
        c = corner
        for axis in range(n):
            off = c % 4
            c //= 4
            w = w * weights[axis][off]
            idx.append(np.mod(i0[axis] + off - 1, N))
        out += w.reshape(w.shape + fiber) * coeffs[tuple(idx)]
    return out


def rotate_interp(values: np.ndarray, R: np.ndarray, index_axis: np.ndarray) -> np.ndarray:
    """out[k] = values interpolated at R x_k over the grid axes; periodic cubic spline.

    Rotation acts in index space (the grid spacing cancels), so the
    spline is gathered at fractional signed indices R @ j, wrapped
    mod N.
    """
    R = np.ascontiguousarray(R, dtype=float)
    coeffs = spline_prefilter(values, R.shape[0])
    return _rotate_spline_numpy(coeffs, R, index_axis)
