"""Periodic cubic-spline rotation against analytically rotated Gaussians."""

import numpy as np

from radialmult import haar_rotation, make_grid
from radialmult import _kernels


def _gaussian(x, A):
    return np.exp(-np.einsum("...i,ij,...j->...", x, A, x))


def _max_error(N, R, A, L=8.0):
    """max |rotate_interp(f)(x) - f(R x)| over the grid, for f(x) = exp(-x.Ax)."""
    g = make_grid(len(A), N, L)
    x = g.space_mesh()
    out = _kernels.rotate_interp(_gaussian(x, A) + 0j, R, g.index_axis())
    return np.max(np.abs(out - _gaussian(x @ R.T, A)))


def test_rotate_interp_2d_agreement():
    th = 0.37
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    A = np.diag([1.0, 2.0])
    coarse, fine = _max_error(32, R, A), _max_error(64, R, A)
    assert coarse <= 1e-3 and fine <= 1e-4
    assert coarse / fine >= 12.0  # fourth order: halving dx divides the error by ~16


def test_rotate_interp_3d_agreement():
    R = haar_rotation(3, np.random.default_rng(0)).M
    A = np.diag([1.0, 2.0, 3.0])
    coarse, fine = _max_error(16, R, A), _max_error(32, R, A)
    assert coarse <= 1.5e-2 and fine <= 2e-3
    assert coarse / fine >= 5.0  # above the second-order ratio 4; pre-asymptotic at N=16


def test_rotate_interp_identity_reproduces_samples():
    g = make_grid(2, 16, 8.0)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    out = _kernels.rotate_interp(vals, np.eye(2), g.index_axis())
    assert np.max(np.abs(out - vals)) <= 1e-12
