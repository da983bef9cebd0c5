"""Periodic cubic-spline rotation: against rotated Gaussians, lattice permutations and tap sums.

`rotate_interp` gathers from spline coefficients, so each call here
prefilters its samples with `spline_prefilter` first.
"""

import itertools
import math

import numpy as np
import pytest

from radialmult import haar_rotation, lattice_group, make_grid
from radialmult import _kernels
from radialmult.rotation import _permute_lattice


def _gaussian(x, A):
    return np.exp(-np.einsum("...i,ij,...j->...", x, A, x))


def _max_error(N, R, A, L=8.0):
    """max |rotate_interp(f)(x) - f(R x)| over the grid, for f(x) = exp(-x.Ax)."""
    g = make_grid(len(A), N, L)
    x = g.space_mesh()
    coeffs = _kernels.spline_prefilter(_gaussian(x, A), len(A))
    out = _kernels.rotate_interp(coeffs, R, g.index_axis())
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
    out = _kernels.rotate_interp(_kernels.spline_prefilter(vals, 2), np.eye(2), g.index_axis())
    assert np.max(np.abs(out - vals)) <= 1e-12


def _random_field(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_rotate_interp_rotates_fiber_components_as_scalars():
    rng = np.random.default_rng(3)
    for n, N in [(2, 16), (3, 8)]:
        g = make_grid(n, N, 8.0)
        R = haar_rotation(n, rng).M
        F = _random_field(g.shape + (3,), rng)
        out = _kernels.rotate_interp(_kernels.spline_prefilter(F, n), R, g.index_axis())
        per_component = [
            _kernels.rotate_interp(_kernels.spline_prefilter(F[..., k], n), R, g.index_axis())
            for k in range(3)
        ]
        assert np.array_equal(out, np.stack(per_component, axis=-1))


def test_rotate_interp_lattice_rotations_match_exact_permutation():
    # quarter turns and their products land on knots, where the spline
    # reproduces the samples
    rng = np.random.default_rng(4)
    for n, N in [(2, 16), (3, 8)]:
        g = make_grid(n, N, 8.0)
        vals = _random_field(g.shape, rng)
        coeffs = _kernels.spline_prefilter(vals, n)
        for R in lattice_group(n)[1:]:
            out = _kernels.rotate_interp(coeffs, R.M, g.index_axis())
            assert np.max(np.abs(out - _permute_lattice(vals, g, R.M))) <= 1e-12


def _cubic_bspline(u):
    """The centered cubic B-spline B3(u), from its piecewise closed form."""
    u = abs(u)
    if u < 1.0:
        return 2.0 / 3.0 - u * u + u**3 / 2.0
    if u < 2.0:
        return (2.0 - u) ** 3 / 6.0
    return 0.0


def _spline_at(coeffs, x):
    """sum over the 4^n knots m near x of B3(x - m) coeffs[m mod N], term by term."""
    N = coeffs.shape[0]
    base = [math.floor(xa) - 1 for xa in x]
    total = 0j
    for offs in itertools.product(range(4), repeat=len(x)):
        knot = [b + o for b, o in zip(base, offs)]
        weight = math.prod(_cubic_bspline(xa - m) for xa, m in zip(x, knot))
        total += weight * coeffs[tuple(m % N for m in knot)]
    return total


def test_rotate_interp_matches_tap_by_tap_spline_evaluation():
    rng = np.random.default_rng(5)
    for n, N in [(2, 16), (3, 8)]:
        g = make_grid(n, N, 8.0)
        R = haar_rotation(n, rng).M
        vals = _random_field(g.shape, rng)
        coeffs = _kernels.spline_prefilter(vals, n)
        out = _kernels.rotate_interp(coeffs, R, g.index_axis())
        j = g.index_axis()
        for k in rng.integers(0, N, size=(6, n)):
            want = _spline_at(coeffs, R @ j[k].astype(float))
            assert abs(out[tuple(k)] - want) <= 1e-13


def test_rotate_interp_rejects_mismatched_shapes():
    g = make_grid(2, 16, 8.0)
    vals = np.zeros(g.shape, dtype=complex)
    with pytest.raises(ValueError, match="grid axes"):
        _kernels.rotate_interp(vals[:, :15], np.eye(2), g.index_axis())
    with pytest.raises(ValueError, match="grid axes"):
        _kernels.rotate_interp(vals, np.eye(2), g.index_axis()[:8])
    with pytest.raises(ValueError, match="grid axes"):
        _kernels.rotate_interp(vals, np.eye(3), g.index_axis())
    with pytest.raises(ValueError, match="square"):
        _kernels.rotate_interp(vals, np.eye(2, 3), g.index_axis())
    # a zero-stride view: the shape of a 2048^3 grid without its memory
    huge = np.broadcast_to(np.complex128(0), (2048,) * 3)
    with pytest.raises(ValueError, match="int32"):
        _kernels.rotate_interp(huge, np.eye(3), np.arange(-1024, 1024))


def test_rotate_interp_rejects_non_finite_or_far_positions():
    g = make_grid(2, 16, 8.0)
    vals = np.ones(g.shape, dtype=complex)
    for bad in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [np.inf, 1.0]])):
        with pytest.raises(ValueError, match="finite"):
            _kernels.rotate_interp(vals, bad, g.index_axis())
    # floor(R @ j) must fit the int32 cast, or the taps wrap silently
    with pytest.raises(ValueError, match="int32"):
        _kernels.rotate_interp(vals, np.diag([1e12, 1.0]), g.index_axis())
    # far but within range: the spline of constant coefficients is constant
    out = _kernels.rotate_interp(vals, np.diag([1e8, 1.0]), g.index_axis())
    assert np.max(np.abs(out - 1.0)) <= 1e-12


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 8)])
def test_rotate_interp_is_independent_of_the_batch_size(monkeypatch, n, N):
    # 37 leaves a remainder batch; every point must get the same arithmetic
    rng = np.random.default_rng(20 + n)
    g = make_grid(n, N, 8.0)
    R = rng.standard_normal((n, n))  # generic fractional positions
    for shape in (g.shape, g.shape + (3,), g.shape + (3, 4)):  # scalar, l_3 fiber, 4-member stack
        coeffs = _random_field(shape, rng)
        monkeypatch.setattr(_kernels, "_GATHER_BATCH_POINTS", 2**30)
        whole = _kernels.rotate_interp(coeffs, R, g.index_axis())
        monkeypatch.setattr(_kernels, "_GATHER_BATCH_POINTS", 37)
        assert np.array_equal(_kernels.rotate_interp(coeffs, R, g.index_axis()), whole)


def test_rotate_interp_peak_memory_is_its_output_and_one_batch(traced_peak_mib):
    # the 64^3 output is 4 MiB; grid-sized coordinates, weights and tap
    # tables would add about 47 MiB
    g = make_grid(3, 64, 8.0)
    coeffs = _random_field(g.shape, np.random.default_rng(6))
    R = haar_rotation(3, np.random.default_rng(7)).M
    assert traced_peak_mib(_kernels.rotate_interp, coeffs, R, g.index_axis()) <= 8.0


@pytest.mark.parametrize("N", [8, 16])
@pytest.mark.parametrize("n", [2, 3])
def test_rotate_interp_is_equivariant_on_its_source(n, N):
    # the gather at G R of c is the gather at R of c o G for every lattice
    # symmetry G: the tensor B-spline is invariant under signed permutations,
    # and the permutation acts on the coefficients mod N, -N/2 rows included.
    # `average_conjugated` groups rotation nodes into lattice orbits on this.
    # The output side is the contrast: turning the samples of a rotated field
    # by a quarter turn is not the rotation by the product, by up to 3.5 on
    # the -N/2 rows, which have no partner under the turn.
    rng = np.random.default_rng(10 * n + N)
    g = make_grid(n, N, 4.0)
    coeffs = _random_field(g.shape, rng)  # complex and not even
    for R in (haar_rotation(n, rng) for _ in range(2)):
        for G in lattice_group(n):
            direct = _kernels.rotate_interp(coeffs, G.M @ R.M, g.index_axis())
            moved = _kernels.rotate_interp(_permute_lattice(coeffs, g, G.M), R.M, g.index_axis())
            assert np.max(np.abs(moved - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dft_commutes_with_lattice_permutations(n):
    # F(d o G) = (F d) o G for a signed permutation G, since G^-T = G
    rng = np.random.default_rng(n)
    g = make_grid(n, 8, 4.0)
    d = _random_field(g.shape + (2,), rng)
    axes = tuple(range(n))
    for G in lattice_group(n):
        lhs = np.fft.fftn(_permute_lattice(d, g, G.M), axes=axes)
        rhs = _permute_lattice(np.fft.fftn(d, axes=axes), g, G.M)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))
