"""Periodic grid, the field type, discrete Fourier transforms and L^p norms.

The torus [-L/2, L/2)^n is sampled with N points per axis at spacing
dx = L/N; the dual frequency lattice has spacing dxi = 2*pi/L and runs
over j*dxi for j in {-N/2, ..., N/2 - 1} per axis.

Storage order
-------------
Arrays are stored in standard FFT order: index 0 holds the x = 0
(resp. xi = 0) sample, indices 1..N/2-1 the positive coordinates and
indices N/2..N-1 the negative ones (index N/2 is the Nyquist row
-N/2 * dxi, which has no positive partner on the lattice).  Public
helpers `space_mesh` and `frequency_mesh` return physical coordinates
in this same storage order, so callers never touch raw indices.

Transform scaling carries physical units: the forward transform
multiplies the FFT sum by dx^n, the inverse divides the inverse sum by
L^n.  With this convention symbols given by continuum formulas act
unchanged, and a discrete delta of height 1/dx^n transforms to the
constant 1.

`GridFunction` is the one field type: scalar, or valued in X = l_q^d
with the fiber on one trailing axis.  `lp_norm` takes the L^p norm of
its pointwise magnitude (|f|, or the fiber's l_q norm).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "FrequencyGrid",
    "GridFunction",
    "make_grid",
    "transform",
    "lp_norm",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Paired space/frequency lattices for the periodic box [-L/2, L/2)^n.

    The constructor validates (n, N, L) and stores them as int, int and
    float, so equal grids compare and hash equal whatever types built them.
    It rejects an extent whose scales L^n, dx^n or (N/L)^n, which the
    transforms and norms multiply by, overflow or are not normal floats.
    """

    n: int
    N: int
    L: float

    def __post_init__(self):
        _check_dimension(self.n)
        if not isinstance(self.N, (int, np.integer)) or self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"points per axis must be an even integer >= 4, got {self.N}")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"extent must be positive and finite, got {self.L}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "L", float(self.L))
        with np.errstate(over="ignore", under="ignore"):
            scales = np.array([self.L, self.L / self.N, self.N / self.L]) ** self.n
        if not np.all((scales >= np.finfo(float).tiny) & (scales < np.inf)):
            raise ValueError(
                f"extent {self.L} is out of range at n = {self.n}, N = {self.N}: "
                "L^n, dx^n and (N/L)^n must be normal floats"
            )

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.L

    @property
    def xi_max(self) -> float:
        """Nyquist radius pi*N/L."""
        return np.pi * self.N / self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    def index_axis(self) -> np.ndarray:
        """Signed lattice indices j in FFT storage order: 0..N/2-1, -N/2..-1."""
        half = self.N // 2
        return np.concatenate([np.arange(0, half), np.arange(-half, 0)])

    def space_axis(self) -> np.ndarray:
        """Spatial coordinates per axis, in storage order."""
        return self.index_axis() * self.dx

    def frequency_axis(self) -> np.ndarray:
        """Frequencies per axis, in storage order."""
        return self.index_axis() * self.dxi

    def space_mesh(self) -> np.ndarray:
        """Array of shape (N,)*n + (n,) of physical x coordinates."""
        axes = np.meshgrid(*([self.space_axis()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def frequency_mesh(self) -> np.ndarray:
        """Array of shape (N,)*n + (n,) of physical xi coordinates."""
        axes = np.meshgrid(*([self.frequency_axis()] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask, True on lattice points with any index = -N/2.

        The Nyquist row has no mirror partner under xi -> -xi, so it is
        excluded from rotation-symmetry assertions.
        """
        half = self.N // 2
        mask = np.zeros(self.shape, dtype=bool)
        for axis in range(self.n):
            sl = [slice(None)] * self.n
            sl[axis] = half
            mask[tuple(sl)] = True
        return mask


def make_grid(n: int, N: int, L: float) -> FrequencyGrid:
    """The grid with n dimensions, N points per axis and extent L; validated on construction."""
    return FrequencyGrid(n, N, L)


@dataclass(frozen=True)
class GridFunction:
    """Complex function sampled on the grid, tagged space or frequency.

    A scalar field has `q=None` and values of grid shape.  A field valued
    in X = l_q^d carries its fiber on one trailing axis, so d is
    `values.shape[-1]`; operators act on it as M tensor Id_X.
    """

    grid: FrequencyGrid
    values: np.ndarray
    domain: str = "space"
    q: float | None = None

    def __post_init__(self):
        if self.domain not in ("space", "frequency"):
            raise ValueError(f"domain must be 'space' or 'frequency', got {self.domain!r}")
        if self.q is not None and not self.q >= 1:
            raise ValueError(f"fiber exponent must satisfy q >= 1, got {self.q}")
        values = np.asarray(self.values, dtype=complex)
        fiber = () if self.q is None else values.shape[-1:]
        if values.shape != self.grid.shape + fiber or fiber == (0,):
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
                + ("" if self.q is None else " plus one nonempty fiber axis")
            )
        object.__setattr__(self, "values", values)

    def magnitude(self) -> np.ndarray:
        """Pointwise |f|, or the l_q norm of the fiber; real array of grid shape."""
        if self.q is None:
            return np.abs(self.values)
        if np.isinf(self.q):
            return np.max(np.abs(self.values), axis=-1)
        return np.sum(np.abs(self.values) ** self.q, axis=-1) ** (1.0 / self.q)


def VectorGridFunction(grid: FrequencyGrid, d: int, q: float, values, domain: str = "space"):
    """An l_q^d-valued `GridFunction`, after checking that its fiber axis has length d."""
    f = GridFunction(grid, values, domain, q)
    if f.values.shape[-1] != d:
        raise ValueError(f"fiber dimension {f.values.shape[-1]} does not match d = {d}")
    return f


def transform(f: GridFunction, direction: str) -> GridFunction:
    """Discrete Fourier transform with physical-unit scaling.

    forward:  fhat(xi_j) = dx^n * sum_k f(x_k) exp(-i <x_k, xi_j>)
    inverse:  f(x_k) = L^-n * sum_j fhat(xi_j) exp(+i <x_k, xi_j>)

    The transform runs over the grid axes; a fiber axis rides along.  The
    round trip is the identity to machine precision.
    """
    grid = f.grid
    if direction == "forward":
        if f.domain != "space":
            raise ValueError("forward transform expects a space-domain function")
        out = _dft_sum(f.values, grid.shape) * grid.dx**grid.n
        return replace(f, values=out, domain="frequency")
    if direction == "inverse":
        if f.domain != "frequency":
            raise ValueError("inverse transform expects a frequency-domain function")
        out = _inverse_dft_sum(f.values, grid.shape) * (grid.N**grid.n / grid.L**grid.n)
        return replace(f, values=out, domain="space")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _check_dimension(n: int) -> None:
    """The one dimension rule: n is 1, 2 or 3."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")


def _dft_sum(values: np.ndarray, shape: tuple[int, ...], stack: int = 0) -> np.ndarray:
    """The unscaled DFT sum over the grid axes of `shape`, which follow `stack` leading axes.

    Trailing axes ride along.  The call names its axes and their lengths,
    which spares numpy looking the lengths up per transform.
    """
    return np.fft.fftn(values, s=shape, axes=tuple(range(stack, stack + len(shape))))


def _inverse_dft_sum(spectrum: np.ndarray, shape: tuple[int, ...], stack: int = 0) -> np.ndarray:
    """The inverse of `_dft_sum`: numpy's 1/N^n-normalized inverse DFT over the same axes."""
    return np.fft.ifftn(spectrum, s=shape, axes=tuple(range(stack, stack + len(shape))))


def _multiply(symbol: np.ndarray, values: np.ndarray, stack: int = 0) -> np.ndarray:
    """F^-1 [symbol . F values] over the grid axes.

    The grid axes follow `stack` leading axes (independent fields
    transformed in one call); trailing fiber axes ride along.  The
    forward dx^n and inverse N^n/L^n scalings cancel, so the unscaled
    transform pair is used directly.
    """
    fiber = values.ndim - stack - symbol.ndim
    spectrum = _dft_sum(values, symbol.shape, stack)
    spectrum *= symbol.reshape(symbol.shape + (1,) * fiber)  # in place: no product buffer
    return _inverse_dft_sum(spectrum, symbol.shape, stack)


def lp_norm(f: GridFunction, p: float) -> float:
    """Discrete L^p norm of the pointwise magnitude (fiber l_q norm first), weights dx^n."""
    if not p >= 1:
        raise ValueError(f"exponent must satisfy p >= 1, got {p}")
    if f.domain != "space":
        raise ValueError("lp_norm expects a space-domain function")
    mags = f.magnitude()
    if np.isinf(p):
        return float(np.max(mags))
    return float(_lp_norms(mags[None], p, f.grid.dx**f.grid.n)[0])


def _lp_norms(mags: np.ndarray, p: float, vol: float) -> np.ndarray:
    """The one discrete L^p norm (finite p) of each field stacked on the leading axis of `mags`.

    `mags` holds pointwise magnitudes and `vol` the weight dx^n.  Each
    field's |x|^p is summed as one contiguous row, in the order a flat
    sum of that field alone takes, and rooted as a numpy scalar (numpy's
    array pow may round differently), so a field's norm does not depend
    on what is stacked with it: the power iteration relies on that.
    """
    sums = (mags**p).reshape(len(mags), -1).sum(axis=1)
    return np.array([(s * vol) ** (1.0 / p) for s in sums])
