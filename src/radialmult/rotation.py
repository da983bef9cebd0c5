"""Rotations, Haar sampling, and quadrature on SO(n) and the sphere.

Haar sampling orthogonalizes a Gaussian matrix and fixes the sign
ambiguity of the QR factorization (positive diagonal of R) before
flipping one column when the determinant is -1; without the sign fix
the sample is not uniformly distributed.

Deterministic rules: on SO(2) the uniform angle rule with m nodes
integrates trigonometric polynomials of degree < m exactly.  On SO(3)
the Euler-angle factorization of Haar measure gives a product rule,
uniform in the two azimuthal angles and Gauss-Legendre in cos(beta).
Sphere rules are the analogous product rules one dimension down.

`lattice_group(n)` holds the rotations that map the frequency lattice
onto itself; they act on the torus by exact index permutation, which
is how `rotated_symbol` re-indexes a lattice sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FrequencyGrid
from .symbols import SampledSymbol

__all__ = [
    "Rotation",
    "RotationQuadrature",
    "SphereQuadrature",
    "haar_rotation",
    "so_quadrature",
    "sphere_quadrature",
    "subgroup_quadrature",
    "lattice_group",
    "rotated_symbol",
]

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Rotation:
    """Element of SO(n): orthogonal matrix with determinant +1."""

    n: int
    M: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if M.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}, got {M.shape}")
        if np.max(np.abs(M.T @ M - np.eye(self.n))) > ORTHO_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        if abs(np.linalg.det(M) - 1.0) > ORTHO_TOL:
            raise ValueError("matrix must have determinant +1")
        object.__setattr__(self, "M", M)

    def inverse(self) -> "Rotation":
        return Rotation(self.n, self.M.T)


@dataclass(frozen=True)
class RotationQuadrature:
    """Weighted rotation nodes approximating normalized Haar measure on SO(n)."""

    rotations: tuple
    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(self.rotations),):
            raise ValueError("weights must match rotation count")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rotations", tuple(self.rotations))


@dataclass(frozen=True)
class SphereQuadrature:
    """Weighted unit vectors approximating the uniform measure on S^(n-1)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.n:
            raise ValueError(f"nodes must have shape (m, {self.n})")
        if np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) > 1e-12:
            raise ValueError("nodes must be unit vectors")
        if np.any(weights <= 0) or abs(weights.sum() - 1.0) > 1e-14:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def haar_rotation(n: int, rng: np.random.Generator) -> Rotation:
    """Draw a Haar-uniform rotation from a seeded generator."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if n == 1:
        return Rotation(1, np.eye(1))
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    # sign fix: make the triangular factor's diagonal positive
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Rotation(n, Q)


def _rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _euler_zyz(alpha: float, beta: float, gamma: float) -> np.ndarray:
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    Rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    Ry_b = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    Rz_g = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return Rz_a @ Ry_b @ Rz_g


def so_quadrature(n: int, m: int) -> RotationQuadrature:
    """Deterministic quadrature rule for normalized Haar measure on SO(n)."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if n == 1:
        return RotationQuadrature((Rotation(1, np.eye(1)),), np.array([1.0]))
    if n == 2:
        angles = 2.0 * np.pi * np.arange(m) / m
        rots = tuple(Rotation(2, _rotation_2d(t)) for t in angles)
        return RotationQuadrature(rots, np.full(m, 1.0 / m))
    # n == 3: Haar measure factors as dalpha/2pi * d(cos beta)/2 * dgamma/2pi
    nodes_cb, weights_cb = np.polynomial.legendre.leggauss(m)
    angles = 2.0 * np.pi * np.arange(m) / m
    rots = []
    weights = []
    for alpha in angles:
        for cb, wb in zip(nodes_cb, weights_cb):
            beta = np.arccos(cb)
            for gamma in angles:
                rots.append(Rotation(3, _euler_zyz(alpha, beta, gamma)))
                weights.append(wb / 2.0 / m**2)
    weights = np.asarray(weights)
    weights = weights / weights.sum()
    return RotationQuadrature(tuple(rots), weights)


def sphere_quadrature(n: int, m: int) -> SphereQuadrature:
    """Quadrature for the uniform probability measure on S^(n-1)."""
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if m < 2:
        raise ValueError(f"order must be >= 2, got {m}")
    if n == 1:
        return SphereQuadrature(1, np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
    if n == 2:
        angles = 2.0 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return SphereQuadrature(2, nodes, np.full(m, 1.0 / m))
    # n == 3: Gauss-Legendre in cos(theta) times uniform azimuth
    ct, wt = np.polynomial.legendre.leggauss(m)
    phis = 2.0 * np.pi * np.arange(m) / m
    st = np.sqrt(1.0 - ct**2)
    # node i*m + j sits at polar node i and azimuth j
    nodes = np.stack(
        [np.outer(st, np.cos(phis)).ravel(), np.outer(st, np.sin(phis)).ravel(), np.repeat(ct, m)],
        axis=1,
    )
    weights = np.repeat(wt / 2.0 / m, m)
    weights = weights / weights.sum()
    return SphereQuadrature(3, nodes, weights)


def subgroup_quadrature(rotations: list[Rotation]) -> RotationQuadrature:
    """Uniform weights over a finite set of rotations (exact for subgroup averages)."""
    k = len(rotations)
    return RotationQuadrature(tuple(rotations), np.full(k, 1.0 / k))


def lattice_group(n: int) -> list[Rotation]:
    """The rotations that map the frequency lattice onto itself.

    These are the signed permutation matrices of determinant +1: 1, 4
    and 24 of them for n = 1, 2, 3.  They are listed breadth-first from
    the identity under the quarter turns in the coordinate planes
    (i, i+1), so at n = 2 the list runs through the turns by 0, 90, 180
    and 270 degrees.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    turns = [np.eye(n, dtype=int) for _ in range(n - 1)]
    for i, T in enumerate(turns):
        T[i : i + 2, i : i + 2] = [[0, -1], [1, 0]]
    group = [np.eye(n, dtype=int)]
    seen = {group[0].tobytes()}
    for M in group:  # the list grows while it is walked: breadth-first
        for T in turns:
            P = T @ M
            if P.tobytes() not in seen:
                seen.add(P.tobytes())
                group.append(P)
    return [Rotation(n, M.astype(float)) for M in group]


def c4_rotations() -> list[Rotation]:
    """`lattice_group(2)`; kept for the benchmark's conjugation workload."""
    return lattice_group(2)


def octahedral_rotations() -> list[Rotation]:
    """`lattice_group(3)`; kept for the benchmark's conjugation workload."""
    return lattice_group(3)


def rotated_symbol(phi: SampledSymbol, R: Rotation) -> SampledSymbol:
    """The lattice sample xi -> phi(R xi), for a lattice-preserving R.

    The samples are re-indexed with the torus frequency wrap, so the
    result is again a sample on the same lattice.  Any other symbol
    raises TypeError: sample it on a grid first.
    """
    if not isinstance(phi, SampledSymbol):
        raise TypeError(f"rotated_symbol re-indexes a SampledSymbol, got {type(phi).__name__}")
    return SampledSymbol(phi.grid, _permute_lattice(phi.values, phi.grid, R.M))


def _permute_lattice(values: np.ndarray, grid: FrequencyGrid, M: np.ndarray) -> np.ndarray:
    """out[k] = values[M k mod N] for a signed permutation matrix M.

    k runs over the signed lattice indices of the leading grid axes;
    trailing fiber axes are carried.  Row i of M holds its one nonzero
    s_i in column c_i, so out[k] = values[(s_i k_(c_i) mod N)_i]: the
    map only reflects and reorders whole axes.  Each axis with s_i = -1
    is reflected about index 0 (a flip, then a roll by one), then one
    transpose moves axis i to place c_i.  The result is a fresh
    C-contiguous array.  Signed permutations of either determinant are
    accepted; any other matrix raises ValueError.
    """
    n = grid.n
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"permutation matrix must be {n}x{n}, got {M.shape}")
    if values.shape[:n] != grid.shape:
        raise ValueError(f"values must start with the grid axes {grid.shape}, got {values.shape}")
    # a few Python-level checks on at most 9 entries cost less than numpy
    # calls on a 3x3 array, and this runs once per exact rotation
    cols = []
    out = values
    for axis, row in enumerate(M.tolist()):
        nonzero = [(col, entry) for col, entry in enumerate(row) if abs(entry) > ORTHO_TOL]
        if len(nonzero) != 1 or abs(abs(nonzero[0][1]) - 1.0) > ORTHO_TOL:
            raise ValueError("exact lattice permutation needs a signed permutation matrix")
        col, entry = nonzero[0]
        cols.append(col)
        if entry < 0:
            out = np.roll(np.flip(out, axis), 1, axis)  # k -> -k mod N
    if sorted(cols) != list(range(n)):
        raise ValueError("exact lattice permutation needs a signed permutation matrix")
    order = [cols.index(place) for place in range(n)] + list(range(n, values.ndim))
    return np.transpose(out, order).copy()
