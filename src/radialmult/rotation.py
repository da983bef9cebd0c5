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

At n = 1 the group averaged over is O(1) = {+1, -1}: SO(1) is trivial,
while the projection averages over the sphere S^0 = {+1, -1}, so
`so_quadrature(1, m)` and `lattice_group(1)` hold the reflection too
and an operator-side average takes the even part, as `project` does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import FrequencyGrid, _check_dimension
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
    """Element of SO(n): orthogonal matrix with determinant +1; at n = 1 of O(1), so +-1."""

    n: int
    M: np.ndarray

    def __post_init__(self):
        _check_dimension(self.n)
        M = np.asarray(self.M, dtype=float)
        if M.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}, got {M.shape}")
        if not np.max(np.abs(M.T @ M - np.eye(self.n))) <= ORTHO_TOL:  # NaN fails too
            raise ValueError("matrix is not orthogonal within tolerance")
        if self.n > 1 and not abs(np.linalg.det(M) - 1.0) <= ORTHO_TOL:
            raise ValueError("matrix must have determinant +1")
        object.__setattr__(self, "M", M)

    def inverse(self) -> "Rotation":
        return Rotation(self.n, self.M.T)


def _check_weights(weights, count: int) -> np.ndarray:
    """`weights` as floats, after the one weight rule of a quadrature with `count` nodes."""
    weights = np.asarray(weights, dtype=float)
    valid = count >= 1 and weights.shape == (count,) and np.all(weights > 0)  # NaN fails too
    if not (valid and abs(weights.sum() - 1.0) <= 1e-14):
        raise ValueError("a quadrature needs at least one node and one positive weight per node, "
                         f"summing to 1; got weights of shape {weights.shape} for {count} nodes")
    return weights


@dataclass(frozen=True)
class RotationQuadrature:
    """Weighted rotation nodes approximating normalized Haar measure on SO(n) (O(1) at n = 1)."""

    rotations: tuple
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights, len(self.rotations)))
        object.__setattr__(self, "rotations", tuple(self.rotations))


@dataclass(frozen=True)
class SphereQuadrature:
    """Weighted unit vectors approximating the uniform measure on S^(n-1)."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _check_dimension(self.n)
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != self.n:
            raise ValueError(f"nodes must have shape (m, {self.n})")
        weights = _check_weights(self.weights, len(nodes))
        # ||nu| - 1| in one buffer, |nu|^2 summed a coordinate at a time: no
        # (m, n) squared temporary
        error = np.zeros(len(nodes))
        for coordinate in nodes.T:
            error += coordinate * coordinate
        np.sqrt(error, out=error)
        error -= 1.0
        if not np.max(np.abs(error, out=error)) <= 1e-12:  # NaN fails too
            raise ValueError("nodes must be unit vectors")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def haar_rotation(n: int, rng: np.random.Generator) -> Rotation:
    """Draw a Haar-uniform rotation from a seeded generator."""
    _check_dimension(n)  # before the draw, which rejects n < 0 in its own words
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


def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-point Gauss-Legendre rule on [-1, 1]: increasing nodes and their weights.

    Newton's method finds the nodes in [0, 1) from Tricomi's initial
    guesses, evaluating P_k and P_k' by the three-term recurrence for all
    of them at once, so the rule costs O(k^2) operations and O(k) memory
    where an eigensolve of the Jacobi matrix costs O(k^3).  The other
    half is mirrored, so the nodes are exactly antisymmetric (the middle
    node of an odd rule is exactly 0) and the weights exactly symmetric.
    The weights are 2 / ((1 - x^2) P_k'(x)^2), normalized to sum to 2.
    """
    if k < 1:
        raise ValueError(f"Gauss-Legendre rule needs k >= 1 nodes, got {k}")
    half = (k + 1) // 2
    i = np.arange(1, half + 1)
    # Tricomi's approximation to the i-th largest root
    x = (1.0 - (k - 1) / (8.0 * k**3)) * np.cos(np.pi * (4 * i - 1) / (4 * k + 2))

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_k(x) and P_k'(x) by (j + 1) P_(j+1) = (2j + 1) x P_j - j P_(j-1)."""
        prev, p = np.ones_like(x), x.copy()
        for j in range(1, k):
            prev, p = p, ((2 * j + 1) * x * p - j * prev) / (j + 1)
        return p, k * (x * p - prev) / (x * x - 1.0)

    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 4 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Newton's method did not converge for the {k}-point rule")
    if k % 2:
        x[-1] = 0.0  # P_k is odd: its middle root is 0
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = np.empty(k), np.empty(k)
    nodes[:half], nodes[k - half:] = -x, x[::-1]  # the odd rule's middle is +0.0
    weights[:half], weights[k - half:] = w, w[::-1]
    weights *= 2.0 / weights.sum()
    return nodes, weights


def so_quadrature(n: int, m: int) -> RotationQuadrature:
    """Deterministic quadrature rule for normalized Haar measure on SO(n).

    At n = 2 node k is the turn by 2 pi k / m, with uniform weights.
    With g = gcd(m, 4), the first m/g nodes are computed from their
    angles and node k >= m/g is the exact product T @ R_(k mod m/g) of a
    turn T in C_g, the rotations of `lattice_group(2)` by multiples of
    2 pi / g, so that an interp-mode `average_conjugated` finds each
    node's lattice orbit bitwise (`_lattice_orbits`; exact mode needs no
    orbits).  At n = 1 it is the exact rule over O(1) = {+1, -1},
    `lattice_group(1)`, and ignores m.
    """
    _check_dimension(n)
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if n == 1:
        return subgroup_quadrature(lattice_group(1))
    if n == 2:
        g = math.gcd(m, 4)
        angles = 2.0 * np.pi * np.arange(m // g) / m
        base = [Rotation(2, _rotation_2d(t)) for t in angles]
        turns = lattice_group(2)[4 // g :: 4 // g]  # C_g without the identity
        rots = base + [Rotation(2, T.M @ R.M) for T in turns for R in base]
        return RotationQuadrature(tuple(rots), np.full(m, 1.0 / m))
    # n == 3: Haar measure factors as dalpha/2pi * d(cos beta)/2 * dgamma/2pi
    nodes_cb, weights_cb = _gauss_legendre(m)
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
    """Quadrature for the uniform probability measure on S^(n-1).

    At n = 2, 3 the order m is an exactness degree: the rule integrates
    every polynomial of degree < m exactly, with m equispaced nodes on
    S^1 and m^2 nodes on S^2 (m Gauss-Legendre nodes in cos(theta) times
    m azimuths), so m = 4096 means 16.8M nodes at n = 3.  The n = 1 rule
    {+1, -1} is the whole of S^0 and ignores m.
    """
    _check_dimension(n)
    if m < 2:
        raise ValueError(f"order must be >= 2, got {m}")
    if n == 1:
        return SphereQuadrature(1, np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
    if n == 2:
        angles = 2.0 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return SphereQuadrature(2, nodes, np.full(m, 1.0 / m))
    # n == 3: Gauss-Legendre in cos(theta) times uniform azimuth
    ct, wt = _gauss_legendre(m)
    phis = 2.0 * np.pi * np.arange(m) / m
    st = np.sqrt(1.0 - ct**2)
    # node i*m + j sits at polar node i and azimuth j; each coordinate is
    # written into the one node buffer, with no (m, m) temporaries
    nodes = np.empty((m, m, 3))
    np.multiply.outer(st, np.cos(phis), out=nodes[..., 0])
    np.multiply.outer(st, np.sin(phis), out=nodes[..., 1])
    nodes[..., 2] = ct[:, None]
    weights = np.repeat(wt / 2.0 / m, m)
    weights /= weights.sum()
    return SphereQuadrature(3, nodes.reshape(m * m, 3), weights)


def subgroup_quadrature(rotations: list[Rotation]) -> RotationQuadrature:
    """Uniform weights over a finite set of rotations (exact for subgroup averages)."""
    k = len(rotations)
    return RotationQuadrature(tuple(rotations), np.ones(k) / k)


def lattice_group(n: int) -> tuple[Rotation, ...]:
    """The rotations that map the frequency lattice onto itself.

    These are the signed permutation matrices of determinant +1: 4 and
    24 of them for n = 2, 3.  At n = 1 the group is O(1) = {+1, -1}, the
    reflection included.  They are listed breadth-first from the
    identity under the generators: the quarter turns in the coordinate
    planes (i, i+1), or the reflection at n = 1.  So at n = 2 the list
    runs through the turns by 0, 90, 180 and 270 degrees.  The group is
    built once per dimension, and every call returns that same tuple,
    whose matrices are read-only.
    """
    # before the walk: np.eye rejects n < 0 in its own words, and the walk
    # would build all 2^(n-1) n! elements before `Rotation` rejects one
    _check_dimension(n)
    return _lattice_group(int(n))


@functools.cache
def _lattice_group(n: int) -> tuple[Rotation, ...]:
    turns = [np.eye(n, dtype=int) for _ in range(n - 1)]
    for i, T in enumerate(turns):
        T[i : i + 2, i : i + 2] = [[0, -1], [1, 0]]
    generators = turns if n > 1 else [-np.eye(1, dtype=int)]
    group = [np.eye(n, dtype=int)]
    seen = {group[0].tobytes()}
    for M in group:  # the list grows while it is walked: breadth-first
        for T in generators:
            P = T @ M
            if P.tobytes() not in seen:
                seen.add(P.tobytes())
                group.append(P)
    rotations = tuple(Rotation(n, M.astype(float)) for M in group)
    for R in rotations:
        R.M.flags.writeable = False  # shared by every caller
    return rotations


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


def _signed_permutation(M: np.ndarray) -> list[tuple[int, float]]:
    """(c_i, s_i) per row i of a signed permutation matrix M: its one nonzero s_i sits in column c_i.

    Entries count as zero, and the nonzero ones as +-1, within
    `ORTHO_TOL`.  Signed permutations of either determinant are accepted;
    any other matrix raises ValueError.
    """
    # a few Python-level checks on at most 9 entries cost less than numpy
    # calls on a 3x3 array, and this runs once per exact rotation
    rows = []
    for row in np.asarray(M, dtype=float).tolist():
        nonzero = [(col, entry) for col, entry in enumerate(row) if abs(entry) > ORTHO_TOL]
        if len(nonzero) != 1 or abs(abs(nonzero[0][1]) - 1.0) > ORTHO_TOL:
            raise ValueError("exact lattice permutation needs a signed permutation matrix")
        rows.append(nonzero[0])
    if sorted(col for col, _ in rows) != list(range(len(rows))):
        raise ValueError("exact lattice permutation needs a signed permutation matrix")
    return rows


def _permute_lattice(values: np.ndarray, grid: FrequencyGrid, M: np.ndarray) -> np.ndarray:
    """out[k] = values[M k mod N] for a signed permutation matrix M (`_signed_permutation`).

    k runs over the signed lattice indices of the leading grid axes;
    trailing fiber axes are carried.  Row i of M holds its one nonzero
    s_i in column c_i, so out[k] = values[(s_i k_(c_i) mod N)_i]: the
    map only reflects and reorders whole axes.  Each axis with s_i = -1
    is reflected about index 0 (a flip, then a roll by one), then one
    transpose moves axis i to place c_i.  The result is a fresh
    C-contiguous array.
    """
    n = grid.n
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise ValueError(f"permutation matrix must be {n}x{n}, got {M.shape}")
    if values.shape[:n] != grid.shape:
        raise ValueError(f"values must start with the grid axes {grid.shape}, got {values.shape}")
    rows = _signed_permutation(M)
    out = values
    for axis, (_, entry) in enumerate(rows):
        if entry < 0:
            out = np.roll(np.flip(out, axis), 1, axis)  # k -> -k mod N
    cols = [col for col, _ in rows]
    order = [cols.index(place) for place in range(n)] + list(range(n, values.ndim))
    return np.transpose(out, order).copy()


def _lattice_orbits(rq: RotationQuadrature, n: int) -> list[tuple[Rotation, list]]:
    """rq's nodes grouped into the lattice orbits of the spline average: [(R, [(G, w), ...]), ...].

    At n <= 2 every rotation commutes with `lattice_group(n)`, because
    SO(2) and O(1) are abelian.  So a node joins the orbit of an earlier
    node R when its matrix is bitwise G R for a G in the group, with
    -0.0 equal to 0.0; a product by a signed permutation is exact, so
    the products T @ R that `so_quadrature(2, m)` builds are found.
    Duplicate nodes merge into one member whose weight is their sum, so
    an orbit has at most 4 members.  Orbits come in the order of their
    first node, whose member is the identity, and members in group
    order.  At n = 3 a generic node commutes with no lattice element but
    the identity, so every node is an orbit of one.
    """
    if n == 3:
        identity = Rotation(3, np.eye(3))
        return [(R, [(identity, w)]) for R, w in zip(rq.rotations, rq.weights)]
    group = lattice_group(n)  # the identity first
    member_at: dict[bytes, tuple[int, int]] = {}  # bytes of G R -> (orbit, group index)
    orbits = []  # (R, the summed weight per group element)
    for R, w in zip(rq.rotations, rq.weights):
        key = (R.M + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0
        if key not in member_at:
            for g, G in enumerate(group):
                member_at[((G.M @ R.M) + 0.0).tobytes()] = (len(orbits), g)
            orbits.append((R, [0.0] * len(group)))
        orbit, g = member_at[key]
        orbits[orbit][1][g] += w
    return [(R, [(group[g], w) for g, w in enumerate(sums) if w > 0]) for R, sums in orbits]
