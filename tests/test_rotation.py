"""Rotations, Haar sampling, and quadrature rules on SO(n) and the sphere."""

from itertools import permutations, product
from math import gamma, gcd, pi

import numpy as np
import pytest

from radialmult import (
    RadialSymbol,
    Rotation,
    RotationQuadrature,
    SphereQuadrature,
    haar_rotation,
    lattice_group,
    make_grid,
    make_named_symbol,
    rotated_symbol,
    sample_symbol,
    so_quadrature,
    sphere_quadrature,
)
from radialmult.rotation import (
    _gauss_legendre,
    _permute_lattice,
    _rotation_2d,
    c4_rotations,
    octahedral_rotations,
    subgroup_quadrature,
)


def _angle(R):
    return np.arctan2(R.M[1, 0], R.M[0, 0]) % (2.0 * np.pi)


def test_rotation_invariants_enforced():
    with pytest.raises(ValueError):
        Rotation(2, np.array([[1.0, 0.1], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Rotation(2, np.array([[1.0, 0.0], [0.0, -1.0]]))  # det -1
    with pytest.raises(ValueError):
        Rotation(2, np.full((2, 2), np.nan))
    # O(1) = {+1, -1}: the reflection is the one rotation-group element at n = 1
    assert Rotation(1, -np.eye(1)).M[0, 0] == -1.0
    with pytest.raises(ValueError):
        Rotation(1, 2.0 * np.eye(1))


def test_quadratures_reject_nan():
    with pytest.raises(ValueError):
        RotationQuadrature((Rotation(1, np.eye(1)),), np.array([np.nan]))
    with pytest.raises(ValueError):
        SphereQuadrature(2, np.array([[1.0, 0.0], [np.nan, 0.0]]), np.array([0.5, 0.5]))


def test_quadratures_reject_an_empty_rule_by_the_weight_rule():
    # an empty rule used to divide by zero, or fail in numpy's empty max, or blame the sum
    empty = [
        lambda: subgroup_quadrature([]),
        lambda: SphereQuadrature(2, np.zeros((0, 2)), np.zeros(0)),
        lambda: RotationQuadrature((), []),
    ]
    for build in empty:
        with pytest.raises(ValueError, match="at least one node and one positive weight per node"):
            build()


def test_haar_so1_is_trivial():
    R = haar_rotation(1, np.random.default_rng(0))
    assert R.M.shape == (1, 1) and R.M[0, 0] == 1.0


def test_haar_determinism():
    a = haar_rotation(2, np.random.default_rng(42))
    b = haar_rotation(2, np.random.default_rng(42))
    assert np.array_equal(a.M, b.M)


@pytest.mark.parametrize("n", [2, 3])
def test_haar_samples_are_rotations(n):
    rng = np.random.default_rng(1)
    for _ in range(50):
        R = haar_rotation(n, rng)
        assert np.max(np.abs(R.M.T @ R.M - np.eye(n))) <= 1e-12
        assert abs(np.linalg.det(R.M) - 1.0) <= 1e-12


def test_haar_angle_uniformity_ks():
    # Kolmogorov-Smirnov against the uniform CDF on [0, 2pi), alpha = 0.01
    rng = np.random.default_rng(7)
    m = 10_000
    angles = np.sort([_angle(haar_rotation(2, rng)) for _ in range(m)]) / (2.0 * np.pi)
    k = np.arange(1, m + 1)
    d = max(np.max(k / m - angles), np.max(angles - (k - 1) / m))
    assert d * np.sqrt(m) <= 1.628  # critical value at significance 0.01


def test_so_quadrature_basic_rules():
    # at n = 1 the rule is O(1) = {+1, -1}, whatever the order
    rq = so_quadrature(1, 5)
    assert [R.M.tolist() for R in rq.rotations] == [[[1.0]], [[-1.0]]]
    assert rq.weights.tolist() == [0.5, 0.5]
    rq = so_quadrature(2, 4)
    got = sorted(_angle(R) for R in rq.rotations)
    assert np.allclose(got, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-14)
    assert np.allclose(rq.weights, 0.25)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 64, 256])
def test_so2_rule_builds_later_nodes_as_exact_lattice_turns(m):
    # with g = gcd(m, 4), node k >= m/g is T @ R_(k mod m/g), T the turn by
    # 2 pi (k // (m/g)) / g, bitwise; node k stays at angle 2 pi k / m
    rq = so_quadrature(2, m)
    g = gcd(m, 4)
    turns = lattice_group(2)
    assert len(rq.rotations) == m and np.all(rq.weights == 1.0 / m)
    for k, R in enumerate(rq.rotations):
        if k >= m // g:
            T = turns[(4 // g) * (k // (m // g))]
            assert np.array_equal(R.M, T.M @ rq.rotations[k % (m // g)].M)
        else:
            assert np.array_equal(R.M, _rotation_2d(2.0 * np.pi * k / m))
        error = np.angle(complex(R.M[0, 0], R.M[1, 0]) * np.exp(-2j * np.pi * k / m))
        assert abs(error) <= 1e-15
        assert np.max(np.abs(R.M - _rotation_2d(2.0 * np.pi * k / m))) <= 1e-15


def test_so2_trig_exactness():
    rq = so_quadrature(2, 8)
    for k in range(8):
        val = sum(w * np.exp(1j * k * _angle(R)) for R, w in zip(rq.rotations, rq.weights))
        assert abs(val - (1.0 if k == 0 else 0.0)) <= 1e-14


def test_so3_odd_function_vanishes():
    rq = so_quadrature(3, 4)
    e1 = np.array([1.0, 0.0, 0.0])
    val = sum(w * (R.M @ e1)[0] for R, w in zip(rq.rotations, rq.weights))
    assert abs(val) <= 1e-14


def test_so3_left_invariance():
    # quadrature of g(R0 R) vs g(R) for a fixed degree-<=4 polynomial in the entries
    rng = np.random.default_rng(3)
    R0 = haar_rotation(3, rng)
    C = rng.standard_normal((3, 3))

    def g(M):
        return float(np.sum(C * M) ** 2 + M[0, 0] * M[1, 1] * M[2, 2])

    rq = so_quadrature(3, 16)
    a = sum(w * g(R.M) for R, w in zip(rq.rotations, rq.weights))
    b = sum(w * g(R0.M @ R.M) for R, w in zip(rq.rotations, rq.weights))
    assert abs(a - b) <= 1e-6


@pytest.mark.parametrize("n,m", [(1, 2), (2, 7), (2, 16), (3, 3), (3, 8)])
def test_quadrature_invariants(n, m):
    sq = sphere_quadrature(n, m)
    assert np.max(np.abs(np.linalg.norm(sq.nodes, axis=-1) - 1.0)) <= 1e-12
    assert abs(np.sum(sq.weights) - 1.0) <= 1e-14
    assert np.all(sq.weights > 0)
    rq = so_quadrature(n, m)
    assert abs(np.sum(rq.weights) - 1.0) <= 1e-14
    assert np.all(rq.weights > 0)


def _sphere_moment(alpha):
    """Mean of the monomial x^alpha over S^(n-1) under the uniform probability measure."""
    if any(a % 2 for a in alpha):
        return 0.0
    # the surface integral 2 prod G(b_i) / G(sum b_i), b_i = (a_i + 1)/2, over the area
    beta = [(a + 1) / 2 for a in alpha]
    n = len(alpha)
    return np.prod([gamma(b) for b in beta]) / gamma(sum(beta)) * gamma(n / 2) / pi ** (n / 2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 16])
def test_sphere_order_is_the_exactness_degree(n, m):
    # every monomial of degree < m is integrated exactly; x1^m is not
    sq = sphere_quadrature(n, m)
    assert len(sq.weights) == m ** (n - 1)
    for alpha in product(range(m), repeat=n):
        if sum(alpha) < m:
            got = np.sum(sq.weights * np.prod(sq.nodes ** np.array(alpha), axis=1))
            assert abs(got - _sphere_moment(alpha)) <= 2e-15, alpha
    top = (m,) + (0,) * (n - 1)
    assert abs(np.sum(sq.weights * sq.nodes[:, 0] ** m) - _sphere_moment(top)) >= 1e-6


def test_sphere_s1_nodes():
    sq = sphere_quadrature(2, 4)
    got = sorted(map(tuple, np.round(sq.nodes, 12)))
    assert got == [(-1.0, 0.0), (-0.0, -1.0), (0.0, 1.0), (1.0, 0.0)] or len(got) == 4
    assert np.allclose(sq.weights, 0.25)


def test_sphere_second_moments():
    # mean of u1^2 is 1/n by symmetry; exact for these product rules (m >= 3)
    for n, m in ((2, 16), (3, 3), (3, 8)):
        sq = sphere_quadrature(n, m)
        val = np.sum(sq.weights * sq.nodes[:, 0] ** 2)
        assert abs(val - 1.0 / n) <= 1e-14


def test_sphere_s2_node_layout():
    # node i*m + j sits at Gauss-Legendre polar node i and uniform azimuth j
    m = 7
    sq = sphere_quadrature(3, m)
    ct, wt = _gauss_legendre(m)
    st = np.sqrt(1.0 - ct**2)
    phis = 2.0 * np.pi * np.arange(m) / m
    for i in range(m):
        for j in range(m):
            node = (st[i] * np.cos(phis[j]), st[i] * np.sin(phis[j]), ct[i])
            assert np.array_equal(sq.nodes[i * m + j], node)
    w = np.array([wt[i] / 2.0 / m for i in range(m) for _ in range(m)])
    assert np.array_equal(sq.weights, w / w.sum())


@pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 256, 2048])
def test_gauss_legendre_rule(k):
    x, w = _gauss_legendre(k)
    assert x.shape == w.shape == (k,)
    # exact for polynomials of degree < 2k
    for d in range(min(2 * k, 60)):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(np.sum(w * x**d) - exact) <= 1e-14, d
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x[::-1], -x)
    assert np.all(w > 0) and np.array_equal(w[::-1], w)
    assert abs(w.sum() - 2.0) <= 1e-14
    if k <= 64:
        ref_x, ref_w = np.polynomial.legendre.leggauss(k)
        assert np.max(np.abs(x - ref_x)) <= 1e-14
        assert np.max(np.abs(w - ref_w)) <= 1e-12


def test_gauss_legendre_rejects_an_empty_rule():
    with pytest.raises(ValueError):
        _gauss_legendre(0)


def test_sphere_quadrature_s2_peak_memory(traced_peak_mib):
    # stacking (m, m) coordinate arrays and norming through an (m^2, 3) squared
    # temporary peaked at 5.17 MiB at m = 256, against 1.5 MiB of nodes
    assert traced_peak_mib(sphere_quadrature, 3, 256) <= 3.5


def test_sphere_s0():
    sq = sphere_quadrature(1, 2)
    assert sorted(sq.nodes.ravel()) == [-1.0, 1.0]
    assert np.allclose(sq.weights, 0.5)


def _is_signed_permutation(M):
    """Entries in {-1, 0, 1}, one nonzero per row and per column."""
    nonzero = M != 0
    return (
        bool(np.all(np.isin(M, (-1.0, 0.0, 1.0))))
        and bool(np.all(nonzero.sum(axis=0) == 1))
        and bool(np.all(nonzero.sum(axis=1) == 1))
    )


def _key(R):
    return tuple(np.round(R.M).astype(int).ravel())


@pytest.mark.parametrize("n,size", [(1, 2), (2, 4), (3, 24)])
def test_lattice_group_is_the_rotation_group_of_the_lattice(n, size):
    # at n = 1 the group is O(1) = {+1, -1}; from n = 2 on, determinant +1 only
    group = lattice_group(n)
    assert len(group) == size
    assert all(_is_signed_permutation(R.M) for R in group)
    assert all(round(np.linalg.det(R.M)) == 1 for R in group) == (n > 1)
    keys = {_key(R) for R in group}
    assert len(keys) == size
    for A in group:
        assert _key(A.inverse()) in keys
        for B in group:
            assert _key(Rotation(n, A.M @ B.M)) in keys


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_group_is_built_once_per_dimension(n):
    group = lattice_group(n)
    assert isinstance(group, tuple) and lattice_group(np.int64(n)) is group
    for R in group:
        with pytest.raises(ValueError):
            R.M[0, 0] = 2.0  # shared by every caller, so read-only


def test_c4_group():
    # lattice_group(2) runs through the turns by k * 90 degrees in order; the
    # benchmark labels its conjugation outputs by that position
    rots = lattice_group(2)
    for k, R in enumerate(rots):
        assert np.array_equal(R.M, np.round(_rotation_2d(k * np.pi / 2.0)))
    assert [R.M.tolist() for R in c4_rotations()] == [R.M.tolist() for R in rots]
    rq = subgroup_quadrature(rots)
    assert np.allclose(rq.weights, 0.25)


def test_octahedral_group():
    assert [R.M.tolist() for R in octahedral_rotations()] == [R.M.tolist() for R in lattice_group(3)]


def test_rotated_symbol_needs_a_lattice_sample():
    heat = make_named_symbol("heat", {"t": 1.0}, 2)
    radial = RadialSymbol(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 2)
    for phi in (heat, radial):
        with pytest.raises(TypeError):
            rotated_symbol(phi, Rotation(2, np.eye(2)))


def test_rotated_riesz_90deg():
    g = make_grid(2, 8, 8.0)
    phi = sample_symbol(make_named_symbol("riesz", {"j": 1}, 2), g)
    R = Rotation(2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    rot = rotated_symbol(phi, R)
    # lattice index k sits at storage index k mod N
    # rot(xi) = phi(R xi): at xi = (dxi, 0), phi((0, dxi)) = 0; at (0, -dxi), phi((dxi, 0)) = 1
    assert rot.values[1, 0] == phi.values[0, 1] == 0.0
    assert rot.values[0, -1] == 1.0


def _gather_permutation(values, grid, M):
    """out[k] = values[M k mod N] as a gather over the full signed index lattice."""
    M = np.round(M).astype(int)
    idx = np.stack(np.meshgrid(*([grid.index_axis()] * grid.n), indexing="ij"), axis=0)
    target = np.tensordot(M, idx, axes=([1], [0]))
    return values[tuple(np.mod(target, grid.N))]


def _signed_permutations(n):
    """All 2^n n! signed permutation matrices, of determinant +1 and -1."""
    for perm in permutations(range(n)):
        for signs in product((1.0, -1.0), repeat=n):
            M = np.zeros((n, n))
            M[np.arange(n), perm] = signs
            yield M


@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_permute_lattice_is_bitwise_the_index_gather(n, N):
    g = make_grid(n, N, 4.0)
    rng = np.random.default_rng(N + n)
    mats = list(_signed_permutations(n))
    assert len(mats) == 2**n * {1: 1, 2: 2, 3: 6}[n]
    assert {round(np.linalg.det(M)) for M in mats} == {1, -1}
    mats += [R.M for R in lattice_group(n)]
    for fiber in ((), (3,), (2, 2)):
        values = rng.standard_normal(g.shape + fiber) + 1j * rng.standard_normal(g.shape + fiber)
        for M in mats:
            out = _permute_lattice(values, g, M)
            assert out.flags.c_contiguous and not np.shares_memory(out, values)
            assert np.array_equal(out, _gather_permutation(values, g, M))


@pytest.mark.parametrize(
    "M",
    [
        [[1.0, 1.0], [0.0, 1.0]],  # two entries in a row
        [[1.0, 0.0], [1.0, 0.0]],  # a column hit twice
        [[2.0, 0.0], [0.0, 1.0]],  # integer but not a unit
        [[0.0, 0.0], [0.0, 1.0]],  # an empty row
        [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]],  # off the lattice
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # wrong dimension
    ],
)
def test_permute_lattice_rejects_non_signed_permutations(M):
    g = make_grid(2, 8, 4.0)
    with pytest.raises(ValueError):
        _permute_lattice(np.zeros(g.shape), g, np.array(M))


def test_permute_lattice_rejects_values_off_the_grid():
    g = make_grid(2, 8, 4.0)
    with pytest.raises(ValueError):
        _permute_lattice(np.zeros((8, 4)), g, np.eye(2))
