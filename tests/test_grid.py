"""Grid construction, transforms, and L^p norms."""

import numpy as np
import pytest

from radialmult import (
    GridFunction,
    RadialSymbol,
    Rotation,
    SphereQuadrature,
    haar_rotation,
    lattice_group,
    lp_norm,
    make_grid,
    make_named_symbol,
    so_quadrature,
    sphere_quadrature,
    transform,
)
from radialmult import grid as grid_module
from radialmult.grid import _multiply


def test_make_grid_basic():
    g = make_grid(2, 64, 16.0)
    assert g.dx == 0.25
    assert g.dxi == 2.0 * np.pi / 16.0
    assert g.xi_max == np.pi * 64 / 16.0
    assert g.shape == (64, 64)


#: (n, N, L) triples that no grid constructor accepts.
BAD_GRIDS = [
    (4, 16, 8.0),
    (0, 16, 8.0),
    (2, 15, 8.0),  # odd N
    (2, 5, 1.0),
    (2, 2, 8.0),  # too small
    (2, 16.0, 8.0),  # N not an integer
    (2, 16, -1.0),
    (4, 8, -1.0),
    (2, 16, 0.0),
    (2, 16, float("nan")),
    (2, 16, float("inf")),
    # L^n, dx^n or (N/L)^n overflows or is not a normal float
    (2, 16, 1e160),
    (2, 16, 1e-300),
    (3, 8, 1e103),
    (1, 16, 1e-307),
    (1, 16, 5e-324),
]


def test_make_grid_validation():
    # the dataclass validates itself, so both constructors reject each triple
    for build in (make_grid, grid_module.FrequencyGrid):
        for n, N, L in BAD_GRIDS:
            with pytest.raises(ValueError):
                build(n, N, L)


@pytest.mark.parametrize("n", [-1, 0, 4])
def test_every_constructor_rejects_a_dimension_outside_1_to_3(n):
    # at n = -1 the rule must come before any array of that shape: numpy
    # rejects negative dimensions with a message of its own
    rng = np.random.default_rng(0)
    builders = [
        lambda: make_grid(n, 8, 4.0),
        lambda: make_named_symbol("heat", {"t": 1.0}, n),
        lambda: RadialSymbol(np.array([0.0, 1.0]), np.array([1.0, 0.0]), n),
        lambda: haar_rotation(n, rng),
        lambda: so_quadrature(n, 4),
        lambda: sphere_quadrature(n, 4),
        lambda: lattice_group(n),
        lambda: Rotation(n, np.eye(abs(n))),
        lambda: SphereQuadrature(n, np.eye(abs(n)), np.full(abs(n), 0.25)),
    ]
    for build in builders:
        with pytest.raises(ValueError, match=rf"^dimension must be 1, 2 or 3, got {n}$"):
            build()


def test_grid_fields_are_normalized():
    g = grid_module.FrequencyGrid(np.int64(2), np.int64(16), 8)
    assert (type(g.n), type(g.N), type(g.L)) == (int, int, float)
    assert g == make_grid(2, 16, 8.0) and hash(g) == hash(make_grid(2, 16, 8.0))


def test_index_axis_signed_order():
    g = make_grid(1, 8, 8.0)
    assert list(g.index_axis()) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_axes_hit_origin_first():
    g = make_grid(2, 8, 8.0)
    assert g.space_axis()[0] == 0.0
    assert g.frequency_axis()[0] == 0.0
    X = g.space_mesh()
    XI = g.frequency_mesh()
    # storage axis 0 carries coordinate 0
    assert X[1, 0, 0] == g.dx and X[1, 0, 1] == 0.0
    assert XI[0, 1, 1] == g.dxi and XI[0, 1, 0] == 0.0


@pytest.mark.parametrize("n,N", [(1, 8), (2, 16), (3, 8)])
def test_transform_round_trip(n, N):
    g = make_grid(n, N, 8.0)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    back = transform(transform(f, "forward"), "inverse")
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_transform_delta_is_flat():
    # F(delta at 0) = dx^n on every mode under the physical scaling
    g = make_grid(1, 16, 8.0)
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    fhat = transform(GridFunction(g, v), "forward")
    assert np.max(np.abs(fhat.values - g.dx)) <= 1e-14


def test_transform_gaussian_oracle():
    # f = e^{-x^2/4} on a box large enough that periodization is negligible;
    # continuum transform is 2 sqrt(pi) e^{-xi^2}.
    g = make_grid(1, 256, 64.0)
    x = g.space_axis()
    f = GridFunction(g, np.exp(-x**2 / 4.0) + 0j)
    fhat = transform(f, "forward")
    xi = g.frequency_axis()
    oracle = 2.0 * np.sqrt(np.pi) * np.exp(-(xi**2))
    assert np.max(np.abs(fhat.values - oracle)) <= 1e-10


def test_lp_norm_example():
    # all-ones with dx = 1: norm is (N * 1 * dx)^{1/2}
    g = make_grid(1, 4, 4.0)
    f = GridFunction(g, np.ones(4, dtype=complex))
    assert lp_norm(f, 2.0) == pytest.approx(2.0, abs=1e-15)
    assert lp_norm(GridFunction(g, np.zeros(4, dtype=complex)), 1.0) == 0.0
    assert lp_norm(GridFunction(g, np.zeros(4, dtype=complex)), np.inf) == 0.0
    for p in (0.5, np.nan):
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(f, p)


def test_lp_norm_infinity_and_volume():
    g = make_grid(2, 8, 4.0)
    v = np.zeros(g.shape, dtype=complex)
    v[2, 3] = -3.0
    f = GridFunction(g, v)
    assert lp_norm(f, np.inf) == 3.0
    assert lp_norm(f, 1.0) == pytest.approx(3.0 * g.dx**2, abs=1e-15)


def test_parseval_consistency():
    g = make_grid(2, 16, 8.0)
    rng = np.random.default_rng(11)
    f = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    fhat = transform(f, "forward")
    freq_side = np.sqrt(np.sum(np.abs(fhat.values) ** 2) / g.L**g.n)
    assert abs(lp_norm(f, 2.0) - freq_side) <= 1e-12


def test_lp_norm_triangle_and_homogeneity():
    g = make_grid(2, 8, 4.0)
    rng = np.random.default_rng(5)
    a = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    b = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    for p in (1.0, 2.0, 3.5, np.inf):
        na = lp_norm(GridFunction(g, a), p)
        nb = lp_norm(GridFunction(g, b), p)
        nab = lp_norm(GridFunction(g, a + b), p)
        assert nab <= na + nb + 1e-12
        c = -2.5 + 1.5j
        assert lp_norm(GridFunction(g, c * a), p) == pytest.approx(abs(c) * na, rel=1e-12)


def test_vector_norm_d1_matches_scalar():
    g = make_grid(2, 8, 4.0)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = GridFunction(g, vals)
    for q in (1.0, 2.0, np.inf):
        F = GridFunction(g, vals[..., None], q=q)
        for p in (1.0, 2.0, 4.0, np.inf):
            assert lp_norm(F, p) == pytest.approx(lp_norm(f, p), rel=1e-14)


def test_vector_norm_fiber_order():
    # |(3, 4)| in ell_q: q=1 -> 7, q=2 -> 5, q=inf -> 4; single point grid check
    g = make_grid(1, 4, 4.0)
    vals = np.zeros((4, 2), dtype=complex)
    vals[0] = (3.0, 4.0)
    expected = {1.0: 7.0, 2.0: 5.0, np.inf: 4.0}
    for q, e in expected.items():
        F = GridFunction(g, vals, q=q)
        assert lp_norm(F, np.inf) == pytest.approx(e, abs=1e-15)


def test_field_rejects_what_either_field_class_rejected():
    g = make_grid(2, 8, 4.0)
    scalar = np.zeros(g.shape, dtype=complex)
    with pytest.raises(ValueError, match="domain"):
        GridFunction(g, scalar, domain="time")
    with pytest.raises(ValueError, match="domain"):
        GridFunction(g, scalar[..., None], domain="time", q=2.0)
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, np.zeros((8, 4), dtype=complex))  # wrong grid shape
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, np.zeros((8, 4, 3), dtype=complex), q=2.0)  # wrong grid shape
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, scalar[..., None])  # a fiber axis needs a fiber norm
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, scalar, q=2.0)  # a fiber norm needs a fiber axis
    for q in (0.5, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="q >= 1"):
            GridFunction(g, scalar[..., None], q=q)
    with pytest.raises(ValueError, match="nonempty fiber"):
        GridFunction(g, np.zeros(g.shape + (0,), dtype=complex), q=2.0)
    with pytest.raises(ValueError, match="shape"):
        GridFunction(g, np.zeros(g.shape + (2, 2), dtype=complex), q=2.0)  # two fiber axes


def test_vector_constructor_checks_fiber_length():
    # grid.VectorGridFunction is kept as a constructor for the benchmark's callers
    g = make_grid(2, 8, 4.0)
    vals = np.arange(np.prod(g.shape) * 3).reshape(g.shape + (3,)) + 0j
    F = grid_module.VectorGridFunction(g, 3, 1.5, vals)
    assert type(F) is GridFunction and F.q == 1.5 and np.array_equal(F.values, vals)
    with pytest.raises(ValueError, match="d = 2"):
        grid_module.VectorGridFunction(g, 2, 1.5, vals)
    assert "VectorGridFunction" not in grid_module.__all__


def test_transform_carries_the_fiber_axis():
    g = make_grid(2, 8, 4.0)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(g.shape + (3,)) + 1j * rng.standard_normal(g.shape + (3,))
    F = GridFunction(g, vals, q=np.inf)
    Fhat = transform(F, "forward")
    assert Fhat.q == np.inf and Fhat.domain == "frequency"
    for i in range(3):
        component = transform(GridFunction(g, vals[..., i]), "forward").values
        assert np.array_equal(Fhat.values[..., i], component)
    assert np.max(np.abs(transform(Fhat, "inverse").values - vals)) <= 1e-12


@pytest.mark.parametrize("shape", [(16,), (8, 8), (8, 8, 8)])
def test_multiply_is_one_transform_pair_on_every_input(shape, monkeypatch):
    rng = np.random.default_rng(len(shape))

    def field(dims):
        return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)

    sym, scalar, stacked, fibers = field(shape), field(shape), field((3,) + shape), field(shape + (2,))
    fftn, ifftn = np.fft.fftn, np.fft.ifftn
    calls = []

    def counting(name, transform_):
        def spy(*args, **kwargs):
            calls.append(name)
            return transform_(*args, **kwargs)
        return spy

    monkeypatch.setattr(np.fft, "fftn", counting("fftn", fftn))
    monkeypatch.setattr(np.fft, "ifftn", counting("ifftn", ifftn))
    got = _multiply(sym, scalar)
    assert calls == ["fftn", "ifftn"]
    # spectrum times symbol: with fused multiply-adds numpy's complex product
    # need not commute bit for bit
    assert np.array_equal(got, ifftn(fftn(scalar) * sym))
    by_trial = _multiply(sym, stacked, stack=1)
    assert all(np.array_equal(by_trial[k], _multiply(sym, stacked[k])) for k in range(3))
    by_fiber = _multiply(sym, fibers)
    assert all(np.array_equal(by_fiber[..., i], _multiply(sym, fibers[..., i])) for i in range(2))
