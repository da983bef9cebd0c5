"""Multiplier operators, rotation conjugation, kernels, positivity."""

import numpy as np
import pytest

from radialmult import (
    GridFunction,
    MultiplierOperator,
    Rotation,
    apply,
    average_conjugated,
    conjugated_apply,
    kernel,
    lattice_group,
    lp_norm,
    make_grid,
    make_named_symbol,
    positivity_report,
    project,
    rotate_function,
    rotated_symbol,
    sample_symbol,
    so_quadrature,
    sphere_quadrature,
)
from radialmult import multiplier as multiplier_module
from radialmult.radialize import default_radii
from radialmult.rotation import subgroup_quadrature


def _rand_f(grid, seed=0, complex_=True):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape)
    if complex_:
        v = v + 1j * rng.standard_normal(grid.shape)
    return GridFunction(grid, v + 0j)


def test_apply_constant_identity_and_zero():
    g = make_grid(2, 16, 8.0)
    f = _rand_f(g, 1)
    one = MultiplierOperator(make_named_symbol("constant", {"c": 1.0}, 2), g)
    assert np.max(np.abs(apply(one, f).values - f.values)) <= 1e-12
    zero = MultiplierOperator(make_named_symbol("constant", {"c": 0.0}, 2), g)
    assert np.max(np.abs(apply(zero, f).values)) <= 1e-14


def test_apply_modulation_is_shift():
    g = make_grid(2, 16, 8.0)
    f = _rand_f(g, 2)
    shift = (2, 5)  # lattice steps
    a = (shift[0] * g.dx, shift[1] * g.dx)
    op = MultiplierOperator(make_named_symbol("modulation", {"a": a}, 2), g)
    out = apply(op, f)
    expected = np.roll(f.values, (-shift[0], -shift[1]), axis=(0, 1))
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_apply_vector_componentwise():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    f = _rand_f(g, 3)
    F = GridFunction(g, np.stack([f.values] * 3, axis=-1), q=2.0)
    out = apply(op, F)
    ref = apply(op, f).values
    for i in range(3):
        assert np.array_equal(out.values[..., i], out.values[..., 0])
    assert np.max(np.abs(out.values[..., 0] - ref)) <= 1e-14


def test_apply_vector_d1_matches_scalar():
    g = make_grid(2, 8, 8.0)
    op = MultiplierOperator(make_named_symbol("poisson", {"t": 1.0}, 2), g)
    f = _rand_f(g, 4)
    F = GridFunction(g, f.values[..., None], q=2.0)
    assert np.array_equal(apply(op, F).values[..., 0], apply(op, f).values)


def _rand_vector(grid, d=3, q=2.0, seed=0):
    rng = np.random.default_rng(seed)
    shape = grid.shape + (d,)
    return GridFunction(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), q=q)


def _components(F):
    return [GridFunction(F.grid, F.values[..., i]) for i in range(F.values.shape[-1])]


def test_apply_on_vector_field_matches_componentwise_apply():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g)
    F = _rand_vector(g, q=np.inf, seed=13)
    out = apply(op, F)
    assert out.q == F.q and out.values.shape == F.values.shape
    assert multiplier_module.apply_vector is apply  # the name the benchmark calls
    stacked = np.stack([apply(op, c).values for c in _components(F)], axis=-1)
    assert np.array_equal(out.values, stacked)


def test_conjugated_apply_exact_vector_matches_components():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("riesz", {"j": 1}, 2), g)
    F = _rand_vector(g, seed=14)
    for R in lattice_group(2):
        out = conjugated_apply(op, R, F)
        assert out.q == F.q
        stacked = np.stack([conjugated_apply(op, R, c).values for c in _components(F)], axis=-1)
        assert np.array_equal(out.values, stacked)


def test_average_conjugated_interp_vector_matches_components():
    g = make_grid(2, 32, 8.0)
    op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g)
    F = _rand_vector(g, seed=15)
    rq = so_quadrature(2, 16)
    out = average_conjugated(op, rq, F, mode="interp")
    assert out.q == F.q
    stacked = np.stack(
        [average_conjugated(op, rq, c, mode="interp").values for c in _components(F)], axis=-1
    )
    assert np.array_equal(out.values, stacked)


def test_rotate_function_exact_mode():
    g = make_grid(2, 16, 8.0)
    f = _rand_f(g, 5)
    R90 = Rotation(2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    out = f
    for _ in range(4):
        out = rotate_function(out, R90)
    assert np.array_equal(out.values, f.values)
    # exact mode is an isometry in every p
    rot = rotate_function(f, R90)
    for p in (1.0, 2.0, 3.5, np.inf):
        assert abs(lp_norm(rot, p) - lp_norm(f, p)) <= 1e-12


def test_rotate_function_rejects_non_lattice_in_exact_mode():
    g = make_grid(2, 16, 8.0)
    f = _rand_f(g, 6)
    th = 0.3
    R = Rotation(2, np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
    with pytest.raises(ValueError):
        rotate_function(f, R)


def test_conjugated_apply_riesz_90():
    g = make_grid(2, 16, 8.0)
    phi = make_named_symbol("riesz", {"j": 1}, 2)
    op = MultiplierOperator(phi, g)
    f = _rand_f(g, 7)
    R = Rotation(2, np.array([[0.0, -1.0], [1.0, 0.0]]))
    lhs = conjugated_apply(op, R, f)
    rhs = apply(MultiplierOperator(rotated_symbol(sample_symbol(phi, g), R.inverse()), g), f)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


def test_conjugated_apply_octahedral():
    g = make_grid(3, 8, 4.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 2.0, 3.0])}, 3)
    op = MultiplierOperator(phi, g)
    f = _rand_f(g, 8)
    for R in lattice_group(3):
        lhs = conjugated_apply(op, R, f)
        rhs = apply(MultiplierOperator(rotated_symbol(sample_symbol(phi, g), R.inverse()), g), f)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


def test_average_conjugated_single_node():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    f = _rand_f(g, 9)
    rq = subgroup_quadrature([Rotation(2, np.eye(2))])
    out = average_conjugated(op, rq, f)
    assert np.max(np.abs(out.values - apply(op, f).values)) <= 1e-14


def test_average_conjugated_c4_monomial():
    # C4 average of the xi_1^2 multiplier is the (xi_1^2 + xi_2^2)/2 multiplier
    g = make_grid(2, 16, 8.0)
    phi = make_named_symbol("monomial", {"alpha": (2, 0)}, 2)
    op = MultiplierOperator(phi, g)
    f = _rand_f(g, 10)
    out = average_conjugated(op, subgroup_quadrature(lattice_group(2)), f)
    XI = g.frequency_mesh()
    sym = 0.5 * (XI[..., 0] ** 2 + XI[..., 1] ** 2)
    ref = np.fft.ifftn(sym * np.fft.fftn(f.values))
    assert np.max(np.abs(out.values - ref)) <= 1e-12


def test_interp_average_converges_to_projection_with_box_size():
    # The dense-rotation average and the projected-symbol operator agree on
    # the torus only up to a periodization bias: conjugating by a non-lattice
    # rotation misaligns the image lattice, injecting errors the size of the
    # operator kernel's tail at |x| = L/2.  At fixed dx the bias decays like
    # that tail, reaching ~1e-3 at L = 32 for gaussian_aniso(diag(1,4)).
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    errs = []
    for N, L in ((64, 16.0), (128, 32.0)):
        g = make_grid(2, N, L)
        op = MultiplierOperator(phi, g)
        X = g.space_mesh()
        f = GridFunction(g, np.exp(-np.sum(X**2, axis=-1) / 8.0) + 0j)
        q = average_conjugated(op, so_quadrature(2, 64), f, mode="interp")
        pop = MultiplierOperator(project(phi, default_radii(g), sphere_quadrature(2, 256)), g)
        p = apply(pop, f)
        errs.append(lp_norm(GridFunction(g, q.values - p.values), 2.0) / lp_norm(p, 2.0))
    assert errs[1] < errs[0] / 10.0
    assert errs[1] <= 1e-3


def test_kernel_constant_is_delta():
    g = make_grid(2, 8, 8.0)
    op = MultiplierOperator(make_named_symbol("constant", {"c": 1.0}, 2), g)
    K = kernel(op).values
    assert abs(K[0, 0] - 1.0 / g.dx**g.n) <= 1e-10
    off = K.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) <= 1e-10


def test_kernel_heat_gaussian():
    g = make_grid(1, 128, 32.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    K = kernel(op).values
    x = g.space_axis()
    oracle = np.exp(-(x**2) / 4.0) / np.sqrt(4.0 * np.pi)
    assert np.max(np.abs(K - oracle)) <= 1e-8


def test_apply_matches_brute_force_convolution():
    # independent O(N^{2n}) oracle written as plain loops
    g = make_grid(2, 8, 4.0)
    op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g)
    f = _rand_f(g, 11)
    K = kernel(op).values
    N = g.N
    out = np.zeros((N, N), dtype=complex)
    for k0 in range(N):
        for k1 in range(N):
            acc = 0.0 + 0.0j
            for l0 in range(N):
                for l1 in range(N):
                    acc += K[(k0 - l0) % N, (k1 - l1) % N] * f.values[l0, l1]
            out[k0, k1] = acc * g.dx**2
    assert np.max(np.abs(out - apply(op, f).values)) <= 1e-10


def test_positivity_examples():
    g1 = make_grid(1, 128, 32.0)
    heat = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g1)
    rep = positivity_report(heat)
    assert rep.verdict == "positive" and rep.min_kernel >= -1e-12
    const = MultiplierOperator(make_named_symbol("constant", {"c": 1.0}, 1), g1)
    assert positivity_report(const).verdict == "positive"
    ball = MultiplierOperator(make_named_symbol("ball_indicator", {"rho": 1.0}, 1), g1)
    rep = positivity_report(ball)
    assert rep.verdict == "not-positive" and rep.min_kernel < -1e-3


def test_positivity_complex_kernel_reason():
    g = make_grid(1, 16, 8.0)
    # an off-lattice modulation symbol has a genuinely complex kernel
    op = MultiplierOperator(make_named_symbol("modulation", {"a": (0.3,)}, 1), g)
    rep = positivity_report(op)
    assert rep.verdict == "not-positive" and rep.reason == "complex-kernel"


def test_positive_operator_preserves_positive_functions():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = GridFunction(g, rng.random(g.shape) + 0j)
        out = apply(op, f)
        assert np.min(out.values.real) >= -1e-10
        assert np.max(np.abs(out.values.imag)) <= 1e-10
