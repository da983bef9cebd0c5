"""Multiplier operators, rotation conjugation, kernels, positivity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmult import (
    GridFunction,
    MultiplierOperator,
    PositivityReport,
    Rotation,
    SampledSymbol,
    apply,
    average_conjugated,
    conjugated_apply,
    haar_rotation,
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
    transform,
)
from radialmult import _kernels
from radialmult import multiplier as multiplier_module
from radialmult.grid import _multiply
from radialmult.radialize import default_radii
from radialmult.rotation import (
    RotationQuadrature,
    _lattice_orbits,
    _permute_lattice,
    subgroup_quadrature,
)
from radialmult.symbols import SampledSymbol
from radialmult.verification import reference_catalog


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


def _three_pair_average(op, rq, f):
    """The interp average node by node, prefiltering before each gather.

    Three transform pairs per node: prefilter f, apply phi, prefilter the
    product.
    """
    n, ia = f.grid.n, f.grid.index_axis()
    acc = np.zeros(f.values.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        rotated = _kernels.rotate_interp(_kernels.spline_prefilter(f.values, n), R.M, ia)
        multiplied = _multiply(op.sampled, rotated)
        acc += w * _kernels.rotate_interp(_kernels.spline_prefilter(multiplied, n), R.inverse().M, ia)
    return acc


def test_average_conjugated_interp_matches_three_transform_pair_form():
    # one prefilter per call and 1/B folded into the symbol reorder the
    # arithmetic only, so the two forms agree to rounding
    rng = np.random.default_rng(16)
    cases = [
        (make_grid(2, 16, 8.0), so_quadrature(2, 16), np.diag([1.0, 4.0])),
        (
            make_grid(3, 8, 8.0),
            subgroup_quadrature([haar_rotation(3, rng) for _ in range(3)]),
            np.diag([1.0, 4.0, 2.0]),
        ),
    ]
    for g, rq, A in cases:
        op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": A}, g.n), g)
        for f in (_rand_f(g, 17), _rand_vector(g, q=3.0, seed=18)):
            out = average_conjugated(op, rq, f, mode="interp").values
            ref = _three_pair_average(op, rq, f)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))


def _spy(monkeypatch, owner, name):
    """Count the calls of owner.name from here on; returns the list that grows by one per call."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_average_conjugated_interp_makes_one_transform_pair_per_node(monkeypatch):
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    f = _rand_f(g, 19)
    calls = _spy(monkeypatch, np.fft, "fftn")
    for m in (1, 5):
        calls.clear()
        average_conjugated(op, so_quadrature(2, m), f, mode="interp")
        assert len(calls) == m + 1  # the prefilter of f, then one per node


def test_rotation_input_checks_run_before_any_transform(monkeypatch):
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    f = _rand_f(g, 20)
    mixed = subgroup_quadrature([lattice_group(2)[1], haar_rotation(3, np.random.default_rng(0))])
    off_lattice = subgroup_quadrature([lattice_group(2)[1], haar_rotation(2, np.random.default_rng(0))])
    calls = _spy(monkeypatch, np.fft, "fftn")
    for mode in ("exact", "interp"):
        with pytest.raises(ValueError, match="dimension"):
            average_conjugated(op, mixed, f, mode=mode)
        with pytest.raises(ValueError, match="dimension"):
            rotate_function(f, mixed.rotations[1], mode=mode)
    with pytest.raises(ValueError, match="signed permutation"):
        average_conjugated(op, off_lattice, f, mode="exact")
    with pytest.raises(ValueError, match="signed permutation"):
        rotate_function(f, off_lattice.rotations[1], mode="exact")
    for bad in ("cubic", "Interp", None):
        with pytest.raises(ValueError, match="mode"):
            average_conjugated(op, so_quadrature(2, 4), f, mode=bad)
        with pytest.raises(ValueError, match="mode"):
            rotate_function(f, lattice_group(2)[1], mode=bad)
    assert calls == []


def _per_node_average(op, rq, f, mode):
    """The average node by node: a gather at R, one transform pair and a gather at R^-1 per node.

    Exact mode permutes f; interp mode gathers f's spline coefficients and
    applies the symbol with the prefilter 1/B folded in.
    """
    g = f.grid
    if mode == "exact":
        source, symbol = f.values, op.sampled

        def rotate(values, R):
            return _permute_lattice(values, g, R.M)

    else:
        source = _kernels.spline_prefilter(f.values, g.n)
        symbol = op.sampled * _kernels._prefilter_symbol(g.N, g.n)

        def rotate(values, R):
            return _kernels.rotate_interp(values, R.M, g.index_axis())

    acc = np.zeros(f.values.shape, dtype=complex)
    for R, w in zip(rq.rotations, rq.weights):
        acc += w * rotate(_multiply(symbol, rotate(source, R)), R.inverse())
    return acc


def _assert_orbits_match_per_node_sum(op, rq, f, mode):
    orbits = _lattice_orbits(rq, f.grid.n)
    # the members G R are the distinct nodes, each weighted with the sum over its duplicates
    members = [((G.M @ R.M + 0.0).tobytes(), w) for R, group in orbits for G, w in group]
    node_weights = {}
    for R, w in zip(rq.rotations, rq.weights):
        key = (R.M + 0.0).tobytes()
        node_weights[key] = node_weights.get(key, 0.0) + w
    assert len(members) == len(node_weights) and dict(members) == node_weights
    out = average_conjugated(op, rq, f, mode).values
    ref = _per_node_average(op, rq, f, mode)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))
    return orbits


def _aniso(g):
    """gaussian_aniso with off-diagonal terms, so no lattice reflection but x -> -x fixes it."""
    A = np.diag([1.0, 4.0, 2.0][: g.n]) + 0.3 * (np.ones((g.n, g.n)) - np.eye(g.n))
    return MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": A}, g.n), g)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 2, 4, 6, 8, 64]), st.sampled_from([8, 12, 16]), st.booleans(), st.integers(0, 2**16))
def test_so2_orbit_average_is_the_per_node_sum(m, N, vector, seed):
    g = make_grid(2, N, 8.0)
    f = _rand_vector(g, q=3.0, seed=seed) if vector else _rand_f(g, seed)
    orbits = _assert_orbits_match_per_node_sum(_aniso(g), so_quadrature(2, m), f, "interp")
    gcd = np.gcd(m, 4)
    assert [len(members) for _, members in orbits] == [gcd] * (m // gcd)


def _quarter_turn_products(R, turns):
    return [Rotation(2, lattice_group(2)[t].M @ R.M) for t in turns]


@pytest.mark.parametrize("vector", [False, True])
def test_orbit_average_with_duplicate_nodes_and_unequal_weights(vector):
    g = make_grid(2, 16, 8.0)
    f = _rand_vector(g, q=3.0, seed=21) if vector else _rand_f(g, 21)
    R = haar_rotation(2, np.random.default_rng(22))
    duplicated = subgroup_quadrature([R, R, *_quarter_turn_products(R, [1])])
    orbits = _assert_orbits_match_per_node_sum(_aniso(g), duplicated, f, "interp")
    # the two copies of R merge into one member of weight 2/3
    assert [[w for _, w in members] for _, members in orbits] == [[2.0 / 3.0, 1.0 / 3.0]]
    uneven = RotationQuadrature(tuple(_quarter_turn_products(R, [2, 0, 3])), [0.5, 0.3, 0.2])
    orbits = _assert_orbits_match_per_node_sum(_aniso(g), uneven, f, "interp")
    assert [len(members) for _, members in orbits] == [3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_group_average_is_one_orbit_and_the_per_node_sum(n):
    # exact mode forms no orbits: it multiplies by the averaged permuted symbol;
    # interp mode makes the group one orbit at n <= 2 and 24 orbits of one at n = 3
    g = make_grid(n, 8, 4.0)
    rq = subgroup_quadrature(lattice_group(n))
    op = _aniso(g)
    for f in (_rand_f(g, 23), _rand_vector(g, q=3.0, seed=24)):
        out = average_conjugated(op, rq, f).values
        ref = _per_node_average(op, rq, f, "exact")
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(out))
        orbits = _assert_orbits_match_per_node_sum(op, rq, f, "interp")
        sizes = [len(members) for _, members in orbits]
        assert sizes == ([len(rq.rotations)] if n < 3 else [1] * 24)


def test_3d_haar_nodes_are_orbits_of_one_and_the_per_node_sum():
    g = make_grid(3, 8, 4.0)
    rng = np.random.default_rng(25)
    rq = subgroup_quadrature([haar_rotation(3, rng) for _ in range(3)])
    for f in (_rand_f(g, 26), _rand_vector(g, q=3.0, seed=27)):
        orbits = _assert_orbits_match_per_node_sum(_aniso(g), rq, f, "interp")
        assert [R for R, _ in orbits] == list(rq.rotations)
        assert all(len(members) == 1 for _, members in orbits)


def test_orbit_average_makes_one_inverse_transform_and_two_gathers_per_orbit(monkeypatch):
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    inverse = _spy(monkeypatch, np.fft, "ifftn")
    gathers = _spy(monkeypatch, _kernels, "rotate_interp")
    average_conjugated(op, so_quadrature(2, 8), _rand_f(g, 28), mode="interp")
    # two orbits of four nodes; the prefilter of f is one more inverse transform
    assert len(inverse) == 2 + 1
    assert len(gathers) == 2 * 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_average_is_one_transform_pair_whatever_the_node_count(monkeypatch, n):
    g = make_grid(n, 8, 4.0)
    op = _aniso(g)
    group = lattice_group(n)
    forward = _spy(monkeypatch, np.fft, "fftn")
    inverse = _spy(monkeypatch, np.fft, "ifftn")
    for f in (_rand_f(g, 29), _rand_vector(g, q=3.0, seed=30)):
        for call in (
            lambda: average_conjugated(op, subgroup_quadrature(group), f),
            lambda: conjugated_apply(op, group[-1], f),
        ):
            forward.clear()
            inverse.clear()
            call()
            assert (len(forward), len(inverse)) == (1, 1)


def test_exact_average_peak_memory_is_a_few_grid_arrays(traced_peak_mib):
    # the 24 permuted symbols are summed one by one into the first: the
    # average holds a few 32^3 complex arrays (0.5 MiB each), never 24
    g = make_grid(3, 32, 8.0)
    op = _aniso(g)
    f = _rand_f(g, 31)
    assert traced_peak_mib(average_conjugated, op, subgroup_quadrature(lattice_group(3)), f) <= 2.5


def test_interp_average_peak_memory_is_bounded(traced_peak_mib):
    g = make_grid(2, 64, 16.0)
    op = _aniso(g)
    f = _rand_f(g, 32)
    assert traced_peak_mib(average_conjugated, op, so_quadrature(2, 256), f, "interp") <= 2.0


def test_interp_average_3d_peak_memory_is_bounded(traced_peak_mib):
    # every generic 3-D node is an orbit of one: its gather reads f's spline
    # coefficients in place, and each gather holds one batch of tap tables
    g = make_grid(3, 32, 8.0)
    op = _aniso(g)
    f = _rand_f(g, 33)
    rng = np.random.default_rng(34)
    rq = subgroup_quadrature([haar_rotation(3, rng) for _ in range(3)])
    assert traced_peak_mib(average_conjugated, op, rq, f, "interp") <= 5.0


@pytest.mark.parametrize("N, batch", [(8, 37), (32, None)])  # None: the module's own batch size
def test_interp_average_3d_is_independent_of_the_gather_batch(monkeypatch, N, batch):
    batch = batch or _kernels._GATHER_BATCH_POINTS
    g = make_grid(3, N, 8.0)
    op = _aniso(g)
    f = _rand_f(g, 35)
    rng = np.random.default_rng(36)
    rq = subgroup_quadrature([haar_rotation(3, rng) for _ in range(3)])
    monkeypatch.setattr(_kernels, "_GATHER_BATCH_POINTS", g.N**g.n)
    whole = average_conjugated(op, rq, f, "interp").values
    monkeypatch.setattr(_kernels, "_GATHER_BATCH_POINTS", batch)
    assert np.array_equal(average_conjugated(op, rq, f, "interp").values, whole)


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


@pytest.mark.parametrize("mode", ["exact", "interp"])
def test_n1_operator_average_is_the_even_part(mode):
    # the n = 1 group is O(1) = {+1, -1}, so Q(M_phi) = M of (phi(xi) + phi(-xi)) / 2,
    # the projection P(phi); compared off the self-mirrored Nyquist row
    g = make_grid(1, 32, 8.0)
    f = _rand_f(g, 11)
    fhat = transform(f, "forward").values
    XI = g.frequency_mesh()
    keep = ~g.nyquist_mask()
    for name, params in (("modulation", {"a": (1.0,)}), ("riesz", {"j": 1})):
        phi = make_named_symbol(name, params, 1)
        even = 0.5 * (phi.evaluate(XI) + phi.evaluate(-XI))
        q = average_conjugated(MultiplierOperator(phi, g), so_quadrature(1, 8), f, mode)
        got = transform(q, "forward").values
        assert np.max(np.abs(got - even * fhat)[keep]) <= 1e-12 * np.max(np.abs(fhat))


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


def test_kernel_is_the_inverse_transform_of_the_sampled_symbol():
    # the physical inverse scaling has one definition, the grid's
    for n, N in ((1, 32), (2, 16), (3, 8)):
        g = make_grid(n, N, 8.0)
        for label, phi in reference_catalog(n).items():
            op = MultiplierOperator(phi, g)
            want = transform(GridFunction(g, op.sampled, domain="frequency"), "inverse")
            assert np.array_equal(kernel(op).values, want.values), label


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


def test_positivity_non_finite_kernel_reason():
    # one NaN sample makes every kernel entry NaN, which no sign rule may call positive
    g = make_grid(2, 16, 8.0)
    values = sample_symbol(make_named_symbol("heat", {"t": 1.0}, 2), g).values.copy()
    assert positivity_report(MultiplierOperator(SampledSymbol(g, values), g)).verdict == "positive"
    values[3, 5] = np.nan
    rep = positivity_report(MultiplierOperator(SampledSymbol(g, values), g))
    assert rep.verdict == "not-positive" and rep.reason == "non-finite-kernel"


def test_positivity_verdict_is_read_from_the_reason():
    # no report can pair a positive verdict with a reason that denies it
    assert "verdict" not in {f.name for f in dataclasses.fields(PositivityReport)}
    for reason in ("ok", "non-finite-kernel", "complex-kernel", "negative-kernel"):
        rep = PositivityReport(min_kernel=-1.0, max_imag=0.0, tol=1e-10, reason=reason)
        assert rep.verdict == ("positive" if reason == "ok" else "not-positive")


def test_positivity_rejects_nan_tolerance():
    g = make_grid(2, 16, 8.0)
    # a complex, sign-changing kernel that a NaN tolerance used to call positive
    op = MultiplierOperator(make_named_symbol("modulation", {"a": (0.3, 0.0)}, 2), g)
    with pytest.raises(ValueError):
        positivity_report(op, tol=float("nan"))


def test_positivity_rejects_infinite_tolerance():
    g = make_grid(2, 16, 8.0)
    # a sign-changing real kernel that an infinite tolerance used to call positive
    op = MultiplierOperator(make_named_symbol("riesz", {"j": 1}, 2), g)
    assert positivity_report(op, tol=0.0).verdict == "not-positive"
    for tol in (float("inf"), -float("inf"), -1e-12):
        with pytest.raises(ValueError):
            positivity_report(op, tol=tol)


def test_positive_operator_preserves_positive_functions():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    rng = np.random.default_rng(12)
    for _ in range(5):
        f = GridFunction(g, rng.random(g.shape) + 0j)
        out = apply(op, f)
        assert np.min(out.values.real) >= -1e-10
        assert np.max(np.abs(out.values.imag)) <= 1e-10


# -- the exact lattice-group average, on random symbols and grids ------------


def _group_average(sampled, group):
    """The lattice-group average of a sampled symbol: mean of xi -> phi(R^-1 xi)."""
    values = np.mean([rotated_symbol(sampled, R.inverse()).values for R in group], axis=0)
    return SampledSymbol(sampled.grid, values)


@st.composite
def _aniso_gaussians(draw):
    """A grid with n in {2, 3}, N in {4, 6, 8}, and a random SPD gaussian_aniso on it."""
    n = draw(st.sampled_from([2, 3]))
    g = make_grid(n, draw(st.sampled_from([4, 6, 8])), draw(st.floats(2.0, 16.0)))
    B = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    A = B.reshape(n, n) @ B.reshape(n, n).T + 0.1 * np.eye(n)
    return g, make_named_symbol("gaussian_aniso", {"A": A}, n)


@settings(max_examples=30, deadline=None)
@given(_aniso_gaussians())
def test_lattice_average_is_an_invariant_idempotent_sup_contraction(case):
    g, phi = case
    group = lattice_group(g.n)
    sampled = sample_symbol(phi, g)
    avg = _group_average(sampled, group)
    assert np.max(np.abs(_group_average(avg, group).values - avg.values)) <= 1e-12
    for R in group:
        assert np.max(np.abs(rotated_symbol(avg, R).values - avg.values)) <= 1e-12
    assert np.max(np.abs(avg.values)) <= np.max(np.abs(sampled.values)) * (1.0 + 1e-14)


@settings(max_examples=30, deadline=None)
@given(_aniso_gaussians(), st.integers(0, 2**32 - 1))
def test_conjugation_by_each_group_element_is_the_rotated_symbol(case, seed):
    g, phi = case
    op = MultiplierOperator(phi, g)
    sampled = sample_symbol(phi, g)
    f = _rand_f(g, seed)
    for R in lattice_group(g.n):
        rot_op = MultiplierOperator(rotated_symbol(sampled, R.inverse()), g)
        dev = np.max(np.abs(conjugated_apply(op, R, f).values - apply(rot_op, f).values))
        assert dev <= 1e-12


@settings(max_examples=30, deadline=None)
@given(_aniso_gaussians())
def test_lattice_average_keeps_the_kernel_minimum(case):
    # the average's kernel is the mean of the rotated kernels, each a
    # permutation of the original kernel's values
    g, phi = case
    K = kernel(MultiplierOperator(phi, g)).values.real
    avg = _group_average(sample_symbol(phi, g), lattice_group(g.n))
    K_avg = kernel(MultiplierOperator(avg, g)).values.real
    assert np.min(K_avg) >= np.min(K) - 1e-12 * np.max(np.abs(K))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([4, 6, 8]), st.data())
def test_lattice_average_annihilates_riesz_off_the_nyquist_rows(n, N, data):
    # a Nyquist index is its own negative mod N, so its mirror partner is
    # missing there: the C4 average of riesz j=1 is 0.707 on those rows
    g = make_grid(n, N, 8.0)
    riesz = make_named_symbol("riesz", {"j": data.draw(st.integers(1, n))}, n)
    avg = _group_average(sample_symbol(riesz, g), lattice_group(n))
    assert np.max(np.abs(avg.values[~g.nyquist_mask()])) <= 1e-15
    if n == 2:
        assert np.max(np.abs(avg.values[g.nyquist_mask()])) > 0.5
