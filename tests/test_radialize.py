"""Spherical means and the radialization projection, both computation paths."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radialmult import (
    eval_symbol,
    make_grid,
    make_named_symbol,
    project,
    project_mc,
    radial_deviation,
    sample_symbol,
    so_quadrature,
    sphere_quadrature,
    spherical_mean,
)
from radialmult.radialize import INDICATOR_ORDER, SMOOTH_ORDER, default_order, default_radii
from radialmult.rotation import subgroup_quadrature, Rotation
from radialmult.symbols import SYMBOL_SPECS, NamedSymbol
from radialmult.verification import reference_catalog


SQ256 = sphere_quadrature(2, 256)


def test_default_order_is_the_indicator_order_exactly_for_kinked_symbols():
    catalog = reference_catalog(2)
    assert {phi.name for phi in catalog.values()} == set(SYMBOL_SPECS)
    for phi in catalog.values():
        kinked = SYMBOL_SPECS[phi.name].kink
        assert default_order(phi) == (INDICATOR_ORDER if kinked else SMOOTH_ORDER)
        assert default_order(phi, smooth=3, indicator=5) == (5 if kinked else 3)
    # samples and projections carry no kink flag, even of a kinked symbol
    ball = catalog["ballind"]
    g = make_grid(2, 8, 4.0)
    assert default_order(sample_symbol(ball, g), smooth=3, indicator=5) == 3
    assert default_order(project(ball, default_radii(g), SQ256), smooth=3, indicator=5) == 3


def test_a_lattice_sample_is_values_not_a_function():
    g = make_grid(2, 8, 4.0)
    heat = make_named_symbol("heat", {"t": 1.0}, 2)
    s = sample_symbol(heat, g)
    with pytest.raises(ValueError, match="not evaluable at points"):
        s.evaluate(g.frequency_mesh()[1, 2])  # on the lattice, and still refused
    for average in (
        lambda: spherical_mean(s, 1.0, SQ256),
        lambda: project(s, default_radii(g), SQ256),
        lambda: project_mc(s, g, so_quadrature(2, 4)),
    ):
        with pytest.raises(ValueError):
            average()
    # only catalog indicators are kinked: samples and profiles take the smooth order
    assert default_order(s) == SMOOTH_ORDER
    assert default_order(project(heat, default_radii(g), SQ256)) == SMOOTH_ORDER
    for n in (1, 2, 3):
        points = np.random.default_rng(n).uniform(-2.0, 2.0, size=(5, n))
        for phi in reference_catalog(n).values():
            assert phi.evaluate(points).dtype == np.complex128, phi.name


def test_spherical_mean_radial_symbol():
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    for m in (2, 7, 64):
        val = spherical_mean(phi, 1.0, sphere_quadrature(2, m))
        assert abs(val - np.exp(-1.0)) <= 1e-14


def test_spherical_mean_origin_shortcut():
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    assert spherical_mean(phi, 0.0, SQ256) == 1.0


def test_spherical_mean_odd_symbol_vanishes():
    phi = make_named_symbol("riesz", {"j": 1}, 2)
    val = spherical_mean(phi, 2.0, sphere_quadrature(2, 64))
    assert abs(val) <= 1e-15


def test_spherical_mean_box_arc_oracle():
    # fraction of the circle of radius r inside the unit-half-width square:
    # 1 - (4/pi) arccos(1/r) for 1 < r <= sqrt(2)
    phi = make_named_symbol("box_indicator", {"a": 1.0}, 2)
    r = 1.2
    oracle = 1.0 - (4.0 / np.pi) * np.arccos(1.0 / r)
    val = spherical_mean(phi, r, sphere_quadrature(2, 4096))
    assert abs(val - oracle) <= 2e-3
    assert oracle == pytest.approx(0.2543, abs=1e-4)


def test_spherical_mean_rejects_sampled():
    g = make_grid(2, 8, 8.0)
    s = sample_symbol(make_named_symbol("heat", {"t": 1.0}, 2), g)
    with pytest.raises((TypeError, ValueError)):
        spherical_mean(s, 1.0, SQ256)


def test_default_radii_cover_lattice():
    g = make_grid(2, 16, 8.0)
    radii = default_radii(g)
    assert radii[0] == 0.0
    assert np.all(np.diff(radii) > 0)
    # every lattice frequency norm appears (up to rounding in the norm itself)
    XI = g.frequency_mesh()
    norms = np.unique(np.linalg.norm(XI.reshape(-1, 2), axis=1))
    dist = np.min(np.abs(norms[:, None] - radii[None, :]), axis=1)
    assert np.max(dist) <= 1e-12


def test_project_heat_fixed_point():
    g = make_grid(2, 32, 8.0)
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    proj = project(phi, default_radii(g), SQ256)
    radii = proj.radii
    assert np.max(np.abs(proj.values - np.exp(-(radii**2)))) <= 1e-14
    XI = g.frequency_mesh()
    dev = np.abs(proj.evaluate(XI) - phi.evaluate(XI))
    assert np.max(dev) <= 1e-12


def test_project_riesz_zero():
    g = make_grid(2, 32, 8.0)
    phi = make_named_symbol("riesz", {"j": 1}, 2)
    proj = project(phi, default_radii(g), sphere_quadrature(2, 64))
    assert np.max(np.abs(proj.values)) <= 1e-15


def test_project_linearity():
    g = make_grid(2, 16, 8.0)
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    psi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    a, b = 1.3 - 0.7j, -0.4 + 2.1j
    radii = default_radii(g)

    class _Lin:
        n = 2

        def evaluate(self, pts):
            return a * phi.evaluate(pts) + b * psi.evaluate(pts)

    combo = project(_Lin(), radii, SQ256)
    pa = project(phi, radii, SQ256)
    pb = project(psi, radii, SQ256)
    dev = combo.values - (a * pa.values + b * pb.values)
    assert np.max(np.abs(dev)) <= 1e-12


def test_project_idempotent():
    g = make_grid(2, 32, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    radii = default_radii(g)
    p1 = project(phi, radii, SQ256)
    p2 = project(p1, radii, SQ256)
    assert np.max(np.abs(p2.values - p1.values)) <= 1e-10


def test_project_mc_single_node_is_sampling():
    g = make_grid(2, 16, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    rq = subgroup_quadrature([Rotation(2, np.eye(2))])
    mc = project_mc(phi, g, rq)
    assert np.max(np.abs(mc.values - sample_symbol(phi, g).values)) <= 1e-15


def test_project_mc_radial_fixed_point():
    g = make_grid(2, 16, 8.0)
    phi = make_named_symbol("poisson", {"t": 1.0}, 2)
    mc = project_mc(phi, g, so_quadrature(2, 32))
    assert np.max(np.abs(mc.values - sample_symbol(phi, g).values)) <= 1e-12


def test_two_path_agreement():
    # sphere-quadrature path vs rotation-quadrature path, matched orders
    g = make_grid(2, 32, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    mc = project_mc(phi, g, so_quadrature(2, 256))
    proj = sample_symbol(project(phi, default_radii(g), sphere_quadrature(2, 256)), g)
    assert np.max(np.abs(mc.values - proj.values)) <= 1e-10


def _deviation(phi, g, sq):
    return radial_deviation(phi, project(phi, default_radii(g), sq), g)


def test_radial_deviation_examples():
    g = make_grid(2, 32, 8.0)
    heat = make_named_symbol("heat", {"t": 1.0}, 2)
    assert _deviation(heat, g, SQ256) <= 1e-12
    # at the reference grid each sphere mean rounds as a lone radius would
    assert _deviation(heat, make_grid(2, 64, 16.0), SQ256) < 1e-15
    riesz = make_named_symbol("riesz", {"j": 1}, 2)
    assert _deviation(riesz, g, sphere_quadrature(2, 64)) >= 0.5
    box = make_named_symbol("box_indicator", {"a": 1.0}, 2)
    proj = project(box, default_radii(g), sphere_quadrature(2, 4096))
    assert _deviation(proj, g, sphere_quadrature(2, 4096)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    N=st.sampled_from([4, 6, 8]),
    L=st.floats(2.0, 16.0),
    data=st.data(),
)
@example(n=1, N=64, L=16.0, data=None)
@example(n=2, N=32, L=8.0, data=None)
@example(n=3, N=16, L=8.0, data=None)
def test_radial_deviation_matches_per_radius_means(n, N, L, data):
    # the projection on the lattice radii against one spherical_mean call per
    # distinct float norm of the lattice points, scattered back point by point
    if data is None:
        A = np.diag([1.0, 2.0, 3.0][:n])
    else:
        B = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
        A = B.reshape(n, n) @ B.reshape(n, n).T + 0.1 * np.eye(n)
    g = make_grid(n, N, L)
    phi = make_named_symbol("gaussian_aniso", {"A": A}, n)
    sq = sphere_quadrature(n, 64)
    points = g.frequency_mesh()[~g.nyquist_mask()]
    radii, inverse = np.unique(np.linalg.norm(points, axis=-1), return_inverse=True)
    means = np.array([spherical_mean(phi, float(r), sq) for r in radii])
    loop = float(np.max(np.abs(phi.evaluate(points) - means[inverse])))
    proj = project(phi, default_radii(g), sq)
    assert abs(radial_deviation(phi, proj, g) - loop) <= 4 * np.finfo(float).eps
    # a projection is radial on the lattice: its own projection reproduces it
    assert _deviation(proj, g, sq) <= 1e-12


def test_radial_deviation_one_sphere_per_lattice_radius(monkeypatch):
    # |(3, 4)| = |(5, 0)|: index vectors with the same j1^2 + ... + jn^2 share one
    # sphere of the projection even where their float norms differ in the last bit
    import radialmult.radialize as radialize

    counts = []
    original = radialize._sphere_means

    def spy(phi, radii, sq):
        counts.append(len(radii))
        return original(phi, radii, sq)

    monkeypatch.setattr(radialize, "_sphere_means", spy)
    for n, N in ((1, 64), (2, 64), (3, 16)):
        g = make_grid(n, N, 16.0)
        phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 2.0, 3.0][:n])}, n)
        project(phi, default_radii(g), sphere_quadrature(n, 8))
        j = range(-(N // 2), N // 2)  # Nyquist rows included
        expected = len({sum(k * k for k in idx) for idx in itertools.product(j, repeat=n)})
        assert counts.pop() == expected  # 457 at n = 2, N = 64


def test_sphere_means_are_bitwise_those_of_one_batch(monkeypatch):
    # sphere means evaluate phi in batches of whole radii under a point budget;
    # the means do not depend on the batching
    import radialmult.radialize as radialize

    class Counting:
        def __init__(self, phi):
            self.phi, self.n, self.sizes = phi, phi.n, []

        def evaluate(self, points):
            self.sizes.append(points[..., 0].size)
            # coordinate-major: each coordinate of the cloud is one contiguous block
            assert all(points[..., i].flags.c_contiguous for i in range(self.n))
            return self.phi.evaluate(points)

    for n in (2, 3):
        sq = sphere_quadrature(n, 16)
        m = len(sq.weights)
        radii = default_radii(make_grid(n, 16, 8.0))
        for name, params in [
            ("gaussian_aniso", {"A": np.diag([1.0, 4.0, 2.0][:n])}),
            ("ball_indicator", {"rho": 1.0}),
            ("modulation", {"a": (1.0,) + (0.0,) * (n - 1)}),
            ("bochner_riesz", {"delta": 1.0}),
        ]:
            phi = make_named_symbol(name, params, n)
            whole = project(phi, radii, sq).values
            for budget in (7 * m, m - 1):
                monkeypatch.setattr(radialize, "_SPHERE_BATCH_POINTS", budget)
                spy = Counting(phi)
                values = project(spy, radii, sq).values
                assert np.array_equal(values, whole)
                assert max(spy.sizes) <= max(budget, m)  # at least one radius per batch
                assert sum(spy.sizes) == 1 + (len(radii) - 1) * m  # the origin, then every sphere
                monkeypatch.undo()


def _box_and_gaussian_projections():
    """The two projections whose sphere means dominate the CLI's peak memory."""
    box = make_named_symbol("box_indicator", {"a": 1.0}, 2)
    gauss = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0, 2.0])}, 3)
    return [
        (box, default_radii(make_grid(2, 64, 16.0)), sphere_quadrature(2, INDICATOR_ORDER)),
        (gauss, default_radii(make_grid(3, 16, 8.0)), sphere_quadrature(3, SMOOTH_ORDER)),
    ]


def test_sphere_batches_hold_at_most_2_14_points(monkeypatch):
    sizes = []
    evaluate = NamedSymbol.evaluate

    def spy(self, points):
        sizes.append(points[..., 0].size)
        return evaluate(self, points)

    monkeypatch.setattr(NamedSymbol, "evaluate", spy)
    (box, radii2, sq2), (gauss, radii3, sq3) = _box_and_gaussian_projections()
    project(box, radii2, sq2)
    assert len(sq2.weights) < max(sizes) <= 2**14
    sizes.clear()
    project(gauss, radii3, sq3)
    # 2^16 nodes per radius at n = 3, order 256: four calls per radius, after the origin
    assert len(sq3.weights) == 4 * 2**14
    assert sizes == [1] + [2**14] * (4 * (len(radii3) - 1))


def test_sphere_means_are_bitwise_those_of_one_call_when_radii_are_chunked(monkeypatch):
    # at a budget of 37 points every radius is split into chunks of its nodes,
    # the last a remainder; each mean is still bitwise the one-call mean
    import radialmult.radialize as radialize

    for n, order in ((2, 64), (3, 8)):
        sq = sphere_quadrature(n, order)
        m = len(sq.weights)
        assert m == 64  # chunks of 37 and 27 nodes
        radii = default_radii(make_grid(n, 16, 8.0))
        for name, params in [
            ("gaussian_aniso", {"A": np.diag([1.0, 4.0, 2.0][:n])}),
            ("box_indicator", {"a": 1.0}),
            ("modulation", {"a": (1.0,) + (0.0,) * (n - 1)}),
            ("bochner_riesz", {"delta": 1.0}),
        ]:
            phi = make_named_symbol(name, params, n)
            monkeypatch.setattr(radialize, "_SPHERE_BATCH_POINTS", 37)
            chunked = project(phi, radii, sq).values
            monkeypatch.undo()
            for k in range(1, len(radii)):
                one_call = (phi.evaluate(radii[k] * sq.nodes) * sq.weights).sum()
                assert np.array_equal(chunked[k], one_call), (name, n, radii[k])


def test_projection_peak_memory_is_bounded_by_the_batch(traced_peak_mib):
    # 2^20-point batches peaked at 47.3 and 65.0 MiB
    (box, radii2, sq2), (gauss, radii3, sq3) = _box_and_gaussian_projections()
    assert traced_peak_mib(project, box, radii2, sq2) <= 8
    assert traced_peak_mib(project, gauss, radii3, sq3) <= 10


def test_projection_peak_memory_is_bounded_by_the_2_14_point_budget(traced_peak_mib):
    # 2^16-point batches, with a radius of 2^16 nodes in one call, peaked at
    # 3.58 MiB for the box and 5.0 MiB for the n = 3 Gaussian
    (box, radii2, sq2), (gauss, radii3, sq3) = _box_and_gaussian_projections()
    assert traced_peak_mib(project, box, radii2, sq2) <= 1.5
    assert traced_peak_mib(project, gauss, radii3, sq3) <= 3


def test_non_finite_symbol_values_raise_naming_the_radius():
    # xi_1^400 overflows on the sphere of radius 7 (7^400 ~ 1e338), not of radius 5
    phi = make_named_symbol("monomial", {"alpha": (400, 0)}, 2)
    with np.errstate(over="ignore"), pytest.raises(
        ArithmeticError, match=r"^symbol is not finite on the sphere of radius 7\.0$"
    ):
        project(phi, np.array([0.0, 1.0, 5.0, 7.0, 9.0]), sphere_quadrature(2, 16))


@pytest.mark.parametrize("n,N,L,order", [(1, 32, 8.0, 8), (2, 32, 8.0, 256), (3, 16, 8.0, 64)])
def test_project_means_are_bitwise_the_one_radius_means(n, N, L, order):
    # a radius's mean must not depend on how many radii share the batch, nor on
    # how the batch's points are stored: every mean is bitwise the pairwise sum
    # of its radius alone over a C-ordered (m, n) cloud, for every catalog
    # symbol and for its projection
    sq = sphere_quadrature(n, order)
    weights = sq.weights.astype(complex)
    radii = default_radii(make_grid(n, N, L))
    catalog = list(reference_catalog(n).values())
    assert {phi.name for phi in catalog} == set(SYMBOL_SPECS)
    for phi in catalog:
        proj = project(phi, radii, sq)
        for psi, values in ((phi, proj.values), (proj, project(proj, radii, sq).values)):
            for k in range(1, len(radii)):
                alone = (psi.evaluate(radii[k] * sq.nodes) * weights).sum()
                assert np.array_equal(values[k], alone), (psi, radii[k])
            for k in range(0, len(radii), 7):
                assert values[k] == spherical_mean(psi, radii[k], sq)


def test_sphere_means_guard_the_convex_average():
    # the mean of values bounded by M cannot exceed M beyond rounding; a rule
    # whose weights sum to 1.01 breaks that, and the guard must see it
    phi = make_named_symbol("constant", {"c": 1.0}, 2)
    sq = sphere_quadrature(2, 16)
    object.__setattr__(sq, "weights", sq.weights * 1.01)
    with pytest.raises(ArithmeticError, match="exceeds the largest sampled value"):
        project(phi, np.array([0.0, 1.0]), sq)


def test_sphere_means_reject_negative_radius():
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    for r in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            spherical_mean(phi, r, SQ256)
    with pytest.raises(ValueError):
        project(phi, np.array([0.0, -1.0]), SQ256)


def test_project_output_rotation_invariant():
    from radialmult import haar_rotation

    g = make_grid(2, 32, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2)
    proj = project(phi, default_radii(g), SQ256)
    rng = np.random.default_rng(7)
    for _ in range(20):
        R = haar_rotation(2, rng)
        xi = rng.standard_normal(2) * 3.0
        assert abs(eval_symbol(proj, R.M @ xi) - eval_symbol(proj, xi)) <= 1e-12


def test_project_takes_its_dimension_from_the_symbol():
    phi = make_named_symbol("heat", {"t": 1.0}, 3)
    radii = np.array([0.0, 1.0, 2.0])
    assert project(phi, radii, sphere_quadrature(3, 8)).n == 3
    with pytest.raises(ValueError):
        project(phi, radii, SQ256)  # a 2-D quadrature for a 3-D symbol
