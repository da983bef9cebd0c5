"""Spherical means and the radialization projection, both computation paths."""

import itertools

import numpy as np
import pytest

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
from radialmult.radialize import default_radii
from radialmult.rotation import subgroup_quadrature, Rotation


SQ256 = sphere_quadrature(2, 256)


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


def test_radial_deviation_examples():
    g = make_grid(2, 32, 8.0)
    heat = make_named_symbol("heat", {"t": 1.0}, 2)
    assert radial_deviation(heat, g, SQ256) <= 1e-12
    # at the reference grid each sphere mean rounds as a lone radius would
    assert radial_deviation(heat, make_grid(2, 64, 16.0), SQ256) < 1e-15
    riesz = make_named_symbol("riesz", {"j": 1}, 2)
    assert radial_deviation(riesz, g, sphere_quadrature(2, 64)) >= 0.5
    box = make_named_symbol("box_indicator", {"a": 1.0}, 2)
    proj = project(box, default_radii(g), sphere_quadrature(2, 4096))
    assert radial_deviation(proj, g, sphere_quadrature(2, 4096)) <= 1e-12


def test_radial_deviation_matches_per_radius_means():
    # One batched evaluation over all lattice radii replaces a spherical_mean
    # call per radius.  The batch takes its radii as dxi * sqrt(j1^2 + ...),
    # the loop as float norms of the lattice points, so the two may differ in
    # the last bit.
    for n, N, L in ((1, 64, 16.0), (2, 32, 8.0), (3, 16, 8.0)):
        g = make_grid(n, N, L)
        phi = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 2.0, 3.0][:n])}, n)
        sq = sphere_quadrature(n, 64)
        points = g.frequency_mesh()[~g.nyquist_mask()]
        radii, inverse = np.unique(np.linalg.norm(points, axis=-1), return_inverse=True)
        means = np.array([spherical_mean(phi, float(r), sq) for r in radii])
        loop = float(np.max(np.abs(phi.evaluate(points) - means[inverse])))
        assert abs(radial_deviation(phi, g, sq) - loop) <= 4 * np.finfo(float).eps


def test_radial_deviation_one_sphere_per_lattice_radius(monkeypatch):
    # |(3, 4)| = |(5, 0)|: index vectors with the same j1^2 + ... + jn^2 share one
    # sphere even where their float norms differ in the last bit
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
        radial_deviation(phi, g, sphere_quadrature(n, 8))
        j = range(-(N // 2) + 1, N // 2)  # Nyquist rows excluded
        expected = len({sum(k * k for k in idx) for idx in itertools.product(j, repeat=n)})
        assert counts.pop() == expected  # 431 at n = 2, N = 64


@pytest.mark.parametrize("n,N,L,order", [(2, 32, 8.0, 256), (3, 16, 8.0, 64)])
def test_project_means_are_bitwise_the_one_radius_means(n, N, L, order):
    # a radius's mean must not depend on how many radii share the batch
    sq = sphere_quadrature(n, order)
    radii = default_radii(make_grid(n, N, L))
    for phi in (
        make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0, 2.0][:n])}, n),
        make_named_symbol("box_indicator", {"a": 1.0}, n),
    ):
        values = project(phi, radii, sq).values
        for k in range(0, len(radii), 7):
            assert values[k] == spherical_mean(phi, radii[k], sq)


def test_sphere_means_reject_negative_radius():
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    with pytest.raises(ValueError):
        spherical_mean(phi, -1.0, SQ256)
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
