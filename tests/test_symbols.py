"""Symbol catalog, profiles, sampling, and the CLI spec mini-language."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmult import (
    RadialSymbol,
    eval_symbol,
    haar_rotation,
    make_grid,
    make_named_symbol,
    parse_symbol_spec,
    sample_symbol,
)
from radialmult.symbols import SYMBOL_SPECS, SymbolSpecError, _quadratic_form
from radialmult.verification import reference_catalog


def test_heat_value():
    phi = make_named_symbol("heat", {"t": 1.0}, 2)
    assert eval_symbol(phi, (1.0, 0.0)) == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_riesz_origin_is_zero():
    phi = make_named_symbol("riesz", {"j": 1}, 2)
    assert eval_symbol(phi, (0.0, 0.0)) == 0.0
    assert eval_symbol(phi, (3.0, 4.0)) == pytest.approx(0.6, abs=1e-15)


def test_box_indicator_value():
    phi = make_named_symbol("box_indicator", {"a": 1.0}, 2)
    assert eval_symbol(phi, (0.5, -0.9)) == 1.0
    assert eval_symbol(phi, (0.5, -1.1)) == 0.0


def test_catalog_values():
    cases = [
        ("constant", {"c": 2.5 + 1j}, 2, (0.3, 0.4), 2.5 + 1j),
        ("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2, (1.0, 1.0), np.exp(-5.0)),
        ("poisson", {"t": 2.0}, 2, (3.0, 4.0), np.exp(-10.0)),
        ("ball_indicator", {"rho": 1.0}, 2, (0.6, 0.8), 1.0),
        ("ball_indicator", {"rho": 1.0}, 2, (0.7, 0.8), 0.0),
        ("bochner_riesz", {"delta": 1.0}, 2, (0.6, 0.0), 0.64),
        ("bochner_riesz", {"delta": 1.0}, 2, (2.0, 0.0), 0.0),
        ("monomial", {"alpha": (2, 1)}, 2, (3.0, 2.0), 18.0),
        ("modulation", {"a": (1.0, 0.0)}, 2, (np.pi, 0.0), -1.0),
    ]
    for name, params, n, xi, want in cases:
        assert eval_symbol(make_named_symbol(name, params, n), xi) == pytest.approx(
            want, abs=1e-12
        )


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        make_named_symbol("nope", {}, 2)
    with pytest.raises(ValueError):
        make_named_symbol("heat", {"t": -1.0}, 2)
    with pytest.raises(ValueError):
        make_named_symbol("ball_indicator", {"rho": 0.0}, 2)
    with pytest.raises(ValueError):
        make_named_symbol("bochner_riesz", {"delta": -0.5}, 2)
    with pytest.raises(ValueError):
        make_named_symbol("gaussian_aniso", {"A": np.array([[1.0, 3.0], [3.0, 1.0]])}, 2)


def test_bochner_riesz_needs_a_positive_delta():
    # (1 - |xi|^2)_+ ** 0 is 1 outside the ball too; delta = 0 is `ballind`
    with pytest.raises(ValueError, match="ballind"):
        make_named_symbol("bochner_riesz", {"delta": 0.0}, 2)
    for delta in (1e-3, 0.5, 1.0):
        assert make_named_symbol("bochner_riesz", {"delta": delta}, 2).evaluate(np.array([2.0, 0.0])) == 0


@pytest.mark.parametrize(
    "name,params",
    [
        ("constant", {"c": np.nan}),
        ("constant", {"c": np.inf}),
        ("heat", {"t": np.inf}),
        ("poisson", {"t": np.inf}),
        ("ball_indicator", {"rho": np.inf}),
        ("box_indicator", {"a": np.inf}),
        ("bochner_riesz", {"delta": np.inf}),
        ("modulation", {"a": (np.nan, 0.0)}),
        ("gaussian_aniso", {"A": np.array([[1.0, np.inf], [np.inf, 1.0]])}),
        ("gaussian_aniso", {"A": np.array([[1.0, 0.0], [0.0, np.nan]])}),
    ],
)
def test_non_finite_parameters_rejected(name, params):
    with pytest.raises(ValueError, match="must be finite"):
        make_named_symbol(name, params, 2)


@pytest.mark.parametrize(
    "name,params", [("riesz", {"j": 1.5}), ("monomial", {"alpha": (1.7, 0)})]
)
def test_non_integral_parameters_rejected(name, params):
    with pytest.raises(ValueError, match="integer"):
        make_named_symbol(name, params, 2)


def test_integral_parameters_normalized_to_int():
    riesz = make_named_symbol("riesz", {"j": np.int64(2)}, 2)
    monomial = make_named_symbol("monomial", {"alpha": (2.0, np.int64(1))}, 2)
    assert riesz.params == {"j": 2} and type(riesz.params["j"]) is int
    assert monomial.params == {"alpha": (2, 1)}
    assert all(type(a) is int for a in monomial.params["alpha"])


def test_riesz_bounded_by_one():
    phi = make_named_symbol("riesz", {"j": 2}, 2)
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 2)) * 5.0
    vals = phi.evaluate(pts)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-15


def test_radial_profile_interpolation_and_clamp():
    phi = RadialSymbol(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.0], dtype=complex), 2)
    # |xi| = 1.5 -> 0.25, |xi| = 3 -> clamp to 0
    assert eval_symbol(phi, (1.5, 0.0)) == pytest.approx(0.25, abs=1e-15)
    assert eval_symbol(phi, (3.0, 0.0)) == 0.0
    assert eval_symbol(phi, (0.0, 0.0)) == 1.0


def test_radial_profile_validation():
    with pytest.raises(ValueError):
        RadialSymbol(np.array([0.5, 1.0]), np.array([1.0, 0.0], dtype=complex), 2)
    with pytest.raises(ValueError):
        RadialSymbol(np.array([0.0, 1.0, 1.0]), np.array([1.0, 0.5, 0.0], dtype=complex), 2)


def test_radial_symbol_rotation_invariant():
    phi = RadialSymbol(np.array([0.0, 1.0, 2.0, 4.0]), np.array([1.0, 0.7, 0.2, 0.0], dtype=complex), 2)
    rng = np.random.default_rng(21)
    for _ in range(10):
        R = haar_rotation(2, rng)
        xi = rng.standard_normal(2) * 2.0
        assert abs(eval_symbol(phi, R.M @ xi) - eval_symbol(phi, xi)) <= 1e-12


def _both_layouts(cloud: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (..., n) cloud C-ordered, and the same points stored coordinate-major."""
    coordinate_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(cloud, -1, 0)), 0, -1)
    return cloud, coordinate_major


def _spd(rng, n: int) -> np.ndarray:
    B = rng.standard_normal((n, n))
    return B @ B.T + np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_symbol_value_per_point(n):
    # a point alone gets the bits it has inside a batch, whatever the batch layout
    rng = np.random.default_rng(n)
    full = make_named_symbol("gaussian_aniso", {"A": _spd(rng, n)}, n)
    shifted = make_named_symbol("modulation", {"a": rng.uniform(-3.0, 3.0, n)}, n)
    clouds = _both_layouts(rng.standard_normal((30, 70, n)) * 2.0)
    extra = {"gaussaniso-full": full, "modulation-shifted": shifted}
    for label, phi in {**reference_catalog(n), **extra}.items():
        alone = np.array([eval_symbol(phi, xi) for xi in clouds[0].reshape(-1, n)])
        for cloud in clouds:
            assert np.array_equal(phi.evaluate(cloud).ravel(), alone), label


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["spd", "diagonal", "zero-off-diagonal"]),
    shape=st.sampled_from([(3,), (40,), (7, 33), (3, 5, 11)]),
)
def test_quadratic_form_is_bitwise_einsum(seed, n, kind, shape):
    # batched clouds only: on one or two points einsum may sum in another order
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        A = np.diag(rng.uniform(0.1, 5.0, n))
    else:
        A = _spd(rng, n)
        if kind == "zero-off-diagonal" and n > 1:
            A[0, -1] = A[-1, 0] = 0.0
            A += np.abs(A).sum() * np.eye(n)  # still positive definite
    for x in _both_layouts(rng.standard_normal(shape + (n,)) * rng.uniform(0.1, 30.0)):
        want = np.einsum("...i,ij,...j->...", x, A, x)
        assert np.array_equal(_quadratic_form(x, A), want)


def test_sample_symbol_matches_eval():
    g = make_grid(2, 8, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.eye(2)}, 2)
    s = sample_symbol(phi, g)
    xi = (g.dxi * 2, g.dxi)  # the lattice point of index (2, 1)
    assert abs(s.values[2, 1] - eval_symbol(phi, xi)) <= 1e-15


def test_sample_constant_is_ones():
    g = make_grid(2, 8, 8.0)
    s = sample_symbol(make_named_symbol("constant", {"c": 1.0}, 2), g)
    assert np.array_equal(s.values, np.ones(g.shape, dtype=complex))


def test_sample_idempotent():
    g = make_grid(2, 8, 8.0)
    phi = make_named_symbol("heat", {"t": 0.5}, 2)
    s = sample_symbol(phi, g)
    assert sample_symbol(s, g) is s or np.array_equal(sample_symbol(s, g).values, s.values)


def test_sampled_off_lattice_errors():
    g = make_grid(2, 8, 8.0)
    s = sample_symbol(make_named_symbol("heat", {"t": 1.0}, 2), g)
    with pytest.raises(ValueError):
        eval_symbol(s, (g.dxi * 0.5, 0.0))
    g2 = make_grid(2, 16, 8.0)
    with pytest.raises(ValueError):
        sample_symbol(s, g2)


PARSE_CASES = [
    ("const:c=2", 3, (0.0, 0.0, 0.0), 2.0),
    ("constant:c=2", 2, (0.3, 0.4), 2.0),
    ("heat:t=1.0", 2, (1.0, 0.0), np.exp(-1.0)),
    ("poisson:t=2", 2, (3.0, 4.0), np.exp(-10.0)),
    ("gaussaniso:a11=1,a22=4", 2, (1.0, 1.0), np.exp(-5.0)),
    ("ballind:rho=0.5", 2, (0.3, 0.3), 1.0),
    ("ballind:r=0.5", 2, (0.3, 0.41), 0.0),  # r is an alias of rho
    ("boxind:a=1.0", 2, (0.5, 0.5), 1.0),
    ("riesz:j=2", 2, (3.0, 4.0), 0.8),
    ("bochnerriesz:delta=2", 2, (0.6, 0.0), 0.64**2),
    ("monomial:a1=2,a2=0", 2, (3.0, 5.0), 9.0),
    ("modulation:a1=1", 2, (np.pi, 0.0), -1.0),
]


@pytest.mark.parametrize("spec,n,xi,want", PARSE_CASES, ids=[c[0] for c in PARSE_CASES])
def test_parse_symbol_spec(spec, n, xi, want):
    phi = parse_symbol_spec(spec, n)
    assert spec.partition(":")[0] in SYMBOL_SPECS[phi.name].cli_names
    assert eval_symbol(phi, xi) == pytest.approx(want, abs=1e-12)


def test_parse_cases_cover_every_cli_name():
    cli_names = {cli for spec in SYMBOL_SPECS.values() for cli in spec.cli_names}
    assert {spec.partition(":")[0] for spec, *_ in PARSE_CASES} == cli_names


def test_kink_marks_exactly_the_indicators():
    assert {name for name, spec in SYMBOL_SPECS.items() if spec.kink} == {
        "ball_indicator",
        "box_indicator",
    }
    assert parse_symbol_spec("ballind", 2).kink and not parse_symbol_spec("heat", 2).kink


def test_parse_symbol_spec_errors_carry_position():
    with pytest.raises(SymbolSpecError):
        parse_symbol_spec("unknown:t=1", 2)
    try:
        parse_symbol_spec("heat:t=abc", 2)
    except SymbolSpecError as e:
        assert e.pos > 0
    else:
        pytest.fail("expected SymbolSpecError")
