"""Symbol catalog, profiles, sampling, and the CLI spec mini-language."""

import numpy as np
import pytest

from radialmult import (
    RadialSymbol,
    eval_symbol,
    haar_rotation,
    make_grid,
    make_named_symbol,
    parse_symbol_spec,
    sample_symbol,
)
from radialmult.symbols import SYMBOL_SPECS, SymbolSpecError


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


def test_sample_symbol_matches_eval():
    g = make_grid(2, 8, 8.0)
    phi = make_named_symbol("gaussian_aniso", {"A": np.eye(2)}, 2)
    s = sample_symbol(phi, g)
    xi = (g.dxi * 2, g.dxi)  # a lattice point
    assert abs(eval_symbol(s, xi) - eval_symbol(phi, xi)) <= 1e-15


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
