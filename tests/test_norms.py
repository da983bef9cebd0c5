"""Operator-norm estimation and contraction reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmult import (
    MultiplierOperator,
    contraction_report,
    make_grid,
    make_named_symbol,
    norm_lower_power,
    norm_p2_exact,
    norm_upper_kernel,
)
from radialmult.multiplier import _multiply
from radialmult.norms import POWER_RELATIVE_GAIN
from radialmult.radialize import default_radii, project
from radialmult.rotation import sphere_quadrature
from radialmult.verification import reference_catalog


def test_p2_exact_anchors():
    g = make_grid(2, 32, 8.0)
    cases = [
        ("heat", {"t": 1.0}, 1.0),
        ("riesz", {"j": 1}, 1.0),
        ("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 1.0),
    ]
    for name, params, want in cases:
        op = MultiplierOperator(make_named_symbol(name, params, 2), g)
        est = norm_p2_exact(op)
        assert est.kind == "exact" and est.p == 2.0
        assert est.value == pytest.approx(want, abs=1e-14)


def test_power_method_p2_anchor():
    g = make_grid(2, 32, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 2), g)
    est = norm_lower_power(op, 2.0, trials=4, iters=2000, seed=0)
    assert est.kind == "lower-bound"
    assert 1.0 - 1e-6 <= est.value <= 1.0 + 1e-12


def test_power_method_constant_symbol():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("constant", {"c": -2.0 + 1.0j}, 2), g)
    for p in (1.5, 2.0, 3.0):
        est = norm_lower_power(op, p, trials=2, iters=50, seed=1)
        assert est.value == pytest.approx(np.sqrt(5.0), abs=1e-9)


def test_power_method_modulation_isometry():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("modulation", {"a": (0.5, 0.0)}, 2), g)
    est = norm_lower_power(op, 3.0, trials=4, iters=500, seed=2)
    assert 1.0 - 1e-6 <= est.value <= 1.0 + 1e-9


def test_power_method_rejects_endpoints():
    g = make_grid(1, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    for p in (1.0, np.inf):
        with pytest.raises(ValueError):
            norm_lower_power(op, p)


def test_power_method_rejects_no_iterations():
    g = make_grid(1, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    for kwargs in ({"iters": 0}, {"iters": -1}, {"trials": 0}):
        with pytest.raises(ValueError):
            norm_lower_power(op, 2.0, **kwargs)


def test_power_method_history_monotone():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g)
    est = norm_lower_power(op, 4.0, trials=1, iters=100, seed=3)
    h = np.asarray(est.history)
    assert np.all(np.diff(h) >= -1e-12)


def test_upper_kernel_heat_is_one():
    g = make_grid(1, 128, 32.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    est = norm_upper_kernel(op)
    assert est.kind == "upper-bound"
    assert est.value == pytest.approx(1.0, abs=1e-8)


def test_upper_kernel_constant():
    g = make_grid(1, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("constant", {"c": 3.0}, 1), g)
    assert norm_upper_kernel(op).value == pytest.approx(3.0, abs=1e-12)


def test_upper_kernel_ball_indicator_exceeds_one():
    # sinc-type kernel: |K| mass grows with the box, well above phi(0) = 1
    g = make_grid(1, 256, 32.0)
    op = MultiplierOperator(make_named_symbol("ball_indicator", {"rho": 1.0}, 1), g)
    assert norm_upper_kernel(op).value > 1.2


def test_upper_kernel_endpoint_kinds():
    g = make_grid(1, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    assert norm_upper_kernel(op, p=1.0).kind == "exact"
    assert norm_upper_kernel(op, p=np.inf).kind == "exact"
    assert norm_upper_kernel(op, p=3.0).kind == "upper-bound"


def test_ordering_lower_le_upper():
    g = make_grid(2, 16, 8.0)
    for name, params in [("heat", {"t": 1.0}), ("riesz", {"j": 1}), ("poisson", {"t": 1.0})]:
        op = MultiplierOperator(make_named_symbol(name, params, 2), g)
        upper = norm_upper_kernel(op).value
        for p in (1.5, 2.0, 4.0):
            lower = norm_lower_power(op, p, trials=2, iters=50, seed=4).value
            assert lower <= upper + 1e-9
        est2 = norm_lower_power(op, 2.0, trials=2, iters=50, seed=4).value
        assert est2 <= norm_p2_exact(op).value + 1e-12


def test_contraction_report_heat_fixed_point():
    g = make_grid(2, 32, 8.0)
    rep = contraction_report(
        make_named_symbol("heat", {"t": 1.0}, 2), g, (1.5, 2.0, 4.0), 256, trials=2, iters=50
    )
    assert all(rep.flags.values())


def test_contraction_report_riesz():
    g = make_grid(2, 32, 8.0)
    rep = contraction_report(
        make_named_symbol("riesz", {"j": 1}, 2), g, (2.0,), 64, trials=2, iters=50
    )
    assert rep.flags["p2_sup_contraction"]
    assert rep.flags["lower_le_upper"]
    # Pphi = 0, so every radialized lower bound is ~0
    rad = [r for r in rep.rows if r["target"] == "radialized" and r["method"] == "power-iteration"]
    assert rad and all(r["value"] <= 1e-12 for r in rad)


def test_contraction_report_rows_schema():
    g = make_grid(2, 16, 8.0)
    rep = contraction_report(
        make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2),
        g,
        (4.0,),
        64,
        trials=2,
        iters=50,
    )
    for row in rep.rows:
        assert row["target"] in ("original", "radialized")
        assert set(row) >= {"target", "p", "method", "kind", "value"}


def _power_one_trial_at_a_time(op, p, trials, iters, seed):
    """The power iteration run trial by trial, as the definition reads.

    Returns (value, iterations, history) of the best trial, as
    norm_lower_power reports them, and every trial's step count.
    """
    rng = np.random.default_rng(seed)
    grid = op.grid
    vol = grid.dx**grid.n
    sym = op.sampled
    q = p / (p - 1.0)

    def norm_p(x):
        return (np.sum(np.abs(x) ** p) * vol) ** (1.0 / p)

    def phase(y):
        mags = np.abs(y)
        return np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 0.0)

    best, best_iters, best_history = 0.0, 0, ()
    all_steps = []
    for _ in range(trials):
        x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        est_prev = 0.0
        history = []
        for steps in range(1, iters + 1):
            nx = norm_p(x)
            if nx == 0.0:
                break
            x = x / nx
            y = _multiply(sym, x)
            est = norm_p(y)
            history.append(est)
            if est == 0.0:
                break
            s = np.abs(y) ** (p - 1.0) * phase(y)
            z = _multiply(np.conj(sym), s)
            x = np.abs(z) ** (q - 1.0) * phase(z)
            if est - est_prev <= POWER_RELATIVE_GAIN * est:
                break
            est_prev = est
        all_steps.append(steps)
        est = history[-1] if history else 0.0
        if est > best:
            best, best_iters, best_history = est, steps, tuple(history)
    return (best, best_iters, best_history), all_steps


def _assert_matches_one_trial_at_a_time(op, p, trials, iters, seed):
    est = norm_lower_power(op, p, trials=trials, iters=iters, seed=seed)
    want, steps = _power_one_trial_at_a_time(op, p, trials, iters, seed)
    # bitwise: a one-ulp change can move a stopping step
    assert (est.value, est.iterations, est.history) == want
    return steps


@pytest.mark.parametrize("trials", [1, 4])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_stacked_power_iteration_is_bitwise_the_trial_loop(p, trials):
    g = make_grid(2, 16, 8.0)
    sq = sphere_quadrature(2, 64)
    for label, phi in reference_catalog(2):
        projected = project(phi, default_radii(g), sq)
        for symbol in (phi, projected):
            op = MultiplierOperator(symbol, g)
            for seed in (0, 5):
                _assert_matches_one_trial_at_a_time(op, p, trials, 40, seed)


def test_stacked_power_iteration_trials_stop_at_different_steps():
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g)
    steps = _assert_matches_one_trial_at_a_time(op, 3.0, 6, 500, 1)
    assert len(set(steps)) > 1 and max(steps) < 500
    # an iteration cap cuts the still-running trials off mid-stack
    steps = _assert_matches_one_trial_at_a_time(op, 3.0, 6, min(steps) + 1, 1)
    assert len(set(steps)) == 2


def test_stacked_power_iteration_zero_operator():
    g = make_grid(2, 8, 4.0)
    op = MultiplierOperator(make_named_symbol("constant", {"c": 0.0}, 2), g)
    _assert_matches_one_trial_at_a_time(op, 3.0, 3, 10, 0)
    est = norm_lower_power(op, 3.0, trials=3, iters=10, seed=0)
    assert est.value == 0.0 and est.iterations == 0 and est.history == ()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(1.1, 6.0),
    trials=st.integers(1, 5),
    label=st.sampled_from([label for label, _ in reference_catalog(2)]),
    n=st.sampled_from([1, 2]),
)
def test_stacked_power_iteration_property(seed, p, trials, label, n):
    g = make_grid(n, 8 if n == 2 else 16, 4.0)
    op = MultiplierOperator(dict(reference_catalog(n))[label], g)
    _assert_matches_one_trial_at_a_time(op, p, trials, 30, seed)
