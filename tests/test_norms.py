"""Operator-norm estimation and contraction reports."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialmult import (
    MultiplierOperator,
    NormEstimate,
    contraction_report,
    make_grid,
    make_named_symbol,
    norm_lower_power,
    norm_p2_exact,
    norm_upper_kernel,
)
from radialmult import multiplier, norms
from radialmult.grid import _multiply
from radialmult.norms import POWER_RELATIVE_GAIN
from radialmult.radialize import default_radii, project
from radialmult.rotation import haar_rotation, sphere_quadrature
from radialmult.symbols import Symbol
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
    # the mass is a p-independent upper bound; the report marks it exact at p in {1, inf}
    g = make_grid(1, 16, 8.0)
    op = MultiplierOperator(make_named_symbol("heat", {"t": 1.0}, 1), g)
    mass = norm_upper_kernel(op)
    assert (mass.kind, mass.p) == ("upper-bound", None)
    rep = _report("heat", {"t": 1.0}, g, (1.0, 3.0, np.inf), 8)
    kernel_rows = [est for target, est in rep.rows
                   if target == "original" and est.method == "kernel-l1"]
    assert kernel_rows == [mass, *(replace(mass, kind="exact", p=p) for p in (1.0, np.inf))]


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


def _report(name, params, g, p_list, order):
    phi = make_named_symbol(name, params, g.n)
    pphi = project(phi, default_radii(g), sphere_quadrature(g.n, order))
    return contraction_report(phi, pphi, g, p_list)


def test_contraction_report_heat_fixed_point():
    rep = _report("heat", {"t": 1.0}, make_grid(2, 32, 8.0), (1.5, 2.0, 4.0), 256)
    assert set(rep.flags) == {"p2_sup_contraction", "lower_le_upper", "positive_norm_equality"}
    assert all(rep.flags.values())


def test_contraction_report_riesz():
    rep = _report("riesz", {"j": 1}, make_grid(2, 32, 8.0), (2.0,), 64)
    assert rep.flags["p2_sup_contraction"]
    assert rep.flags["lower_le_upper"]
    # Pphi = 0, so every radialized lower bound is ~0
    rad = [est for target, est in rep.rows
           if target == "radialized" and est.method == "power-iteration"]
    assert rad and all(est.value <= 1e-12 for est in rad)


def test_contraction_report_rows_schema():
    rep = _report("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, make_grid(2, 16, 8.0), (4.0,), 64)
    assert isinstance(rep.rows, tuple) and rep.rows
    for target, est in rep.rows:
        assert target in ("original", "radialized")
        assert isinstance(est, NormEstimate)
        assert est.seed == (0 if est.method == "power-iteration" else None)


def test_contraction_report_row_order():
    # per target: the p-independent kernel row, then the rows in p order,
    # the exact p = 2 row before its power row
    rep = _report("heat", {"t": 1.0}, make_grid(2, 8, 4.0), (1.0, 2.0, np.inf, 1.5), 64)
    table = [(target, est.p, est.method) for target, est in rep.rows]
    per_target = [
        (None, "kernel-l1"),
        (1.0, "kernel-l1"),
        (2.0, "plancherel-sup"),
        (2.0, "power-iteration"),
        (np.inf, "kernel-l1"),
        (1.5, "power-iteration"),
    ]
    assert table == [(t, p, m) for t in ("original", "radialized") for p, m in per_target]
    # the p = 2 sup flag reads the exact row
    sup = {target: est.value for target, est in rep.rows if est.method == "plancherel-sup"}
    assert rep.flags["p2_sup_contraction"] == (sup["radialized"] <= sup["original"] + 1e-12)


def test_contraction_report_computes_one_kernel_per_operator(monkeypatch):
    real_kernel = multiplier.kernel
    calls = []

    def counting_kernel(op):
        calls.append(op)
        return real_kernel(op)

    monkeypatch.setattr(multiplier, "kernel", counting_kernel)
    monkeypatch.setattr(norms, "kernel", counting_kernel)
    g = make_grid(2, 8, 4.0)
    rep = _report("heat", {"t": 1.0}, g, (1.0, 1.5, 2.0, 4.0, np.inf), 64)
    # one kernel per target serves its mass rows and the original's positivity
    assert len(calls) == 2
    ops = {"original": calls[0], "radialized": calls[1]}
    for target, est in rep.rows:
        if est.p in (1.0, np.inf):
            assert est == replace(norm_upper_kernel(ops[target]), kind="exact", p=est.p)


def test_norm_estimate_rejects_negative_and_nan_values():
    for value in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            NormEstimate(value=value, kind="exact", p=2.0, method="plancherel-sup")


def test_phase_is_the_quotient_and_zero_where_magnitude_is_not_positive():
    rng = np.random.default_rng(4)
    shape = (3, 16, 16)
    scale = 10.0 ** rng.integers(-150, 150, shape)
    y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    y[0, :4] = 0.0
    y[1, 2, 3] = complex(np.nan, 1.0)
    y[1, 2, 4] = np.nan
    y[2, 5, 5] = complex(0.0, -2.0)
    y[2, 5, 6] = -3.0
    mags = np.abs(y)
    live = mags > 0
    got = norms._phase(y, mags)
    assert np.array_equal(got[~live], np.zeros((~live).sum(), dtype=complex))
    assert np.array_equal(got[live], y[live] / mags[live])
    assert (~live).sum() == 66 and not np.isnan(got).any()  # 64 zeros, 2 NaNs


def test_phase_of_a_subnormal_is_a_unit_phase():
    # 1/|y| overflows below the smallest normal magnitude; the entries are rescaled first
    y = np.array([1e-310 + 0j, 3e-310 - 4e-310j, 5e-324j, 0.0, np.nan, 3.0 + 4.0j])
    with np.errstate(all="raise"):
        got = norms._phase(y, np.abs(y))
    np.testing.assert_allclose(got[:3], [1.0, 0.6 - 0.8j, 1j], rtol=0, atol=1e-12)
    assert np.array_equal(got[3:], [0.0, 0.0, y[5] / 5.0])


def test_phase_scales_an_all_normal_field_in_place():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((2, 8, 8)) + 1j * rng.standard_normal((2, 8, 8))
    want = y / np.abs(y)
    got = norms._phase(y, np.abs(y))
    assert got is y and np.array_equal(got, want)


def test_power_iteration_peak_memory(traced_peak_mib):
    # 8 trials at 64^2 make 0.5 MiB per complex stack.  A new array per phase,
    # with every stack kept through the step, peaked at 4.07 MiB (4.92 on the
    # first run at this size, which also fills numpy's FFT cache; warmed here)
    g = make_grid(2, 64, 16.0)
    for label in ("const", "heat"):
        op = MultiplierOperator(reference_catalog(2)[label], g)
        norm_lower_power(op, 1.5, iters=1)
        for p in (1.5, 2.0, 3.0):
            assert traced_peak_mib(norm_lower_power, op, p) <= 3, (label, p)


def _power_one_trial_at_a_time(op, p, trials, iters, seed, spectral=None):
    """The power iteration run trial by trial, as the definition reads.

    Returns (value, iterations, history) of the best trial, as
    norm_lower_power reports them, and every trial's step count.  At
    p = 2 the step defaults to the spectral one, x^ <- conj(phi) phi x^
    with Parseval norms; `spectral=False` runs the physical step there.
    """
    rng = np.random.default_rng(seed)
    grid = op.grid
    vol = grid.dx**grid.n
    sym = op.sampled
    q = p / (p - 1.0)
    if spectral is None:
        spectral = p == 2.0

    def norm_p(x):
        return (np.sum(np.abs(x) ** p) * vol) ** (1.0 / p)

    def phase(y):
        mags = np.abs(y)
        return np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 0.0)

    if spectral:
        vol = vol / grid.N**grid.n  # sum |x|^2 = N^-n sum |x^|^2 on the unscaled DFT sum

    best, best_iters, best_history = 0.0, 0, ()
    all_steps = []
    for _ in range(trials):
        x = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        if spectral:
            x = np.fft.fftn(x)
        est_prev = 0.0
        history = []
        nx = norm_p(x)
        for steps in range(1, iters + 1):
            x = x / nx
            # iterate times symbol: the operand order of an in-place product
            y = x * sym if spectral else _multiply(sym, x)
            est = norm_p(y)
            history.append(est)
            if est == 0.0:
                break
            if spectral:
                x = y * np.conj(sym)
            else:
                s = np.abs(y) ** (p - 1.0) * phase(y)
                z = _multiply(np.conj(sym), s)
                x = np.abs(z) ** (q - 1.0) * phase(z)
            nx = norm_p(x)
            if nx == 0.0 or est - est_prev <= POWER_RELATIVE_GAIN * est:
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
@pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 2.0, 3.0, 4.0])
def test_stacked_power_iteration_is_bitwise_the_trial_loop(p, trials):
    g = make_grid(2, 16, 8.0)
    sq = sphere_quadrature(2, 64)
    for label, phi in reference_catalog(2).items():
        projected = project(phi, default_radii(g), sq)
        for symbol in (phi, projected):
            op = MultiplierOperator(symbol, g)
            for seed in (0, 5):
                _assert_matches_one_trial_at_a_time(op, p, trials, 40, seed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spectral_p2_step_agrees_with_the_physical_step(n):
    # the p = 2 step runs on the spectrum; the physical step is its oracle up to
    # rounding.  Trials that tie at sup |phi| to rounding (the indicators, |phi| = 1
    # on many lattice points) may swap which one is best, so histories are
    # compared at one trial only
    g = make_grid(n, {1: 32, 2: 16, 3: 8}[n], 8.0 if n < 3 else 4.0)
    for label, phi in reference_catalog(n).items():
        op = MultiplierOperator(phi, g)
        for trials in (1, 4):
            est = norm_lower_power(op, 2.0, trials=trials, iters=300, seed=3)
            (value, iters, history), steps = _power_one_trial_at_a_time(
                op, 2.0, trials, 300, 3, spectral=False)
            want, spectral_steps = _power_one_trial_at_a_time(op, 2.0, trials, 300, 3)
            assert (est.value, est.iterations, est.history) == want
            assert est.value == pytest.approx(value, rel=1e-13, abs=0.0), (label, trials)
            assert spectral_steps == steps, (label, trials)
            if trials == 1:
                assert est.iterations == iters
                np.testing.assert_allclose(est.history, history, rtol=1e-13, atol=0.0)


def test_spectral_p2_run_transforms_once(monkeypatch):
    g = make_grid(2, 16, 8.0)
    op = MultiplierOperator(reference_catalog(2)["riesz"], g)
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        def counting(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counting)
    est = norm_lower_power(op, 2.0, trials=4, iters=100, seed=0)
    assert est.iterations > 1
    assert calls == {"fftn": 1, "ifftn": 0}


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


_ANISO = ("gaussian_aniso", {"A": np.diag([1.0, 4.0])})


@pytest.mark.parametrize("symbol, p, iters, stop", [
    (_ANISO, 3.0, 500, "stall"),
    (_ANISO, 3.0, 3, "cap"),
    (("constant", {"c": 0.0}), 3.0, 10, "zero image"),
    # |z| is near 1e-33 and q = 11, so |z|^(q-1) falls below every subnormal: x = 0
    (("constant", {"c": 1e-30}), 1.1, 10, "underflow"),
])
def test_power_iteration_counts_the_steps_it_takes(symbol, p, iters, stop):
    g = make_grid(2, 8, 4.0)
    op = MultiplierOperator(make_named_symbol(*symbol, 2), g)
    _assert_matches_one_trial_at_a_time(op, p, 3, iters, 0)
    est = norm_lower_power(op, p, trials=3, iters=iters, seed=0)
    assert est.iterations == len(est.history)
    assert (est.iterations == iters) == (stop == "cap")
    assert (est.value == 0.0) == (stop == "zero image")
    if stop == "underflow":
        assert est.iterations == 1 and est.value == pytest.approx(1e-30, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(1.1, 6.0),
    trials=st.integers(1, 5),
    label=st.sampled_from(list(reference_catalog(2))),
    n=st.sampled_from([1, 2]),
)
def test_stacked_power_iteration_property(seed, p, trials, label, n):
    g = make_grid(n, 8 if n == 2 else 16, 4.0)
    op = MultiplierOperator(reference_catalog(n)[label], g)
    _assert_matches_one_trial_at_a_time(op, p, trials, 30, seed)


class _GaussianMixture(Symbol):
    """sum_k c_k exp(i a_k . xi - xi^T A_k xi / 2) with c_k >= 0: Bochner-positive.

    It is the Fourier transform of a nonnegative mixture of shifted
    Gaussians, so every operator it defines has a nonnegative kernel of
    mass phi(0) = sum_k c_k.
    """

    def __init__(self, c, a, A):
        self.n = a.shape[1]
        self.c, self.a, self.A = c, a, A

    def evaluate(self, points):
        x = [points[..., i] for i in range(self.n)]
        out = np.zeros(points.shape[:-1], dtype=complex)
        for c, a, A in zip(self.c, self.a, self.A):
            shift = sum(a[i] * x[i] for i in range(self.n))
            quad = sum(A[i, j] * x[i] * x[j] for i in range(self.n) for j in range(self.n))
            out += c * np.exp(1j * shift - quad / 2.0)
        return out


@st.composite
def _bochner_positive(draw):
    """A random `_GaussianMixture` with 1 to 3 terms, eigenvalues of each A_k in [0.5, 4]."""
    n = draw(st.sampled_from([1, 2, 3]))
    terms = draw(st.integers(1, 3))
    c = np.array([draw(st.floats(0.1, 2.0))] + [draw(st.floats(0.0, 2.0)) for _ in range(terms - 1)])
    a = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(n)] for _ in range(terms)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = []
    for _ in range(terms):
        Q = haar_rotation(n, rng).M
        eigs = [draw(st.floats(0.5, 4.0)) for _ in range(n)]
        A.append(Q @ np.diag(eigs) @ Q.T)
    return _GaussianMixture(c, a, np.array(A))


@settings(max_examples=30, deadline=None)
@given(_bochner_positive())
def test_bochner_positive_symbols_have_positive_kernels_of_mass_phi0(phi):
    g = make_grid(phi.n, 16, 4.0) if phi.n == 3 else make_grid(phi.n, 32, 8.0)
    report, mass = norms._kernel_bounds(MultiplierOperator(phi, g))
    assert report.verdict == "positive", report
    assert abs(mass.value - phi.c.sum()) <= 1e-12 * phi.c.sum()
    pphi = project(phi, default_radii(g), sphere_quadrature(g.n, 64))
    rep = contraction_report(phi, pphi, g, (1.0, np.inf))
    assert rep.flags["positive_norm_equality"]
