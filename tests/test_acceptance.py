"""Acceptance suite: every hard property at the reference configuration.

Runs the full verification battery once (n=2, N=64, L=16, sphere order
256 / 4096 for indicators, seed 7) and asserts each criterion
separately, printing one PASS/FAIL line per criterion.

Known red: criterion 9's interpolation-mode half cannot reach its stated
tolerance at L = 16.  Conjugating by a non-lattice rotation misaligns
the periodization lattice, and the measured discrepancy, 4.5e-2, is
converged in quadrature order and falls to 7e-4 at L = 32.  The
interpolation scheme moves it too: an FFT three-shear rotation gives
1.4e-2 on the same grid.  The assertion is kept as stated rather than
loosened; see tests/test_multiplier.py for the box-size convergence
check of the same identity.
"""

import math
import time

import pytest

import radialmult.multiplier as multiplier
import radialmult.norms as norms
import radialmult.verification as verification
from radialmult.grid import make_grid
from radialmult.verification import Bound, CheckResult, VerifyConfig, run_all

CRITERION_NAMES = [
    "1-idempotence",
    "2-fixed-point",
    "3-radiality",
    "4-odd-annihilation",
    "5-contractivity-exact",
    "6-contractivity-estimate",
    "7-positivity",
    "8-conjugation",
    "9-q-vs-p",
    "10-quadrature-convergence",
    "11-norm-sanity",
    "12-vector-contraction",
]


@pytest.fixture(scope="module")
def results():
    t0 = time.perf_counter()
    out = run_all(VerifyConfig())
    elapsed = time.perf_counter() - t0
    assert sorted(r.criterion for r in out) == sorted(CRITERION_NAMES)
    return {r.criterion: r for r in out}, elapsed


@pytest.mark.parametrize("criterion", CRITERION_NAMES)
def test_criterion(results, criterion):
    res = results[0][criterion]
    print(f"{'PASS' if res.passed else 'FAIL'} {res.criterion} {res.details}")
    assert res.passed, f"{res.criterion}: {res.details}"


def test_runtime_budget(results):
    # the reference configuration must verify in well under a minute
    assert results[1] < 60.0


def _assert_verdicts_are_their_bounds(out):
    """Every check lists bounds, and its `passed` is the bool 'every value <= its limit'."""
    assert [r.criterion for r in out if not r.bounds] == []
    assert [r.criterion for r in out if type(r.passed) is not bool] == []
    assert [
        r.criterion for r in out if r.passed != all(b.value <= b.limit for b in r.bounds)
    ] == []


def test_every_verdict_is_its_bounds_holding(results):
    out = list(results[0].values())
    _assert_verdicts_are_their_bounds(out)
    # the known red fails on its interpolation bound alone
    failing = {(r.criterion, b.name) for r in out for b in r.bounds if not b.holds}
    assert failing <= {("9-q-vs-p", "interp_rel_l2")}


def test_a_result_passes_only_on_bounds_that_hold():
    nan = math.nan
    assert CheckResult("c", {}, [Bound("a", 1.0, 1.0), Bound("b", -math.inf, 0.0)]).passed is True
    assert CheckResult("c", {}, [Bound("a", 1.0, 1.0), Bound("b", nan, 0.0)]).passed is False
    assert CheckResult("c", {}, [Bound("a", 0.0, nan)]).passed is False
    assert CheckResult("c", {}, [Bound("a", math.nextafter(1.0, 2.0), 1.0)]).passed is False
    # a check that tested nothing certifies nothing
    assert CheckResult("c", {}, []).passed is False


@pytest.mark.parametrize("n, errors, passed", [
    (2, [1e-3, 1e-5, 1e-8, 1e-12], True),
    (2, [1e-3, 1e-5, 1e-5, 1e-12], False),  # equal neighbours do not decrease
    (2, [1e-3, 1e-5, 1e-8, 2e-10], False),
    (2, [1e-3, 1e-5, math.nan, 1e-12], False),
    (1, [0.0, 0.0, 0.0, 0.0], True),
    (1, [0.0, 0.0, 5e-324, 0.0], False),
])
def test_check_10_needs_a_strict_decrease(monkeypatch, n, errors, passed):
    ctx = verification._Context(VerifyConfig(n=n, N=16, L=8.0, smooth_order=64, indicator_order=256))
    monkeypatch.setattr(verification, "convergence_errors", lambda *args: list(errors))
    result = verification.check_quadrature_convergence(ctx)
    assert result.passed is passed
    assert result.details["errors"] == tuple(errors)


def test_check_7_fails_on_a_non_finite_kernel(monkeypatch):
    # a +inf entry leaves the kernel's minimum and imaginary part finite; only
    # the report's `non-finite-kernel` reason can fail the check
    ctx = verification._Context(VerifyConfig(N=16, L=8.0, smooth_order=64, indicator_order=256))
    assert verification.check_positivity_preservation(ctx).passed
    real_kernel = multiplier.kernel

    def kernel_with_inf(op):
        K = real_kernel(op)
        K.values[(0,) * K.values.ndim] = math.inf
        return K

    monkeypatch.setattr(multiplier, "kernel", kernel_with_inf)
    result = verification.check_positivity_preservation(ctx)
    assert not result.passed
    assert [b.name for b in result.bounds if not b.holds] == [
        "heat_not_positive_kernels", "gaussiso_not_positive_kernels"
    ]


def test_the_n3_battery_fails_only_the_known_red_in_seconds():
    # at n = 3 the power-iteration grid is 16^3 and check 9's SO(3) rule order 8;
    # the indicator order stays explicit, as `verify --n 3` still builds order 4096
    t0 = time.perf_counter()
    out = run_all(VerifyConfig(n=3, N=8, L=4.0, indicator_order=256))
    elapsed = time.perf_counter() - t0
    assert [r.criterion for r in out if not r.passed] == ["9-q-vs-p"]
    _assert_verdicts_are_their_bounds(out)
    assert elapsed < 30.0


def test_equal_orders_share_one_sphere_rule(monkeypatch):
    built = []
    original = verification.sphere_quadrature

    def spy(n, m):
        built.append(m)
        return original(n, m)

    monkeypatch.setattr(verification, "sphere_quadrature", spy)
    ctx = verification._Context(VerifyConfig(N=16, L=8.0, smooth_order=64, indicator_order=64))
    assert built == [64]
    assert ctx.sq_for(ctx.catalog["boxind"]) is ctx.sq_for(ctx.catalog["heat"])


def test_every_check_runs_at_n1():
    out = run_all(VerifyConfig(n=1, N=32, L=8.0))
    assert [r.criterion for r in out] == CRITERION_NAMES
    assert [r.criterion for r in out if not r.passed] == []
    _assert_verdicts_are_their_bounds(out)
    # the n = 1 sphere rule {+-1} is exact at every order
    assert dict((r.criterion, r.details) for r in out)["10-quadrature-convergence"] == {
        "errors": (0.0, 0.0, 0.0, 0.0)
    }


def test_checks_8_and_9_compare_two_independent_computations(monkeypatch):
    # exact-mode averages multiply by the permuted symbol, so checks 8 and 9
    # compose their operator side from rotate_function and apply; a symbol
    # side left unrotated must then show, in both checks
    ctx = verification._Context(VerifyConfig(N=16, L=8.0))
    assert verification.check_conjugation_identity(ctx).passed
    assert verification.check_q_vs_p(ctx).details["exact_c4"] <= 1e-12
    with monkeypatch.context() as patch:
        patch.setattr(verification, "rotated_symbol", lambda phi, R: phi)
        assert not verification.check_conjugation_identity(ctx).passed
        assert verification.check_q_vs_p(ctx).details["exact_c4"] > 1e-12

    # and neither check's exact half calls the exact symbol path it certifies,
    # directly or through `conjugated_apply`
    average = multiplier.average_conjugated

    def interp_only(op, rq, f, mode="exact"):
        if mode == "exact":
            raise AssertionError("exact-mode average called")
        return average(op, rq, f, mode)

    for module in (multiplier, verification):
        monkeypatch.setattr(module, "average_conjugated", interp_only)
    assert verification.check_conjugation_identity(ctx).passed
    assert verification.check_q_vs_p(ctx).details["exact_c4"] <= 1e-12


def test_check_5_computes_one_kernel_per_operator(monkeypatch):
    # each operator's kernel serves its positivity verdict and its mass; the
    # details are those of the public per-operator calls
    ctx = verification._Context(VerifyConfig(N=16, L=8.0, smooth_order=64, indicator_order=64))
    calls = []
    real_kernel = multiplier.kernel

    def counting_kernel(op):
        calls.append(op)
        return real_kernel(op)

    monkeypatch.setattr(norms, "kernel", counting_kernel)
    result = verification.check_contractivity_exact(ctx)
    monkeypatch.undo()
    assert len(calls) == len(set(map(id, calls)))
    masses = {}
    for label, phi in ctx.catalog.items():
        op = multiplier.MultiplierOperator(phi, ctx.grid)
        proj_op = multiplier.MultiplierOperator(ctx.projection(label), ctx.grid)
        if (
            multiplier.positivity_report(op).verdict == "positive"
            and multiplier.positivity_report(proj_op).verdict == "positive"
        ):
            masses[f"mass_{label}"] = (
                verification.norm_upper_kernel(proj_op).value
                - verification.norm_upper_kernel(op).value
            )
    assert masses and {k: v for k, v in result.details.items() if k.startswith("mass_")} == masses
    # every original, then the projection of each positive original
    assert len(calls) == len(ctx.catalog) + sum(
        multiplier.positivity_report(multiplier.MultiplierOperator(phi, ctx.grid)).verdict == "positive"
        for phi in ctx.catalog.values()
    )


@pytest.mark.parametrize("n", [1, 2])
def test_results_leave_as_the_types_they_declare(n):
    # `CheckResult.passed` is typed bool and details are numbers for reports;
    # numpy scalars would leak through either
    out = run_all(VerifyConfig(n=n, N=16, L=8.0, smooth_order=64, indicator_order=256))
    _assert_verdicts_are_their_bounds(out)
    numbers = [
        (r.criterion, key, x)
        for r in out
        for key, value in r.details.items()
        for x in (value if isinstance(value, tuple) else (value,))
    ]
    assert [(c, key) for c, key, x in numbers if type(x) is not float] == []
    op = multiplier.MultiplierOperator(verification.reference_catalog(n)["heat"], make_grid(n, 16, 8.0))
    assert type(norms.norm_lower_power(op, 3.0, trials=2, iters=20, seed=7).value) is float
