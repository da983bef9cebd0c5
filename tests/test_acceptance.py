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

import time

import pytest

import radialmult.multiplier as multiplier
import radialmult.norms as norms
import radialmult.verification as verification
from radialmult.verification import VerifyConfig, run_all

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


def test_equal_orders_share_one_sphere_rule(monkeypatch):
    built = []
    original = verification.sphere_quadrature

    def spy(n, m):
        built.append(m)
        return original(n, m)

    monkeypatch.setattr(verification, "sphere_quadrature", spy)
    ctx = verification._Context(VerifyConfig(N=16, L=8.0, smooth_order=64, indicator_order=64))
    assert built == [64]
    assert ctx.sq_for("boxind") is ctx.sq_for("heat")


def test_every_check_runs_at_n1():
    out = run_all(VerifyConfig(n=1, N=32, L=8.0))
    assert [r.criterion for r in out] == CRITERION_NAMES
    assert [r.criterion for r in out if not r.passed] == []
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
