"""Hard property checks over the whole symbol catalog.

Each check certifies one conclusion about the rotation-averaging map at
desk scale: idempotence, fixed points, radiality, odd-symbol
annihilation, norm contractivity, positivity preservation, the
conjugation identity, agreement between the operator-average and
symbol-average computation paths, quadrature convergence and norm
method sanity.  Each check writes its tolerances inline as literals at
the comparison they bound; the CLI `verify` subcommand and the
acceptance test suite both run this list.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, lp_norm, make_grid, transform
from .multiplier import MultiplierOperator, apply, average_conjugated, positivity_report, rotate_function
from .norms import _kernel_bounds, norm_lower_power, norm_p2_exact, norm_upper_kernel
from .radialize import CONVERGENCE_ORDERS, INDICATOR_ORDER, SMOOTH_ORDER, convergence_errors
from .radialize import default_order, default_radii, project, radiality
from .rotation import (
    haar_rotation,
    lattice_group,
    rotated_symbol,
    so_quadrature,
    sphere_quadrature,
    subgroup_quadrature,
)
from .symbols import RadialSymbol, SampledSymbol, eval_symbol, make_named_symbol, sample_symbol

__all__ = ["CheckResult", "VerifyConfig", "reference_catalog", "run_all", "CRITERIA"]


def reference_catalog(n: int) -> dict[str, object]:
    """The reference-parameter symbol catalog used by all catalog-wide checks, by label."""
    diag = [1.0, 4.0, 2.0][:n]
    alpha = (2,) + (0,) * (n - 1)
    shift = (1.0,) + (0.0,) * (n - 1)
    return {
        "const": make_named_symbol("constant", {"c": 1.0}, n),
        "heat": make_named_symbol("heat", {"t": 1.0}, n),
        "poisson": make_named_symbol("poisson", {"t": 1.0}, n),
        "gaussaniso": make_named_symbol("gaussian_aniso", {"A": np.diag(diag)}, n),
        "ballind": make_named_symbol("ball_indicator", {"rho": 1.0}, n),
        "boxind": make_named_symbol("box_indicator", {"a": 1.0}, n),
        "riesz": make_named_symbol("riesz", {"j": 1}, n),
        "bochnerriesz": make_named_symbol("bochner_riesz", {"delta": 1.0}, n),
        "monomial": make_named_symbol("monomial", {"alpha": alpha}, n),
        "modulation": make_named_symbol("modulation", {"a": shift}, n),
    }


@dataclass(frozen=True)
class VerifyConfig:
    n: int = 2
    N: int = 64
    L: float = 16.0
    smooth_order: int = SMOOTH_ORDER
    indicator_order: int = INDICATOR_ORDER
    seed: int = 7


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    details: dict


class _Context:
    """Shared grids, quadratures and cached projections for the check list."""

    def __init__(self, cfg: VerifyConfig):
        self.cfg = cfg
        self.grid = make_grid(cfg.n, cfg.N, cfg.L)
        self.grid_small = make_grid(cfg.n, 32, cfg.L / 2.0)
        orders = {cfg.smooth_order, cfg.indicator_order}
        self.rules = {m: sphere_quadrature(cfg.n, m) for m in orders}  # one rule per order
        self.catalog = reference_catalog(cfg.n)
        self.radii = default_radii(self.grid)
        self._proj: dict[tuple, RadialSymbol] = {}

    def sq_for(self, label: str):
        phi = self.catalog[label]
        return self.rules[default_order(phi, self.cfg.smooth_order, self.cfg.indicator_order)]

    def projection(self, label: str, grid=None) -> RadialSymbol:
        """Projection of a catalog symbol on the lattice radii of `grid` (default: main grid)."""
        grid = grid or self.grid
        if (label, grid) not in self._proj:
            phi, radii = self.catalog[label], default_radii(grid)
            self._proj[label, grid] = project(phi, radii, self.sq_for(label))
        return self._proj[label, grid]


def check_idempotence(ctx: _Context) -> CheckResult:
    """P(P(phi)) = P(phi) on the profile radii."""
    details = {}
    ok = True
    for label, tol in [
        ("heat", 1e-10),
        ("gaussaniso", 1e-10),
        ("poisson", 1e-10),
        ("bochnerriesz", 1e-10),
        ("boxind", 1e-3),
        ("ballind", 1e-3),
    ]:
        p1 = ctx.projection(label)
        p2 = project(p1, ctx.radii, ctx.sq_for(label))
        dev = float(np.max(np.abs(p2.values - p1.values)))
        details[label] = dev
        ok = ok and dev <= tol
    return CheckResult("1-idempotence", ok, details)


def check_fixed_point(ctx: _Context) -> CheckResult:
    """P(phi) = phi on radial catalog symbols (away from the indicator kink)."""
    details = {}
    ok = True
    kink_halfwidth = 2.0 * ctx.grid.dxi
    for label in ("heat", "poisson", "ballind"):
        phi = ctx.catalog[label]
        proj = ctx.projection(label)
        radii = proj.radii
        direct = phi.evaluate(radii[:, None] * np.eye(ctx.cfg.n)[0])  # points (r, 0, ...)
        keep = np.ones(radii.shape, dtype=bool)
        if label == "ballind":
            keep = np.abs(radii - 1.0) > kink_halfwidth
        # on a coarse grid no radius may lie that far from the kink
        dev = float(np.max(np.abs(proj.values[keep] - direct[keep]), initial=0.0))
        details[label] = dev
        ok = ok and dev <= 1e-12
    return CheckResult("2-fixed-point", ok, details)


def check_radiality(ctx: _Context) -> CheckResult:
    """P(phi) is radial: lattice deviation and Haar-random rotation invariance."""
    details = {}
    ok = True
    rng = np.random.default_rng(ctx.cfg.seed)
    for label in ctx.catalog:
        proj = ctx.projection(label)
        dev = radiality(proj, ctx.grid)
        rot_dev = 0.0
        for _ in range(20):
            R = haar_rotation(ctx.cfg.n, rng)
            xi = rng.uniform(-ctx.grid.xi_max, ctx.grid.xi_max, size=ctx.cfg.n)
            rot_dev = max(rot_dev, abs(eval_symbol(proj, R.M @ xi) - eval_symbol(proj, xi)))
        details[label] = max(dev, rot_dev)
        ok = ok and dev <= 1e-12 and rot_dev <= 1e-12
    return CheckResult("3-radiality", ok, details)


def check_odd_annihilation(ctx: _Context) -> CheckResult:
    """The odd Riesz symbol averages to zero."""
    proj = ctx.projection("riesz")
    dev = float(np.max(np.abs(proj.values)))
    return CheckResult("4-odd-annihilation", dev <= 1e-14, {"riesz": dev})


def check_contractivity_exact(ctx: _Context) -> CheckResult:
    """Sup bound at p = 2 for every symbol; kernel mass ordering for positive kernels."""
    details = {}
    ok = True
    for label, phi in ctx.catalog.items():
        op = MultiplierOperator(phi, ctx.grid)
        proj_op = MultiplierOperator(ctx.projection(label), ctx.grid)
        sup_orig, sup_proj = norm_p2_exact(op).value, norm_p2_exact(proj_op).value
        details[f"sup_margin_{label}"] = sup_orig - sup_proj
        ok = ok and sup_proj <= sup_orig + 1e-12
        report, mass = _kernel_bounds(op)
        if report.verdict != "positive":
            continue
        report_proj, mass_proj = _kernel_bounds(proj_op)
        if report_proj.verdict != "positive":
            continue
        upper_orig, upper_proj = mass.value, mass_proj.value
        details[f"mass_{label}"] = upper_proj - upper_orig
        ok = ok and upper_proj <= upper_orig * (1.0 + 1e-6)
        if label == "heat":
            phi0 = abs(eval_symbol(phi, np.zeros(ctx.cfg.n)))
            ok = ok and abs(upper_orig - phi0) <= 1e-6 and abs(upper_proj - phi0) <= 1e-6
            details["heat_mass_vs_phi0"] = max(abs(upper_orig - phi0), abs(upper_proj - phi0))
    return CheckResult("5-contractivity-exact", ok, details)


def check_contractivity_estimates(ctx: _Context) -> CheckResult:
    """Power-method lower bound of M_{P(phi)} vs kernel upper bound of M_phi."""
    details = {}
    ok = True
    grid = ctx.grid_small
    for label, phi in ctx.catalog.items():
        upper = norm_upper_kernel(MultiplierOperator(phi, grid)).value
        proj_op = MultiplierOperator(ctx.projection(label, grid), grid)
        for p in (1.5, 3.0, 4.0):
            lower = norm_lower_power(proj_op, p, trials=4, iters=100, seed=ctx.cfg.seed).value
            details[f"{label}_p{p}"] = upper * (1.0 + 1e-9) - lower
            ok = ok and lower <= upper * (1.0 + 1e-9)
    return CheckResult("6-contractivity-estimate", ok, details)


def check_positivity_preservation(ctx: _Context) -> CheckResult:
    """Positive symbols stay positive after averaging; M_{P(phi)} maps f>=0 to f>=-tol."""
    details = {}
    ok = True
    rng = np.random.default_rng(ctx.cfg.seed)
    iso = make_named_symbol("gaussian_aniso", {"A": np.eye(ctx.cfg.n)}, ctx.cfg.n)
    cases = [
        ("heat", ctx.catalog["heat"], ctx.projection("heat")),
        ("gaussiso", iso, project(iso, ctx.radii, ctx.rules[ctx.cfg.smooth_order])),
    ]
    for label, phi, proj in cases:
        op = MultiplierOperator(phi, ctx.grid)
        proj_op = MultiplierOperator(proj, ctx.grid)
        rep_orig = positivity_report(op)
        rep_proj = positivity_report(proj_op)
        details[f"{label}_min_kernel"] = min(rep_orig.min_kernel, rep_proj.min_kernel)
        ok = ok and rep_orig.verdict == "positive" and rep_proj.verdict == "positive"
        worst = 0.0
        for _ in range(20):
            f = GridFunction(ctx.grid, rng.uniform(0.0, 1.0, size=ctx.grid.shape))
            worst = min(worst, float(np.min(apply(proj_op, f).values.real)))
        details[f"{label}_min_output"] = worst
        ok = ok and worst >= -1e-10
    return CheckResult("7-positivity", ok, details)


def _conjugated(op, R, f) -> GridFunction:
    """S_R^-1 M_phi S_R f, composed from the exact rotation and `apply`.

    Checks 8 and 9 compare this with the rotated symbol, so it must not
    go through `conjugated_apply` or `average_conjugated`: their exact
    mode multiplies by the rotated symbol itself.
    """
    return rotate_function(apply(op, rotate_function(f, R)), R.inverse())


def _conjugation_max_dev(grid, phi, rotations, rng) -> float:
    """Max deviation between the conjugated operator and the rotated-symbol operator."""
    op = MultiplierOperator(phi, grid)
    sampled = sample_symbol(phi, grid)
    f = GridFunction(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    F = GridFunction(grid, rng.standard_normal(grid.shape + (3,)) + 0j, q=2.0)
    dev = 0.0
    for R in rotations:
        rot_op = MultiplierOperator(rotated_symbol(sampled, R.inverse()), grid)
        lhs = _conjugated(op, R, f)
        rhs = apply(rot_op, f)
        dev = max(dev, float(np.max(np.abs(lhs.values - rhs.values))))
        lhs_v = _conjugated(op, R, F)
        rhs_v = apply(rot_op, F)
        dev = max(dev, float(np.max(np.abs(lhs_v.values - rhs_v.values))))
    return dev


def check_conjugation_identity(ctx: _Context) -> CheckResult:
    """S_R^-1 M_phi S_R = M_{phi(R^-1 .)} on n = 2 and n = 3 grids, whatever cfg.n."""
    rng = np.random.default_rng(ctx.cfg.seed)
    riesz2 = make_named_symbol("riesz", {"j": 1}, 2)
    dev2 = _conjugation_max_dev(make_grid(2, ctx.cfg.N, ctx.cfg.L), riesz2, lattice_group(2), rng)
    grid3 = make_grid(3, 16, 4.0)
    gauss3 = make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 2.0, 3.0])}, 3)
    dev3 = _conjugation_max_dev(grid3, gauss3, lattice_group(3), rng)
    ok = dev2 <= 1e-12 and dev3 <= 1e-12
    return CheckResult("8-conjugation", ok, {"n2_c4": dev2, "n3_octahedral": dev3})


def check_q_vs_p(ctx: _Context) -> CheckResult:
    """Operator-side average agrees with the symbol-side projection."""
    phi = ctx.catalog["gaussaniso"]
    op = MultiplierOperator(phi, ctx.grid)
    rng = np.random.default_rng(ctx.cfg.seed)
    # exact mode: lattice-group average vs the group-averaged sampled symbol
    sampled = sample_symbol(phi, ctx.grid)
    group = lattice_group(ctx.cfg.n)
    avg_values = np.mean([rotated_symbol(sampled, R.inverse()).values for R in group], axis=0)
    avg_op = MultiplierOperator(SampledSymbol(ctx.grid, avg_values), ctx.grid)
    f = GridFunction(ctx.grid, rng.standard_normal(ctx.grid.shape) + 0j)
    lhs = np.mean([_conjugated(op, R, f).values for R in group], axis=0)
    rhs = apply(avg_op, f)
    dev_exact = float(np.max(np.abs(lhs - rhs.values)))
    # interpolation mode: dense SO(2) rule vs the projected symbol
    mesh_x = ctx.grid.space_mesh()
    smooth = GridFunction(ctx.grid, np.exp(-np.sum(mesh_x**2, axis=-1) / 8.0) + 0j)
    rq = so_quadrature(ctx.cfg.n, 64)
    q_side = average_conjugated(op, rq, smooth, mode="interp")
    p_side = apply(MultiplierOperator(ctx.projection("gaussaniso"), ctx.grid), smooth)
    rel = lp_norm(
        GridFunction(ctx.grid, q_side.values - p_side.values), 2.0
    ) / lp_norm(p_side, 2.0)
    ok = dev_exact <= 1e-12 and rel <= 1e-3
    return CheckResult("9-q-vs-p", ok, {"exact_c4": dev_exact, "interp_rel_l2": rel})


def check_quadrature_convergence(ctx: _Context) -> CheckResult:
    """Spherical-mean error decreases with order; indicator profile matches geometry.

    The n = 1 rule {+1, -1} is exact at every order, so there each error
    must be exactly zero instead of strictly decreasing.
    """
    phi = ctx.catalog["gaussaniso"]
    oracle = ctx.rules[ctx.cfg.indicator_order]
    errors = convergence_errors(phi, 2.0, CONVERGENCE_ORDERS, oracle)
    if ctx.cfg.n == 1:
        ok = all(e == 0.0 for e in errors)
    else:
        decreasing = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        ok = decreasing and errors[-1] <= 1e-10
    details = {"errors": tuple(errors)}
    if ctx.cfg.n == 2:
        proj = ctx.projection("boxind")
        radii = proj.radii
        oracle_vals = np.where(
            radii <= 1.0,
            1.0,
            np.where(
                radii <= np.sqrt(2.0),
                1.0 - (4.0 / np.pi) * np.arccos(1.0 / np.maximum(radii, 1.0)),
                0.0,
            ),
        )
        keep = ~(
            ((radii >= 0.98) & (radii <= 1.02)) | ((radii >= 1.39) & (radii <= 1.43))
        )
        box_dev = float(np.max(np.abs(proj.values[keep] - oracle_vals[keep])))
        details["box_profile_dev"] = box_dev
        ok = ok and box_dev <= 5e-3
    return CheckResult("10-quadrature-convergence", ok, details)


def check_norm_sanity(ctx: _Context) -> CheckResult:
    """p = 2 power estimates match the symbol sup; transform invariants hold."""
    details = {}
    ok = True
    grid = ctx.grid_small
    for label in ("heat", "riesz"):
        phi = ctx.catalog[label]
        op = MultiplierOperator(phi, grid)
        exact = norm_p2_exact(op).value
        lower = norm_lower_power(op, 2.0, trials=4, iters=5000, seed=ctx.cfg.seed).value
        details[f"{label}_gap"] = exact - lower
        ok = ok and abs(lower - exact) <= 1e-6
    rng = np.random.default_rng(ctx.cfg.seed)
    f = GridFunction(ctx.grid, rng.standard_normal(ctx.grid.shape) + 1j * rng.standard_normal(ctx.grid.shape))
    back = transform(transform(f, "forward"), "inverse")
    rt = float(np.max(np.abs(back.values - f.values)))
    fhat = transform(f, "forward")
    # Parseval under the physical scaling: ||f||_2^2 = L^-n sum_j |fhat_j|^2
    parseval = abs(
        lp_norm(f, 2.0) ** 2 - np.sum(np.abs(fhat.values) ** 2) / ctx.grid.L**ctx.grid.n
    )
    details["round_trip"] = rt
    details["parseval"] = parseval
    ok = ok and rt <= 1e-12 and parseval <= 1e-12
    return CheckResult("11-norm-sanity", ok, details)


def check_vector_contraction(ctx: _Context) -> CheckResult:
    """||Q F|| <= kernel-mass(phi) ||F|| for fiber spaces l_q^3."""
    phi = ctx.catalog["gaussaniso"]
    op = MultiplierOperator(phi, ctx.grid)
    upper = norm_upper_kernel(op).value
    rq = subgroup_quadrature(lattice_group(ctx.cfg.n))
    rng = np.random.default_rng(ctx.cfg.seed)
    details = {}
    ok = True
    for q in (1.0, 2.0, float("inf")):
        for p in (2.0, 4.0):
            worst = -np.inf
            for _ in range(10):
                vals = rng.standard_normal(ctx.grid.shape + (3,)) + 1j * rng.standard_normal(
                    ctx.grid.shape + (3,)
                )
                F = GridFunction(ctx.grid, vals, q=q)
                out = average_conjugated(op, rq, F)
                margin = lp_norm(out, p) - upper * lp_norm(F, p)
                worst = max(worst, margin)
            details[f"q{q}_p{p}"] = worst
            ok = ok and worst <= 1e-9
    return CheckResult("12-vector-contraction", ok, details)


CRITERIA = [
    check_idempotence,
    check_fixed_point,
    check_radiality,
    check_odd_annihilation,
    check_contractivity_exact,
    check_contractivity_estimates,
    check_positivity_preservation,
    check_conjugation_identity,
    check_q_vs_p,
    check_quadrature_convergence,
    check_norm_sanity,
    check_vector_contraction,
]


def run_all(cfg: VerifyConfig | None = None) -> list[CheckResult]:
    """Run every hard check at the reference configuration."""
    ctx = _Context(cfg or VerifyConfig())
    return [check(ctx) for check in CRITERIA]
