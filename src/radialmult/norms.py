"""Operator norm estimation for multiplier operators.

Exact values exist at p = 2 (the operator is diagonal in the discrete
Fourier basis, so the norm is the lattice sup of the symbol) and at the
endpoints p in {1, inf} (for periodic convolution both norms equal the
kernel's weighted l^1 mass).  In between, a nonlinear power iteration
supplies lower bounds and the kernel mass is an upper bound for all p
at once (Young's inequality).  Its random restarts run as one stack,
each step transforming every live trial in one FFT pair; per-trial
norms are rooted on numpy scalars so that every trial reproduces, bit
for bit, the run it would make alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FrequencyGrid, lp_norm
from .multiplier import MultiplierOperator, _multiply, kernel, positivity_report
from .radialize import default_radii, project
from .rotation import sphere_quadrature
from .symbols import Symbol, eval_symbol

__all__ = [
    "NormEstimate",
    "norm_p2_exact",
    "norm_lower_power",
    "norm_upper_kernel",
    "contraction_report",
    "ContractionReport",
]

#: Relative-gain stopping threshold for the power iteration.
POWER_RELATIVE_GAIN = 1e-9
DEFAULT_TRIALS = 8
DEFAULT_ITERS = 200


@dataclass(frozen=True)
class NormEstimate:
    value: float
    kind: str  # exact | lower-bound | upper-bound
    p: float | None  # None marks a p-independent bound
    method: str
    iterations: int = 0
    trials: int = 0
    seed: int | None = None
    history: tuple = ()

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm estimate must be nonnegative")
        if self.kind not in ("exact", "lower-bound", "upper-bound"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")


def norm_p2_exact(op: MultiplierOperator) -> NormEstimate:
    """L^2 -> L^2 norm: sup of |symbol| over the lattice (Plancherel)."""
    return NormEstimate(
        value=float(np.max(np.abs(op.sampled))), kind="exact", p=2.0, method="plancherel-sup"
    )


def norm_upper_kernel(op: MultiplierOperator, p: float | None = None) -> NormEstimate:
    """Kernel l^1 mass: an upper bound for every p, exact at p in {1, inf}.

    For a nonnegative kernel the mass equals phi(0), which is the exact
    norm for all p.
    """
    value = lp_norm(kernel(op), 1.0)
    kind = "exact" if p in (1.0, float("inf")) else "upper-bound"
    return NormEstimate(value=value, kind=kind, p=p, method="kernel-l1")


def _phase(y: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """y / |y|, and 0 where y vanishes; `mags` is |y|."""
    return np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 0.0)


def _row_norms(mags: np.ndarray, p: float, vol: float) -> np.ndarray:
    """Discrete L^p norm of each stacked trial, given its pointwise magnitudes.

    Each trial's |x|^p is summed as one contiguous row, in the order a
    flat sum of that trial alone would take.  The root is taken on numpy
    scalars, one trial at a time: numpy's array pow loop can round
    differently from scalar pow, and a one-ulp shift may move a stopping
    step.
    """
    sums = (mags**p).reshape(len(mags), -1).sum(axis=1)
    return np.array([(s * vol) ** (1.0 / p) for s in sums])


def norm_lower_power(
    op: MultiplierOperator,
    p: float,
    trials: int = DEFAULT_TRIALS,
    iters: int = DEFAULT_ITERS,
    seed: int | None = None,
) -> NormEstimate:
    """Lower bound on the L^p -> L^p norm by nonlinear power iteration.

    One step: y = A x with ||x||_p = 1; gradient direction s = |y|^(p-1)
    phase(y); pull back z = A* s (conjugate symbol, volume weights
    cancel on the uniform grid); next iterate x = |z|^(p'-1) phase(z)
    renormalized.  The estimate ||y||_p is nondecreasing; a trial stops
    at relative gain below POWER_RELATIVE_GAIN.  Best value over random
    restarts is returned, deterministic for a fixed seed.

    The restarts run together: their start vectors are drawn trial by
    trial, stacked on a leading axis and transformed in one FFT pair per
    operator application; a trial leaves the stack when it stops.  Each
    trial's values, history and step count equal those of running it
    alone, because its norm is summed as one contiguous row and rooted
    as a numpy scalar (numpy's array pow can differ from scalar pow by
    an ulp, enough to move a stopping step).
    """
    if not (1.0 < p < float("inf")):
        raise ValueError("power iteration needs p strictly between 1 and inf; "
                         "use the kernel value at the endpoints")
    if trials < 1:
        raise ValueError("need at least one trial")
    if iters < 1:
        raise ValueError("need at least one iteration")
    rng = np.random.default_rng(seed)
    grid = op.grid
    vol = grid.dx**grid.n
    sym = op.sampled
    sym_conj = np.conj(sym)
    q = p / (p - 1.0)
    per_trial = (-1,) + (1,) * grid.n  # broadcasts one number per trial over its grid

    x = np.stack([
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for _ in range(trials)
    ])
    rows = np.arange(trials)  # trial behind each stack row
    histories: list[list] = [[] for _ in range(trials)]
    steps = [iters] * trials
    est_prev = np.zeros(trials)

    def retire(stop: np.ndarray, step: int, *stacks: np.ndarray) -> list[np.ndarray]:
        """Record `step` for the stopping rows and drop them from every stack."""
        nonlocal rows
        for t in rows[stop]:
            steps[t] = step
        rows = rows[~stop]
        return [a[~stop] for a in stacks] if stop.any() else list(stacks)

    for step in range(1, iters + 1):
        nx = _row_norms(np.abs(x), p, vol)
        x, nx = retire(nx == 0.0, step, x, nx)
        if not len(rows):
            break
        x = x / nx.reshape(per_trial)
        y = _multiply(sym, x, stack=1)
        mags = np.abs(y)
        est = _row_norms(mags, p, vol)
        for t, e in zip(rows, est):
            histories[t].append(e)
        y, mags, est = retire(est == 0.0, step, y, mags, est)
        if not len(rows):
            break
        s = mags ** (p - 1.0) * _phase(y, mags)
        z = _multiply(sym_conj, s, stack=1)
        zmags = np.abs(z)
        x = zmags ** (q - 1.0) * _phase(z, zmags)
        stalled = est - est_prev[rows] <= POWER_RELATIVE_GAIN * est
        est_prev[rows] = est
        (x,) = retire(stalled, step, x)
        if not len(rows):
            break

    best = 0.0
    best_iters = 0
    best_history: tuple = ()
    for history, trial_steps in zip(histories, steps):
        est = history[-1] if history else 0.0
        if est > best:
            best = est
            best_iters = trial_steps
            best_history = tuple(history)
    return NormEstimate(
        value=best,
        kind="lower-bound",
        p=p,
        method="power-iteration",
        iterations=best_iters,
        trials=trials,
        seed=seed,
        history=best_history,
    )


@dataclass(frozen=True)
class ContractionReport:
    """Norm table for a symbol and its rotation average, with assertion flags.

    `rows` are dicts with keys target/p/method/kind/value/iters/seed.
    `flags` hold the hard pass/fail checks; `soft` records lower-bound
    comparisons that are informational only (two lower bounds do not
    order the true norms).
    """

    symbol: str
    rows: tuple
    flags: dict
    soft: dict


def contraction_report(
    phi: Symbol,
    grid: FrequencyGrid,
    p_list: tuple[float, ...],
    sphere_order: int,
    symbol_label: str = "symbol",
    trials: int = DEFAULT_TRIALS,
    iters: int = DEFAULT_ITERS,
    seed: int | None = 0,
) -> ContractionReport:
    """Compare norm estimates of M_phi against those of the radialized symbol."""
    n = grid.n
    pphi = project(phi, default_radii(grid), sphere_quadrature(n, sphere_order))
    ops = {"original": MultiplierOperator(phi, grid), "radialized": MultiplierOperator(pphi, grid)}

    rows = []
    estimates: dict[tuple[str, float, str], NormEstimate] = {}

    def add(target: str, est: NormEstimate):
        estimates[(target, est.p, est.kind)] = est
        rows.append(
            {
                "target": target,
                "p": est.p,
                "method": est.method,
                "kind": est.kind,
                "value": est.value,
                "iters": est.iterations,
                "seed": est.seed,
            }
        )

    for target, op in ops.items():
        add(target, norm_upper_kernel(op))
        for p in p_list:
            if p in (1.0, float("inf")):
                add(target, norm_upper_kernel(op, p=p))
            else:
                if p == 2.0:
                    add(target, norm_p2_exact(op))
                add(
                    target,
                    norm_lower_power(op, p, trials=trials, iters=iters, seed=seed),
                )

    sup_orig = float(np.max(np.abs(ops["original"].sampled)))
    sup_proj = float(np.max(np.abs(ops["radialized"].sampled)))
    upper_orig = estimates[("original", None, "upper-bound")].value
    upper_proj = estimates[("radialized", None, "upper-bound")].value

    flags = {"p2_sup_contraction": sup_proj <= sup_orig + 1e-12}
    lower_ok = True
    for p in p_list:
        key = ("radialized", p, "lower-bound")
        if key in estimates and estimates[key].value > upper_orig * (1.0 + 1e-9):
            lower_ok = False
    flags["lower_le_upper"] = lower_ok

    soft = {}
    for p in p_list:
        ko = ("original", p, "lower-bound")
        kp = ("radialized", p, "lower-bound")
        if ko in estimates and kp in estimates:
            soft[f"lower_radialized_le_lower_original_p{p}"] = (
                estimates[kp].value <= estimates[ko].value + 1e-9
            )

    if positivity_report(ops["original"]).verdict == "positive":
        phi0 = abs(eval_symbol(phi, np.zeros(n)))
        flags["positive_norm_equality"] = (
            abs(upper_orig - phi0) <= 1e-6 and abs(upper_proj - phi0) <= 1e-6
        )

    return ContractionReport(symbol=symbol_label, rows=tuple(rows), flags=flags, soft=soft)
