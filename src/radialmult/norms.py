"""Operator norm estimation for multiplier operators.

Exact values exist at p = 2 (the operator is diagonal in the discrete
Fourier basis, so the norm is the lattice sup of the symbol) and at the
endpoints p in {1, inf} (for periodic convolution both norms equal the
kernel's weighted l^1 mass).  In between, a nonlinear power iteration
supplies lower bounds and the kernel mass is an upper bound for all p
at once (Young's inequality).  Its random restarts run as one stack,
each step transforming every live trial in one FFT pair; per-trial
norms come from `grid._lp_norms`, the one discrete L^p routine, so
every trial reproduces, bit for bit, the run it would make alone.  A
step divides only to form reciprocals: it normalizes and takes phases
by multiplying with 1/c, which is the arithmetic numpy's division of a
complex by a real c does (see `_phase`), so the cheaper step has the
quotient form's bits.  The kernel step `_kernel_bounds` reads one
kernel's positivity verdict, then its mass, for every caller of either.

`contraction_report` tabulates them for a symbol and its rotation
average, which the caller computes: this layer only computes norms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import FrequencyGrid, _lp_norms, _multiply, lp_norm
from .multiplier import MultiplierOperator, PositivityReport, _kernel_positivity, kernel
from .symbols import Symbol

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
    seed: int | None = None
    history: tuple = ()

    def __post_init__(self):
        if not self.value >= 0:  # NaN fails too
            raise ValueError("norm estimate must be nonnegative")
        if self.kind not in ("exact", "lower-bound", "upper-bound"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")


def norm_p2_exact(op: MultiplierOperator) -> NormEstimate:
    """L^2 -> L^2 norm: sup of |symbol| over the lattice (Plancherel)."""
    return NormEstimate(
        value=float(np.max(np.abs(op.sampled))), kind="exact", p=2.0, method="plancherel-sup"
    )


def norm_upper_kernel(op: MultiplierOperator) -> NormEstimate:
    """Kernel l^1 mass: an upper bound for every p, exact at p in {1, inf}.

    For a nonnegative kernel the mass equals phi(0), which is the exact
    norm for all p.
    """
    return _kernel_bounds(op)[1]


def _kernel_bounds(op: MultiplierOperator) -> tuple[PositivityReport, NormEstimate]:
    """`positivity_report(op)`, then `norm_upper_kernel(op)`, both read from one kernel."""
    K = kernel(op)
    report = _kernel_positivity(K)
    mass = NormEstimate(value=lp_norm(K, 1.0), kind="upper-bound", p=None, method="kernel-l1")
    return report, mass


def _phase(y: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """y / |y|, and 0 wherever `mags > 0` fails (y = 0, or NaN); `mags` is |y|.

    Computed as y * (1/|y|), which has the quotient's bits: numpy divides
    a + bi by a real c, cast to c + 0j, by Smith's rule, which then reduces
    to (a + b*0) * (1/c) and (b - a*0) * (1/c), and at finite a, b the
    zero products change nothing.  Multiplying by one reciprocal per point
    costs a fraction of the masked complex division.  A subnormal |y|
    has no finite reciprocal, so those entries are first scaled by an
    exact power of two.  When every magnitude is normal, the masks and
    zero-filled outputs are skipped and y is scaled in place and
    returned, so the caller must not read y again; the product is the
    same.  Otherwise y is left as it is and a new array is returned.
    """
    normal = mags >= np.finfo(float).tiny
    if normal.all():
        y *= 1.0 / mags
        return y
    inv = np.divide(1.0, mags, out=np.zeros_like(mags), where=normal)
    out = np.multiply(y, inv, out=np.zeros_like(y), where=normal)
    # zeros, NaN, or subnormal magnitudes
    small = (mags > 0) & ~normal
    scaled = y[small] * 2.0**600
    out[small] = scaled / np.abs(scaled)
    return out


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
    renormalized.  The estimate ||y||_p is nondecreasing.  A step has one
    stopping point, after the next iterate is formed and its norm taken:
    a trial stops there when its relative gain is at most
    POWER_RELATIVE_GAIN (a zero image always stops) or when its next
    iterate is zero (underflow), so its step count is the length of its
    history.  Best value over random restarts is returned, deterministic
    for a fixed seed.

    The restarts run together: their start vectors are drawn trial by
    trial, stacked on a leading axis and transformed in one FFT pair per
    operator application; a trial leaves the stack when it stops.  Each
    trial's values, history and step count equal those of running it
    alone, because `_lp_norms` gives each row the norm it has alone.

    A step holds few stack-sized arrays: each of x, y, s and z is
    released once the next is formed, the spent magnitudes are raised to
    their power in place, and where every magnitude is normal `_phase`
    scales y into s and z into the next x in place.  One 8-trial run on
    a 64^2 grid peaks at 2.1 MiB traced once numpy's FFT cache is warm.
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
    nx = _lp_norms(np.abs(x), p, vol)

    for step in range(1, iters + 1):
        x *= (1.0 / nx).reshape(per_trial)  # bitwise x / nx, see _phase
        y = _multiply(sym, x, stack=1)
        del x  # the iterate is spent; the next one is z's phase
        mags = np.abs(y)
        est = _lp_norms(mags, p, vol)
        for t, e in zip(rows, est):
            histories[t].append(e)
        s = _phase(y, mags)  # y's buffer where every |y| is normal
        mags **= p - 1.0
        s *= mags
        del y, mags
        z = _multiply(sym_conj, s, stack=1)
        del s
        zmags = np.abs(z)
        x = _phase(z, zmags)  # z's buffer where every |z| is normal
        zmags **= q - 1.0
        x *= zmags
        del z, zmags
        nx = _lp_norms(np.abs(x), p, vol)
        stop = (est - est_prev[rows] <= POWER_RELATIVE_GAIN * est) | (nx == 0.0)
        est_prev[rows] = est
        if stop.any():
            for t in rows[stop]:
                steps[t] = step
            rows, x, nx = rows[~stop], x[~stop], nx[~stop]
            if not len(rows):
                break

    best = 0.0
    best_iters = 0
    best_history: tuple = ()
    for history, trial_steps in zip(histories, steps):
        est = history[-1]  # every trial takes its first step
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
        seed=seed,
        history=best_history,
    )


@dataclass(frozen=True)
class ContractionReport:
    """Norm table for a symbol and its rotation average, with assertion flags.

    `rows` are (target, NormEstimate) pairs: per target the p-independent
    kernel bound, then each p in turn.  `flags` hold the hard pass/fail
    checks; `soft` records lower-bound comparisons that are informational
    only (two lower bounds do not order the true norms).
    """

    rows: tuple
    flags: dict
    soft: dict


def contraction_report(
    phi: Symbol,
    pphi: Symbol,
    grid: FrequencyGrid,
    p_list: tuple[float, ...],
    seed: int | None = 0,
) -> ContractionReport:
    """Compare norm estimates of M_phi against those of M_pphi, its rotation average."""
    ops = {"original": MultiplierOperator(phi, grid), "radialized": MultiplierOperator(pphi, grid)}
    rows = []
    for target, op in ops.items():
        report, mass = _kernel_bounds(op)
        if target == "original":
            positive = report.verdict == "positive"
        rows.append((target, mass))
        for p in p_list:
            if p in (1.0, float("inf")):
                # the mass is exact at the endpoints; one kernel serves every row
                rows.append((target, replace(mass, kind="exact", p=p)))
                continue
            if p == 2.0:
                rows.append((target, norm_p2_exact(op)))
            rows.append((target, norm_lower_power(op, p, seed=seed)))
    upper = {target: est.value for target, est in rows if est.p is None}
    lower = {(target, est.p): est.value for target, est in rows if est.kind == "lower-bound"}
    powers = [p for target, p in lower if target == "original"]
    sup = {target: norm_p2_exact(op).value for target, op in ops.items()}
    flags = {
        "p2_sup_contraction": sup["radialized"] <= sup["original"] + 1e-12,
        "lower_le_upper": all(lower["radialized", p] <= upper["original"] * (1.0 + 1e-9)
                              for p in powers),
    }
    soft = {f"lower_radialized_le_lower_original_p{p}":
            lower["radialized", p] <= lower["original", p] + 1e-9 for p in powers}
    if positive:
        phi0 = abs(ops["original"].sampled.flat[0])  # storage index 0 holds xi = 0
        flags["positive_norm_equality"] = all(abs(upper[t] - phi0) <= 1e-6 for t in ops)

    return ContractionReport(rows=tuple(rows), flags=flags, soft=soft)
