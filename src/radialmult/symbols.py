"""Multiplier symbols: a closed-form catalog, grid samples and radial profiles.

A symbol is a complex function of frequency, evaluated at (..., n)
points by `evaluate`.  Three representations, one class each:

* ``NamedSymbol`` -- closed-form catalog entry, evaluable anywhere.
* ``SampledSymbol`` -- values on the frequency lattice of one grid, read
  through `.values`; it is not evaluable at points, so a sphere mean of
  it raises `ValueError`.
* ``RadialSymbol`` -- a profile on radii, linearly interpolated at |xi|,
  evaluable anywhere and rotation invariant by construction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import FrequencyGrid, _check_dimension

__all__ = [
    "Symbol",
    "NamedSymbol",
    "SampledSymbol",
    "RadialSymbol",
    "SymbolSpec",
    "SYMBOL_SPECS",
    "make_named_symbol",
    "eval_symbol",
    "sample_symbol",
    "parse_symbol_spec",
]

class Symbol:
    """Base class; subclasses implement vector evaluation at (..., n) points.

    `kink` marks a symbol whose jump makes sphere averages converge
    slowly; only catalog indicators set it.
    """

    n: int
    kink = False

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an array of frequency points of shape (..., n).

        `points` may be a strided (..., n) view whose coordinates are
        contiguous blocks (the sphere means pass such a view).  Read the
        coordinates through the last axis; do not reshape the cloud to
        (-1, n), which may copy it.  Return a new array, which the caller
        may overwrite (the sphere means weight it in place).
        """
        raise NotImplementedError


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _check_spd(A: np.ndarray, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    _require(A.shape == (n, n), f"matrix parameter must be {n}x{n}, got shape {A.shape}")
    _require(np.allclose(A, A.T, atol=1e-12), "matrix parameter must be symmetric")
    try:  # a Cholesky factor exists exactly for the positive definite A
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("matrix parameter must be positive definite") from None
    return A


def _positive(key: str, note: str = ""):
    """Check for one positive scalar parameter; `note` ends the refusal's message."""

    def check(p: dict, n: int) -> dict:
        value = float(p[key])
        _require(value > 0, f"{key} must be positive, got {value}{note}")
        return {key: value}

    return check


def _cli_scalar(key: str):
    return lambda kv, n: {key: kv.pop(key, 1.0)}


def _ball_from_cli(kv: dict, n: int) -> dict:
    _require(not {"r", "rho"} <= kv.keys(), "give the radius as r or rho, not both")
    return {"rho": kv.pop("rho") if "rho" in kv else kv.pop("r", 1.0)}


def _check_riesz(p: dict, n: int) -> dict:
    j = p["j"]
    _require(float(j).is_integer() and 1 <= j <= n,
             f"component index must be an integer in 1..{n}, got {j}")
    return {"j": int(j)}


def _check_monomial(p: dict, n: int) -> dict:
    alpha = tuple(p["alpha"])
    _require(len(alpha) == n and all(float(a).is_integer() and a >= 0 for a in alpha),
             f"alpha must be {n} nonnegative integers, got {p['alpha']}")
    return {"alpha": tuple(int(a) for a in alpha)}


def _check_modulation(p: dict, n: int) -> dict:
    a = np.asarray(p["a"], dtype=float)
    _require(a.shape == (n,), f"shift vector must have length {n}")
    return {"a": tuple(float(v) for v in a)}


def _gaussian_from_cli(kv: dict[str, float], n: int) -> dict:
    """A from keys a<i><j>, mirrored to a<j><i>; unset entries are those of the identity."""
    A = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            upper, lower = f"a{i + 1}{j + 1}", f"a{j + 1}{i + 1}"
            given = {kv.pop(key) for key in {upper, lower} if key in kv}
            _require(len(given) <= 1, f"{upper} and {lower} must be equal, got {sorted(given)}")
            if given:
                A[i, j] = A[j, i] = given.pop()
    return {"A": A}


def _riesz(x: np.ndarray, p: dict) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1)
    safe = np.where(norms > 0, norms, 1.0)
    return np.where(norms > 0, x[..., p["j"] - 1] / safe, 0.0)


def _quadratic_form(x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x^T A x at each (..., n) point, bitwise np.einsum("...i,ij,...j->...", x, A, x).

    It sums in the order einsum takes on a batched cloud (three points or
    more, either layout) with a C-ordered A: each term is (x_i * A_ij) * x_j,
    added to a zero start in i-major order.  Zero entries are skipped,
    since they add only +-0 at finite points.  Every point is summed
    alike, so a lone point gets the bits it has inside a batch; einsum
    can take another order on one or two points and round differently.
    """
    out = np.zeros(x.shape[:-1])
    for i, j in zip(*np.nonzero(A)):
        term = x[..., i] * A[i, j]
        term *= x[..., j]
        out += term
    return out


def _modulation(x: np.ndarray, p: dict) -> np.ndarray:
    """exp(i <a, x>), <a, x> summed over the nonzero a_i in index order as in `_quadratic_form`."""
    phase = np.zeros(x.shape[:-1])
    for i in np.flatnonzero(p["a"]):
        phase += x[..., i] * p["a"][i]
    return np.exp(1j * phase)


def _monomial(x: np.ndarray, p: dict) -> np.ndarray:
    out = np.ones(x.shape[:-1])
    for i, a in enumerate(p["alpha"]):
        if a:
            out = out * x[..., i] ** a
    return out


@dataclass(frozen=True)
class SymbolSpec:
    """One catalog entry, the only place that lists the symbol.

    check(params, n) owns every rule on parameter values (after `NamedSymbol`
    rejects non-finite numbers) and returns them with normalized types;
    from_cli(kv, n) only maps keys: it pops the CLI key=value pairs it
    reads at dimension n and names the catalog parameters they give;
    formula(points, params) evaluates at (..., n) points, which may be a
    strided view whose coordinates are contiguous blocks: it reads the
    coordinates through the last axis and does not reshape the cloud to
    (-1, n), which may copy it.  It may return real, boolean or complex
    values; `NamedSymbol.evaluate` casts them to complex.  kink marks a
    symbol whose jump makes sphere averages converge slowly: it gets the
    indicator sphere-quadrature order.
    """

    cli_names: tuple[str, ...]
    check: Callable[[dict, int], dict]
    from_cli: Callable[[dict, int], dict]
    formula: Callable[[np.ndarray, dict], np.ndarray]
    kink: bool = False


#: The symbol catalog, keyed by catalog name.
SYMBOL_SPECS: dict[str, SymbolSpec] = {
    "constant": SymbolSpec(
        ("const", "constant"), lambda p, n: {"c": complex(p["c"])}, _cli_scalar("c"),
        lambda x, p: np.full(x.shape[:-1], p["c"])),
    "gaussian_aniso": SymbolSpec(
        ("gaussaniso",), lambda p, n: {"A": _check_spd(p["A"], n)}, _gaussian_from_cli,
        lambda x, p: np.exp(-_quadratic_form(x, p["A"]))),
    "heat": SymbolSpec(
        ("heat",), _positive("t"), _cli_scalar("t"),
        lambda x, p: np.exp(-p["t"] * np.sum(x**2, axis=-1))),
    "poisson": SymbolSpec(
        ("poisson",), _positive("t"), _cli_scalar("t"),
        lambda x, p: np.exp(-p["t"] * np.linalg.norm(x, axis=-1))),
    "ball_indicator": SymbolSpec(
        ("ballind",), _positive("rho"), _ball_from_cli,
        lambda x, p: np.linalg.norm(x, axis=-1) <= p["rho"], kink=True),
    "box_indicator": SymbolSpec(
        ("boxind",), _positive("a"), _cli_scalar("a"),
        lambda x, p: np.max(np.abs(x), axis=-1) <= p["a"], kink=True),
    "riesz": SymbolSpec(
        ("riesz",), _check_riesz, _cli_scalar("j"), _riesz),
    "bochner_riesz": SymbolSpec(
        # (1 - |xi|^2)_+ ** 0 would be 1 outside the ball too
        ("bochnerriesz",), _positive("delta", "; delta = 0 is the ball indicator, ballind"),
        _cli_scalar("delta"),
        lambda x, p: np.clip(1.0 - np.sum(x**2, axis=-1), 0.0, None) ** p["delta"]),
    "monomial": SymbolSpec(
        ("monomial",), _check_monomial,
        lambda kv, n: {"alpha": tuple(kv.pop(f"a{i + 1}", 0) for i in range(n))}, _monomial),
    "modulation": SymbolSpec(
        ("modulation",), _check_modulation,
        lambda kv, n: {"a": tuple(kv.pop(f"a{i + 1}", 0.0) for i in range(n))}, _modulation),
}


@dataclass(frozen=True)
class NamedSymbol(Symbol):
    """Closed-form catalog symbol; the catalog is `SYMBOL_SPECS`.

    Parameters are validated and type-normalized on construction: every
    numeric parameter must be finite, then the spec's `check` applies.  The
    Riesz symbol xi_j/|xi| is assigned the value 0 at the origin, which
    keeps its odd symmetry exact on symmetric node sets.
    """

    name: str
    params: dict
    n: int

    def __post_init__(self):
        _check_dimension(self.n)
        _require(self.name in SYMBOL_SPECS, f"unknown symbol name {self.name!r}")
        for key, value in self.params.items():
            value = np.asarray(value)
            _require(value.dtype.kind not in "fc" or np.all(np.isfinite(value)),
                     f"parameter {key} must be finite, got {value.tolist()}")
        object.__setattr__(self, "params", SYMBOL_SPECS[self.name].check(self.params, self.n))

    @property
    def kink(self) -> bool:
        return SYMBOL_SPECS[self.name].kink

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.n:
            raise ValueError(f"points must have last axis {self.n}, got {points.shape}")
        return np.asarray(SYMBOL_SPECS[self.name].formula(points, self.params), dtype=complex)


def make_named_symbol(name: str, params: dict, n: int) -> NamedSymbol:
    """Build a catalog symbol, normalizing parameter types."""
    return NamedSymbol(name=name, params=params, n=n)


@dataclass(frozen=True)
class SampledSymbol(Symbol):
    """Symbol known only on the frequency lattice of one grid.

    values are stored in the grid's FFT storage order; read them through
    `.values`.  A sample is not a function on R^n, so `evaluate` refuses
    every point, on the lattice or off it.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.grid.n

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise ValueError("a lattice sample is not evaluable at points; sample a closed form")


@dataclass(frozen=True)
class RadialSymbol(Symbol):
    """Symbol xi -> profile(|xi|); rotation invariant by construction.

    The profile takes `values` at radii 0 = r_0 < r_1 < ... < r_K and is
    piecewise linear in between; it clamps to the endpoint values
    outside [0, r_K].
    """

    radii: np.ndarray
    values: np.ndarray
    n: int

    def __post_init__(self):
        _check_dimension(self.n)
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if radii.ndim != 1 or radii.size < 2:
            raise ValueError("profile needs at least two radii")
        if radii[0] != 0.0:
            raise ValueError("profile radii must start at 0")
        if not np.all(np.diff(radii) > 0):
            raise ValueError("profile radii must be strictly increasing")
        if values.shape != radii.shape:
            raise ValueError("profile values must match radii in length")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.n:
            raise ValueError(f"points must have last axis {self.n}")
        r = np.linalg.norm(points, axis=-1)
        re = np.interp(r, self.radii, self.values.real)
        return re + 1j * np.interp(r, self.radii, self.values.imag)


def eval_symbol(phi: Symbol, xi) -> complex:
    """Evaluate a symbol at a single frequency point."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return complex(phi.evaluate(xi))


def sample_symbol(phi: Symbol, grid: FrequencyGrid) -> SampledSymbol:
    """Sample a symbol on the frequency lattice; idempotent for same-grid samples."""
    if isinstance(phi, SampledSymbol):
        if phi.grid != grid:
            raise ValueError("sampled symbol belongs to a different grid")
        return phi
    if phi.n != grid.n:
        raise ValueError(f"symbol dimension {phi.n} does not match grid dimension {grid.n}")
    return SampledSymbol(grid=grid, values=phi.evaluate(grid.frequency_mesh()))


# --- CLI mini-language ------------------------------------------------------
#
# Spec strings look like  name:key=val,key=val  e.g. heat:t=1.0 or
# gaussaniso:a11=1,a22=4, where name is one of a catalog entry's cli_names.

_CLI_NAMES = {cli: name for name, spec in SYMBOL_SPECS.items() for cli in spec.cli_names}


class SymbolSpecError(ValueError):
    """Parse error in a CLI symbol spec, annotated with the failing position."""

    def __init__(self, spec: str, pos: int, message: str):
        super().__init__(f"bad symbol spec {spec!r} at position {pos}: {message}")
        self.pos = pos


def parse_symbol_spec(spec: str, n: int) -> NamedSymbol:
    """Parse `name:key=val,...` for dimension n; each key once, and only keys the symbol reads."""
    head, sep, tail = spec.partition(":")
    if head not in _CLI_NAMES:
        raise SymbolSpecError(spec, 0, f"unknown symbol name {head!r}")
    kv: dict[str, float] = {}
    pos = len(head) + len(sep)
    if sep and tail:
        for item in tail.split(","):
            if "=" not in item:
                raise SymbolSpecError(spec, pos, f"expected key=value, got {item!r}")
            key, val = item.split("=", 1)
            if key.strip() in kv:
                raise SymbolSpecError(spec, pos, f"key {key.strip()!r} given twice")
            try:
                kv[key.strip()] = float(val)
            except ValueError:
                raise SymbolSpecError(spec, pos + len(key) + 1, f"bad number {val!r}") from None
            pos += len(item) + 1
    name = _CLI_NAMES[head]
    try:
        phi = make_named_symbol(name, SYMBOL_SPECS[name].from_cli(kv, n), n)
    except (KeyError, ValueError) as exc:
        raise SymbolSpecError(spec, len(head) + 1, str(exc)) from None
    if kv:  # from_cli popped every key it reads
        raise SymbolSpecError(spec, len(head) + 1, f"{head} does not read {sorted(kv)} at n={n}")
    return phi
