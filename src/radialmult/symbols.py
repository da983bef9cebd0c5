"""Multiplier symbols: a closed-form catalog, grid samples and radial profiles.

A symbol is a complex function of frequency, evaluated at (..., n)
points by `evaluate`.  Three representations, one class each:

* ``NamedSymbol`` -- closed-form catalog entry, evaluable anywhere.
* ``SampledSymbol`` -- values on the frequency lattice of one grid,
  evaluable only at lattice points (exact match within 1e-9 * dxi).
* ``RadialSymbol`` -- a profile on radii, linearly interpolated at |xi|,
  evaluable anywhere and rotation invariant by construction.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .grid import FrequencyGrid

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

#: Exact-match tolerance for lattice lookups, as a fraction of dxi.
LATTICE_MATCH_TOL = 1e-9


class Symbol:
    """Base class; subclasses implement vector evaluation at (..., n) points."""

    n: int

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an array of frequency points of shape (..., n)."""
        raise NotImplementedError


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _check_spd(A: np.ndarray, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    _require(A.shape == (n, n), f"matrix parameter must be {n}x{n}, got shape {A.shape}")
    _require(np.allclose(A, A.T, atol=1e-12), "matrix parameter must be symmetric")
    _require(np.min(np.linalg.eigvalsh(A)) > 0, "matrix parameter must be positive definite")
    return A


def _positive(key: str):
    """Check for one positive scalar parameter."""

    def check(p: dict, n: int) -> dict:
        value = float(p[key])
        _require(value > 0, f"{key} must be positive, got {value}")
        return {key: value}

    return check


def _cli_scalar(key: str):
    return lambda kv, n: {key: kv.pop(key, 1.0)}


def _cli_int(kv: dict, key: str, default: int) -> int:
    value = kv.pop(key, default)
    _require(float(value).is_integer(), f"{key} must be an integer, got {value}")
    return int(value)


def _ball_from_cli(kv: dict, n: int) -> dict:
    _require(not {"r", "rho"} <= kv.keys(), "give the radius as r or rho, not both")
    return {"rho": kv.pop("rho") if "rho" in kv else kv.pop("r", 1.0)}


def _check_riesz(p: dict, n: int) -> dict:
    j = int(p["j"])
    _require(1 <= j <= n, f"component index must be in 1..{n}, got {j}")
    return {"j": j}


def _check_bochner_riesz(p: dict, n: int) -> dict:
    _require(float(p["delta"]) >= 0, "delta must be nonnegative")
    return {"delta": float(p["delta"])}


def _check_monomial(p: dict, n: int) -> dict:
    alpha = tuple(int(a) for a in p["alpha"])
    _require(len(alpha) == n and min(alpha) >= 0,
             f"alpha must be {n} nonnegative integers, got {p['alpha']}")
    return {"alpha": alpha}


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
    return np.where(norms > 0, x[..., p["j"] - 1] / safe, 0.0).astype(complex)


def _monomial(x: np.ndarray, p: dict) -> np.ndarray:
    out = np.ones(x.shape[:-1])
    for i, a in enumerate(p["alpha"]):
        if a:
            out = out * x[..., i] ** a
    return out.astype(complex)


@dataclass(frozen=True)
class SymbolSpec:
    """One catalog entry, the only place that lists the symbol.

    check(params, n) validates catalog parameters and returns them with
    normalized types; from_cli(kv, n) pops the CLI key=value pairs it
    reads at dimension n and maps them to catalog parameters;
    formula(points, params) evaluates at (..., n) points.  kink marks a
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
        lambda x, p: np.exp(-np.einsum("...i,ij,...j->...", x, p["A"], x)).astype(complex)),
    "heat": SymbolSpec(
        ("heat",), _positive("t"), _cli_scalar("t"),
        lambda x, p: np.exp(-p["t"] * np.sum(x**2, axis=-1)).astype(complex)),
    "poisson": SymbolSpec(
        ("poisson",), _positive("t"), _cli_scalar("t"),
        lambda x, p: np.exp(-p["t"] * np.linalg.norm(x, axis=-1)).astype(complex)),
    "ball_indicator": SymbolSpec(
        ("ballind",), _positive("rho"), _ball_from_cli,
        lambda x, p: (np.linalg.norm(x, axis=-1) <= p["rho"]).astype(complex), kink=True),
    "box_indicator": SymbolSpec(
        ("boxind",), _positive("a"), _cli_scalar("a"),
        lambda x, p: (np.max(np.abs(x), axis=-1) <= p["a"]).astype(complex), kink=True),
    "riesz": SymbolSpec(
        ("riesz",), _check_riesz, lambda kv, n: {"j": _cli_int(kv, "j", 1)}, _riesz),
    "bochner_riesz": SymbolSpec(
        ("bochnerriesz",), _check_bochner_riesz, _cli_scalar("delta"),
        lambda x, p: (np.clip(1.0 - np.sum(x**2, axis=-1), 0.0, None) ** p["delta"]).astype(complex)),
    "monomial": SymbolSpec(
        ("monomial",), _check_monomial,
        lambda kv, n: {"alpha": tuple(_cli_int(kv, f"a{i + 1}", 0) for i in range(n))}, _monomial),
    "modulation": SymbolSpec(
        ("modulation",), _check_modulation,
        lambda kv, n: {"a": tuple(kv.pop(f"a{i + 1}", 0.0) for i in range(n))},
        lambda x, p: np.exp(1j * np.tensordot(x, np.asarray(p["a"]), axes=([-1], [0])))),
}


@dataclass(frozen=True)
class NamedSymbol(Symbol):
    """Closed-form catalog symbol; the catalog is `SYMBOL_SPECS`.

    Parameters are validated and type-normalized on construction.  The
    Riesz symbol xi_j/|xi| is assigned the value 0 at the origin, which
    keeps its odd symmetry exact on symmetric node sets.
    """

    name: str
    params: dict
    n: int

    def __post_init__(self):
        _require(self.n in (1, 2, 3), f"dimension must be 1, 2 or 3, got {self.n}")
        _require(self.name in SYMBOL_SPECS, f"unknown symbol name {self.name!r}")
        object.__setattr__(self, "params", SYMBOL_SPECS[self.name].check(self.params, self.n))

    @property
    def kink(self) -> bool:
        return SYMBOL_SPECS[self.name].kink

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.n:
            raise ValueError(f"points must have last axis {self.n}, got {points.shape}")
        return SYMBOL_SPECS[self.name].formula(points, self.params)


def make_named_symbol(name: str, params: dict, n: int) -> NamedSymbol:
    """Build a catalog symbol, normalizing parameter types."""
    return NamedSymbol(name=name, params=params, n=n)


@dataclass(frozen=True)
class SampledSymbol(Symbol):
    """Symbol known only on the frequency lattice of one grid.

    values are stored in the grid's FFT storage order.
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
        points = np.asarray(points, dtype=float)
        if points.shape[-1] != self.grid.n:
            raise ValueError(f"points must have last axis {self.grid.n}")
        dxi = self.grid.dxi
        idx = np.round(points / dxi).astype(int)
        if np.max(np.abs(points - idx * dxi)) > LATTICE_MATCH_TOL * dxi:
            raise ValueError("off-lattice query on a sampled symbol")
        half = self.grid.N // 2
        if np.any(idx < -half) or np.any(idx >= half):
            raise ValueError("frequency outside the lattice range of the sampled symbol")
        storage = np.mod(idx, self.grid.N)
        return self.values[tuple(np.moveaxis(storage, -1, 0))]


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
