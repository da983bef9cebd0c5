"""Command-line front end: experiments and the verification suite.

Subcommands: radialize, norms, positivity, converge, verify, demo.
Each subcommand accepts only the options it reads; every output file
embeds those options and the package version, and runs are
deterministic for a fixed seed, so re-running a config reproduces
outputs byte for byte.

Exit codes: 0 success, 1 hard-assertion failure, 2 config error,
3 internal error (an exception inside a subcommand).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

import numpy as np

from . import __version__
from .grid import make_grid
from .multiplier import POSITIVITY_TOL, MultiplierOperator, positivity_report
from .norms import contraction_report
from .radialize import (
    CONVERGENCE_ORDERS,
    INDICATOR_ORDER,
    convergence_errors,
    default_order,
    default_radii,
    project,
    radial_deviation,
    radiality,
)
from .rotation import sphere_quadrature
from .symbols import parse_symbol_spec
from .verification import VerifyConfig, reference_catalog, run_all

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and np.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _config(cfg: argparse.Namespace) -> dict:
    """The parsed options and the package version, as embedded in every output file."""
    # the output location does not affect any computed value, so it is
    # excluded to keep reruns byte-identical across directories
    config = {key: value for key, value in vars(cfg).items() if key != "out"}
    config["version"] = __version__
    return _jsonable(config)


def _write_csv(path: str, cfg: argparse.Namespace, columns: list[str], rows: list[list]):
    lines = [f"# radialmult {__version__}", f"# config {json.dumps(_config(cfg), sort_keys=True)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, cfg: argparse.Namespace, payload: dict):
    """Write the document as strict JSON.

    `_jsonable` writes an infinite number as "inf" or "-inf", and a NaN
    raises `ValueError` before the file is opened, so no file holds a
    `NaN` or `Infinity` token.
    """
    doc = {"version": __version__, "config": _config(cfg)}
    doc.update(_jsonable(payload))
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_profile(path: str, cfg: argparse.Namespace, proj) -> None:
    """CSV of a projected symbol's radial profile: radius, real and imaginary part."""
    rows = [
        [float(r), float(v.real), float(v.imag)]
        for r, v in zip(proj.radii, proj.values)
    ]
    _write_csv(path, cfg, ["r", "re", "im"], rows)


def _projection(cfg: argparse.Namespace):
    """Grid, symbol and the symbol's projection on the lattice radii."""
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi = parse_symbol_spec(cfg.symbol, cfg.n)
    sq = sphere_quadrature(cfg.n, cfg.order or default_order(phi))
    return grid, phi, project(phi, default_radii(grid), sq)


def cmd_radialize(cfg: argparse.Namespace) -> int:
    grid, phi, proj = _projection(cfg)
    _write_profile(os.path.join(cfg.out, "profile.csv"), cfg, proj)
    stats = {
        "deviation_original": radial_deviation(phi, proj, grid),
        "deviation_radialized": radiality(proj, grid),
    }
    _write_json(os.path.join(cfg.out, "deviation.json"), cfg, stats)
    return 0


def cmd_norms(cfg: argparse.Namespace) -> int:
    grid, phi, proj = _projection(cfg)
    report = contraction_report(phi, proj, grid, cfg.p_list, seed=cfg.seed)
    rows = [
        [cfg.symbol, "any" if est.p is None else ("inf" if np.isinf(est.p) else _fmt(est.p)),
         target, est.method, est.kind, est.value, est.iterations,
         "-" if est.seed is None else est.seed]
        for target, est in report.rows
    ]
    _write_csv(
        os.path.join(cfg.out, "norms.csv"),
        cfg,
        ["symbol", "p", "target", "method", "kind", "value", "iters", "seed"],
        rows,
    )
    _write_json(
        os.path.join(cfg.out, "norms.json"), cfg, {"flags": report.flags, "soft": report.soft}
    )
    return 0 if all(report.flags.values()) else 1


def _positivity_fields(phi, proj, grid, tol: float = POSITIVITY_TOL) -> dict:
    """min_kernel_* and verdict_* of M_phi ("original") and M_proj ("radialized")."""
    fields = {}
    for side, symbol in (("original", phi), ("radialized", proj)):
        rep = positivity_report(MultiplierOperator(symbol, grid), tol)
        fields[f"min_kernel_{side}"] = rep.min_kernel
        fields[f"verdict_{side}"] = rep.verdict
    return fields


def cmd_positivity(cfg: argparse.Namespace) -> int:
    grid, phi, proj = _projection(cfg)
    tol = POSITIVITY_TOL if cfg.tol is None else cfg.tol
    payload = {"symbol": cfg.symbol, "grid": {"n": cfg.n, "N": cfg.N, "L": cfg.L}, "tol": tol}
    payload.update(_positivity_fields(phi, proj, grid, tol))
    _write_json(os.path.join(cfg.out, "positivity.json"), cfg, payload)
    return 0


def cmd_converge(cfg: argparse.Namespace) -> int:
    phi = parse_symbol_spec(cfg.symbol, cfg.n)
    oracle = sphere_quadrature(cfg.n, INDICATOR_ORDER)
    errors = convergence_errors(phi, cfg.r, cfg.orders, oracle)
    rows = [[m, error] for m, error in zip(cfg.orders, errors)]
    _write_csv(os.path.join(cfg.out, "converge.csv"), cfg, ["order", "error"], rows)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    orders = {} if cfg.order is None else {"smooth_order": cfg.order}
    results = run_all(VerifyConfig(n=cfg.n, N=cfg.N, L=cfg.L, seed=cfg.seed, **orders))
    rows = [[r.criterion, "pass" if r.passed else "fail"] for r in results]
    _write_csv(os.path.join(cfg.out, "verify.csv"), cfg, ["criterion", "status"], rows)
    _write_json(
        os.path.join(cfg.out, "verify.json"),
        cfg,
        {
            "checks": [
                {"criterion": r.criterion, "passed": r.passed, "details": r.details}
                for r in results
            ],
            "failures": [r.criterion for r in results if not r.passed],
        },
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.criterion}")
    return 0 if all(r.passed for r in results) else 1


def cmd_demo(cfg: argparse.Namespace) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    radii = default_radii(grid)
    catalog = reference_catalog(cfg.n)
    orders = {default_order(phi) for phi in catalog.values()}
    rules = {m: sphere_quadrature(cfg.n, m) for m in orders}
    summary = []
    for label, phi in catalog.items():
        proj = project(phi, radii, rules[default_order(phi)])
        _write_profile(os.path.join(cfg.out, f"profile_{label}.csv"), cfg, proj)
        summary.append({"symbol": label, **_positivity_fields(phi, proj, grid)})
    _write_json(os.path.join(cfg.out, "demo.json"), cfg, {"symbols": summary})
    return 0


#: Every flag's `add_argument` keywords; `dest` names the key in the embedded config.
OPTIONS = {
    "symbol": dict(help="symbol spec, e.g. heat:t=1.0 or boxind:a=1.0"),
    "n": dict(type=int, default=2),
    "grid": dict(type=int, default=64, dest="N", help="points per axis N"),
    "extent": dict(type=float, default=16.0, dest="L", help="box extent L"),
    "order": dict(type=int, default=None, help="sphere quadrature order"),
    "p": dict(default="2", dest="p_list", help="comma list of exponents, e.g. 1.5,2,4,inf"),
    "seed": dict(type=int, default=7),
    "tol": dict(type=float, default=None, help="positivity tolerance on the kernel"),
    "r": dict(type=float, default=2.0, help="radius of the sphere average"),
    "orders": dict(default=",".join(map(str, CONVERGENCE_ORDERS)), help="comma list of orders"),
    "out": dict(default="out", help="output directory"),
}

#: Each subcommand's handler and the flags it reads; every subcommand also takes --out.
SUBCOMMANDS = {
    "radialize": (cmd_radialize, ("symbol", "n", "grid", "extent", "order")),
    "norms": (cmd_norms, ("symbol", "n", "grid", "extent", "order", "p", "seed")),
    "positivity": (cmd_positivity, ("symbol", "n", "grid", "extent", "order", "tol")),
    "converge": (cmd_converge, ("symbol", "n", "r", "orders")),
    "verify": (cmd_verify, ("n", "grid", "extent", "order", "seed")),
    "demo": (cmd_demo, ("n", "grid", "extent")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radialmult", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag in (*flags, "out"):
            p.add_argument(f"--{flag}", **OPTIONS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    cfg = build_parser().parse_args(argv)
    opts = vars(cfg)  # list-valued options are parsed in place; bad values exit 2
    try:
        if "N" in opts:
            make_grid(cfg.n, cfg.N, cfg.L)  # fail fast on bad grid parameters
        if "symbol" in opts:
            if not cfg.symbol:
                raise ValueError(f"{cfg.command} requires --symbol")
            parse_symbol_spec(cfg.symbol, cfg.n)
        if "orders" in opts:
            cfg.orders = [int(t) for t in cfg.orders.split(",")]
        for m in [*opts.get("orders", []), opts.get("order")]:
            if m is not None and m < 2:
                raise ValueError(f"sphere quadrature order must be >= 2, got {m}")
        for name in ("r", "tol"):
            if opts.get(name) is not None and not 0.0 <= opts[name] < np.inf:
                raise ValueError(f"--{name} must be finite and nonnegative, got {opts[name]}")
        if "p_list" in opts:
            cfg.p_list = tuple(float("inf") if t.strip() in ("inf", "oo") else float(t)
                               for t in cfg.p_list.split(","))
            for p in cfg.p_list:
                if not p >= 1:
                    raise ValueError(f"exponents must satisfy p >= 1, got {p}")
        if opts.get("seed", 0) < 0:
            raise ValueError(f"--seed must be nonnegative, got {cfg.seed}")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.out, exist_ok=True)
        return SUBCOMMANDS[cfg.command][0](cfg)
    except Exception as exc:  # exit 1 is reserved for a failed certificate
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
