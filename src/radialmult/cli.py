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
from .multiplier import MultiplierOperator, positivity_report
from .norms import contraction_report
from .radialize import (
    INDICATOR_ORDER,
    SMOOTH_ORDER,
    default_radii,
    project,
    radial_deviation,
    spherical_mean,
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
        return obj.item()
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
    doc = {"version": __version__, "config": _config(cfg)}
    doc.update(_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_profile(path: str, cfg: argparse.Namespace, proj) -> None:
    """CSV of a projected symbol's radial profile: radius, real and imaginary part."""
    rows = [
        [float(r), float(v.real), float(v.imag)]
        for r, v in zip(proj.radii, proj.values)
    ]
    _write_csv(path, cfg, ["r", "re", "im"], rows)


def _default_order(phi) -> int:
    """Sphere-quadrature order for a catalog symbol: kinked symbols converge slowly."""
    return INDICATOR_ORDER if phi.kink else SMOOTH_ORDER


def _symbol_and_order(cfg: argparse.Namespace):
    phi = parse_symbol_spec(cfg.symbol, cfg.n)
    return phi, cfg.order if cfg.order is not None else _default_order(phi)


def cmd_radialize(cfg: argparse.Namespace) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi, order = _symbol_and_order(cfg)
    sq = sphere_quadrature(cfg.n, order)
    proj = project(phi, default_radii(grid), sq)
    _write_profile(os.path.join(cfg.out, "profile.csv"), cfg, proj)
    dev_sq = sphere_quadrature(cfg.n, min(order, 64))
    stats = {
        "deviation_original": radial_deviation(phi, grid, sq),
        "deviation_radialized": radial_deviation(proj, grid, dev_sq),
    }
    _write_json(os.path.join(cfg.out, "deviation.json"), cfg, stats)
    return 0


def cmd_norms(cfg: argparse.Namespace) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi, order = _symbol_and_order(cfg)
    report = contraction_report(
        phi, grid, cfg.p_list, order, symbol_label=cfg.symbol, seed=cfg.seed
    )
    rows = [
        [
            cfg.symbol,
            "any" if r["p"] is None else ("inf" if np.isinf(r["p"]) else _fmt(float(r["p"]))),
            r["target"],
            r["method"],
            r["kind"],
            float(r["value"]),
            r["iters"],
            "-" if r["seed"] is None else r["seed"],
        ]
        for r in report.rows
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


def cmd_positivity(cfg: argparse.Namespace) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi, order = _symbol_and_order(cfg)
    tol = float(cfg.tol.get("positivity", 1e-10))
    proj = project(phi, default_radii(grid), sphere_quadrature(cfg.n, order))
    rep_orig = positivity_report(MultiplierOperator(phi, grid), tol=tol)
    rep_proj = positivity_report(MultiplierOperator(proj, grid), tol=tol)
    _write_json(
        os.path.join(cfg.out, "positivity.json"),
        cfg,
        {
            "symbol": cfg.symbol,
            "grid": {"n": cfg.n, "N": cfg.N, "L": cfg.L},
            "min_kernel_original": rep_orig.min_kernel,
            "min_kernel_radialized": rep_proj.min_kernel,
            "verdict_original": rep_orig.verdict,
            "verdict_radialized": rep_proj.verdict,
            "tol": tol,
        },
    )
    return 0


def cmd_converge(cfg: argparse.Namespace) -> int:
    phi = parse_symbol_spec(cfg.symbol, cfg.n)
    oracle = spherical_mean(phi, cfg.r, sphere_quadrature(cfg.n, INDICATOR_ORDER))
    rows = []
    for m in cfg.orders:
        approx = spherical_mean(phi, cfg.r, sphere_quadrature(cfg.n, m))
        rows.append([m, float(abs(approx - oracle))])
    _write_csv(os.path.join(cfg.out, "converge.csv"), cfg, ["order", "error"], rows)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    vcfg = VerifyConfig(
        n=cfg.n,
        N=cfg.N,
        L=cfg.L,
        smooth_order=cfg.order or SMOOTH_ORDER,
        seed=cfg.seed,
    )
    results = run_all(vcfg)
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
    summary = []
    for label, phi in reference_catalog(cfg.n):
        sq = sphere_quadrature(cfg.n, _default_order(phi))
        proj = project(phi, radii, sq)
        _write_profile(os.path.join(cfg.out, f"profile_{label}.csv"), cfg, proj)
        rep_o = positivity_report(MultiplierOperator(phi, grid))
        rep_p = positivity_report(MultiplierOperator(proj, grid))
        summary.append(
            {
                "symbol": label,
                "verdict_original": rep_o.verdict,
                "verdict_radialized": rep_p.verdict,
                "min_kernel_original": rep_o.min_kernel,
                "min_kernel_radialized": rep_p.min_kernel,
            }
        )
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
    "tol": dict(action="append", default=[], help="override, name=value; name: positivity"),
    "r": dict(type=float, default=2.0, help="radius of the sphere average"),
    "orders": dict(default="8,16,32,64", help="comma list of orders"),
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


def _parse_tol(items: list[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        if name != "positivity":
            raise ValueError(f"unknown tolerance {name!r}; the only one is positivity")
        out[name] = float(value)
    return out


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
        if not 0.0 <= opts.get("r", 0.0) < np.inf:
            raise ValueError(f"--r must be finite and nonnegative, got {cfg.r}")
        if "p_list" in opts:
            cfg.p_list = tuple(float("inf") if t.strip() in ("inf", "oo") else float(t)
                               for t in cfg.p_list.split(","))
            for p in cfg.p_list:
                if not p >= 1:
                    raise ValueError(f"exponents must satisfy p >= 1, got {p}")
        if "tol" in opts:
            cfg.tol = _parse_tol(cfg.tol)
            for name, value in cfg.tol.items():
                if not value >= 0:
                    raise ValueError(f"tolerance {name} must be nonnegative, got {value}")
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
