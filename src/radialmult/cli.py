"""Command-line front end: experiments and the verification suite.

Subcommands: radialize, norms, positivity, converge, verify, demo.
Every output file embeds the full run configuration and package
version, and runs are deterministic for a fixed seed, so re-running a
config reproduces outputs byte for byte.

Exit codes: 0 success, 1 hard-assertion failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

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
from .symbols import SymbolSpecError, parse_symbol_spec
from .verification import VerifyConfig, reference_catalog, run_all

__all__ = ["main"]


@dataclass
class RunConfig:
    command: str
    symbol: str | None
    n: int
    N: int
    L: float
    order: int | None
    p_list: tuple[float, ...]
    seed: int
    tol: dict
    out: str

    def to_dict(self) -> dict:
        d = asdict(self)
        # the output location does not affect any computed value, so it is
        # excluded to keep reruns byte-identical across directories
        del d["out"]
        d["p_list"] = ["inf" if np.isinf(p) else p for p in self.p_list]
        d["version"] = __version__
        return d


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


def _write_csv(path: str, config: RunConfig, columns: list[str], rows: list[list]):
    lines = [f"# radialmult {__version__}", f"# config {json.dumps(config.to_dict(), sort_keys=True)}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, config: RunConfig, payload: dict):
    doc = {"version": __version__, "config": config.to_dict()}
    doc.update(_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _default_order(phi) -> int:
    """Sphere-quadrature order for a catalog symbol: kinked symbols converge slowly."""
    return INDICATOR_ORDER if phi.kink else SMOOTH_ORDER


def _symbol_and_order(cfg: RunConfig):
    phi = parse_symbol_spec(cfg.symbol, cfg.n)
    return phi, cfg.order if cfg.order is not None else _default_order(phi)


def cmd_radialize(cfg: RunConfig) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi, order = _symbol_and_order(cfg)
    sq = sphere_quadrature(cfg.n, order)
    proj = project(phi, cfg.n, default_radii(grid), sq)
    rows = [
        [float(r), float(v.real), float(v.imag)]
        for r, v in zip(proj.profile.radii, proj.profile.values)
    ]
    _write_csv(os.path.join(cfg.out, "profile.csv"), cfg, ["r", "re", "im"], rows)
    dev_sq = sphere_quadrature(cfg.n, min(order, 64))
    stats = {
        "deviation_original": radial_deviation(phi, grid, sq),
        "deviation_radialized": radial_deviation(proj, grid, dev_sq),
    }
    _write_json(os.path.join(cfg.out, "deviation.json"), cfg, stats)
    return 0


def cmd_norms(cfg: RunConfig) -> int:
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


def cmd_positivity(cfg: RunConfig) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    phi, order = _symbol_and_order(cfg)
    tol = float(cfg.tol.get("positivity", 1e-10))
    proj = project(phi, cfg.n, default_radii(grid), sphere_quadrature(cfg.n, order))
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


def cmd_converge(cfg: RunConfig, radius: float, orders: list[int]) -> int:
    phi, _ = _symbol_and_order(cfg)
    oracle = spherical_mean(phi, radius, sphere_quadrature(cfg.n, INDICATOR_ORDER))
    rows = []
    for m in orders:
        approx = spherical_mean(phi, radius, sphere_quadrature(cfg.n, m))
        rows.append([m, float(abs(approx - oracle))])
    _write_csv(os.path.join(cfg.out, "converge.csv"), cfg, ["order", "error"], rows)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
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


def cmd_demo(cfg: RunConfig) -> int:
    grid = make_grid(cfg.n, cfg.N, cfg.L)
    radii = default_radii(grid)
    summary = []
    for label, phi in reference_catalog(cfg.n):
        sq = sphere_quadrature(cfg.n, _default_order(phi))
        proj = project(phi, cfg.n, radii, sq)
        rows = [
            [float(r), float(v.real), float(v.imag)]
            for r, v in zip(proj.profile.radii, proj.profile.values)
        ]
        _write_csv(os.path.join(cfg.out, f"profile_{label}.csv"), cfg, ["r", "re", "im"], rows)
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


def _parse_tol(items: list[str]) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name] = float(value)
    return out


def _parse_p_list(text: str) -> tuple[float, ...]:
    return tuple(float("inf") if tok.strip() in ("inf", "oo") else float(tok) for tok in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radialmult", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("radialize", "norms", "positivity", "converge", "verify", "demo"):
        p = sub.add_parser(name)
        p.add_argument("--symbol", help="symbol spec, e.g. heat:t=1.0 or boxind:a=1.0")
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--grid", type=int, default=64, help="points per axis N")
        p.add_argument("--extent", type=float, default=16.0, help="box extent L")
        p.add_argument("--order", type=int, default=None, help="sphere quadrature order")
        p.add_argument("--p", default="2", help="comma list of exponents, e.g. 1.5,2,4,inf")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", action="append", default=[], help="override, name=value")
        p.add_argument("--out", default="out", help="output directory")
        if name == "converge":
            p.add_argument("--r", type=float, default=2.0, help="radius of the sphere average")
            p.add_argument("--orders", default="8,16,32,64", help="comma list of orders")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            symbol=args.symbol,
            n=args.n,
            N=args.grid,
            L=args.extent,
            order=args.order,
            p_list=_parse_p_list(args.p),
            seed=args.seed,
            tol=_parse_tol(args.tol),
            out=args.out,
        )
        make_grid(cfg.n, cfg.N, cfg.L)  # fail fast on bad grid parameters
        if cfg.command in ("radialize", "norms", "positivity", "converge") and not cfg.symbol:
            raise ValueError(f"{cfg.command} requires --symbol")
        if cfg.command in ("radialize", "norms", "positivity", "converge"):
            parse_symbol_spec(cfg.symbol, cfg.n)
        orders = [int(t) for t in args.orders.split(",")] if cfg.command == "converge" else []
        for m in orders + ([] if cfg.order is None else [cfg.order]):
            if m < 2:
                raise ValueError(f"sphere quadrature order must be >= 2, got {m}")
        if cfg.command == "converge" and args.r < 0:
            raise ValueError(f"--r must be nonnegative, got {args.r}")
        for p in cfg.p_list:
            if not p >= 1:
                raise ValueError(f"exponents must satisfy p >= 1, got {p}")
        for name, value in cfg.tol.items():
            if not value >= 0:
                raise ValueError(f"tolerance {name} must be nonnegative, got {value}")
        if cfg.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {cfg.seed}")
    except (ValueError, SymbolSpecError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.command == "radialize":
        return cmd_radialize(cfg)
    if cfg.command == "norms":
        return cmd_norms(cfg)
    if cfg.command == "positivity":
        return cmd_positivity(cfg)
    if cfg.command == "converge":
        return cmd_converge(cfg, args.r, orders)
    if cfg.command == "verify":
        return cmd_verify(cfg)
    if cfg.command == "demo":
        return cmd_demo(cfg)
    raise AssertionError(f"unhandled command {cfg.command}")


if __name__ == "__main__":
    sys.exit(main())
