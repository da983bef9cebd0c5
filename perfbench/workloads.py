"""The benchmark workloads, driven through radialmult's public entry points.

Each workload has `setup(seed, size, workdir)`, which builds the inputs its
passes reuse, and `run(state)`, one full pass; `workdir` is a directory
inside the checkout for files the pass writes.  A pass returns a `PassResult`:
criterion verdicts, CLI exit codes and named outputs.  Outputs are compared
within 1e-12 with stored references, and, where a workload has an
`expected` oracle (exact identities), with that oracle on every seed.

Why these workloads:

* verify-ref is the verification battery at the reference configuration,
  the project's end-to-end unit.  Half of it is power iteration on small
  grids (thousands of small FFTs); the rest is exact and interpolated
  rotation and sphere projection.
* cli-session is one user's CLI session.  Symbol evaluation, sphere
  quadrature and projection dominate; it uses few large FFTs and rotates
  no functions, so a rotation-layer change must leave it unchanged.
* conjugation-sweep is the operator side: exact-mode index permutations,
  the per-fiber loop and the spline gather.  It does almost no symbol
  evaluation, projection or power iteration.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import radialmult.cli
import radialmult.verification
from radialmult import grid, multiplier, rotation, symbols

# Entry points are looked up on their modules at call time (never bound here
# by name), so the tracer's wrappers see the benchmark's own calls too.

#: Seed whose outputs are stored in refs.json.
REFERENCE_SEED = 7


@dataclass
class PassResult:
    verdicts: dict = field(default_factory=dict)  # criterion -> passed
    exit_codes: dict = field(default_factory=dict)  # call label -> (got, expected)
    outputs: dict = field(default_factory=dict)  # label -> (numbers, texts)
    bytes_written: int = 0


def _flatten(obj, numbers: list, texts: list) -> None:
    """Numbers to `numbers`, everything else (keys, strings, bools) to `texts`, in a fixed order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            texts.append(str(key))
            _flatten(obj[key], numbers, texts)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _flatten(item, numbers, texts)
    elif isinstance(obj, np.ndarray):
        arr = np.asarray(obj).ravel()
        if np.iscomplexobj(arr):
            numbers.extend(arr.real.tolist())
            numbers.extend(arr.imag.tolist())
        else:
            numbers.extend(arr.astype(float).tolist())
    elif isinstance(obj, (bool, np.bool_)) or obj is None or isinstance(obj, str):
        texts.append(str(obj))
    elif isinstance(obj, complex):
        numbers.extend([obj.real, obj.imag])
    else:
        numbers.append(float(obj))


def flatten(obj) -> tuple[np.ndarray, tuple]:
    numbers: list = []
    texts: list = []
    _flatten(obj, numbers, texts)
    return np.asarray(numbers, dtype=float), tuple(texts)


# -- verify-ref --------------------------------------------------------------

VERIFY_SIZES = {
    "full": dict(n=2, N=64, L=16.0, smooth_order=256, indicator_order=4096),
    "tiny": dict(n=2, N=16, L=8.0, smooth_order=64, indicator_order=256),
}


def verify_setup(seed: int, size: str, workdir: str):
    # run_all builds its own grids, quadratures and catalog on every call,
    # so that work is part of the pass, not of set-up.
    return radialmult.verification.VerifyConfig(seed=seed, **VERIFY_SIZES[size])


def verify_run(cfg) -> PassResult:
    out = PassResult()
    for res in radialmult.verification.run_all(cfg):
        out.verdicts[res.criterion] = bool(res.passed)
        out.outputs[res.criterion] = flatten(res.details)
    return out


# -- cli-session -------------------------------------------------------------

def _cli_calls(seed: int, size: str) -> list[tuple[str, list[str], int]]:
    """(label, argv, expected exit code) for one user's session."""
    if size == "full":
        g2, g1, g3 = ["--grid", "64", "--extent", "16"], ["--grid", "256"], ["--grid", "16", "--extent", "8"]
        box_order, n3_order = "4096", "256"
    else:
        g2, g1, g3 = ["--grid", "16", "--extent", "8"], ["--grid", "32"], ["--grid", "8", "--extent", "4"]
        box_order, n3_order = "64", "16"
    return [
        ("radialize-heat", ["radialize", "--symbol", "heat:t=1", *g2], 0),
        ("radialize-boxind", ["radialize", "--symbol", "boxind:a=1", "--order", box_order, *g2], 0),
        ("norms", ["norms", "--symbol", "gaussaniso:a11=1,a22=4", "--p", "1.5,2,4",
                   "--seed", str(seed), *g2], 0),
        ("positivity", ["positivity", "--symbol", "heat:t=1", *g2], 0),
        ("converge", ["converge", "--symbol", "gaussaniso:a11=1,a22=4", "--r", "2",
                      "--orders", "8,16,32,64"], 0),
        ("demo", ["demo", *g2], 0),
        ("radialize-n1", ["radialize", "--symbol", "heat:t=1", "--n", "1", *g1], 0),
        ("radialize-n3", ["radialize", "--symbol", "gaussaniso:a11=1,a22=4,a33=2", "--n", "3",
                          "--order", n3_order, *g3], 0),
        ("bad-symbol", ["norms", "--symbol", "nosuch:x=1"], 2),
    ]


@dataclass
class CliState:
    calls: list
    workdir: str


def cli_setup(seed: int, size: str, workdir: str) -> CliState:
    return CliState(_cli_calls(seed, size), workdir)


def read_cli_output(path: str):
    """Numeric content of one CLI output file; the embedded config header is left out."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        doc.pop("config", None)
        doc.pop("version", None)
        return flatten(doc)
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    cells = []
    for row in rows:
        for cell in row:
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
    return flatten(cells)


def cli_run(state: CliState) -> PassResult:
    out = PassResult()
    session = tempfile.mkdtemp(prefix="cli-session-", dir=state.workdir)
    try:
        for label, argv, expected in state.calls:
            target = os.path.join(session, label)
            try:
                code = radialmult.cli.main([*argv, "--out", target])
            except Exception as exc:  # a raising CLI call is a failed operation
                code = f"raised {type(exc).__name__}"
            out.exit_codes[label] = (code, expected)
            if not os.path.isdir(target):
                continue
            for name in sorted(os.listdir(target)):
                path = os.path.join(target, name)
                out.bytes_written += os.path.getsize(path)
                out.outputs[f"{label}/{name}"] = read_cli_output(path)
    finally:
        shutil.rmtree(session, ignore_errors=True)
    return out


# -- conjugation-sweep -------------------------------------------------------

CONJ_SIZES = {
    "full": dict(N2=64, L2=16.0, N3=32, L3=8.0, so_orders=(64, 256), haar_nodes=3),
    "tiny": dict(N2=16, L2=8.0, N3=8, L3=4.0, so_orders=(8, 16), haar_nodes=1),
}


@dataclass
class ConjState:
    op2: object
    op3: object
    f2: object
    fields: dict  # q -> VectorGridFunction
    f3: object
    c4: object
    octahedral: object
    so_rules: dict  # m -> RotationQuadrature
    haar3: object
    c4_rotations: list


def conj_setup(seed: int, size: str, workdir: str) -> ConjState:
    s = CONJ_SIZES[size]
    rng = np.random.default_rng(seed)
    g2 = grid.make_grid(2, s["N2"], s["L2"])
    g3 = grid.make_grid(3, s["N3"], s["L3"])
    op2 = multiplier.MultiplierOperator(symbols.make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 4.0])}, 2), g2)
    op3 = multiplier.MultiplierOperator(symbols.make_named_symbol("gaussian_aniso", {"A": np.diag([1.0, 2.0, 3.0])}, 3), g3)

    def field2():
        return rng.standard_normal(g2.shape) + 1j * rng.standard_normal(g2.shape)

    f2 = grid.GridFunction(g2, field2())
    fields = {
        q: grid.VectorGridFunction(g2, 3, q, np.stack([field2() for _ in range(3)], axis=-1))
        for q in (1.0, 2.0, float("inf"))
    }
    f3 = grid.GridFunction(g3, rng.standard_normal(g3.shape) + 1j * rng.standard_normal(g3.shape))
    c4 = rotation.c4_rotations()
    return ConjState(
        op2=op2,
        op3=op3,
        f2=f2,
        fields=fields,
        f3=f3,
        c4=rotation.subgroup_quadrature(c4),
        octahedral=rotation.subgroup_quadrature(rotation.octahedral_rotations()),
        so_rules={m: rotation.so_quadrature(2, m) for m in s["so_orders"]},
        haar3=rotation.subgroup_quadrature([rotation.haar_rotation(3, rng) for _ in range(s["haar_nodes"])]),
        c4_rotations=c4,
    )


def _averaged_operator(op, rq):
    """Operator whose symbol is the node average of the rotated lattice samples."""
    sampled = symbols.sample_symbol(op.phi, op.grid)
    values = sum(
        w * rotation.rotated_symbol(sampled, R.inverse()).values
        for R, w in zip(rq.rotations, rq.weights)
    )
    return multiplier.MultiplierOperator(symbols.SampledSymbol(op.grid, values), op.grid)


def conj_expected(state: ConjState) -> dict:
    """Symbol-side results that the exact-mode operator averages reproduce on every seed."""
    avg2 = _averaged_operator(state.op2, state.c4)
    avg3 = _averaged_operator(state.op3, state.octahedral)
    sampled2 = symbols.sample_symbol(state.op2.phi, state.op2.grid)
    expected = {
        "c4/scalar": multiplier.apply(avg2, state.f2).values,
        "octahedral/n3": multiplier.apply(avg3, state.f3).values,
    }
    for q, F in state.fields.items():
        expected[f"c4/vector-q{q}"] = multiplier.apply_vector(avg2, F).values
    for k, R in enumerate(state.c4_rotations):
        rot_op = multiplier.MultiplierOperator(rotation.rotated_symbol(sampled2, R.inverse()), state.op2.grid)
        expected[f"c4/conjugated-{k}"] = multiplier.apply(rot_op, state.f2).values
    return {label: flatten(values) for label, values in expected.items()}


def conj_run(state: ConjState) -> PassResult:
    avg = multiplier.average_conjugated
    results = {"c4/scalar": avg(state.op2, state.c4, state.f2)}
    for q, F in state.fields.items():
        results[f"c4/vector-q{q}"] = avg(state.op2, state.c4, F)
    for k, R in enumerate(state.c4_rotations):
        results[f"c4/conjugated-{k}"] = multiplier.conjugated_apply(state.op2, R, state.f2)
    results["octahedral/n3"] = avg(state.op3, state.octahedral, state.f3)
    for m, rq in state.so_rules.items():
        results[f"so2-interp/m{m}"] = avg(state.op2, rq, state.f2, mode="interp")
    results["haar-interp/n3"] = avg(state.op3, state.haar3, state.f3, mode="interp")
    return PassResult(outputs={label: flatten(res.values) for label, res in results.items()})


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, size, workdir) -> state
    run: object  # state -> PassResult
    expected: object = None  # state -> {label: (numbers, texts)}, checked on every pass


WORKLOADS = {
    "verify-ref": Workload(verify_setup, verify_run),
    "cli-session": Workload(cli_setup, cli_run),
    "conjugation-sweep": Workload(conj_setup, conj_run, conj_expected),
}
