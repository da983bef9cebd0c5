"""radialmult benchmark: one workload in one process, end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-ref --seed 1 --seconds 30 --trace 0

With `--trace 0` it reports the end-to-end metrics (set-up time, pass time,
peak memory); with `--trace 1` it alternates untraced and traced passes and
reports per-layer metrics.  Human-readable lines come first: every metric
with its unit, median, quartiles and sample count, the failure share and the
machine facts.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A results file (and, when
tracing, a file of spans) is written under `--out`.

Correctness: one reference pass at the stored seed compares every output
with `refs.json` within 1e-12 and serves as the warm-up.  Timed passes then
run on inputs made from `--seed`; every criterion verdict must match the
recorded one, every CLI call must exit as expected, exact identities must
hold within 1e-12, and each pass must reproduce the outputs of the first.
An operation (verdict, CLI call or output comparison) fails when it raises,
when a verdict differs from the recorded one, when an exit code is
unexpected, or when an output leaves its reference by more than 1e-12.
`fail_share` (printed, not in the JSON line) also counts every criterion
that reports FAIL, so a known red criterion shows there on every run.

The script re-executes itself once with the measuring environment
(`MEASURE_ENV`): one BLAS/OpenMP thread, since on cli-session a second
one gained no wall time and only added contention on a shared host, and a
malloc that keeps freed memory, so that each pass does not fault its
arrays in again (on cli-session's n=3 radialize that was about 96k page
faults and 0.4-0.7 s of system time per call).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)

#: Environment the measuring process starts with (see the module docstring).
MEASURE_ENV = {
    **{var: "1" for var in THREAD_VARS},
    "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = {"full": 7, "tiny": 1}

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, in report order."""
    import tracer

    return {**tracer.METRIC_UNITS, "cli.bytes_written": "B", "proc.cpu_s": "s", "trace.overhead_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    import numpy as np
    from radialmult import _kernels

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "numba": bool(_kernels.USING_NUMBA),
        "blas": blas_name,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MEASURE_ENV if var.startswith("MALLOC_")},
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Ledger:
    """Attempted and failed operations, FAIL verdicts, and whether every output was correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.flagged = 0  # failed operations and FAIL verdicts
        self.wrong: list[str] = []

    def op(self, failed: bool, wrong: bool, what: str, red: bool = False) -> None:
        self.attempted += 1
        self.failed += bool(failed)
        self.flagged += bool(failed or red)
        if wrong:
            self.wrong.append(what)


def check_pass(res, ledger: Ledger, recorded: dict, reference: dict | None, expected: dict | None):
    """Account every operation of one pass; returns the pass's output fingerprints."""
    import refs

    for criterion in sorted(set(recorded) | set(res.verdicts)):
        passed = res.verdicts.get(criterion)
        changed = passed != recorded.get(criterion)
        ledger.op(changed, changed, f"verdict {criterion}: {passed}", red=not passed)
    for label, (code, want) in res.exit_codes.items():
        ledger.op(code != want, code != want, f"exit code {label}: {code} != {want}")
    prints = {label: refs.fingerprint(out) for label, out in res.outputs.items()}
    if reference is not None:
        for label in sorted(set(reference) | set(prints)):
            ok = label in prints and label in reference and refs.matches(prints[label], reference[label])
            ledger.op(not ok, not ok, f"output {label} differs from its reference")
    for label, (want, _) in (expected or {}).items():
        got = res.outputs.get(label, (None, None))[0]
        ok = got is not None and got.shape == want.shape and float(abs(got - want).max()) <= refs.TOL
        ledger.op(not ok, not ok, f"output {label} breaks its exact identity")
    return prints


def run_pass(workload, state, ledger: Ledger):
    """One pass: (wall seconds, cpu seconds, PassResult or None if it raised)."""
    c0, t0 = os.times(), time.perf_counter()
    try:
        res = workload.run(state)
    except Exception as exc:  # a raising pass is a failed, wrong operation
        res = None
        ledger.op(True, True, f"pass raised {exc!r}")
    wall = time.perf_counter() - t0
    c1 = os.times()
    return wall, (c1.user - c0.user) + (c1.system - c0.system), res


def probe_setup(args, workdir: Path) -> list[float]:
    """Set-up seconds measured in fresh processes, one per probe."""
    cmd = [
        sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--workdir", str(workdir),
    ]
    times = []
    for _ in range(SETUP_PROBES[args.size]):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    parser.add_argument("--out", default=str(HERE / "out"), help="directory for result files")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "radialmult" / "__init__.py").is_file():
        print(f"perfbench: no radialmult sources under {src}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import radialmult
    import refs
    import tracer
    import workloads

    if not Path(radialmult.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: radialmult imported from {radialmult.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    stored = refs.load()[args.size][args.workload]
    workload = workloads.WORKLOADS[args.workload]
    out_dir = Path(args.out)
    workdir = out_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_times = [] if args.trace else probe_setup(args, workdir)
    ledger = Ledger()

    # Reference pass at the stored seed; it is also the warm-up pass.
    ref_state = workload.setup(workloads.REFERENCE_SEED, args.size, str(workdir))
    _, _, res = run_pass(workload, ref_state, ledger)
    if res is not None:
        check_pass(res, ledger, stored["verdicts"], stored["outputs"],
                   workload.expected and workload.expected(ref_state))

    if args.seed == workloads.REFERENCE_SEED:
        state, reference = ref_state, stored["outputs"]
    else:
        state, reference = workload.setup(args.seed, args.size, str(workdir)), None
    expected = workload.expected and workload.expected(state)

    walls, cpus, traced_walls, layer_samples = [], [], [], []
    tr = tracer.Tracer() if args.trace else None
    begin = time.perf_counter()
    while True:
        wall, cpu, res = run_pass(workload, state, ledger)
        walls.append(wall)
        cpus.append(cpu)
        if res is not None:
            prints = check_pass(res, ledger, stored["verdicts"], reference, expected)
            reference = reference or prints
        if tr is not None:
            tr.reset_pass()
            with tr:
                wall, _, res = run_pass(workload, state, ledger)
            traced_walls.append(wall)
            if res is not None:
                check_pass(res, ledger, stored["verdicts"], reference, expected)
                layer_samples.append(dict(tr.pass_metrics(), **{"cli.bytes_written": float(res.bytes_written)}))
        if time.perf_counter() - begin >= args.seconds:
            break

    if tr is None:
        units = END_TO_END_UNITS
        stats = {
            "setup_s": summary(setup_times),
            "pass_s": summary(walls),
            "peak_rss_mib": summary([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        }
    else:
        units = per_layer_units()
        stats = {name: summary([s[name] for s in layer_samples] or [0.0]) for name in units
                 if name not in ("proc.cpu_s", "trace.overhead_s")}
        stats["proc.cpu_s"] = summary(cpus)
        stats["trace.overhead_s"] = summary([t - u for t, u in zip(traced_walls, walls)])
        tr.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    facts = machine_facts()
    fail_share = ledger.flagged / max(ledger.attempted, 1)
    for name, unit in units.items():
        st = stats[name]
        print(f"{args.workload} {name} = {st['median']:.6g} {unit} "
              f"(median; q1 {st['q1']:.6g}, q3 {st['q3']:.6g}; n={st['n']})")
    print(f"{args.workload} fail_share = {fail_share:.6g} 1 ({ledger.flagged} failed or FAIL verdicts "
          f"/ {ledger.attempted} attempted; {ledger.failed} failed)")
    for what in ledger.wrong:
        print(f"{args.workload} WRONG {what}")
    print(f"machine {json.dumps(facts, sort_keys=True)}")

    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, size=args.size,
                  seconds=args.seconds, fail_share=fail_share, wrong=ledger.wrong, machine=facts,
                  stats=stats, pass_walls=walls, pass_cpus=cpus, traced_walls=traced_walls, setup_times=setup_times)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(var) != value for var, value in MEASURE_ENV.items()):
        os.environ.update(MEASURE_ENV)
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
