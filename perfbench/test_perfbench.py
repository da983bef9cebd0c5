"""Tests of the benchmark itself, at tiny input sizes."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _path in (str(HERE), str(HERE.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, workload, trace=0, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_correctly_at_tiny_size(capsys, tmp_path, workload):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", "0", "--size", "tiny", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    # one reference pass and one timed pass; fail_share counts recorded FAIL verdicts
    recorded = refs.load()["tiny"][workload]["verdicts"]
    red = sum(not passed for passed in recorded.values())
    share = next(line for line in lines if line.startswith(f"{workload} fail_share = "))
    assert f"({2 * red} failed or FAIL verdicts / {result['attempted']} attempted" in share


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, tmp_path, trace, key):
    result = _run(capsys, tmp_path, "conjugation-sweep", trace=trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def _bindings():
    import radialmult.cli  # noqa: F401
    import radialmult.verification  # noqa: F401

    snap = {}
    for name, module in sys.modules.items():
        if name == "radialmult" or name.startswith("radialmult."):
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
    for cls_name in tracer.SYMBOL_CLASSES:
        cls = getattr(sys.modules["radialmult.symbols"], cls_name)
        snap[(cls_name, "evaluate")] = cls.__dict__["evaluate"]
    for fname in tracer.FFT_FUNCTIONS:
        snap[("numpy.fft", fname)] = getattr(np.fft, fname, None)
    return snap


def test_tracer_wraps_cross_module_bindings_and_restores_them():
    import radialmult.multiplier
    import radialmult.norms
    import radialmult.verification

    before = _bindings()
    criteria = list(radialmult.verification.CRITERIA)
    with tracer.Tracer():
        # norms and verification bind multiplier's functions under their own names
        assert radialmult.norms.kernel is not before[("radialmult.multiplier", "kernel")]
        assert radialmult.verification.apply is not before[("radialmult.multiplier", "apply")]
        assert radialmult.norms.kernel.__wrapped__ is before[("radialmult.multiplier", "kernel")]
        assert np.fft.fftn is not before[("numpy.fft", "fftn")]
    after = _bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert radialmult.verification.CRITERIA == criteria


def test_tracer_attributes_fft_to_innermost_layer():
    import radialmult.grid
    import radialmult.multiplier
    import radialmult.norms
    import radialmult.symbols

    g = radialmult.grid.make_grid(2, 8, 4.0)
    op = radialmult.multiplier.MultiplierOperator(
        radialmult.symbols.make_named_symbol("heat", {"t": 1.0}, 2), g)
    with tracer.Tracer() as tr:
        radialmult.norms.norm_upper_kernel(op)
        est = radialmult.norms.norm_lower_power(op, 3.0, trials=1, iters=3, seed=0)
    metrics = tr.pass_metrics()
    assert metrics["multiplier.kernel.calls"] == 1
    assert metrics["multiplier.fft.calls"] == 1  # the kernel's ifftn, under norm_upper_kernel
    assert metrics["norms.power.calls"] == 1
    assert metrics["norms.power.iterations"] == est.iterations
    assert metrics["norms.fft.calls"] == 4 * est.iterations
    assert metrics["norms.fft.points"] == 4 * est.iterations * 64


def test_perturbed_reference_raises_fail_share(capsys, tmp_path, monkeypatch):
    base = _run(capsys, tmp_path, "conjugation-sweep")
    stored = refs.load()
    perturbed = copy.deepcopy(stored)
    outputs = perturbed["tiny"]["conjugation-sweep"]["outputs"]
    fp = outputs[sorted(outputs)[0]]
    key = "values" if "values" in fp else "sketch"
    fp[key][0] += 1e-9 * max(1.0, abs(fp[key][0]))
    monkeypatch.setattr(refs, "load", lambda: perturbed)
    worse = _run(capsys, tmp_path, "conjugation-sweep")
    assert base["correct"] is True and worse["correct"] is False
    assert worse["failed"] / worse["attempted"] > base["failed"] / base["attempted"]


@pytest.mark.parametrize("workload", ["cli-session", "conjugation-sweep"])
def test_counts_repeat_exactly_at_fixed_seed(capsys, tmp_path, workload):
    counts = []
    for _ in range(2):
        result = _run(capsys, tmp_path, workload, trace=1, seed=5)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
