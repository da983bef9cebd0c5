"""Stored reference outputs: fingerprints, loading, and recording.

An output is (numbers, texts).  Its fingerprint keeps the texts and the
length, and either the numbers themselves (up to SMALL of them) or a
sketch: max |x|, sum x and four fixed random projections normalized by
sqrt(len), so that a change of 1e-12 in the numbers moves the sketch by
about as much.

Record the references at the stored seed after a deliberate change of
results (run from the repository root):

    PYTHONPATH=src python3 perfbench/refs.py
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np

PATH = Path(__file__).resolve().parent / "refs.json"
SMALL = 64
#: Largest accepted deviation of an output from its reference, absolute below 1, relative above.
TOL = 1e-12


@functools.lru_cache(maxsize=None)
def _projections(length: int) -> np.ndarray:
    return np.random.default_rng(length).standard_normal((4, length)) / np.sqrt(length)


def fingerprint(output) -> dict:
    numbers, texts = output
    fp = {"texts": list(texts), "len": int(numbers.size)}
    if numbers.size <= SMALL:
        fp["values"] = numbers.tolist()
    else:
        fp["sketch"] = [float(np.max(np.abs(numbers))), float(np.sum(numbers))]
        fp["sketch"] += (_projections(numbers.size) @ numbers).tolist()
    return fp


def matches(got: dict, ref: dict) -> bool:
    """True when two fingerprints agree: same texts and lengths, numbers within TOL."""
    if got.keys() != ref.keys() or got["texts"] != ref["texts"] or got["len"] != ref["len"]:
        return False
    key = "values" if "values" in ref else "sketch"
    a = np.asarray(got[key], dtype=float)
    b = np.asarray(ref[key], dtype=float)
    if a.shape != b.shape:
        return False
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    close = np.abs(a - b) <= TOL * np.maximum(1.0, np.abs(b))
    return bool(np.all(same | close))


def load() -> dict:
    """{size: {workload: {"seed", "verdicts", "outputs"}}}."""
    with open(PATH) as fh:
        return json.load(fh)


def record() -> dict:
    """Run each workload once at the reference seed and collect its fingerprints."""
    import tempfile

    import workloads

    table = {}
    with tempfile.TemporaryDirectory(dir=PATH.parent) as workdir:
        for size in ("full", "tiny"):
            table[size] = {}
            for name, workload in workloads.WORKLOADS.items():
                res = workload.run(workload.setup(workloads.REFERENCE_SEED, size, workdir))
                table[size][name] = {
                    "seed": workloads.REFERENCE_SEED,
                    "verdicts": res.verdicts,
                    "outputs": {label: fingerprint(out) for label, out in res.outputs.items()},
                }
    return table


if __name__ == "__main__":
    sys.path.insert(0, str(PATH.parent))
    with open(PATH, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
