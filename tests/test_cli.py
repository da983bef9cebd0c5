"""CLI subcommands: artifacts, determinism, exit codes."""

import csv
import json

import numpy as np
import pytest

from radialmult.cli import main


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# radialmult ")
    assert lines[1].startswith("# config ")
    rows = list(csv.reader(lines[2:]))
    return rows[0], rows[1:]


def test_radialize_heat(tmp_path):
    out = str(tmp_path)
    rc = main(
        ["radialize", "--symbol", "heat:t=1", "--n", "2", "--grid", "32", "--extent", "8",
         "--order", "256", "--out", out]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "profile.csv")
    assert header == ["r", "re", "im"]
    r = np.array([float(row[0]) for row in rows])
    re = np.array([float(row[1]) for row in rows])
    assert np.max(np.abs(re - np.exp(-(r**2)))) <= 1e-12
    dev = json.loads((tmp_path / "deviation.json").read_text())
    assert dev["deviation_original"] <= 1e-12
    assert dev["deviation_radialized"] <= 1e-12


def test_converge_decreasing_error(tmp_path):
    out = str(tmp_path)
    rc = main(
        ["converge", "--symbol", "gaussaniso:a11=1,a22=4", "--n", "2", "--r", "2",
         "--orders", "8,16,32,64", "--out", out]
    )
    assert rc == 0
    _, rows = _read_csv(tmp_path / "converge.csv")
    errs = [float(row[1]) for row in rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-10


def test_norms_csv_schema_and_flags(tmp_path):
    out = str(tmp_path)
    rc = main(
        ["norms", "--symbol", "heat:t=1", "--n", "2", "--grid", "16", "--extent", "8",
         "--p", "2,4", "--out", out]
    )
    assert rc == 0
    header, rows = _read_csv(tmp_path / "norms.csv")
    assert header == ["symbol", "p", "target", "method", "kind", "value", "iters", "seed"]
    targets = {row[2] for row in rows}
    assert targets == {"original", "radialized"}
    doc = json.loads((tmp_path / "norms.json").read_text())
    assert all(doc["flags"].values())


def test_positivity_json(tmp_path):
    out = str(tmp_path)
    rc = main(
        ["positivity", "--symbol", "heat:t=1", "--n", "2", "--grid", "32", "--extent", "8",
         "--out", out]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "positivity.json").read_text())
    assert doc["verdict_original"] == "positive"
    assert doc["verdict_radialized"] == "positive"
    assert doc["grid"] == {"n": 2, "N": 32, "L": 8.0}
    assert doc["tol"] == 1e-10


def test_demo_outputs(tmp_path):
    out = str(tmp_path)
    rc = main(["demo", "--n", "2", "--grid", "16", "--extent", "8", "--out", out])
    assert rc == 0
    doc = json.loads((tmp_path / "demo.json").read_text())
    labels = {s["symbol"] for s in doc["symbols"]}
    assert {"heat", "riesz", "ballind", "boxind"} <= labels
    assert (tmp_path / "profile_heat.csv").exists()


def test_radialize_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["radialize", "--symbol", "poisson:t=1", "--n", "2", "--grid", "16",
            "--extent", "8", "--order", "64", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert (a / "deviation.json").read_bytes() == (b / "deviation.json").read_bytes()


def test_config_errors_exit_2(tmp_path):
    assert main(["radialize", "--symbol", "nope:t=1", "--out", str(tmp_path)]) == 2
    assert main(["radialize", "--out", str(tmp_path)]) == 2  # missing --symbol
    assert main(["radialize", "--symbol", "heat:t=1", "--grid", "15", "--out", str(tmp_path)]) == 2
    assert main(["norms", "--symbol", "heat:t=abc", "--out", str(tmp_path)]) == 2
    heat = ["--symbol", "heat:t=1", "--out", str(tmp_path)]
    assert main(["converge", *heat, "--orders", "8,x"]) == 2
    assert main(["converge", *heat, "--orders", "1,8"]) == 2
    assert main(["radialize", *heat, "--order", "1"]) == 2
    assert main(["converge", *heat, "--r", "-1"]) == 2


def test_csv_embeds_config(tmp_path):
    out = str(tmp_path)
    main(["converge", "--symbol", "heat:t=1", "--orders", "8,16", "--out", out])
    text = (tmp_path / "converge.csv").read_text()
    cfg = json.loads(text.splitlines()[1].removeprefix("# config "))
    assert cfg["command"] == "converge" and cfg["seed"] == 7
    assert "version" in cfg
    assert "rot_order" not in cfg and "threads" not in cfg
    for removed in (["--threads", "2"], ["--rot-order", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--symbol", "heat:t=1", *removed, "--out", out])
        assert exc.value.code == 2
