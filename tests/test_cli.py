"""CLI subcommands: artifacts, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from radialmult.cli import OPTIONS, SUBCOMMANDS, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
            "--extent", "8", "--order", "64"]
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
    assert main(["converge", *heat, "--r", "nan"]) == 2
    assert main(["converge", *heat, "--r", "inf"]) == 2
    assert main(["norms", *heat, "--p", "0.5"]) == 2
    assert main(["norms", *heat, "--p", "nan"]) == 2
    assert main(["positivity", *heat, "--tol", "positivity=-1"]) == 2
    assert main(["norms", *heat, "--seed", "-1"]) == 2
    assert main(["radialize", *heat, "--extent", "inf"]) == 2
    assert main(["positivity", *heat, "--tol", "positivty=1e-8"]) == 2


@pytest.mark.parametrize(
    "spec",
    [
        "heat:tt=2",  # a key heat does not read
        "heat:t=1,t=2",  # a repeated key
        "ballind:r=1,rho=1",  # a radius and its alias
        "gaussaniso:a12=0.5,a21=0.3",  # a mirrored pair that disagrees
        "gaussaniso:a11=2,a13=0.1",  # a key for n = 3 at n = 2
        "riesz:j=1.7",  # non-integer values for integer parameters
        "riesz:j=inf",
        "monomial:a1=2.9",
    ],
)
def test_symbol_spec_that_would_drop_a_parameter_exits_2(tmp_path, capsys, spec):
    out = tmp_path / "out"
    assert main(["positivity", "--symbol", spec, "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: bad symbol spec")
    assert not out.exists()


def test_csv_embeds_config(tmp_path):
    out = str(tmp_path)
    main(["converge", "--symbol", "heat:t=1", "--orders", "8,16", "--out", out])
    text = (tmp_path / "converge.csv").read_text()
    cfg = json.loads(text.splitlines()[1].removeprefix("# config "))
    assert cfg["command"] == "converge"
    assert cfg["r"] == 2.0 and cfg["orders"] == [8, 16] and "seed" not in cfg
    assert "version" in cfg
    assert "rot_order" not in cfg and "threads" not in cfg
    for removed in (["--threads", "2"], ["--rot-order", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--symbol", "heat:t=1", *removed, "--out", out])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["radialize", "--symbol", "heat:t=1", "--seed", "1"],
        ["norms", "--symbol", "heat:t=1", "--tol", "positivity=1"],
        ["positivity", "--symbol", "heat:t=1", "--p", "4"],
        ["converge", "--symbol", "heat:t=1", "--grid", "32"],
        ["verify", "--symbol", "heat:t=1"],
        ["demo", "--order", "8"],
    ],
    ids=lambda argv: argv[0],
)
def test_unread_options_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_config_keys_are_the_options_read(tmp_path):
    """Each file's embedded config holds exactly the options its subcommand reads."""
    flags = {
        "radialize": ["--symbol", "heat:t=1", "--grid", "16", "--extent", "8", "--order", "16"],
        "demo": ["--grid", "16", "--extent", "8"],
    }
    for command, argv in flags.items():
        out = tmp_path / command
        assert main([command, *argv, "--out", str(out)]) == 0
        for path in out.iterdir():
            text = path.read_text()
            if path.suffix == ".csv":
                cfg = json.loads(text.splitlines()[1].removeprefix("# config "))
            else:
                cfg = json.loads(text)["config"]
            read = {OPTIONS[f].get("dest", f) for f in SUBCOMMANDS[command][1]}
            assert set(cfg) == read | {"command", "version"}


def test_exit_codes_through_module_entry_point(tmp_path):
    def run(*argv):
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, "-m", "radialmult.cli", *argv], env=env, capture_output=True, text=True
        )

    bad_flag = run("demo", "--order", "8", "--out", str(tmp_path / "demo"))
    assert bad_flag.returncode == 2 and "unrecognized arguments" in bad_flag.stderr
    bad_tol = run("positivity", "--symbol", "heat:t=1", "--tol", "x=1", "--out", str(tmp_path / "p"))
    assert bad_tol.returncode == 2 and "config error:" in bad_tol.stderr
    ok = run("converge", "--symbol", "heat:t=1", "--orders", "8,16", "--out", str(tmp_path / "c"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "c" / "converge.csv").exists()


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise ValueError("permutation matrix must be 1x1")

    monkeypatch.setitem(SUBCOMMANDS, "demo", (broken, SUBCOMMANDS["demo"][1]))
    rc = main(["demo", "--grid", "8", "--extent", "4", "--out", str(tmp_path / "demo")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: permutation matrix must be 1x1")
    assert "Traceback" in err and "in broken" in err
