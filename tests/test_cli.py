"""CLI subcommands: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import radialmult.cli as cli
from radialmult.cli import OPTIONS, SUBCOMMANDS, main
from radialmult.radialize import INDICATOR_ORDER, RADIALITY_ORDER, SMOOTH_ORDER
from radialmult.verification import CRITERIA

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


def test_radialize_large_values_within_rounding_exit_0(tmp_path):
    # xi_1^2 reaches 631.7 on this grid; the order-8 re-projection's mean exceeds
    # that by 2.3e-13 (3.6e-16 relative), which is rounding, not a failed average
    rc = main(
        ["radialize", "--symbol", "monomial:a1=2", "--n", "3", "--grid", "16", "--extent", "2",
         "--order", "64", "--out", str(tmp_path)]
    )
    assert rc == 0


def test_radialize_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    args = ["radialize", "--symbol", "poisson:t=1", "--n", "2", "--grid", "16",
            "--extent", "8", "--order", "64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert (a / "deviation.json").read_bytes() == (b / "deviation.json").read_bytes()


def test_radialize_evaluates_the_sphere_rule_once(tmp_path, monkeypatch):
    # the deviation reads the projection just written instead of projecting again
    import radialmult.radialize as radialize

    orders = []
    original = radialize._sphere_means

    def spy(phi, radii, sq):
        orders.append(len(sq.weights))
        return original(phi, radii, sq)

    monkeypatch.setattr(radialize, "_sphere_means", spy)
    rc = main(["radialize", "--symbol", "boxind:a=1", "--order", "4096", "--grid", "64",
               "--extent", "16", "--out", str(tmp_path)])
    assert rc == 0
    assert orders.count(4096) == 1


def _spy_sphere_orders(monkeypatch):
    """Record the order of every sphere rule the CLI builds, itself or through `radialize`."""
    import radialmult.radialize as radialize

    orders = []
    original = cli.sphere_quadrature

    def spy(n, m):
        orders.append(m)
        return original(n, m)

    for module in (cli, radialize):
        monkeypatch.setattr(module, "sphere_quadrature", spy)
    return orders


def test_demo_builds_each_sphere_rule_once(tmp_path, monkeypatch):
    # boxind alone takes the indicator order and the rest share the smooth rule
    orders = _spy_sphere_orders(monkeypatch)
    assert main(["demo", "--grid", "16", "--extent", "8", "--out", str(tmp_path)]) == 0
    assert sorted(orders) == [SMOOTH_ORDER, INDICATOR_ORDER]


def test_radialize_builds_the_given_order_and_the_radiality_rule(tmp_path, monkeypatch):
    orders = _spy_sphere_orders(monkeypatch)
    assert main(["radialize", "--symbol", "heat:t=1", "--order", "256", "--grid", "16",
                 "--extent", "8", "--out", str(tmp_path)]) == 0
    assert sorted(orders) == sorted([256, RADIALITY_ORDER])


def test_positivity_tol_is_a_plain_number(tmp_path):
    # the Riesz kernel changes sign (min -0.22); no finite tolerance hides that here
    argv = ["positivity", "--symbol", "riesz:j=1", "--grid", "32", "--extent", "8"]
    assert main([*argv, "--tol", "1e-8", "--out", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a" / "positivity.json").read_text())
    assert doc["tol"] == 1e-8 and doc["config"]["tol"] == 1e-8
    assert doc["verdict_original"] == "not-positive"
    for bad in ("-1", "nan", "inf"):
        out = tmp_path / bad
        assert main([*argv, "--tol", bad, "--out", str(out)]) == 2
        assert not out.exists()


def test_bochner_riesz_delta_0_exits_2_naming_the_ball_indicator(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["norms", "--symbol", "bochnerriesz:delta=0", "--out", str(out)]) == 2
    assert "ballind" in capsys.readouterr().err
    assert not out.exists()


def test_config_errors_exit_2(tmp_path):
    assert main(["radialize", "--symbol", "nope:t=1", "--out", str(tmp_path)]) == 2
    assert main(["radialize", "--out", str(tmp_path)]) == 2  # missing --symbol
    assert main(["radialize", "--symbol", "heat:t=1", "--grid", "15", "--out", str(tmp_path)]) == 2
    assert main(["norms", "--symbol", "heat:t=abc", "--out", str(tmp_path)]) == 2
    for spec in ("modulation:a1=nan", "const:c=inf"):  # non-finite symbol parameters
        assert main(["norms", "--symbol", spec, "--out", str(tmp_path)]) == 2
    heat = ["--symbol", "heat:t=1", "--out", str(tmp_path)]
    assert main(["converge", *heat, "--orders", "8,x"]) == 2
    assert main(["converge", *heat, "--orders", "1,8"]) == 2
    assert main(["radialize", *heat, "--order", "1"]) == 2
    assert main(["converge", *heat, "--r", "-1"]) == 2
    assert main(["converge", *heat, "--r", "nan"]) == 2
    assert main(["converge", *heat, "--r", "inf"]) == 2
    assert main(["norms", *heat, "--p", "0.5"]) == 2
    assert main(["norms", *heat, "--p", "nan"]) == 2
    assert main(["positivity", *heat, "--tol", "-1"]) == 2
    assert main(["positivity", *heat, "--tol", "nan"]) == 2
    assert main(["positivity", *heat, "--tol", "inf"]) == 2
    assert main(["norms", *heat, "--seed", "-1"]) == 2
    assert main(["radialize", *heat, "--extent", "inf"]) == 2
    assert main(["norms", *heat, "--extent", "1e160"]) == 2  # L^2 overflows
    with pytest.raises(SystemExit) as exc:  # the name=value form is gone; argparse rejects it
        main(["positivity", *heat, "--tol", "positivity=1e-8"])
    assert exc.value.code == 2


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
        ["norms", "--symbol", "heat:t=1", "--tol", "1"],
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


@pytest.mark.parametrize(
    "n,N,L",
    [
        (1, 16, 8.0),
        (2, 16, 8.0),
        # no lattice radius lies more than 2 dxi from the ball indicator's kink
        (2, 4, 8.0),
        (1, 4, 2.0),
    ],
)
def test_verify_files_exit_code_and_printout_agree(tmp_path, capsys, n, N, L):
    rc = main(["verify", "--n", str(n), "--grid", str(N), "--extent", str(L), "--out", str(tmp_path)])
    printed = capsys.readouterr().out.splitlines()
    doc = json.loads((tmp_path / "verify.json").read_text())
    checks = doc["checks"]
    names = [check["criterion"] for check in checks]
    # one check per criterion, in the order of CRITERIA ("1-...", "2-...", ...)
    assert [int(name.split("-")[0]) for name in names] == list(range(1, len(CRITERIA) + 1))
    failed = [check["criterion"] for check in checks if not check["passed"]]
    assert doc["failures"] == failed
    assert rc == (1 if failed else 0)
    header, rows = _read_csv(tmp_path / "verify.csv")
    assert header == ["criterion", "status"]
    assert rows == [[c["criterion"], "pass" if c["passed"] else "fail"] for c in checks]
    assert printed == [f"{'PASS' if c['passed'] else 'FAIL'} {c['criterion']}" for c in checks]
    read = {OPTIONS[f].get("dest", f) for f in SUBCOMMANDS["verify"][1]}
    assert set(doc["config"]) == read | {"command", "version"}
    csv_config = json.loads((tmp_path / "verify.csv").read_text().splitlines()[1][len("# config "):])
    assert csv_config == doc["config"]


def _run_module(*argv, **env):
    """`python -m radialmult.cli argv` in a subprocess, with `env` added to the environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **env}
    return subprocess.run(
        [sys.executable, "-m", "radialmult.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_exit_codes_through_module_entry_point(tmp_path):
    bad_flag = _run_module("demo", "--order", "8", "--out", str(tmp_path / "demo"))
    assert bad_flag.returncode == 2 and "unrecognized arguments" in bad_flag.stderr
    bad_tol = _run_module("positivity", "--symbol", "heat:t=1", "--tol", "inf",
                          "--out", str(tmp_path / "p"))
    assert bad_tol.returncode == 2 and "config error:" in bad_tol.stderr
    named_tol = _run_module("positivity", "--symbol", "heat:t=1", "--tol", "positivity=1e-8",
                            "--out", str(tmp_path / "q"))
    assert named_tol.returncode == 2 and "invalid float value" in named_tol.stderr
    ok = _run_module("converge", "--symbol", "heat:t=1", "--orders", "8,16",
                     "--out", str(tmp_path / "c"))
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "c" / "converge.csv").exists()


def test_radialize_files_are_byte_identical_at_any_blas_thread_count(tmp_path):
    # 65,536 sphere nodes per radius: long enough for OpenBLAS to split a dot
    # product across threads, which moved the last digits of both files
    argv = ["radialize", "--symbol", "gaussaniso:a11=1,a22=4,a33=2", "--n", "3",
            "--grid", "16", "--extent", "8", "--order", "256"]
    for threads in ("1", "2"):
        done = _run_module(*argv, "--out", str(tmp_path / threads), OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
    for name in ("profile.csv", "deviation.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise ValueError("permutation matrix must be 1x1")

    monkeypatch.setitem(SUBCOMMANDS, "demo", (broken, SUBCOMMANDS["demo"][1]))
    rc = main(["demo", "--grid", "8", "--extent", "4", "--out", str(tmp_path / "demo")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ValueError: permutation matrix must be 1x1")
    assert "Traceback" in err and "in broken" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["positivity", "--symbol", "monomial:a1=400", "--grid", "16", "--extent", "8"],
        ["radialize", "--symbol", "monomial:a1=400", "--grid", "16", "--extent", "8"],
        ["radialize", "--symbol", "modulation:a1=1e308,a2=0", "--grid", "16", "--extent", "8"],
        ["converge", "--symbol", "monomial:a1=400", "--r", "100", "--orders", "8,16"],
    ],
)
def test_non_finite_symbol_values_exit_3(tmp_path, capsys, argv):
    # xi_1^400 and 1e308 * xi_1 overflow on these spheres; a mean, verdict or
    # error computed from them would be NaN, so the run fails before writing
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([*argv, "--out", str(tmp_path)])
    assert rc == 3
    assert "internal error: ArithmeticError: symbol is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_json_files_hold_no_nan_or_infinity_token(tmp_path):
    def strict(token):
        raise AssertionError(f"{token} is not JSON")

    cfg = argparse.Namespace(command="demo")
    path = tmp_path / "doc.json"
    cli._write_json(str(path), cfg, {"up": np.float64("inf"), "down": [-np.inf], "x": np.float64(0.5)})
    doc = json.loads(path.read_text(), parse_constant=strict)
    assert (doc["up"], doc["down"], doc["x"]) == ("inf", ["-inf"], 0.5)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(str(tmp_path / "nan.json"), cfg, {"x": np.float64("nan")})
    assert not (tmp_path / "nan.json").exists()
