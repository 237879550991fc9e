import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expprod import cli, orders, propagate, qmc, schemes

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "scripts" / "models"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def chain_model(tmp_path):
    path = tmp_path / "chain6.json"
    path.write_text(json.dumps({
        "sites": 6,
        "bonds": [[i, i + 1, 1.0] for i in range(5)],
        "gamma": 1.0, "beta": 2.0,
    }))
    return str(path)


# ---------------------------------------------------------------------------
# bch
# ---------------------------------------------------------------------------

def test_bch_trotter_third_order(capsys):
    code, out, _ = run(capsys, "bch", "--stages", "A:x,B:x", "--order", "3")
    assert code == 0
    assert "degree 2: 1/2 [A,B]" in out
    assert "degree 3: 1/12 [A,[A,B]] + 1/12 [[A,B],B]" in out


def test_bch_strang_even_orders_vanish(capsys):
    code, out, _ = run(capsys, "bch", "--stages", "A:x/2,B:x,A:x/2", "--order", "4")
    assert code == 0
    assert "degree 2: 0" in out
    assert "degree 4: 0" in out


def test_bch_single_generator(capsys):
    code, out, _ = run(capsys, "bch", "--stages", "A:x", "--order", "5")
    assert code == 0
    assert out.splitlines()[0] == "degree 1: 1 A"
    assert all(line.endswith(": 0") for line in out.splitlines()[1:])


def test_bch_bad_stage_grammar(capsys):
    code, _, err = run(capsys, "bch", "--stages", "Ax", "--order", "3")
    assert code == cli.CONFIG_ERROR
    assert "config error" in err


@pytest.mark.parametrize("text,value", [
    ("x", 1), ("-x", -1), ("+x", 1), ("x/2", Fraction(1, 2)), ("7x/24", Fraction(7, 24)),
    ("2*x", 2), ("0.5x", Fraction(1, 2)), ("-1.5*x/3", Fraction(-1, 2)),
    (" 7 x / 24 ", Fraction(7, 24)), ("1/2", Fraction(1, 2)), ("0.75", Fraction(3, 4)), ("3", 3),
])
def test_stage_coefficients_keep_their_values(text, value):
    assert cli.parse_stage_coeff(text) == value


@pytest.mark.parametrize("text", ["2x3", "x/2/3", "x*x", "x+1", "xx", "x-1", "*x", "x/1.5",
                                  "0x10", "2**x", "x/", "1/2x", "x/0"])
def test_malformed_stage_coefficients_are_config_errors(capsys, text):
    # each of these once parsed to some value (2x3 to 23, x/2/3 to 3/2, x*x to 1)
    with pytest.raises(cli.ConfigError):
        cli.parse_stage_coeff(text)
    code, out, err = run(capsys, "bch", "--stages", f"A:{text},B:x", "--order", "2")
    assert code == cli.CONFIG_ERROR
    assert out == "" and "bad stage coefficient" in err


@pytest.mark.parametrize("order", [0, -2, orders.MAX_ORDER + 1, 30])
def test_bch_order_outside_the_cap_is_config_error(capsys, order):
    code, out, err = run(capsys, "bch", "--stages", "A:x,B:x", "--order", str(order))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert f"1..{orders.MAX_ORDER}" in err


def test_bch_runs_at_the_cap(capsys):
    code, out, _ = run(capsys, "bch", "--stages", "A:x,B:x", "--order", str(orders.MAX_ORDER))
    assert code == 0
    assert len(out.splitlines()) == orders.MAX_ORDER


# ---------------------------------------------------------------------------
# scheme
# ---------------------------------------------------------------------------

def test_scheme_list_names_everything(capsys):
    code, out, _ = run(capsys, "scheme", "list")
    assert code == 0
    for name in ("trotter", "strang", "suzuki8", "ruth", "hybrid_fourth",
                 "timeordered4"):
        assert name in out


def test_scheme_show_and_check(capsys):
    code, out, _ = run(capsys, "scheme", "show", "ruth")
    assert code == 0
    doc = json.loads(out)
    assert doc["stages"][0]["coeff"] == "7/24"
    code, out, _ = run(capsys, "scheme", "check", "suzuki4", "--order", "5")
    assert code == 0
    assert json.loads(out) == {"scheme": "suzuki4", "claimed": 4, "verified": 4}


def test_scheme_check_suzuki8_at_its_default_order(capsys):
    # the default order is claimed + 1 = 9, within the truncation cap
    code, out, _ = run(capsys, "scheme", "check", "suzuki8")
    assert code == 0
    assert json.loads(out) == {"scheme": "suzuki8", "claimed": 8, "verified": 8}


@pytest.mark.parametrize("order", ["0", "-3"])
def test_scheme_check_non_positive_order_is_config_error(capsys, order):
    code, out, err = run(capsys, "scheme", "check", "suzuki4", "--order", order)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "target order must be >= 1" in err


def test_scheme_list_refuses_out(tmp_path, capsys):
    out_path = tmp_path / "list.txt"
    code, out, err = run(capsys, "scheme", "list", "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "--out" in err
    assert not out_path.exists()


def test_scheme_list_refuses_a_name(capsys):
    code, out, err = run(capsys, "scheme", "list", "strang")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "no scheme name" in err


@pytest.mark.parametrize("action", [["list"], ["show", "strang"], ["flatten", "strang"]],
                         ids=["list", "show", "flatten"])
def test_scheme_order_outside_check_is_config_error(capsys, action):
    code, out, err = run(capsys, "scheme", *action, "--order", "3")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "--order needs scheme check" in err


def test_scheme_unknown_name(capsys):
    code, _, err = run(capsys, "scheme", "show", "nope")
    assert code == cli.CONFIG_ERROR


def test_scheme_show_prints_the_catalog_name(capsys):
    code, out, _ = run(capsys, "scheme", "show", "triple_jump4")
    assert code == 0
    assert json.loads(out)["name"] == "triple_jump4"


def test_commands_build_only_the_scheme_they_name(capsys, monkeypatch):
    def unbuildable():
        raise AssertionError("suzuki8 was built")

    monkeypatch.setitem(schemes.CATALOG, "suzuki8", unbuildable)
    code, _, _ = run(capsys, "timedep", "--scheme", "timeordered2", "--steps", "4",
                     "--sample-every", "2")
    assert code == 0
    code, out, _ = run(capsys, "scheme", "check", "suzuki4")
    assert code == 0
    assert json.loads(out)["verified"] == 4


# ---------------------------------------------------------------------------
# solve / family
# ---------------------------------------------------------------------------

def test_solve_prints_exact_rationals(capsys):
    code, out, _ = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3",
                       "--fix", "p6=1",
                       "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["solution_exact"] == {"p1": "7/24", "p2": "2/3", "p3": "3/4",
                                     "p4": "-2/3", "p5": "-1/24", "p6": "1"}


def test_solve_nonconvergence_exit_code(capsys):
    # order 3 on pattern ABA has no real solution reachable from this guess
    code, out, _ = run(capsys, "solve", "--pattern", "ABA", "--order", "3",
                       "--guess", "p1=0.5,p2=0.5,p3=0.5")
    assert code == cli.NONCONVERGENCE
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["diagnostics"] == "stalled (no descent along Newton direction)"


def test_solve_diagnostics_only_when_not_converged(capsys):
    code, out, _ = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3",
                       "--fix", "p6=1",
                       "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05")
    assert code == 0
    assert "diagnostics" not in json.loads(out)
    # p6 = 0.2 from the family's continuation guess, past the fold where the
    # real branch ends: Newton creeps for all 200 iterations
    code, out, _ = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3",
                       "--fix", "p6=0.2",
                       "--guess", "p1=0.2541563017600742,p2=0.634995854037363,"
                       "p3=1.4999999999999998,p4=-0.03499585403736303,p5=-0.7541563017600739")
    assert code == cli.NONCONVERGENCE
    doc = json.loads(out)
    assert doc["iterations"] == orders.SOLVE_MAX_ITER
    assert doc["diagnostics"] == f"no convergence in {orders.SOLVE_MAX_ITER} iterations"


@pytest.mark.parametrize("extra", [
    ["--fix", "p9=1", "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05,p6=1"],
    ["--fix", "p6=1", "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05,zz=4"],
], ids=["fix", "guess"])
def test_solve_refuses_names_the_pattern_lacks(capsys, extra):
    code, out, err = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3", *extra)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert ("'p9'" if "p9=1" in extra else "'zz'") in err


@pytest.mark.parametrize("extra", [
    ["--fix", "p6=1,p6=2", "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"],
    ["--fix", "p6=1", "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05,p1=0.3"],
], ids=["fix", "guess"])
def test_solve_refuses_a_name_given_twice(capsys, extra):
    code, out, err = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3", *extra)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert ("'p6'" if "p6=1,p6=2" in extra else "'p1'") + " is assigned twice" in err


def test_solve_norm_overflow_prints_no_warning(capsys):
    # the residual norm overflows the float range (it reads inf); nothing goes to stderr
    code, out, err = run(capsys, "solve", "--pattern", "ABA", "--order", "2",
                         "--guess", "p1=1e200,p2=-1,p3=0")
    assert code == cli.NONCONVERGENCE
    assert json.loads(out)["converged"] is False
    assert err == ""


def test_solve_overflow_exits_3_with_json(capsys):
    code, out, err = run(capsys, "solve", "--pattern", "ABABAB", "--order", "3",
                         "--fix", "p6=1", "--guess", "p1=1e200,p2=1,p3=1,p4=1,p5=1")
    assert code == cli.NONCONVERGENCE
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert "OverflowError" in doc["diagnostics"]
    assert "Traceback" not in out + err


def test_solve_non_finite_jacobian_exits_3_without_lapack_text(capfd):
    # the Jacobian overflows at this guess; LAPACK would write to the stdout
    # file descriptor itself, so the check reads the descriptors, not sys.stdout
    code = cli.main(["solve", "--pattern", "ABABA", "--order", "4",
                     "--guess", "p1=0,p2=1e100,p3=0,p4=-1e150,p5=0"])
    out, err = capfd.readouterr()
    assert code == cli.NONCONVERGENCE
    doc = _strict_json(out)
    assert doc["converged"] is False
    assert doc["diagnostics"] == "non-finite Jacobian or residual"
    assert "DLASCL" not in out + err and err == ""


def test_family_csv_with_ruth_row(tmp_path, capsys):
    out_path = tmp_path / "family.csv"
    code, _, _ = run(capsys, "family", "--p6", "0.9:1.1:0.1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "p6,p1,p2,p3,p4,p5,max_residual,converged"
    ruth_row = [ln for ln in lines[1:] if ln.startswith("1,")]
    assert ruth_row and ruth_row[0].endswith("true")
    assert (tmp_path / "family.csv.manifest.json").exists()


def test_family_csv_pinned(tmp_path, capsys):
    # the benchmark's grid, byte for byte: Newton residuals must not move a bit
    out_path = tmp_path / "family.csv"
    code, _, _ = run(capsys, "family", "--p6", "0.2:1.4:0.2", "--out", str(out_path))
    assert code == 0
    assert (hashlib.sha256(out_path.read_bytes()).hexdigest()
            == "63d60a9d3756f69a516e9b2a2a2d629ff485f5a32b3c8728b15816dcfb3f8f28")


def test_ruth_family_demo_script_pinned(tmp_path):
    # the README grid (22 converged, 3 flagged rows), run as shipped
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ruth_family_demo.py"),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "family.csv").read_text()
    assert [row.rsplit(",", 1)[1] for row in text.splitlines()[1:]].count("true") == 22
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "e163b1c8d58b05a3a50e13f5cf41f34a76ae62b6c474cce66de8633bf74f6652")


def test_family_stdout_is_the_out_file(tmp_path, capsys):
    # p6 = 0 is a flagged (unconverged) row
    out_path = tmp_path / "family.csv"
    code, _, _ = run(capsys, "family", "--p6", "0:1.4:0.2", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "family", "--p6", "0:1.4:0.2")
    assert code == 0
    assert out.encode() == out_path.read_bytes()


def test_family_overflow_exits_3_without_a_file(tmp_path, capsys):
    out_path = tmp_path / "family.csv"
    code, out, _ = run(capsys, "family", "--p6", "1e308:1e308:1e300", "--out", str(out_path))
    assert code == cli.NONCONVERGENCE
    assert "OverflowError" in json.loads(out)["diagnostics"]
    assert not out_path.exists()
    assert not (tmp_path / "family.csv.manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["family", "--p6", "1:0.5:0.1"],
    ["converge", "--scheme", "strang", "--dt-list", "1:0.5:0.1"],
])
def test_descending_range_is_config_error(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "is empty" in err
    assert not out_path.exists()


@pytest.mark.parametrize("p6", ["1,inf", "1:2:nan"])
def test_non_finite_range_is_config_error(tmp_path, capsys, p6):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, "family", "--p6", p6, "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "non-finite" in err
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------

def test_converge_strang_slope(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code, out, _ = run(capsys, "converge", "--scheme", "strang", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["slope"] - 2.0) < 0.2
    lines = out_path.read_text().splitlines()
    assert lines[0] == "dt,error"
    assert len(lines) == len(doc["dt"]) + 1


def test_converge_ruth_slope(capsys):
    code, out, _ = run(capsys, "converge", "--scheme", "ruth")
    assert code == 0
    assert abs(json.loads(out)["slope"] - 3.0) < 0.2


@pytest.mark.parametrize("dt_list", ["0.1,0.1", "0.1,0.1,0.1"])
def test_converge_at_one_distinct_dt_has_no_slope(capsys, dt_list):
    # a repeated dt is one point of the fit, however often it is listed
    code, out, err = run(capsys, "converge", "--scheme", "strang", "--dt-list", dt_list)
    assert code == cli.NONCONVERGENCE
    assert json.loads(out)["slope"] is None
    assert json.loads(out)["diagnostics"] == "fewer than 2 distinct dt above the roundoff floor"
    assert err == ""


def test_converge_fits_a_repeated_dt_once(capsys):
    code, out, _ = run(capsys, "converge", "--scheme", "strang", "--dt-list", "0.1,0.05,0.1")
    assert code == 0
    repeated = json.loads(out)
    code, out, _ = run(capsys, "converge", "--scheme", "strang", "--dt-list", "0.1,0.05")
    assert code == 0
    distinct = json.loads(out)
    assert repeated["dt"] == [0.1, 0.05, 0.1]
    assert repeated["points_used"] == distinct["points_used"] == 2
    assert repeated["slope"] == distinct["slope"]


# ---------------------------------------------------------------------------
# demo runs
# ---------------------------------------------------------------------------

def test_precession_csv_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run(capsys, "precession", "--scheme", "strang",
                         "--dt", "1e-3", "--steps", "2000",
                         "--sample-every", "500", "--out", str(path))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "t,energy,norm"
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["config"]["dt"] == 1e-3


def test_precession_overflow_prints_only_its_json(capsys):
    # the perturbative step overflows at the first step; no numpy warning may escape
    code, out, err = run(capsys, "precession", "--scheme", "perturbative", "--dt", "1e200",
                         "--steps", "3", "--sample-every", "1")
    assert code == cli.NONCONVERGENCE
    assert json.loads(out) == {"command": "precession", "diagnostics": "non-finite result",
                               "step": 1, "t": 1e200, "columns": ["energy", "norm"]}
    assert err == ""


def test_precession_overflow_mid_run_exits_3_without_data(tmp_path, capsys):
    # the norm grows by sqrt(1 + dt^2 <H^2>) per step and leaves the float
    # range between the rows at steps 700 and 800
    out_path = tmp_path / "p.csv"
    code, out, err = run(capsys, "precession", "--scheme", "perturbative", "--dt", "1",
                         "--steps", "4000", "--sample-every", "100", "--out", str(out_path))
    assert code == cli.NONCONVERGENCE
    assert out == ('{"command": "precession", "diagnostics": "non-finite result", '
                   '"step": 800, "t": 800.0, "columns": ["energy", "norm"]}\n')
    assert err == ""
    assert list(tmp_path.iterdir()) == []


def test_umeno_csv(tmp_path, capsys):
    out_path = tmp_path / "u.csv"
    code, _, _ = run(capsys, "umeno", "--scheme", "trotter", "--dt", "1e-3",
                     "--steps", "5000", "--sample-every", "1000",
                     "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,energy,q1,q2"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0, abs=1e-9)


def test_timedep_needs_t_slot(capsys):
    code, _, err = run(capsys, "timedep", "--scheme", "strang")
    assert code == cli.CONFIG_ERROR


def test_timedep_trajectory(tmp_path, capsys):
    out_path = tmp_path / "td.csv"
    code, _, _ = run(capsys, "timedep", "--scheme", "timeordered2",
                     "--dt", "0.05", "--steps", "20", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,re0,im0,re1,im1,norm"
    final_norm = float(lines[-1].split(",")[-1])
    assert final_norm == pytest.approx(1.0, abs=1e-12)


def test_timedep_rows_sit_at_t0_plus_k_dt(tmp_path, capsys):
    out_path = tmp_path / "td.csv"
    code, _, _ = run(capsys, "timedep", "--scheme", "timeordered2", "--t0", "0.5",
                     "--dt", "0.05", "--steps", "7", "--sample-every", "3",
                     "--out", str(out_path))
    assert code == 0
    times = [float(line.split(",")[0]) for line in out_path.read_text().splitlines()[1:]]
    assert times == [0.5 + k * 0.05 for k in (0, 3, 6, 7)]


def test_timedep_final_state_matches_one_run(tmp_path, capsys):
    # the rows are read off one pass over the whole run, so they do not
    # depend on --sample-every, not even in the last bit
    ref = propagate.run_timeordered(schemes.CATALOG["timeordered4"](),
                                    propagate.driven_two_level(),
                                    0.3, 0.02, 50, propagate.QuantumState.up(2)).vector
    for every in (1, 7, 10, 50):
        out_path = tmp_path / f"td{every}.csv"
        code, _, _ = run(capsys, "timedep", "--scheme", "timeordered4", "--t0", "0.3",
                         "--dt", "0.02", "--steps", "50", "--sample-every", str(every),
                         "--out", str(out_path))
        assert code == 0
        last = [float(v) for v in out_path.read_text().splitlines()[-1].split(",")]
        assert last[1:5] == [ref[0].real, ref[0].imag, ref[1].real, ref[1].imag], every


# every scheme through every stepping command: a run either works (exit 0, or
# 3 when too few converge points clear the floor) or refuses the pairing (2)
STEPPING_COMMANDS = {
    "precession": ["precession", "--dt", "0.01", "--steps", "20", "--sample-every", "5"],
    "umeno": ["umeno", "--dt", "0.01", "--steps", "20", "--sample-every", "5"],
    "timedep": ["timedep", "--dt", "0.05", "--steps", "4", "--sample-every", "2"],
    "converge": ["converge", "--dt-list", "0.5,0.25", "--t-final", "0.5"],
    "converge_driven": ["converge", "--system", "driven", "--dt-list", "0.5,0.25",
                        "--t-final", "0.5"],
}
CATALOG = schemes.catalog()


def _pairing_is_valid(command: str, name: str) -> bool:
    if name in ("perturbative", "euler"):
        return (command, name) in {("precession", "perturbative"), ("umeno", "euler")}
    sch = CATALOG[name]
    timed = "T" in sch.slots
    if command in ("timedep", "converge_driven"):
        return timed
    if command == "umeno":
        return not timed and not any(st.is_commutator() for st in sch.stages)
    return not timed


@pytest.mark.parametrize("command", sorted(STEPPING_COMMANDS))
@pytest.mark.parametrize("name", sorted(CATALOG) + ["perturbative", "euler"])
def test_every_scheme_through_every_stepping_command(tmp_path, capsys, command, name):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *STEPPING_COMMANDS[command], "--scheme", name,
                         "--out", str(out_path))
    assert "Traceback" not in out + err
    if _pairing_is_valid(command, name):
        assert code in (0, cli.NONCONVERGENCE)
    else:
        assert code == cli.CONFIG_ERROR
        assert not out_path.exists()


@pytest.mark.parametrize("command,name,expected", [
    ("precession", "timeordered2",
     "precession steps two-slot schemes (slots=AB in `scheme list`); step a scheme with a "
     "T slot with `timedep` or `converge --system driven`"),
    ("umeno", "timeordered4",
     "umeno steps two-slot schemes (slots=AB in `scheme list`); step a scheme with a "
     "T slot with `timedep` or `converge --system driven`"),
    ("converge", "timeordered1",
     "converge --system spin steps two-slot schemes (slots=AB in `scheme list`); step a "
     "scheme with a T slot with `timedep` or `converge --system driven`"),
    ("converge_driven", "strang",
     "converge --system driven needs a scheme with a T slot (slots=ABT in `scheme list`); "
     "step a two-slot scheme with `precession`, `umeno` or `converge --system spin`"),
    ("timedep", "trotter",
     "timedep needs a scheme with a T slot (slots=ABT in `scheme list`); step a two-slot "
     "scheme with `precession`, `umeno` or `converge --system spin`"),
    ("umeno", "hybrid_fourth",
     "umeno steps no commutator stage; step a scheme with commutator stages with "
     "`precession` or `converge --system spin`"),
], ids=["precession", "umeno", "converge", "converge_driven", "timedep", "umeno_commutator"])
def test_a_scheme_with_the_wrong_slots_names_the_commands_that_step_it(
        capsys, command, name, expected):
    code, out, err = run(capsys, *STEPPING_COMMANDS[command], "--scheme", name)
    assert code == cli.CONFIG_ERROR
    assert (out, err) == ("", f"config error: {expected}\n")


# data files (and converge's stdout) recorded before the propagation layer
# read schemes through one stage plan; static stepping must not move a bit.
# The three unitary precession pins were re-recorded when the 2x2 step moved
# from np.dot to Python complex arithmetic: numpy's kernels round complex
# products differently from Python (as fused multiply-adds would), so the
# last bits of those rows moved, staying within 1e-12 of the np.dot loop
# (tests/test_propagate.py checks that).  The perturbative step I - i dt H,
# whose entries have real parts 0 and 1 only, kept its pin.
PINNED_DATA = [
    (["precession", "--scheme", "trotter"],
     "545e24ae8462bc136b8472caaa36fce7667a263b78aa63c1ff712da760557eea"),
    (["precession", "--scheme", "suzuki4"],
     "bff054675c3f8140cb7a0eebbf19b41059081516e33240b9acd9599f977b3dc7"),
    (["precession", "--scheme", "hybrid_fourth"],
     "c3a94ffd454a34398700b4a82e8b0161bcdf28171282b944f1c52b423837a54f"),
    (["precession", "--scheme", "perturbative"],
     "552a28747d4321dac05f56e451f763b94d6f6f5159cf8b0f65757805022880c8"),
    (["umeno", "--scheme", "trotter"],
     "3d92e1f60156a58907038478df21c0b260283fe43e16b4ef686e0af9610235f7"),
    (["umeno", "--scheme", "suzuki4"],
     "9574f84428a8315736831d7a8b5e7b0fd1253dcf5e4705b90da5fc77a2d38df3"),
    (["umeno", "--scheme", "euler"],
     "819babb1fd912e55db7e99f2f2abfb6f094b8774b00deab85251baa064282a52"),
]
TRAJECTORY_SIZE = ["--dt", "1e-3", "--steps", "2000", "--sample-every", "100"]


@pytest.mark.parametrize("argv,digest", PINNED_DATA, ids=[" ".join(a) for a, _ in PINNED_DATA])
def test_static_stepping_data_pinned(tmp_path, capsys, argv, digest):
    out_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, *TRAJECTORY_SIZE, "--out", str(out_path))
    assert code == 0 and out == ""
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_converge_suzuki8_pinned(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code, out, _ = run(capsys, "converge", "--scheme", "suzuki8", "--out", str(out_path))
    assert code == 0
    assert (hashlib.sha256(out_path.read_bytes()).hexdigest()
            == "2d915e0c9a1c0d3c1c3bc0e57d6658305b9081732c5c248b34db389ec46d4431")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "bf36b215a839c85b0cf879aff4aad20396f312153af0ff0757b6387d451f641c")


# time-ordered output recorded with every stage factor built in its slot's
# fixed eigenbasis; how a run is split into chunks or calls must not move a
# bit.  The driven converge entry is taken against the timeordered4 reference
# at 1/32 of the finest dt.
PINNED_TIMEORDERED = [
    (["timedep", "--scheme", "timeordered4", "--dt", "0.01", "--steps", "250"],
     "dfd2c2c9803dde33972dccc8b3e8c3393d0903ef1285d97fc3b5ac44446eaf89",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["converge", "--scheme", "timeordered4", "--system", "driven",
      "--dt-list", "0.25,0.125,0.0625"],
     "e3eb82f5d769547b67bb1f474c4af0c26daf004448c899e813199919c968e753",
     "c3941b581d4b221d4b05c79d584ee89ef0ac467e818da663d8d63224cbd9da38"),
]


@pytest.mark.parametrize("argv,file_digest,stdout_digest", PINNED_TIMEORDERED,
                         ids=[a[0] for a, _, _ in PINNED_TIMEORDERED])
def test_timeordered_output_pinned(tmp_path, capsys, argv, file_digest, stdout_digest):
    out_path = tmp_path / "out.csv"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == file_digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


@pytest.mark.parametrize("argv", [
    ["family", "--p6", "1"],
    ["precession", "--steps", "10"],
    ["converge", "--scheme", "strang"],
    ["qmc", "--model", str(MODELS / "pair.json"), "--n", "2", "--sweeps", "10"],
    ["anneal", "--model", str(MODELS / "pair.json"), "--sweeps", "2"],
], ids=lambda argv: argv[0])
def test_out_into_a_missing_directory_is_config_error(tmp_path, capsys, argv):
    out_path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert "--out directory" in err
    assert "Traceback" not in out + err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["bch", "--stages", "A:x,B:x", "--order", "2"],
    ["scheme", "show", "strang"],
    ["solve", "--pattern", "ABA", "--order", "2", "--fix", "p3=0.5", "--guess", "p1=0.4,p2=0.9"],
    ["family", "--p6", "1"],
    ["converge", "--scheme", "strang"],
    ["precession", "--steps", "10"],
    ["qmc", "--model", str(MODELS / "pair.json"), "--n", "2", "--sweeps", "10"],
    ["anneal", "--model", str(MODELS / "pair.json"), "--sweeps", "2"],
    ["extrapolate", "--model", str(MODELS / "pair.json"), "--n-list", "2,3,4"],
], ids=lambda argv: " ".join(argv[:2]) if argv[0] == "scheme" else argv[0])
def test_out_that_cannot_be_written_is_config_error(tmp_path, capsys, argv):
    # qmc writes <out>.json, so that name is the directory in its way
    out_path = tmp_path / "out"
    (tmp_path / ("out.json" if argv[0] == "qmc" else "out")).mkdir()
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert "config error" in err
    assert "Traceback" not in out + err


def test_converge_takes_at_least_one_step(capsys):
    # a dt beyond twice t_final is one step, not zero steps with a roundoff error
    code, out, _ = run(capsys, "converge", "--scheme", "strang", "--dt-list", "5,10")
    doc = json.loads(out)
    assert code == cli.NONCONVERGENCE
    assert all(e > 1e-3 for e in doc["error"])


@pytest.mark.parametrize("argv", [
    ["precession", "--sample-every", "0"],
    ["precession", "--steps", "-5"],
    ["converge", "--scheme", "suzuki4", "--dt-list", "0"],
    ["umeno", "--dt", "-1"],
    ["timedep", "--sample-every", "0"],
], ids=" ".join)
def test_non_positive_step_arguments_are_config_errors(tmp_path, capsys, argv):
    out_path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert "must be positive" in err
    assert "Traceback" not in out + err
    assert not out_path.exists()


def test_non_finite_trajectory_exits_3_without_data(tmp_path, capsys):
    out_path = tmp_path / "u.csv"
    code, out, _ = run(capsys, "umeno", "--dt", "0.5", "--steps", "2000",
                       "--sample-every", "100", "--out", str(out_path))
    assert code == cli.NONCONVERGENCE
    doc = json.loads(out)
    assert doc["command"] == "umeno"
    assert doc["diagnostics"] == "non-finite result"
    assert doc["step"] % 100 == 0 and doc["t"] == 0.5 * doc["step"]
    assert not out_path.exists()
    assert not (tmp_path / "u.csv.manifest.json").exists()


def test_non_finite_time_is_strict_json_null(capsys):
    code, out, _ = run(capsys, "umeno", "--dt", "1e308", "--steps", "10",
                       "--sample-every", "5")
    assert code == cli.NONCONVERGENCE
    doc = _strict_json(out)
    assert doc["t"] is None and "t" in doc["columns"]


# stdout of the exact layer's commands, byte for byte
PINNED_STDOUT = [
    (["bch", "--stages", "A:x,B:x", "--order", "6"],
     "04743b5bc852c51d0f04b6e3d5d39bc80b53d632074f5ef3084b8f7fc38d4d29"),
    (["bch", "--stages", "A:x/2,B:x,A:x/2", "--order", "6", "--format", "json"],
     "32494b99adbd3735d596bdc719e18ad0bd466074f14a310fd47c9107ecddf435"),
    (["solve", "--pattern", "ABABAB", "--order", "3", "--fix", "p6=1",
      "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"],
     "583ba65c9f6d848d5c0fdfcbd56fbaf627b7083e703c91b9e282bf8f3ad1952b"),
    (["scheme", "check", "suzuki4"],
     "778d47583dc30c1096bf38473ed78588fe73f5a5c9abed9e98e4b448ff43b07d"),
    (["scheme", "check", "suzuki6"],
     "672b85a0cea48ccc8f320e0d3c9bb2b299e55b7ab8463ab62b01101572f1b1bf"),
    (["scheme", "check", "timeordered4"],
     "73a2e1396beda2e6ab67dd31ff27e3f990b775e1e6e1f730e465db7d10c237e5"),
    (["scheme", "check", "hybrid_fourth"],
     "2173ce71c9cb90d9c8db097ed6f77f79f79614cc7d84a3d23721632ff8d3891d"),
    (["scheme", "check", "ruth"],
     "86097392b92ba9fdfbb34cd47b802bba4c9e7ce67772d1872ff1f3c99de40ee3"),
    (["scheme", "check", "suzuki8", "--order", "8"],
     "a162c65fe7733bb9cfb832c67683a0adc06b3030c16a02699e41faae35067423"),
    (["scheme", "check", "triple_jump4"],
     "aae6a87519ef117af43f62c4a1a395c511e73dbd9f19c6f5ac0f7627486a5cd0"),
    # a three-letter check at the truncation cap prints the default-order line
    (["scheme", "check", "timeordered4", "--order", "9"],
     "73a2e1396beda2e6ab67dd31ff27e3f990b775e1e6e1f730e465db7d10c237e5"),
    (["scheme", "list"],
     "a307e5b37aea94a6e1ebf5eeac400e71a0efa1b918899f1f523134412f9ed4b9"),
    (["scheme", "show", "suzuki8"],
     "f28bd294153c4c978c8cfe4281671c7978d537456178f7e77d0baef1809adddf"),
    (["scheme", "show", "timeordered4"],
     "46aa46f307ce86f751126231ad41c9dcd9b5f17861f9e916760823779bf7570c"),
    (["scheme", "show", "hybrid_fourth"],
     "11d49a8a2f1d5c278d8c4ba88119b4cbca8cddded4883244def4c9f2aad02353"),
    (["scheme", "flatten", "suzuki6"],
     "9f172af21ee198018d3e408224bde82e034ac3e61ff2ae9f9b90f61b61816509"),
    (["scheme", "flatten", "triple_jump4"],
     "2a20dcfc7df3a811445d8b928899d0d06a27382d0d363d08e2fbf590fa303722"),
]


def _pinned_ids(entries):
    """First three words of each command; the whole command once those repeat."""
    ids: list[str] = []
    for argv, _ in entries:
        short = " ".join(argv[:3])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=_pinned_ids(PINNED_STDOUT))
def test_exact_commands_stdout_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# qmc subcommands
# ---------------------------------------------------------------------------

def test_qmc_run_repeatable(tmp_path, chain_model, capsys):
    args = ["qmc", "--model", chain_model, "--n", "4", "--sweeps", "500",
            "--therm", "100", "--seed", "42"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 42 and doc["n"] == 4
    assert len(doc["bond_zz"]) == 5


def test_qmc_writes_traces_and_manifest(tmp_path, chain_model, capsys):
    base = tmp_path / "run"
    code, _, _ = run(capsys, "qmc", "--model", chain_model, "--n", "4",
                     "--sweeps", "300", "--therm", "50", "--seed", "1",
                     "--out", str(base))
    assert code == 0
    assert (tmp_path / "run.json").exists()
    traces = (tmp_path / "run.traces.csv").read_text().splitlines()
    assert traces[0] == "sweep,bond_zz,trotter_corr,diag_energy,sigma_x"
    assert len(traces) == 250 + 1
    assert (tmp_path / "run.manifest.json").exists()


def test_qmc_out_samples_the_chain_once(tmp_path, chain_model, capsys, monkeypatch):
    calls = []
    sweep = qmc._Sampler.sweep

    def counted(self):
        calls.append(1)
        sweep(self)

    monkeypatch.setattr(qmc._Sampler, "sweep", counted)
    code, _, _ = run(capsys, "qmc", "--model", chain_model, "--n", "4",
                     "--sweeps", "300", "--out", str(tmp_path / "run"))
    assert code == 0
    assert len(calls) == 300


def _qmc_out_digests(tmp_path, capsys, model, n, sweeps, seed):
    code, _, _ = run(capsys, "qmc", "--model", str(MODELS / model), "--n", n,
                     "--sweeps", sweeps, "--seed", seed, "--out", str(tmp_path / "run"))
    assert code == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("run.json", "run.traces.csv")}


def test_qmc_out_files_pinned(tmp_path, capsys):
    # stats and traces of one fixed-seed chain, byte for byte
    assert _qmc_out_digests(tmp_path, capsys, "pair.json", "8", "500", "9") == {
        "run.json": "7a96c35c7c276a09f22470f10456dc499b446a58e49e5b5768383cd2e6d8178a",
        "run.traces.csv": "cc3b7aecb8b2ed39ac32226e40aed94a61b3361c8e0314060ad969eb8d057a7e",
    }


def test_qmc_out_files_pinned_on_a_chain(tmp_path, capsys):
    # five bonds, so the order of the bond sums behind diag_energy is pinned too
    assert _qmc_out_digests(tmp_path, capsys, "chain6.json", "6", "400", "5") == {
        "run.json": "d3d437ea4cf518fe61f8187ffdbf549456e34ec276f34b76d1b8773bb88c8ce7",
        "run.traces.csv": "eab9a6a6367a2f18cb71cbd2b8c34f338d435278426e21e75b09e58dbad2671b",
    }


def test_qmc_scientific_notation_sweeps(chain_model, capsys):
    code, out, _ = run(capsys, "qmc", "--model", chain_model, "--n", "2",
                       "--sweeps", "1e3", "--therm", "2e2", "--seed", "7")
    assert code == 0
    assert json.loads(out)["sweeps"] == 1000


@pytest.mark.parametrize("argv", [
    ["qmc", "--n", "2", "--sweeps", "10.9", "--therm", "2"],
    ["qmc", "--n", "2", "--sweeps", "10", "--therm", "2.7"],
    ["qmc", "--n", "2", "--sweeps", "1.55e1"],
    ["extrapolate", "--n-list", "2,3,4", "--sweeps", "0.5"],
], ids=" ".join)
def test_fractional_sweep_counts_are_config_errors(chain_model, capsys, argv):
    code, out, err = run(capsys, *argv, "--model", chain_model)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "must be a whole number" in err


def test_anneal_cli(capsys):
    model = MODELS / "frustrated4.json"
    code, out, _ = run(capsys, "anneal", "--model", str(model), "--n", "8",
                       "--schedule", "2.5:1e-4:14", "--sweeps", "60", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc.keys() == {"energy", "configuration", "stage_energies", "seed", "schedule"}
    assert doc["energy"] <= -3.0
    assert len(doc["configuration"]) == 4


def test_anneal_out_file_pinned(tmp_path, capsys):
    # the README's anneal command, byte for byte
    out_path = tmp_path / "a.json"
    code, _, _ = run(capsys, "anneal", "--model", str(MODELS / "frustrated4.json"),
                     "--schedule", "2.5:1e-4:14", "--sweeps", "60", "--seed", "3",
                     "--out", str(out_path))
    assert code == 0
    assert (hashlib.sha256(out_path.read_bytes()).hexdigest()
            == "8d36f737621e317f26ff02bc28a402870f8f7c0fc0473ff3d059661453db9fcd")


def test_manifests_echo_the_resolved_configuration(tmp_path, capsys):
    conv = tmp_path / "conv.csv"
    code, _, _ = run(capsys, "converge", "--scheme", "strang", "--dt-list", "0.1,0.05",
                     "--out", str(conv))
    assert code == 0
    manifest = json.loads((tmp_path / "conv.csv.manifest.json").read_text())
    assert manifest["command"] == "converge"
    assert manifest["config"] == {"scheme": "strang", "system": "spin", "dt_list": "0.1,0.05",
                                  "dt": [0.1, 0.05], "t_final": 1.0}
    check = tmp_path / "suzuki4.json"
    code, _, _ = run(capsys, "scheme", "check", "suzuki4", "--order", "5", "--out", str(check))
    assert code == 0
    manifest = json.loads((tmp_path / "suzuki4.json.manifest.json").read_text())
    assert manifest["config"] == {"action": "check", "name": "suzuki4", "order": 5}
    model = MODELS / "frustrated4.json"
    ann = tmp_path / "anneal.json"
    code, _, _ = run(capsys, "anneal", "--model", str(model), "--sweeps", "2",
                     "--out", str(ann))
    assert code == 0
    manifest = json.loads((tmp_path / "anneal.json.manifest.json").read_text())
    assert manifest["config"]["schedule"] == qmc.anneal_schedule()


@pytest.mark.parametrize("argv,resolved", [
    (["solve", "--pattern", "ABA", "--order", "2", "--fix", "p3=0.5"], {}),
    (["anneal", "--model", str(MODELS / "pair.json"), "--sweeps", "2"],
     {"schedule": qmc.anneal_schedule()}),
    (["extrapolate", "--model", str(MODELS / "pair.json"), "--n-list", "2,3,4"],
     {"sweeps": 0}),
    (["scheme", "check", "suzuki4"], {"action": "check", "name": "suzuki4"}),
    (["bch", "--stages", "A:x/2,B:x,A:x/2", "--order", "3", "--format", "json"], {}),
], ids=["solve", "anneal", "extrapolate", "scheme_check", "bch"])
def test_json_commands_write_their_stdout_document(tmp_path, capsys, argv, resolved):
    out_path = tmp_path / "doc.json"
    code, out, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    manifest = json.loads((tmp_path / "doc.json.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert resolved.items() <= manifest["config"].items()


@pytest.mark.parametrize("name", ["hybrid_fourth", "suzuki4"])
def test_scheme_flatten_writes_its_stdout_table(tmp_path, capsys, name):
    out_path = tmp_path / "flat.txt"
    code, out, _ = run(capsys, "scheme", "flatten", name, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == out.encode()
    assert (tmp_path / "flat.txt.manifest.json").exists()


_EXIT_3_RUNS = {
    "solve": ["solve", "--pattern", "ABA", "--order", "3", "--guess", "p1=0.5,p2=0.5,p3=0.5"],
    "converge": ["converge", "--scheme", "strang", "--dt-list", "0.1,0.1"],
    "scheme_check": ["scheme", "check", "suzuki4"],
}
_EXIT_2_FLAGS = {"solve": ["--fix", "p9=1"], "converge": ["--t-final", "-1"],
                 "scheme_check": ["--order", "0"]}


@pytest.mark.parametrize("command", list(_EXIT_3_RUNS))
def test_exit_2_writes_nothing_and_exit_3_writes_what_it_prints(tmp_path, capsys,
                                                               monkeypatch, command):
    out_path = tmp_path / "out"
    code, out, _ = run(capsys, *_EXIT_3_RUNS[command], *_EXIT_2_FLAGS[command],
                       "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert list(tmp_path.iterdir()) == []
    # no catalog scheme fails its check, so this one verifies below its claim
    monkeypatch.setattr(orders, "verify_order", lambda sch, m: sch.claimed_order - 1)
    code, out, _ = run(capsys, *_EXIT_3_RUNS[command], "--out", str(out_path))
    assert code == cli.NONCONVERGENCE
    assert (tmp_path / "out.manifest.json").exists()
    if command == "converge":  # the printed points, as the CSV table
        doc = json.loads(out)
        rows = [line.split(",") for line in out_path.read_text().splitlines()]
        assert rows == [["dt", "error"], *([cli._fmt(d), cli._fmt(e)]
                                           for d, e in zip(doc["dt"], doc["error"]))]
    else:
        assert out_path.read_bytes() == out.encode()


def test_anneal_one_stage_schedule_is_config_error(capsys):
    model = MODELS / "frustrated4.json"
    code, out, err = run(capsys, "anneal", "--model", str(model),
                         "--schedule", "2.5:1e-4:1")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "at least 2 stages" in err


@pytest.mark.parametrize("schedule", ["1:nan:5", "inf:1:3", "1:-0.5:5"])
def test_anneal_bad_schedule_is_config_error(tmp_path, capsys, schedule):
    out_path = tmp_path / "anneal.json"
    code, out, err = run(capsys, "anneal", "--model", str(MODELS / "frustrated4.json"),
                         f"--schedule={schedule}", "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "finite and positive" in err
    assert not out_path.exists()


def test_anneal_schedule_ending_in_a_zero_field_is_config_error(tmp_path, capsys):
    # the ramp's ratio 5e-324 / 2.5 underflows to 0, so the last field is 0
    out_path = tmp_path / "anneal.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "anneal", "--model", str(MODELS / "frustrated4.json"),
                             "--schedule", "2.5:5e-324:2", "--out", str(out_path))
    assert code == cli.CONFIG_ERROR
    assert (out, caught) == ("", [])
    assert err == "config error: Gamma = 0: inter-layer coupling diverges; treat layers as locked\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["qmc", "--n", "4", "--sweeps", "20"],
                                     ["extrapolate", "--n-list", "4,6", "--sweeps", "0"]])
@pytest.mark.parametrize("model", [
    {"sites": 2, "bonds": [[0, 1, 1.0]], "gamma": float("nan"), "beta": 1.0},
    {"sites": 2, "bonds": [[0, 1, float("inf")]], "gamma": 1.0, "beta": 1.0},
], ids=["nan-gamma", "inf-bond"])
def test_non_finite_model_is_config_error(tmp_path, capsys, command, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, command[0], "--model", str(path), *command[1:])
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "must be finite" in err


_PAIR_DOC = {"sites": 2, "bonds": [[0, 1, 1.0]], "gamma": 1.0, "beta": 1.0}


@pytest.mark.parametrize("command", [["qmc", "--n", "4", "--sweeps", "20"],
                                     ["anneal", "--sweeps", "1"],
                                     ["extrapolate", "--n-list", "4,6", "--sweeps", "0"]])
@pytest.mark.parametrize("doc, message", [
    ({**_PAIR_DOC, "bonds": 5}, "bonds must be a list of [i, j, weight] triples"),
    ({**_PAIR_DOC, "bonds": [5]}, "bonds must be a list of [i, j, weight] triples"),
    ({**_PAIR_DOC, "bonds": [[0, 1]]}, "bonds must be a list of [i, j, weight] triples"),
    ([_PAIR_DOC], "a model must be a JSON object"),
    ({**_PAIR_DOC, "sites": None}, "sites must be an integer, got None"),
    ({**_PAIR_DOC, "sites": 2.7}, "sites must be an integer, got 2.7"),
    ({**_PAIR_DOC, "bonds": [[0, 1.9, 1.0]]}, "a bond end must be an integer, got 1.9"),
    ({**_PAIR_DOC, "bonds": [[0, True, 1.0]]}, "a bond end must be an integer, got True"),
    ({**_PAIR_DOC, "bonds": [[0, 1, "1"]]}, "a bond weight must be a number, got '1'"),
    ({**_PAIR_DOC, "gamma": None}, "gamma must be a number, got None"),
    ({**_PAIR_DOC, "gamma": "1"}, "gamma must be a number, got '1'"),
    ({**_PAIR_DOC, "beta": True}, "beta must be a number, got True"),
], ids=["bonds-5", "bond-5", "bond-pair", "list", "sites-null", "sites-2.7", "end-1.9",
        "end-true", "weight-str", "gamma-null", "gamma-str", "beta-true"])
def test_malformed_model_is_config_error(tmp_path, capsys, command, doc, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command[0], "--model", str(path), *command[1:])
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert f"cannot load model file {path}: {message}" in err


@pytest.mark.parametrize("doc, commands", [
    # u = 1e308 at n = 1: the intra-layer weights overflowed into a NaN action
    ({**_PAIR_DOC, "beta": 1e308}, ["qmc", "anneal", "extrapolate"]),
    # a diag_energy mean of -Infinity
    ({**_PAIR_DOC, "beta": 10.0, "bonds": [[0, 1, 1e308]]}, ["qmc", "anneal", "extrapolate"]),
    # the sigma_x slope and offset overflowed (anneal sets its own field)
    ({**_PAIR_DOC, "gamma": 1e-308}, ["qmc", "extrapolate"]),
], ids=["beta-1e308", "weight-1e308", "gamma-1e-308"])
def test_model_outside_the_float_range_is_config_error(tmp_path, capsys, doc, commands):
    path = str(tmp_path / "model.json")
    Path(path).write_text(json.dumps(doc))
    argvs = {"qmc": [["qmc", "--model", path, "--n", n, "--sweeps", "50", "--seed", "1"]
                     for n in ("1", "4")],
             "anneal": [["anneal", "--model", path, "--n", "4", "--sweeps", "5"]],
             "extrapolate": [["extrapolate", "--model", path, "--n-list", "2,3,4",
                              "--sweeps", sweeps, "--observable", "sigma_x"]
                             for sweeps in ("20", "0")]}
    for argv in (argv for name in commands for argv in argvs[name]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.CONFIG_ERROR, ""), argv
        assert "leaves the float range" in err and f"{qmc.MAX_MAGNITUDE:g}" in err


def test_anneal_zero_sweeps_is_config_error(capsys):
    code, out, err = run(capsys, "anneal", "--model", str(MODELS / "frustrated4.json"),
                         "--sweeps", "0")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "at least 1 sweep" in err


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=refuse)


def test_qmc_needs_two_kept_sweeps(capsys):
    pair = str(MODELS / "pair.json")
    code, out, err = run(capsys, "qmc", "--model", pair, "--n", "4",
                         "--sweeps", "2", "--therm", "1")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "at least 2 sweeps" in err
    code, out, _ = run(capsys, "qmc", "--model", pair, "--n", "4",
                       "--sweeps", "3", "--therm", "1")
    assert code == 0
    assert _strict_json(out)["sigma_x"]["bins"] == 2


def test_extrapolate_cli(tmp_path, chain_model, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"sites": 2, "bonds": [[0, 1, 1.0]],
                                "gamma": 1.0, "beta": 1.0}))
    code, out, _ = run(capsys, "extrapolate", "--model", str(pair),
                       "--n-list", "4,6,8", "--sweeps", "0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"c0", "c2", "c4", "c0_std_error", "n_list", "values", "errors",
                        "residuals", "observable"}
    assert abs(doc["c0"] - 0.5169083255250205) < 2e-6
    assert doc["c0_std_error"] == 0.0


def test_extrapolate_needs_two_kept_sweeps(capsys):
    pair = str(MODELS / "pair.json")
    code, out, err = run(capsys, "extrapolate", "--model", pair,
                         "--n-list", "4,6,8", "--sweeps", "1")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "at least 2 sweeps" in err
    code, out, _ = run(capsys, "extrapolate", "--model", pair,
                       "--n-list", "4,6,8", "--sweeps", "2")
    assert code == 0
    assert all(math.isfinite(e) for e in _strict_json(out)["errors"])


@pytest.mark.parametrize("sweeps", ["20000", "0"])
@pytest.mark.parametrize("n_list,message", [
    ("16,16,16", "distinct"), ("16", "at least 3"), ("16,32,0", ">= 1, got 0"),
])
def test_extrapolate_refuses_a_bad_n_list_before_sampling(capsys, monkeypatch, sweeps,
                                                          n_list, message):
    def never(*args, **kwargs):
        raise AssertionError("sampled or enumerated before the n-list was checked")

    monkeypatch.setattr(qmc, "metropolis_run", never)
    monkeypatch.setattr(qmc, "exact_reference", never)
    code, out, err = run(capsys, "extrapolate", "--model", str(MODELS / "chain6.json"),
                         "--n-list", n_list, "--sweeps", sweeps)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "config error" in err and message in err


@pytest.mark.parametrize("argv", [
    ["qmc", "--model", str(MODELS / "pair.json"), "--n", "2", "--sweeps", "1e18"],
    ["extrapolate", "--model", str(MODELS / "pair.json"), "--n-list", "2,3,4",
     "--sweeps", "1e18"],
], ids=["qmc", "extrapolate"])
def test_run_too_large_to_allocate_is_config_error(capsys, argv):
    # 1e18 sweeps need exbibytes, beyond any address space: the allocation fails at once
    code, out, err = run(capsys, *argv)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert err.startswith("config error: ") and "allocate" in err


@pytest.mark.parametrize("observable", ["bond_zz", "sigma_x", "diag_energy"])
def test_extrapolate_cold_model_is_finite(tmp_path, capsys, observable):
    # beta * J = 800: enumerated layer weights e^{800} overflow to NaN
    cold = tmp_path / "cold.json"
    cold.write_text(json.dumps({"sites": 2, "bonds": [[0, 1, 1.0]],
                                "gamma": 0.01, "beta": 800.0}))
    code, out, _ = run(capsys, "extrapolate", "--model", str(cold), "--n-list", "2,3,4",
                       "--sweeps", "0", "--observable", observable)
    assert code == 0
    doc = _strict_json(out)
    assert all(math.isfinite(v) for v in [doc["c0"], doc["c2"], doc["c4"], *doc["values"]])


@pytest.mark.parametrize("sweeps", ["0", "20"])
def test_extrapolate_bond_zz_needs_a_bond(capsys, sweeps):
    # a lone site has no bond to average: no NaN values, no warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "extrapolate", "--model", str(MODELS / "site.json"),
                             "--n-list", "2,3,4", "--sweeps", sweeps, "--observable", "bond_zz")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "config error" in err and "at least one bond" in err
    code, out, _ = run(capsys, "extrapolate", "--model", str(MODELS / "site.json"),
                       "--n-list", "2,3,4", "--sweeps", sweeps, "--observable", "sigma_x")
    assert code == 0
    assert math.isfinite(_strict_json(out)["c0"])


@pytest.mark.parametrize("argv", [
    ["qmc", "--n", "1", "--sweeps", "20"],
    ["anneal", "--schedule", "800:1:3", "--sweeps", "5"],
], ids=["qmc-n1", "anneal-800"])
def test_large_field_couplings_do_not_overflow(tmp_path, capsys, argv):
    # beta*Gamma/n = 1000 (qmc) and 1e5 (anneal): sinh(2u) overflows a float
    model = tmp_path / "cold.json"
    model.write_text(json.dumps({"sites": 2, "bonds": [[0, 1, 1.0]],
                                 "gamma": 1.0, "beta": 1000.0}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run(capsys, argv[0], "--model", str(model), *argv[1:])
    assert code == 0
    _strict_json(out)


# ---------------------------------------------------------------------------
# config files and error paths
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "precession", "scheme": "strang",
                               "gamma": 0.75, "dt": 1e-3, "steps": 1000,
                               "sample_every": 500}))
    out_path = tmp_path / "prec.csv"
    code, _, _ = run(capsys, "--config", str(cfg), "precession",
                     "--out", str(out_path))
    assert code == 0
    manifest = json.loads((tmp_path / "prec.csv.manifest.json").read_text())
    assert manifest["config"]["steps"] == 1000


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "strang", "bogus_key": 1}))
    code, _, err = run(capsys, "--config", str(cfg), "precession")
    assert code == cli.CONFIG_ERROR
    assert "bogus_key" in err


@pytest.mark.parametrize("doc,argv,message", [
    (None, ["family", "--p6", "1", "--config"], "--config needs a file path"),
    (None, ["--config", "{cfg}", "family"], "cannot read config file"),
    ([1, 2], ["--config", "{cfg}", "family"], "config file must hold a JSON object"),
    ({}, ["--config={cfg}"], "config file given but no subcommand"),
    ({}, ["--config", "{cfg}", "nosuch"], "unknown subcommand 'nosuch'"),
], ids=["last_token", "unreadable", "array", "no_subcommand", "unknown_subcommand"])
def test_config_file_refusals(tmp_path, capsys, doc, argv, message):
    cfg = tmp_path / "cfg.json"
    if doc is not None:
        cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, *(a.format(cfg=cfg) for a in argv))
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert f"config error: {message}" in err


@pytest.mark.parametrize("doc,argv", [
    ({"help": True}, ["precession", "--steps", "10"]),
    ({"action": "list"}, ["scheme", "list"]),
    ({"name": "strang"}, ["scheme", "show"]),
], ids=["help", "positional", "positional_name"])
def test_config_keys_name_only_optional_flags(tmp_path, capsys, doc, argv):
    # help printed usage and exited 0 without running; a positional ended in
    # argparse's SystemExit, past cli.main's handlers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert f"unknown config key {next(iter(doc))!r}" in err


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_a_value_argparse_refuses_returns_config_error(tmp_path, capsys, via_config):
    # argparse refuses with SystemExit(2); an in-process caller gets the code back
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": "abc"}))
    argv = ["--config", str(cfg), "precession"] if via_config else ["precession", "--steps", "abc"]
    code, out, err = run(capsys, *argv)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "invalid int value: 'abc'" in err


def test_family_takes_a_negative_p6_start_joined_or_from_a_config(tmp_path, capsys):
    # --p6 -3:... reads the value as a flag; joined with "=" it is the value,
    # and a config value is injected joined
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p6": "-3:-1.25:0.25"}))
    code, joined, _ = run(capsys, "family", "--p6=-3:-1.25:0.25")
    assert code == 0
    code, from_config, _ = run(capsys, "--config", str(cfg), "family")
    assert code == 0
    assert from_config == joined
    rows = [line.split(",") for line in joined.splitlines()[1:]]
    # the real branch below p6 = -1.21708
    assert [float(row[0]) for row in rows] == [-3 + 0.25 * k for k in range(8)]
    assert all(row[-1] == "true" for row in rows)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["precession", "--help"])
    assert exc.value.code == 0
    assert "--sample-every" in capsys.readouterr().out


@pytest.mark.parametrize("form", ["separate", "joined"])
def test_config_file_flag_forms_are_equivalent(tmp_path, capsys, form):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": -1}))
    flag = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    code, out, err = run(capsys, *flag, "precession", "--steps", "10", "--sample-every", "5")
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "--dt must be positive" in err


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "qmc", "--model", "/nonexistent.json",
                       "--n", "2", "--sweeps", "100")
    assert code == cli.CONFIG_ERROR


def test_csv_floats_have_17_significant_digits(tmp_path, capsys):
    out_path = tmp_path / "c.csv"
    run(capsys, "converge", "--scheme", "strang", "--out", str(out_path))
    body = out_path.read_text()
    assert "\r" not in body
    first_dt = body.splitlines()[1].split(",")[0]
    assert len(first_dt.replace(".", "").replace("-", "").lstrip("0")) >= 16


# ---------------------------------------------------------------------------
# invalid numeric flags and fuzzed command lines
# ---------------------------------------------------------------------------

_GUESS = "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"
_PAIR = str(MODELS / "pair.json")


@pytest.mark.parametrize("argv", [
    ["bch", "--stages", "A:1/0,B:x", "--order", "3"],
    ["bch", "--stages", "A:inf", "--order", "3"],
    ["solve", "--pattern", "ABABAB", "--order", "3", "--fix", "p6=1/0", "--guess", _GUESS],
    ["solve", "--pattern", "ABABAB", "--order", "3", "--fix", "p6=1",
     "--guess", "p1=inf,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"],
    ["qmc", "--model", _PAIR, "--n", "4", "--sweeps", "inf"],
    ["qmc", "--model", _PAIR, "--n", "4", "--sweeps", "20", "--therm", "inf"],
    ["extrapolate", "--model", _PAIR, "--n-list", "2,3,4", "--sweeps", "inf"],
    ["precession", "--gamma", "nan", "--dt", "0.01", "--steps", "20", "--sample-every", "10"],
    ["precession", "--gamma", "inf", "--dt", "0.01", "--steps", "20", "--sample-every", "10"],
    ["timedep", "--t0", "nan", "--steps", "20"],
    ["converge", "--scheme", "strang", "--dt-list", "0.1:1e308:0.1"],
    ["family", "--p6", "0.1:0.5"],
], ids=lambda argv: " ".join(Path(a).name if a.endswith(".json") else a for a in argv))
def test_invalid_numeric_flags_are_config_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any numeric work
        code, out, err = run(capsys, *argv)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["converge", "--scheme", "strang", "--t-final", "1e308"], "t_final / dt = 1e+308 / "),
    (["converge", "--scheme", "strang", "--dt-list", "1e-320"], "t_final / dt = 1.0 / 1e-320"),
    (["converge", "--scheme", "timeordered2", "--system", "driven", "--dt-list", "1e-320"],
     "t_final / dt = 1.0 / 1e-320"),
    # 1e7 steps and a 3.2e8-step reference: refused before the first step
    (["converge", "--scheme", "timeordered2", "--system", "driven", "--dt-list", "1e-7"],
     f"the driven study takes 330000000 steps, its dt/32 references included; "
     f"the cap is {propagate.MAX_DRIVEN_STEPS}"),
    # step 2 of dt 1e308 starts at 2e308: refused before any part is sampled
    (["timedep", "--dt", "1e308", "--steps", "3"], "stage time t0 + k*dt + tau*dt = inf at step k = 2"),
], ids=["converge_t_final", "converge_dt", "converge_driven_dt", "converge_driven_cap",
        "timedep_dt"])
def test_overflowing_step_or_time_is_config_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == cli.CONFIG_ERROR
    assert out == ""
    assert message in err and "Traceback" not in err


# One cheap, valid command line per subcommand.  A fuzzed run replaces one
# value, or one ','/':'/'='-separated piece of it, with a hostile token.
_FUZZ_BASE = [
    ["bch", "--stages", "A:x/2,B:x,A:x/2", "--order", "3", "--format", "json"],
    ["scheme", "check", "strang", "--order", "3"],
    # a nested composition: fuzzed names and orders reach the composed product
    ["scheme", "check", "suzuki6", "--order", "3"],
    ["scheme", "show", "strang"],
    ["solve", "--pattern", "ABA", "--order", "2", "--fix", "p3=0.5", "--guess", "p1=0.4,p2=0.9"],
    # no third-order ABA scheme: every iteration's line search is screened
    ["solve", "--pattern", "ABA", "--order", "3", "--guess", "p1=0.5,p2=0.5,p3=0.5"],
    ["family", "--p6", "1,1.1"],
    # a negative start, joined to its flag
    ["family", "--p6=-3:-1.25:0.25"],
    ["converge", "--scheme", "strang", "--dt-list", "0.1:0.2:0.1", "--t-final", "0.5"],
    # one distinct dt: no slope, exit 3
    ["converge", "--scheme", "strang", "--dt-list", "0.1,0.1"],
    # a repeated dt among distinct ones, fitted once
    ["converge", "--scheme", "strang", "--dt-list", "0.1,0.05,0.1"],
    # a fuzzed --t-final 99 runs the dt/32 reference for 12672 steps, well under a second
    ["converge", "--scheme", "timeordered2", "--system", "driven", "--dt-list", "0.25,0.5",
     "--t-final", "1"],
    ["precession", "--scheme", "strang", "--gamma", "0.75", "--dt", "0.01", "--steps", "20",
     "--sample-every", "10"],
    ["umeno", "--scheme", "strang", "--dt", "0.01", "--steps", "20", "--sample-every", "10"],
    # the Euler loop, a kick-first plan of three full kick-drift pairs, and a
    # shift-time scheme umeno refuses
    ["umeno", "--scheme", "euler", "--dt", "0.01", "--steps", "20", "--sample-every", "10"],
    ["umeno", "--scheme", "ruth", "--dt", "0.01", "--steps", "20", "--sample-every", "7"],
    ["umeno", "--scheme", "timeordered2", "--dt", "0.01", "--steps", "20",
     "--sample-every", "10"],
    # a commutator scheme umeno refuses
    ["umeno", "--scheme", "hybrid_fourth", "--dt", "0.01", "--steps", "20",
     "--sample-every", "10"],
    ["timedep", "--scheme", "timeordered2", "--dt", "0.01", "--steps", "20", "--t0", "0",
     "--sample-every", "10"],
    ["qmc", "--model", _PAIR, "--n", "4", "--sweeps", "20", "--therm", "4", "--seed", "1"],
    ["qmc", "--model", _PAIR, "--n", "1", "--sweeps", "20", "--therm", "4", "--seed", "1"],
    ["anneal", "--model", str(MODELS / "frustrated4.json"), "--n", "4",
     "--schedule", "2:0.5:3", "--sweeps", "5", "--seed", "1"],
    # a ramp whose end underflows to a zero field: refused
    ["anneal", "--model", str(MODELS / "frustrated4.json"), "--n", "4",
     "--schedule", "2.5:5e-324:2", "--sweeps", "5", "--seed", "1"],
    ["extrapolate", "--model", _PAIR, "--n-list", "2,3,4", "--sweeps", "0",
     "--observable", "bond_zz", "--seed", "1"],
    # refused: a lone site has no bond
    ["extrapolate", "--model", str(MODELS / "site.json"), "--n-list", "2,3,4", "--sweeps", "0",
     "--observable", "bond_zz"],
]
_FUZZ_TOKENS = ["0", "-1", "99", "nan", "inf", "-inf", "1e308", "1/0", "abc", ""]


def _fuzz_cases():
    """(base, value index, piece index or None for the whole value).

    A joined ``--flag=value`` keeps its flag: only the value's pieces are fuzzed.
    """
    cases = []
    for base in _FUZZ_BASE:
        for i, arg in enumerate(base[1:], start=1):
            joined = arg.startswith("--")
            if joined and "=" not in arg:
                continue
            pieces = re.split(r"[,:=]", arg)
            if not joined:
                cases.append((base, i, None))
            if len(pieces) > 1:
                cases.extend((base, i, k) for k in range(joined, len(pieces)))
    return cases


def _fuzzed(base, index, piece, token):
    argv = list(base)
    if piece is None:
        argv[index] = token
    else:
        parts = re.split(r"([,:=])", argv[index])
        parts[2 * piece] = token
        argv[index] = "".join(parts)
    return argv


def _check_exit_contract(argv):
    """Run one command line: its exit code is 0, 2 or 3, with no traceback and
    no warning of any category, and a JSON stdout at 0 or 3 is strict JSON (a
    CSV one holds finite numbers only)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, cli.CONFIG_ERROR, cli.NONCONVERGENCE), argv
    assert "Traceback" not in err.getvalue(), argv
    assert not [str(w.message) for w in caught], argv
    if code == cli.NONCONVERGENCE or (code == 0 and out.getvalue().startswith("{")):
        _strict_json(out.getvalue())
    elif code == 0:
        for cell in re.split(r"[,\n]", out.getvalue()):
            assert cell.strip().lower() not in ("nan", "inf", "-inf"), argv


@settings(max_examples=700, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_fuzz_cases()), st.sampled_from(_FUZZ_TOKENS))
def test_fuzzed_command_lines_keep_the_exit_contract(case, token):
    _check_exit_contract(_fuzzed(*case, token))


# A fuzzed model file replaces one number of the pair model with a hostile one.
_FUZZ_MODEL_FIELDS = {"sites": ("sites",), "gamma": ("gamma",), "beta": ("beta",),
                      "bond_i": ("bonds", 0, 0), "bond_j": ("bonds", 0, 1),
                      "weight": ("bonds", 0, 2)}
_FUZZ_MODEL_NUMBERS = ["0", "-1", "99", "1e308", "-1e308", "1e-308", "5e-324"]


@pytest.mark.parametrize("number", _FUZZ_MODEL_NUMBERS)
@pytest.mark.parametrize("field", list(_FUZZ_MODEL_FIELDS))
def test_fuzzed_model_files_keep_the_exit_contract(tmp_path, field, number):
    doc = json.loads(json.dumps(_PAIR_DOC))
    *keys, last = _FUZZ_MODEL_FIELDS[field]
    functools.reduce(lambda node, key: node[key], keys, doc)[last] = json.loads(number)
    path = str(tmp_path / "model.json")
    Path(path).write_text(json.dumps(doc))
    for argv in (
        ["qmc", "--model", path, "--n", "1", "--sweeps", "20", "--seed", "1"],
        ["qmc", "--model", path, "--n", "4", "--sweeps", "20", "--seed", "1"],
        ["anneal", "--model", path, "--n", "4", "--schedule", "2:0.5:3", "--sweeps", "5"],
        ["extrapolate", "--model", path, "--n-list", "2,3,4", "--sweeps", "20",
         "--observable", "sigma_x"],
        ["extrapolate", "--model", path, "--n-list", "2,3,4", "--sweeps", "0",
         "--observable", "sigma_x"],
    ):
        _check_exit_contract(argv)


# ---------------------------------------------------------------------------
# scipy is a test dependency only: every command runs without it
# ---------------------------------------------------------------------------

_PAIR = str(MODELS / "pair.json")
_NO_SCIPY_COMMANDS = [
    ["bch", "--stages", "A:x/2,B:x,A:x/2", "--order", "3"],
    ["scheme", "check", "suzuki4"],
    ["solve", "--pattern", "ABABAB", "--order", "3", "--fix", "p6=1",
     "--guess", "p1=0.33,p2=0.62,p3=0.7,p4=-0.62,p5=-0.05"],
    ["family", "--p6", "0.9:1.1:0.1"],
    ["precession", "--scheme", "hybrid_fourth", "--dt", "0.01", "--steps", "200",
     "--sample-every", "50"],
    ["converge", "--scheme", "hybrid_second", "--dt-list", "0.1,0.05,0.025"],
    ["umeno", "--dt", "0.01", "--steps", "200", "--sample-every", "50"],
    ["timedep", "--dt", "0.05", "--steps", "40"],
    ["qmc", "--model", _PAIR, "--n", "4", "--sweeps", "200", "--seed", "1"],
    ["anneal", "--model", _PAIR, "--n", "4", "--schedule", "2:0.1:3", "--sweeps", "20"],
    ["extrapolate", "--model", _PAIR, "--n-list", "4,6,8", "--sweeps", "0"],
]


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from expprod import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
"""


def test_cli_runs_with_scipy_blocked(capsys):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT,
                           json.dumps(_NO_SCIPY_COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    unblocked = [run(capsys, *argv)[0] for argv in _NO_SCIPY_COMMANDS]
    assert blocked == unblocked
    assert unblocked == [0] * len(_NO_SCIPY_COMMANDS)
