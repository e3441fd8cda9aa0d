"""Golden command-line outputs: every subcommand, byte for byte.

Each case runs `hankelpv.cli.main` in-process at 128 bits, unless its argv
names its own --bits, and compares its stdout with the file of the same
name under tests/golden/ and its exit status with the recorded one; a
second run must print the same bytes.
Residual columns print noise-level digits, so any change in the order of
floating-point operations shows up here. A golden changes only when a
change is meant to alter printed digits, and says so.
"""

import argparse
import ast
import csv
import importlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from hankelpv import bridge, cli, identities, ladder, report, scans, weights
from hankelpv.precision import DEFAULT_BITS, ENV_BITS, PrecisionConfig

GOLDEN = Path(__file__).parent / "golden"
JOB = Path(__file__).parent.parent / "perfbench" / "job.py"

AT = ["--alpha", "1", "--t", "0.5"]

CASES = [
    ("moments", ["moments", *AT, "--j-max", "6"], 0),
    ("hankel", ["hankel", *AT, "--n-max", "6"], 0),
    ("recurrence", ["recurrence", *AT, "--n-max", "6"], 0),
    ("aux", ["aux", "--route", "quadrature", *AT, "--n-max", "4"], 0),
    ("aux-identity", ["aux", "--route", "identity", *AT, "--n-max", "4"], 0),
    ("verify", ["verify", "--suite", "all", *AT, "--n-max", "2"], 0),
    ("bridge-parity", ["bridge", "--suite", "parity", *AT, "--n-max", "1"], 0),
    # non-dyadic alpha and t, and n_max > 1, in the parity shifts
    ("bridge-parity-alpha07", ["bridge", "--suite", "parity", "--alpha", "0.7", "--t", "0.3",
                               "--n-max", "3", "--bits", "192"], 0),
    ("bridge-jmo", ["bridge", "--suite", "jmo", *AT, "--n-list", "1"], 0),
    ("solve-pv", ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1",
                  "--t-end", "0.12", "--samples", "3"], 0),
    ("solve-p3", ["solve-p3", "--a", "1/2", "--s", "0.05", "--samples", "3"], 0),
    ("scan", ["scan", "--mode", "g2", "--s", "0.5", "--n-list", "4,8"], 0),
    ("scan-g1", ["scan", "--mode", "g1", "--s", "0.1", "--n-list", "4,8"], 0),
    ("scan-sigma-n4", ["scan", "--mode", "sigma-n4", "--s", "1", "--n-list", "4,8"], 0),
    ("series-g1-small", ["series", "--kind", "g1-small", "--s", "0.001,0.1"], 0),
    ("series-g-small", ["series", "--kind", "g-small", "--a", "1/2", "--s", "0.01,0.1"], 0),
    ("series-delta-large", ["series", "--kind", "delta-large", "--s", "10,1000"], 0),
    ("series-g2-large", ["series", "--kind", "g2-large", "--s", "50"], 0),
    ("series-delta-ab-large", ["series", "--kind", "delta-ab-large", "--a", "1/2",
                               "--s", "10"], 0),
    ("dyson", ["dyson", "--route", "scan", "--n-list", "4,8"], 0),
]


def _run(argv, err=None):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err or io.StringIO()):
        status = cli.main([argv[0], "--bits", "128", *argv[1:]])
    return status, out.getvalue()


def _rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_every_subcommand_has_a_golden():
    commands = {argv[0] for _, argv, _ in CASES}
    assert commands == set(cli._HANDLERS)


@pytest.mark.parametrize("name, argv, status", CASES, ids=[case[0] for case in CASES])
def test_golden_output(name, argv, status):
    first = _run(argv)
    assert first == (status, _golden(name))
    assert _run(argv) == first


def _golden(name):
    return (GOLDEN / f"{name}.csv").read_bytes().decode()


@pytest.mark.parametrize("name, argv, status", CASES, ids=[case[0] for case in CASES])
def test_json_output_holds_the_golden_rows(name, argv, status):
    expected = json.dumps(_rows(_golden(name)), indent=2) + "\n"
    assert _run([*argv, "--format", "json"]) == (status, expected)


@pytest.mark.parametrize("name, argv, status", CASES, ids=[case[0] for case in CASES])
def test_output_writes_the_bytes_stdout_would(tmp_path, name, argv, status):
    path = tmp_path / "table.csv"
    assert _run([*argv, "--output", str(path)]) == (status, "")
    assert path.read_bytes().decode() == _golden(name)


PLOTTED = [case for case in CASES if case[1][0] in cli.PLOT_KEYS]


def test_every_plotting_command_has_a_golden():
    assert {argv[0] for _, argv, _ in PLOTTED} == set(cli.PLOT_KEYS)


@pytest.mark.parametrize("name, argv, status", PLOTTED, ids=[case[0] for case in PLOTTED])
def test_plot_data_holds_the_golden_columns(tmp_path, name, argv, status):
    path = tmp_path / "plot.txt"
    assert _run([*argv, "--emit-plot-data", str(path)]) == (status, _golden(name))
    x_key, y_key = cli.PLOT_KEYS[argv[0]]
    lines = [f"{row[x_key]} {row[y_key]}" for row in _rows(_golden(name))
             if row[x_key] != "" and row[y_key] != ""]
    assert path.read_text() == "".join(f"{line}\n" for line in lines)


# every option string of every subcommand, with one argv per side of a
# mutually exclusive group; the common options are added by the test
OPTION_ARGVS = {
    "moments": [[*AT, "--j-max", "2"], [*AT, "--j", "2"]],
    "hankel": [[*AT, "--n", "2"], [*AT, "--n-max", "2"]],
    "recurrence": [[*AT, "--n-max", "2"]],
    "aux": [["--route", "quadrature", *AT, "--n-max", "1"]],
    "verify": [["--suite", "integral", *AT, "--n-max", "1", "--n", "1"]],
    "bridge": [["--suite", "jmo", *AT, "--n-list", "1", "--b", "-0.5"],
               ["--suite", "parity", *AT, "--n-max", "0"]],
    "solve-pv": [["--n", "1", "--alpha", "1", "--t0", "0.1", "--t-end", "0.11",
                  "--tolerance", "1e-6", "--samples", "2"]],
    "solve-p3": [["--a", "1/2", "--s", "0.05", "--s0", "0.025",
                  "--g0", "0.0267359655051193", "--dg0", "1.14175830984582",
                  "--tolerance", "1e-6", "--samples", "2"]],
    "scan": [["--mode", "g1", "--s", "0.1", "--alpha", "1", "--n-list", "4,8",
              "--reference", "g1-small", "--allow-large-n"]],
    "series": [["--kind", "g-small", "--s", "0.1", "--a", "1/2"]],
    "dyson": [["--alpha", "1", "--s-lo", "0.05", "--s-hi", "0.5", "--n-list", "4,8",
               "--route", "ode", "--tolerance", "1e-6"]],
}


def _common_options(command, tmp_path, index):
    options = ["--bits", "128", "--format", "json",
               "--output", str(tmp_path / f"{command}-{index}.json")]
    if command in cli.PLOT_KEYS:
        options += ["--emit-plot-data", str(tmp_path / f"{command}-{index}.txt")]
    return options


def test_every_option_reaches_its_handler(tmp_path):
    # a handler that reads a misspelt args.<dest> raises AttributeError,
    # which main does not catch
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert set(OPTION_ARGVS) == set(commands)
    for command, subparser in commands.items():
        defined = {option for action in subparser._actions
                   if not isinstance(action, argparse._HelpAction)
                   for option in action.option_strings}
        argvs = [[*argv, *_common_options(command, tmp_path, i)]
                 for i, argv in enumerate(OPTION_ARGVS[command])]
        assert {word for argv in argvs for word in argv if word.startswith("--")} == defined
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                status = cli.main([command, *argv])
            assert status in (cli.EXIT_OK, cli.EXIT_FINDING, cli.EXIT_NUMERIC), argv


def test_dyson_ode_constant_holds_its_digits_whatever_the_seed_point():
    # the flows seed from truncated small-s series, whose tails at s = 0.6
    # lie far above the integrator's budget unless the seed point moves in
    constants = []
    for s_lo in ("0.05", "0.6"):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            status = cli.main(["dyson", "--route", "ode", "--s-lo", s_lo, "--s-hi", "0.85",
                               "--bits", "256"])
        assert status == cli.EXIT_OK
        constants.append(Fraction(_rows(out.getvalue())[0]["constant_estimate"]))
    assert abs(constants[0] - constants[1]) < Fraction(10) ** -20


@pytest.mark.parametrize("argv", [["dyson", "--route", "ode", "--s-hi", "0.5", "--n-list", "0"],
                                  ["dyson", "--n-list", "8,4"]])
def test_dyson_checks_the_n_list_before_any_flow(argv, taylor_steps):
    # the scan's checks on the orders hold whatever the route, and no
    # flow runs first
    err = io.StringIO()
    assert _run(argv, err) == (cli.EXIT_NUMERIC, "")
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")
    assert taylor_steps == []


@pytest.mark.parametrize("route", ["scan", "ode"])
def test_dyson_parses_the_tolerance_on_every_route(monkeypatch, route):
    # only the flow reads it, but a malformed one fails before the scan runs
    monkeypatch.setattr(scans, "double_scaling_scan", None)
    err = io.StringIO()
    argv = ["dyson", "--route", route, "--n-list", "2,4", "--tolerance", "1e-6x"]
    assert _run(argv, err) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


def test_bridge_jmo_maps_b_to_the_exponent_at_zero(monkeypatch):
    seen = []

    def fake_jmo(n_list, tp, config):
        seen.append((n_list, tp))
        return []

    monkeypatch.setattr(bridge, "verify_jmo_sigma_form", fake_jmo)
    status, _ = _run(["bridge", "--suite", "jmo", "--alpha", "2", "--t", "0.5",
                      "--b", "0.25"])
    assert status == 0
    [(n_list, tp)] = seen
    assert n_list == [1, 2]
    assert (tp.a, tp.b, tp.t) == (0.25, 2, 0.5)


def test_fraction_cells_render_as_decimals():
    config = PrecisionConfig(bits=128, target_digits=15)
    assert report.fmt(Fraction(1, 2), config) == "0.5"
    assert report.fmt(Fraction(-1, 3), config) == "-0.333333333333333"


def test_bridge_parity_at_t0_reaches_its_digits_at_256_bits():
    # the a = -1/2 auxiliary moments at t = 0 carry an x^(-1/2) spike at 0
    # that the tanh-sinh window is sized for
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = cli.main(["bridge", "--suite", "parity", "--alpha", "1", "--t", "0",
                           "--n-max", "1", "--bits", "256"])
    rows = _rows(out.getvalue())
    assert status == cli.EXIT_OK
    assert len(rows) == 24
    assert all(row["passed"] == "true" for row in rows)


@pytest.mark.parametrize("alpha", ["1", "1.5"])
def test_bridge_parity_at_t0_has_no_false_findings(alpha):
    # R_n, Rstar_n, sigma_n and H_n all vanish at t = 0, so each row is
    # measured against the magnitudes whose cancellation leaves the noise
    status, out = _run(["bridge", "--suite", "parity", "--alpha", alpha, "--t", "0",
                        "--n-max", "1"])
    rows = _rows(out)
    assert status == 0
    assert len(rows) == 24
    assert all(row["passed"] == "true" for row in rows)


def test_aux_quadrature_route_at_large_t_prints_the_identity_values():
    # at t = 400, e^(-t/x^2) lies below the working dynamic range at every
    # node; cut relative to its peak e^(-t), the defining integrals keep
    # their digits instead of reading exact zeros
    at = ["--alpha", "1", "--t", "400", "--n-max", "3"]
    (status_q, quad), (status_i, ident) = (_run(["aux", "--route", route, *at])
                                          for route in ("quadrature", "identity"))
    assert status_q == status_i == 0
    for q, i in zip(_rows(quad), _rows(ident), strict=True):
        for key in ("r", "R", "sigma"):
            exact = Fraction(i[key])
            assert abs(Fraction(q[key]) - exact) <= Fraction(1, 10 ** 12) * max(1, abs(exact))
    assert Fraction(_rows(quad)[0]["R"]) > 800


def test_verify_all_at_t0_leaves_out_the_t_derivative_rows():
    status, out = _run(["verify", "--suite", "all", "--alpha", "1", "--t", "0", "--n-max", "1"])
    rows = _rows(out)
    assert status == 0
    assert all(row["passed"] == "true" for row in rows)
    names = {row["identity"] for row in rows}
    assert not names & {"eq1", "eq2", "pnt", "ricca1", "ricca2", "integral-rep"}
    assert {"be3", "imp", "lowering"} <= names


def test_verify_all_at_small_t():
    # the t-derivatives are exact at any t > 0, and the integral-rep path
    # [s0, t] stays non-empty when t is below the default s0
    status, out = _run(["verify", "--suite", "all", "--alpha", "1", "--t", "1e-12",
                        "--n-max", "1"])
    rows = _rows(out)
    assert status == 0
    assert all(row["passed"] == "true" for row in rows)
    names = {row["identity"] for row in rows}
    assert {"eq1", "pnt", "ricca2", "ode", "pv", "sode", "integral-rep"} <= names


def test_verify_differential_at_t0_needs_positive_t():
    err = io.StringIO()
    status, out = _run(["verify", "--suite", "differential", "--alpha", "1", "--t", "0",
                        "--n-max", "1"], err)
    assert (status, out) == (cli.EXIT_NUMERIC, "")
    assert "needs t > 0" in err.getvalue()


@pytest.mark.parametrize("suite", ["parity", "jmo"])
def test_bridge_at_small_t(suite):
    # the boundary layer of e^{-t/x} at x ~ t is resolved by the (0, 1) node map
    argv = ["bridge", "--suite", suite, "--alpha", "1", "--t", "0.001"]
    status, out = _run(argv + (["--n-max", "1"] if suite == "parity" else []))
    rows = _rows(out)
    assert status == 0
    assert rows and all(row["passed"] == "true" for row in rows)


@pytest.mark.parametrize("argv, flag", [
    (["hankel", *AT, "--n-max", "0"], "--n-max"),
    (["verify", "--suite", "all", *AT, "--n-max", "-1"], "--n-max"),
    (["moments", *AT, "--j-max", "-1"], "--j-max"),
    (["verify", "--suite", "scalar", *AT, "--n-max", "-1"], "--n-max"),
    # a grid holds both ends of the span
    (["solve-p3", "--a", "1/2", "--s", "0.05", "--samples", "1"], "--samples"),
    (["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1", "--t-end", "0.12",
      "--samples", "1"], "--samples"),
], ids=["hankel-n-max-0", "verify-all-n-max-minus-1", "moments-j-max-minus-1",
        "verify-scalar-n-max-minus-1", "solve-p3-samples-1",
        "solve-pv-samples-1"])
def test_bad_counts_are_usage_errors(argv, flag):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--bits", "128"])
    assert (excinfo.value.code, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert f"error: argument {flag}: must be at least" in err.getvalue()


def test_scan_rejects_a_mismatched_reference_before_any_table(monkeypatch):
    # every scan point starts from a moment table
    built = []
    monkeypatch.setattr(weights.MomentTable, "build", lambda *args: built.append(args))
    err = io.StringIO()
    status, out = _run(["scan", "--mode", "g1", "--s", "0.1", "--reference", "g2-small"], err)
    assert (status, out, built) == (cli.EXIT_NUMERIC, "", [])
    assert "reference for 'g1' must be g1-small or g1-large" in err.getvalue()
    # a parametric kind is never a scan reference, so the parser refuses it
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as excinfo:
        cli.main(["scan", "--mode", "g1", "--s", "0.1", "--reference", "g-small"])
    assert excinfo.value.code == 2


# every one of the 17 grid points gets its own row, whether it lies inside
# a step's polynomial or on a step end
@pytest.mark.parametrize("argv", [
    ["solve-p3", "--a", "1/2", "--s", "0.05"],
    ["solve-p3", "--a", "1/2", "--s", "0.07"],
    ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1", "--t-end", "0.13"],
], ids=["p3-s0.05", "p3-s0.07", "pv-t0.13"])
def test_flow_lands_on_a_checkpoint_one_step_away(argv):
    status, out = _run(argv)
    assert status == cli.EXIT_OK
    assert len(_rows(out)) == 17


def test_solve_p3_grid_starts_where_the_seed_search_starts_the_flow(monkeypatch):
    # at the default bits the seed search halves s0 = 1/8 once: the grid
    # runs from the seeded start, and its first row is that start
    monkeypatch.delenv(ENV_BITS, raising=False)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = cli.main(["solve-p3", "--a", "1/2", "--s", "0.5", "--samples", "3"])
    rows = _rows(out.getvalue())
    assert status == cli.EXIT_OK
    assert [row["s"] for row in rows] == ["0.0625", "0.28125", "0.5"]
    config = PrecisionConfig(bits=DEFAULT_BITS, target_digits=cli.target_digits_for_bits(
        DEFAULT_BITS))
    start = cli.solve_piii_prime("1/2", "0.5", config).samples[0]
    assert list(rows[0].values()) == [report.fmt(value, config) for value in start]


HALTED_P3 = """s,g,dg
0.125,0.176923122259680,1.93143409524196
0.59375,6.11424754351822,52.4664167966967
0.885956643111323,62164204.2383622,1106440580992.37
"""


def test_halted_flow_prints_its_grid_rows_and_names_the_halt_point_once():
    err = io.StringIO()
    status, out = _run(["solve-p3", "--a", "1/2", "--s", "2", "--samples", "5"], err)
    assert (status, out) == (cli.EXIT_NUMERIC, HALTED_P3)
    assert err.getvalue().splitlines()[0] == \
        "solve-p3: halted: singularity guard fired at s=0.885956643111323"
    assert err.getvalue().count("0.88595664311") == 1


def test_backward_solve_pv_prints_its_grid_from_t0():
    status, out = _run(["solve-pv", "--n", "1", "--alpha", "1", "--t0", "0.3", "--t-end", "0.2",
                        "--samples", "4"])
    assert (status, out) == (cli.EXIT_OK, """t,R,dR
0.3,1.36007621012062,3.52331700270933
0.266666666666666,1.24095106406340,3.62682281516845
0.233333333333333,1.11808743146773,3.74844499455219
0.2,0.990787085281008,3.89426367522563
""")


def test_a_flow_halted_on_a_grid_point_prints_that_row_once():
    # g0 = 0 fires the guard before the first step, at the grid's first point
    err = io.StringIO()
    status, out = _run(["solve-p3", "--a", "1/2", "--s", "0.5", "--s0", "0.25", "--g0", "0",
                        "--dg0", "1", "--samples", "3"], err)
    assert (status, out) == (cli.EXIT_NUMERIC, "s,g,dg\n0.25,0.0,1.0\n")
    assert err.getvalue().splitlines()[0] == "solve-p3: halted: singularity guard fired at s=0.25"


@pytest.mark.parametrize("name, solver", [
    ("solve-p3", "solve_piii_prime"),
    ("solve-pv", "continue_pv"),
])
def test_flows_report_their_step_count(monkeypatch, taylor_steps, name, solver):
    argv = next(argv for case, argv, _ in CASES if case == name)
    made = []
    original = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda *a, **k: made.append(original(*a, **k)) or made[-1])
    err = io.StringIO()
    status, out = _run(argv, err)
    assert (status, out) == (cli.EXIT_OK, (GOLDEN / f"{name}.csv").read_text())
    # the accepted steps, not the rows of the dense output
    assert made[0].steps == len(taylor_steps) > 0
    assert f"{name}: steps: {len(taylor_steps)}\n" in err.getvalue()
    assert f"{name}: order: {made[0].order}\n" in err.getvalue()


@pytest.mark.parametrize("name, solver", [
    ("solve-p3", "solve_piii_prime"),
    ("solve-pv", "continue_pv"),
])
def test_a_patched_flow_name_sees_the_one_call(monkeypatch, name, solver):
    # perfbench/record.py wraps these cli names to read back the trajectory
    # a job printed; each loads flows.py only when it is called
    argv = next(argv for case, argv, _ in CASES if case == name)
    calls = []
    original = getattr(cli, solver)
    monkeypatch.setattr(cli, solver, lambda *a, **k: calls.append(a) or original(*a, **k))
    assert _run(argv) == (cli.EXIT_OK, (GOLDEN / f"{name}.csv").read_text())
    assert len(calls) == 1


def test_solve_pv_grades_its_endpoint_gap(monkeypatch):
    # one extra R in 2tR' gives the flow a wrong seed slope
    original = ladder.riccati_terms
    monkeypatch.setattr(ladder, "riccati_terms",
                        lambda n, R, r, params: original(n, R, r, params) + [R])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        status = cli.main(["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1",
                           "--t-end", "0.3", "--bits", "256"])
    assert status == cli.EXIT_FINDING
    notes = [line for line in err.getvalue().splitlines() if "finding:" in line]
    assert len(notes) == 1 and notes[0].startswith("solve-pv: finding: endpoint_gap")


@pytest.mark.parametrize("argv, digits", [
    (["--n", "2", "--alpha", "1", "--t0", "0.1", "--t-end", "0.12", "--samples", "3"], 15),
    # 15 digits are printed, but the flow meets the tables' R_5(2) to 11 only
    (["--n", "5", "--alpha", "0.7", "--t0", "0.05", "--t-end", "2"], 11),
], ids=["golden", "short"])
def test_solve_pv_says_how_many_digits_its_endpoint_holds(argv, digits):
    err = io.StringIO()
    status, _ = _run(["solve-pv", *argv], err)
    assert status == cli.EXIT_OK
    notes = [line for line in err.getvalue().splitlines() if "endpoint_digits" in line]
    assert notes == [f"solve-pv: endpoint_digits: {digits}"]


G2 = ["--mode", "g2", "--s", "2000", "--n-list"]


@pytest.mark.parametrize("command, loud, quiet, rows, note", [
    ("recurrence", ["--n-max", "60"], ["--n-max", "6"], 61, ""),
    ("hankel", ["--n-max", "60"], ["--n-max", "6"], 60, ""),
    ("aux", ["--n-max", "59"], ["--n-max", "4"], 60, ""),
    # at s = 2000 the difference run loses digits as n grows: at 128 bits
    # the g2 point n = 16 holds 13.7 digits, n = 2 and n = 4 hold 22 and 18
    ("scan", ["4,16"], ["2,4"], 2, " at n=16"),
], ids=["recurrence", "hankel", "aux", "scan"])
def test_escalated_pass_says_so_on_stderr(command, loud, quiet, rows, note):
    # 128 bits run out on the order-60 table (test_pivot_escalation_doubles_bits)
    args = G2 if command == "scan" else AT

    def bits_notes(argv):
        err = io.StringIO()
        status, out = _run([command, *args, *argv], err)
        # a scan also reports its flags and error bar
        return status, out, [line for line in err.getvalue().splitlines()
                             if not line.startswith(("scan: flag:", "scan: error_bar:"))]

    status, out, notes = bits_notes(loud)
    assert status == cli.EXIT_OK
    assert len(_rows(out)) == rows
    assert notes == [f"{command}: bits: 128 -> 256{note}"]
    assert bits_notes(quiet)[2] == []


@pytest.mark.parametrize("argv, note", [
    (["--s", "0.05", "--s0", "0.8"],
     "error: the small-series seed at s0=0.8 has a tail of 0.925"),
], ids=["small-series-s0"])
def test_seed_tail_above_the_step_budget_exits_2(argv, note):
    # tolerance^4 * max(1, |g0|) is the bound the default small-series
    # search meets; a seed above it would print digits it does not hold
    err = io.StringIO()
    status, out = _run(["solve-p3", "--a", "1/2", *argv], err)
    assert (status, out) == (cli.EXIT_NUMERIC, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(note)


P3 = ["solve-p3", "--a", "1/2", "--s", "0.05"]
# the solve-p3 golden's first row, s0 = 0.025, to its 15 printed digits
GOLDEN_START = ["--s0", "0.025", "--g0", "0.0267359655051193", "--dg0", "1.14175830984582"]


def test_given_start_is_where_the_flow_starts():
    golden = _rows(_golden("solve-p3"))
    status, out = _run([*P3, *GOLDEN_START])
    rows = _rows(out)
    assert status == cli.EXIT_OK
    assert [rows[0][key] for key in ("s", "g", "dg")] == GOLDEN_START[1::2]
    assert rows[-1]["s"] == golden[-1]["s"] == "0.05"
    assert abs(Fraction(rows[-1]["g"]) - Fraction(golden[-1]["g"])) < Fraction(1, 10 ** 14)
    # another start gives another solution
    status, out = _run([*P3, "--s0", "0.025", "--g0", "0.03", "--dg0", "1.14175830984582"])
    rows = _rows(out)
    assert (status, rows[0]["g"]) == (cli.EXIT_OK, "0.03")
    assert abs(Fraction(rows[-1]["g"]) - Fraction(golden[-1]["g"])) > Fraction(1, 10 ** 3)


@pytest.mark.parametrize("argv, error", [
    (GOLDEN_START[:4], "error: an explicit start needs s0, g0 and g0'"),
    (GOLDEN_START[:2] + GOLDEN_START[4:], "error: an explicit start needs s0, g0 and g0'"),
    (GOLDEN_START[2:], "error: an explicit start needs s0, g0 and g0'"),
    (GOLDEN_START[2:4], "error: an explicit start needs s0, g0 and g0'"),
    (GOLDEN_START[4:], "error: an explicit start needs s0, g0 and g0'"),
    (["--s0", "0"], "error: s0 must be positive: the flow is singular at s = 0"),
    (["--s0", "-0.01"], "error: s0 must be positive: the flow is singular at s = 0"),
    ([*GOLDEN_START[2:], "--s0", "-0.01"],
     "error: s0 must be positive: the flow is singular at s = 0"),
], ids=["g0-without-dg0", "dg0-without-g0", "start-without-s0", "g0-without-s0",
        "dg0-without-s0", "s0-zero", "s0-negative", "explicit-s0-negative"])
def test_bad_start_exits_2_without_rows(argv, error):
    err = io.StringIO()
    assert _run([*P3, *argv], err) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == f"{error}\n"


@pytest.mark.parametrize("option", [["--seed", "large-series"], ["--seed-order", "8"]],
                         ids=["seed", "seed-order"])
def test_removed_seed_options_are_usage_errors(option):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
        cli.main([*P3, *option])
    assert (excinfo.value.code, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert "error: unrecognized arguments" in err.getvalue()


@pytest.mark.parametrize("n_list", ["-1", "-1,2"])
def test_jmo_negative_order_exits_2(n_list):
    err = io.StringIO()
    argv = ["bridge", "--suite", "jmo", *AT, f"--n-list={n_list}"]
    assert _run(argv, err) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == "error: the jmo rows need orders n >= 0, got -1\n"


def test_jmo_repeated_order_exits_2():
    # a repeated order once printed each of its rows twice; an unsorted list
    # is still accepted
    err = io.StringIO()
    argv = ["bridge", "--suite", "jmo", *AT]
    assert _run([*argv, "--n-list", "2,2"], err) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == "error: the jmo orders must not repeat\n"
    status, out = _run([*argv, "--n-list", "2,1"])
    assert status == cli.EXIT_OK
    assert [row["n"] for row in _rows(out)] == ["1", "2"] * 3


@pytest.mark.parametrize("argv, error", [
    (["--n-list", "2,2"], "the jmo orders must not repeat"),
    (["--t", "0"], "the jmo rows need t > 0"),
], ids=["repeated-order", "t-zero"])
def test_bridge_all_checks_the_jmo_input_before_any_table(quadrature_passes, argv, error):
    # a bad jmo input once exited 2 only after every parity table was built
    err = io.StringIO()
    status = _run(["bridge", "--suite", "all", *AT, "--n-max", "1", *argv], err)
    assert status == (cli.EXIT_NUMERIC, "")
    assert err.getvalue().startswith(f"error: {error}")
    assert quadrature_passes == []


def test_bridge_all_prints_the_parity_rows_first():
    # the handler computes the jmo rows first, but prints them last
    status, out = _run(["bridge", "--suite", "all", *AT, "--n-max", "1", "--n-list", "1"])
    jmo = (GOLDEN / "bridge-jmo.csv").read_text().split("\n", 1)[1]
    assert (status, out) == (cli.EXIT_OK, (GOLDEN / "bridge-parity.csv").read_text() + jmo)


@pytest.mark.parametrize("argv, error", [
    (["verify", "--suite", "scalar", *AT, "--n-max", "1", "--n", "5"],
     "--n is read only by --suite integral, not by --suite scalar"),
    (["verify", "--suite", "all", *AT, "--n-max", "1", "--n", "5"],
     "--n is read only by --suite integral, not by --suite all"),
    (["bridge", "--suite", "parity", *AT, "--n-max", "0", "--n-list", "5"],
     "--n-list is read only by --suite jmo or all, not by --suite parity"),
    (["bridge", "--suite", "parity", *AT, "--n-max", "0", "--b", "0.5"],
     "--b is read only by --suite jmo or all, not by --suite parity"),
    (["bridge", "--suite", "jmo", *AT, "--n-max", "0"],
     "--n-max is read only by --suite parity or all, not by --suite jmo"),
    (["bridge", "--suite", "parity", *AT], "--suite parity requires --n-max"),
    (["bridge", "--suite", "all", *AT], "--suite all requires --n-max"),
    (["dyson", "--route", "scan", "--n-list", "2,4", "--tolerance", "1e-6"],
     "--tolerance is read only by --route auto or ode, not by --route scan"),
], ids=["verify-scalar-n", "verify-all-n", "bridge-parity-n-list", "bridge-parity-b",
        "bridge-jmo-n-max", "bridge-parity-no-n-max", "bridge-all-no-n-max",
        "dyson-scan-tolerance"])
def test_option_the_suite_never_reads_is_a_usage_error(argv, error):
    err = io.StringIO()
    assert _run(argv, err) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == f"error: {error}\n"


def test_every_benchmark_job_parses():
    # a CLI option that a benchmark job passes cannot go without this failing
    workloads = runpy.run_path(str(JOB.parent / "workloads.py"))["WORKLOADS"]
    jobs = [job for workload in workloads.values() for job in workload["jobs"] if "argv" in job]
    assert jobs
    parser = cli.build_parser()
    for job in jobs:
        try:
            assert parser.parse_args(job["argv"]).command == job["argv"][0]
        except SystemExit:
            pytest.fail(f"benchmark job {job['id']} does not parse: {job['argv']}")


def test_verify_jobs_keep_their_integrand_calls(integrand_calls):
    # the quadrature work of the verify workload, pass by pass: the z-map
    # settles at level 4 (177 calls at 128 bits) or 5 (385 at 256 bits), so
    # a pass that falls back to a finer level fails here, not only in timing
    job = runpy.run_path(str(JOB))
    expected = {"verify-all": [385], "bridge-parity": [177, 177], "jmo": [177]}
    for spec in runpy.run_path(str(JOB.parent / "workloads.py"))["VERIFY"]:
        integrand_calls.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if "argv" in spec:
                status = cli.main(spec["argv"])
            else:
                status = job["run_call"](cli, spec["call"])
        assert (status, integrand_calls) == (cli.EXIT_OK, expected[spec["id"]]), spec["id"]


def test_flows_jobs_keep_their_steps_and_order():
    # the Taylor work of the flows workload, job by job: the accepted steps
    # and their order, which the stderr notes report
    expected = {"p3-s0.25": (1, 48), "p3-s0.1": (1, 60), "pv-n2": (6, 48), "pv-n3": (2, 48)}
    for spec in runpy.run_path(str(JOB.parent / "workloads.py"))["FLOWS"]:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = cli.main(spec["argv"])
        command = spec["argv"][0]
        steps, order = expected[spec["id"]]
        assert status == cli.EXIT_OK, spec["id"]
        assert f"{command}: steps: {steps}\n" in err.getvalue(), spec["id"]
        assert f"{command}: order: {order}\n" in err.getvalue(), spec["id"]


# what a fresh interpreter loads: hankelpv.cli, and what each handler
# imports when it runs
SRC = JOB.parent.parent / "src"
CLI_MODULES = ["choices", "cli", "precision", "report"]
TABLES = ["recurrence", "special", "weights"]
SCANS = ["ladder", "scans", "series", *TABLES]
FLOWS = ["flows", "ode"]


def _after(code, value):
    """The value of the expression `value`, which must print as a literal,
    after `code` runs in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; "
            f"print({value}, file=sys.__stdout__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return ast.literal_eval(proc.stdout)


def _loaded(code):
    """The hankelpv modules loaded after `code` runs in a fresh interpreter."""
    return _after(code, "sorted(m[9:] for m in sys.modules if m.startswith('hankelpv.'))")


def test_importing_the_cli_loads_no_report_pipeline():
    # every handler imports its pipeline when it runs, and the flows import
    # the series or tables they seed from; bridge takes its residual rows
    # from report, and recurrence keeps its own series kernel
    assert _loaded("import hankelpv.cli") == CLI_MODULES
    pipelines = ("identities", "bridge", "ladder", "recurrence", "weights", "special",
                 "quadrature", "scans", "series", "asymptotics")
    for module, unloaded in [("cli", pipelines), ("flows", pipelines),
                             ("bridge", ("identities",)), ("recurrence", ("ode",))]:
        assert set(_loaded(f"import hankelpv.{module}")).isdisjoint(unloaded), module


LOADED_BY = {
    "moments": (["moments", *AT, "--j", "2"], ["special", "weights"]),
    "hankel": (["hankel", *AT, "--n", "2"], TABLES),
    "recurrence": (["recurrence", *AT, "--n-max", "1"], TABLES),
    "aux": (["aux", *AT, "--n-max", "1"], ["ladder", *TABLES]),
    "verify": (["verify", "--suite", "scalar", *AT, "--n-max", "1"],
               ["identities", "ladder", "quadrature", *TABLES]),
    "bridge": (["bridge", "--suite", "parity", *AT, "--n-max", "0"],
               ["bridge", "ladder", "quadrature", *TABLES]),
    "solve-pv": (["solve-pv", "--n", "1", "--alpha", "1", "--t0", "0.1", "--t-end", "0.1"],
                 [*FLOWS, "ladder", *TABLES]),
    "solve-p3": (["solve-p3", "--a", "1/2", "--s", "0.05", "--samples", "2"],
                 [*FLOWS, "series"]),
    "scan": (["scan", "--mode", "g1", "--s", "0.1", "--n-list", "2,4"], SCANS),
    "series": (["series", "--kind", "g1-small", "--s", "0.1"], ["series"]),
    "dyson": (["dyson", "--route", "scan", "--n-list", "2,4"], SCANS),
}


def test_every_subcommand_pins_what_it_loads():
    assert set(LOADED_BY) == set(cli._HANDLERS)


@pytest.mark.parametrize("command", list(LOADED_BY))
def test_a_command_loads_only_its_pipeline(command):
    # solve-p3 loads no table, quadrature or scan: its handler loads the
    # flow and the ODE integrator, and the flow imports the exact series
    argv, pipeline = LOADED_BY[command]
    code = ("import io, hankelpv.cli; sys.stdout = io.StringIO(); "
            f"assert hankelpv.cli.main({[*argv, '--bits', '128']!r}) == 0")
    assert _loaded(code) == sorted(CLI_MODULES + pipeline)


def test_rendering_never_loads_fractions():
    # report renders any numerator/denominator pair without importing fractions
    assert _after("import hankelpv.cli", "'fractions' in sys.modules") is False
    argv = ["verify", "--suite", "scalar", *AT, "--n-max", "1", "--bits", "128"]
    code = ("import io, hankelpv.cli; sys.stdout = io.StringIO(); "
            f"assert hankelpv.cli.main({argv!r}) == 0")
    assert _after(code, "'fractions' in sys.modules") is False


def test_importing_the_cli_loads_no_flow():
    assert {"flows", "ode"}.isdisjoint(_loaded("import hankelpv.cli"))


@pytest.mark.parametrize("command", [c for c in LOADED_BY if c not in ("solve-pv", "solve-p3")])
def test_a_command_off_the_flows_never_loads_dataclasses(command):
    # every class on these paths is a NamedTuple: dataclasses would bring
    # inspect, ast and dis into the start-up of every command
    argv, _ = LOADED_BY[command]
    code = ("import io, hankelpv.cli; sys.stdout = io.StringIO(); "
            f"assert hankelpv.cli.main({[*argv, '--bits', '128']!r}) == 0")
    assert _after(code, "{'dataclasses', 'inspect'} & set(sys.modules)") == set()


@pytest.mark.parametrize("command", ["", *cli._HANDLERS])
def test_help_is_unchanged(monkeypatch, command):
    # the choices the parser offers live in hankelpv.choices; the help texts
    # are pinned byte for byte at an 80-column terminal
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"] if command else ["--help"])
    assert excinfo.value.code == 0
    expected = GOLDEN / "help" / f"{command or 'hankelpv'}.txt"
    assert out.getvalue() == expected.read_bytes().decode()


def _perfbench_bindings(path):
    """(name, object, call) for each hankelpv name a perfbench script binds
    or calls outside the traced jobs: every `from hankelpv... import`, every
    attribute of a hankelpv module (`cli` is the one job.py passes around),
    and each call's positional count and keyword names, or None."""
    tree = ast.parse(path.read_text())
    modules, names = {"cli": cli}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("hankelpv"):
            for alias in node.names:
                module = importlib.import_module(node.module)
                if not hasattr(module, alias.name):
                    # a submodule is an attribute only once something imports it
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound = getattr(module, alias.name)
                (modules if inspect.ismodule(bound) else names)[alias.asname or alias.name] = bound
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            calls[id(node.func)] = (len(node.args), [k.arg for k in node.keywords])
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{path.name}: {module.__name__}.{node.attr}"
            found.append((node.attr, getattr(module, node.attr), calls.get(id(node))))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.id, names[node.id], calls.get(id(node))))
    return found


def test_perfbench_untraced_names_resolve():
    # perfbench/record.py and job.py bind these names outside any traced job
    # (record.py patches cli.solve_piii_prime and cli.continue_pv by name),
    # so a rename or a changed signature shows here, not only when the
    # benchmark runs
    seen = set()
    for script in ("record.py", "job.py"):
        for name, bound, call in _perfbench_bindings(JOB.parent / script):
            seen.add(name)
            if call is not None:
                positional, keywords = call
                inspect.signature(bound).bind(*[None] * positional,
                                              **dict.fromkeys(keywords))
    for name in ("solve_piii_prime", "continue_pv"):
        assert callable(getattr(cli, name)), name
    assert {"aux_r", "aux_R", "fmt", "verify_records", "render", "recurrence_table",
            "make_tilde_params", "verify_jmo_sigma_form", "config_from_args"} <= seen


PAST_THE_ANCHORS = ("error: the U-function moment at t=10000.0 is past the anchors' range "
                    "t <= 4096, where hypercomb's 1F1 series give up or run for minutes\n")


def test_moments_past_the_anchor_range_exit_2():
    # at t = 1e4 the U-function anchors' 1F1 series give up at 128 bits
    err = io.StringIO()
    assert _run(["moments", "--alpha", "1", "--t", "1e4", "--j", "2"], err) \
        == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == PAST_THE_ANCHORS


def test_anchors_past_their_range_fail_at_once_at_512_bits():
    # at 512 bits the 1F1 series hold out to t = 1e4, where each anchor
    # took 9 minutes to converge
    argv = ["moments", "--alpha", "1", "--t", "1e4", "--j", "2", "--bits", "512"]
    proc = subprocess.run([sys.executable, "-m", "hankelpv.cli", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_NUMERIC, "", PAST_THE_ANCHORS)


# each point's error, and the reference a scan still prints
POINT_ERRORS = {
    "1e6": ("the U-function moment at t=31250.0 is past the anchors' range t <= 4096",
            "the U-function moment at t=7812.5 is past the anchors' range t <= 4096"),
    "1e-300": ("the difference run divides by A_n + B_n = 0 at n=1",) * 2,
}
REFERENCES = {"g1": "20033.3334257746", "sigma-n4": "", "g2": "4.0e-300",
              "delta1": "-1.33333333333333e-600"}


@pytest.mark.parametrize("mode, s", [("g1", "1e6"), ("sigma-n4", "1e-300"), ("g2", "1e-300"),
                                     ("delta1", "1e-300")])
def test_scan_past_its_numerics_records_point_errors(mode, s):
    # at s = 1e6 the moment anchors fail; at s = 1e-300 the seed r_1 rounds
    # to 0 and the difference run's first step divides by 0. Each point
    # escalates once, is recorded as an error and named on stderr, and the
    # scan exits 2 with no value in its rows
    err = io.StringIO()
    status, out = _run(["scan", "--mode", mode, "--s", s, "--n-list", "4,8"], err)
    assert status == cli.EXIT_NUMERIC
    s_cell = "1000000.0" if s == "1e6" else "1.0e-300"
    assert out == "mode,s,n,raw,extrapolated,reference,agreement_digits\n" + "".join(
        f"{mode},{s_cell},{n},,,{REFERENCES[mode]},\n" for n in (4, 8))
    lines = err.getvalue().splitlines()
    for line, n, error in zip(lines, (4, 8), POINT_ERRORS[s]):
        assert line.startswith(f"scan: point-error at n={n}: {error}"), line
    assert lines[2:] == ["scan: flag: point-errors", "scan: flag: extrapolation-unavailable"]


def test_integral_suite_exits_2_past_the_node_cap(monkeypatch):
    monkeypatch.setattr(identities, "CC_MAX_NODES", identities.CC_START)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["verify", "--suite", "integral", "--alpha", "2.5", "--t", "3",
                           "--n-max", "3", "--n", "3", "--bits", "256"])
    assert (status, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue().startswith("error: Clenshaw-Curtis failed")


def test_bits_from_environment(monkeypatch):
    args = cli.build_parser().parse_args(["moments", *AT])
    monkeypatch.setenv(ENV_BITS, "1024")
    assert cli.config_from_args(args).bits == 1024
    monkeypatch.delenv(ENV_BITS)
    assert cli.config_from_args(args).bits == DEFAULT_BITS


def test_bad_bits_from_environment_exit_2(monkeypatch):
    monkeypatch.setenv(ENV_BITS, "abc")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["moments", *AT])
    assert (status, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == f"error: {ENV_BITS} must be an integer, got 'abc'\n"


@pytest.mark.parametrize("source", ["option", "environment"])
def test_bits_below_the_minimum_exit_2(monkeypatch, source):
    argv = ["moments", *AT, "--j", "1"]
    if source == "option":
        argv += ["--bits", "64"]
    else:
        monkeypatch.setenv(ENV_BITS, "64")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    assert (status, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert err.getvalue() == "error: bits must be >= 128, got 64\n"


def test_traced_benchmark_job_runs():
    # perfbench/tracer.py wraps package functions by name, so a rename
    # shows here as a failed traced job. For the flows it also swaps
    # OdeProblem.rhs, which the integrator calls once per step to check
    # its jet, and counts the halts it catches. The verify workload's jmo
    # job calls the bridge directly
    jmo = next(job for job in runpy.run_path(str(JOB.parent / "workloads.py"))["VERIFY"]
               if job["id"] == "jmo")
    for spec, counts in [({"argv": ["moments", *AT, "--j-max", "6", "--bits", "128"]},
                          {"weights.table_builds": 1}),
                         ({"argv": ["solve-p3", "--a", "1/2", "--s", "0.05", "--bits", "128"]},
                          {"ode.solves": 1, "ode.rhs_calls": 1}),
                         ({"argv": ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1",
                                    "--t-end", "0.12", "--samples", "3", "--bits", "128"]},
                          {"ode.solves": 1}),
                         # the ode route halts on its first branch and the scan
                         # route stands in, so the run exits 0
                         ({"argv": ["dyson", "--n-list", "4,8", "--bits", "128"]},
                          {"ode.solves": 1, "ode.halts": 1}),
                         # the tracer wraps precision.stabilized, which
                         # certifies each scan point by two runs
                         ({"argv": ["scan", "--mode", "g1", "--s", "0.1", "--n-list", "4,8",
                                    "--bits", "128"]},
                          {"precision.stabilized_evals": 4, "asymptotics.scan_points": 2}),
                         (jmo, {"bridge.rows": 3})]:
        proc = subprocess.run([sys.executable, str(JOB), json.dumps(spec), "1"],
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert (result["status"], result["error"]) == (0, None), result["stderr"]
        assert {key: result["trace"]["counts"][key] for key in counts} == counts


@pytest.mark.parametrize("argv", [
    ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1", "--t-end", "1"],
    ["solve-p3", "--a", "1/2", "--s", "0.5"],
], ids=["solve-pv", "solve-p3"])
def test_default_bits_flows_finish(monkeypatch, argv):
    # solve-pv's endpoint must meet the direct tables to half the digits
    monkeypatch.delenv(ENV_BITS, raising=False)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        status = cli.main(argv)
    assert status == cli.EXIT_OK, err.getvalue()
    if argv[0] == "solve-pv":
        gap = next(line for line in err.getvalue().splitlines() if "endpoint_gap" in line)
        target = cli.target_digits_for_bits(DEFAULT_BITS)
        assert Fraction(gap.split()[-1]) <= Fraction(10) ** -(target // 2)
