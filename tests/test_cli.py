"""Golden command-line outputs: every subcommand, byte for byte.

Each case runs `hankelpv.cli.main` in-process at 128 bits and compares its
stdout with the file of the same name under tests/golden/ and its exit
status with the recorded one; a second run must print the same bytes.
Residual columns print noise-level digits, so any change in the order of
floating-point operations shows up here. A golden changes only when a
change is meant to alter printed digits, and says so.
"""

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from hankelpv import asymptotics, cli, identities, report
from hankelpv.precision import DEFAULT_BITS, ENV_BITS, PrecisionConfig

GOLDEN = Path(__file__).parent / "golden"
JOB = Path(__file__).parent.parent / "perfbench" / "job.py"

AT = ["--alpha", "1", "--t", "0.5"]

CASES = [
    ("moments", ["moments", *AT, "--j-max", "6"], 0),
    ("hankel", ["hankel", *AT, "--n-max", "6"], 0),
    ("recurrence", ["recurrence", *AT, "--n-max", "6"], 0),
    ("aux", ["aux", "--route", "quadrature", *AT, "--n-max", "4"], 0),
    ("verify", ["verify", "--suite", "all", *AT, "--n-max", "2"], 0),
    ("bridge-parity", ["bridge", "--suite", "parity", *AT, "--n-max", "1"], 0),
    ("bridge-jmo", ["bridge", "--suite", "jmo", *AT, "--n-max", "0", "--n-list", "1"], 0),
    ("solve-pv", ["solve-pv", "--n", "2", "--alpha", "1", "--t0", "0.1",
                  "--t-end", "0.12", "--samples", "3"], 0),
    ("solve-p3", ["solve-p3", "--a", "1/2", "--s", "0.05", "--samples", "3"], 0),
    ("scan", ["scan", "--mode", "g2", "--s", "0.5", "--n-list", "4,8"], 0),
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
        status = cli.main([*argv, "--bits", "128"])
    return status, out.getvalue()


def _rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_every_subcommand_has_a_golden():
    commands = {argv[0] for _, argv, _ in CASES}
    assert commands == set(cli._HANDLERS)


@pytest.mark.parametrize("name, argv, status", CASES, ids=[case[0] for case in CASES])
def test_golden_output(name, argv, status):
    expected = (GOLDEN / f"{name}.csv").read_bytes().decode()
    first = _run(argv)
    assert first == (status, expected)
    assert _run(argv) == first


def test_bridge_jmo_maps_b_to_the_exponent_at_zero(monkeypatch):
    seen = []

    def fake_jmo(n_list, tp, config):
        seen.append((n_list, tp))
        return []

    monkeypatch.setattr(cli, "verify_jmo_sigma_form", fake_jmo)
    status, _ = _run(["bridge", "--suite", "jmo", "--alpha", "2", "--t", "0.5",
                      "--n-max", "0", "--b", "0.25"])
    assert status == 0
    [(n_list, tp)] = seen
    assert n_list == [1, 2]
    assert (tp.a, tp.b, tp.t) == (0.25, 2, 0.5)


def test_fraction_cells_render_as_decimals():
    config = PrecisionConfig(bits=128, target_digits=15)
    assert report.fmt(Fraction(1, 2), config) == "0.5"
    assert report.fmt(Fraction(-1, 3), config) == "-0.333333333333333"


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
    status, out = _run(["bridge", "--suite", suite, "--alpha", "1", "--t", "0.001",
                        "--n-max", "1"])
    rows = _rows(out)
    assert status == 0
    assert rows and all(row["passed"] == "true" for row in rows)


@pytest.mark.parametrize("argv, flag", [
    (["hankel", *AT, "--n-max", "0"], "--n-max"),
    (["verify", "--suite", "all", *AT, "--n-max", "-1"], "--n-max"),
    (["moments", *AT, "--j-max", "-1"], "--j-max"),
    (["verify", "--suite", "scalar", *AT, "--n-max", "-1"], "--n-max"),
], ids=["hankel-n-max-0", "verify-all-n-max-minus-1", "moments-j-max-minus-1",
        "verify-scalar-n-max-minus-1"])
def test_bad_counts_are_usage_errors(argv, flag):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--bits", "128"])
    assert (excinfo.value.code, out.getvalue()) == (cli.EXIT_NUMERIC, "")
    assert f"error: argument {flag}: must be at least" in err.getvalue()


def test_scan_rejects_a_mismatched_reference_before_any_table(monkeypatch):
    built = []
    monkeypatch.setattr(asymptotics, "recurrence_table",
                        lambda *args: built.append(args))
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


G2 = ["--mode", "g2", "--s", "0.5", "--n-list"]


@pytest.mark.parametrize("command, loud, quiet, rows, note", [
    ("recurrence", ["--n-max", "60"], ["--n-max", "6"], 61, ""),
    ("hankel", ["--n-max", "60"], ["--n-max", "6"], 60, ""),
    # the g2 point n = 30 reads the order-62 table
    ("scan", ["4,30"], ["4,8"], 2, " at n=30"),
], ids=["recurrence", "hankel", "scan"])
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


def test_traced_benchmark_job_runs():
    # perfbench/tracer.py wraps package functions by name, so a rename
    # shows here as a failed traced job. For the flows it also swaps
    # OdeProblem.rhs, which the integrator calls once per step to check
    # its jet
    for argv, counts in [(["moments", *AT, "--j-max", "6"], {"weights.table_builds": 1}),
                         (["solve-p3", "--a", "1/2", "--s", "0.05"],
                          {"ode.solves": 1, "ode.rhs_calls": 1})]:
        spec = {"argv": [*argv, "--bits", "128"]}
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
