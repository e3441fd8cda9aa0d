"""Record refs.json: the printed row keys and one reference per job.

    python3 perfbench/record.py

Each job is run once at its own bits to fix the rows it prints. The
reference for each printed value is independent of that run:
  scan, hankel, recurrence: the same invocation at twice the bits;
  solve-p3: the exact-rational small-s series g_small_coefficients(a, 240)
            and its derivative, summed at the abscissae the flow printed;
  solve-pv: R_n and R_n' from recurrence_table at twice the bits at each
            printed t, R_n' through 2tR' = R^2 + (1-2(-1)^n t-2r)R
            - 2(-1)^n(2n+2alpha+1)t, a route that runs no ODE.
Residual jobs record their row keys only. The references record the
branch this revision computes; a change that deliberately changes a
mathematical answer records them again, in a change of its own.
Takes about a minute.
"""

import contextlib
import csv
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp, mpf  # noqa: E402

from hankelpv import asymptotics, cli, report  # noqa: E402
from hankelpv.ladder import aux_R, aux_r  # noqa: E402
from hankelpv.precision import PrecisionConfig, working_precision  # noqa: E402
from hankelpv.recurrence import recurrence_table  # noqa: E402
from hankelpv.weights import make_params  # noqa: E402

import job as job_runner  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KEYS = {"verify": ["identity", "n"], "bridge": ["identity", "n"], "scan": ["mode", "s", "n"],
        "hankel": ["n"], "recurrence": ["n"], "solve-p3": ["s"], "solve-pv": ["t"]}
P3_ORDER = 240


def config(bits):
    return PrecisionConfig(bits=bits, target_digits=cli.target_digits_for_bits(bits))


def option(argv, name):
    return argv[argv.index(name) + 1]


def run(spec, argv=None, spy=None):
    """Printed rows of one job run in this process, and what cli.<spy> returned."""
    captured = []
    if spy is not None:
        original = getattr(cli, spy)
        setattr(cli, spy, lambda *a, **k: captured.append(original(*a, **k)) or captured[-1])
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if "call" in spec:
                status = job_runner.run_call(cli, spec["call"])
            else:
                status = cli.main(argv or spec["argv"])
    finally:
        if spy is not None:
            setattr(cli, spy, original)
    if status != 0:
        sys.exit(f"{spec['id']}: exit status {status}")
    return list(csv.DictReader(io.StringIO(out.getvalue()))), captured


def exact_abscissae(rows, trajectory, key, bits):
    """The abscissa behind each printed row, at the precision the job used."""
    by_print = {report.fmt(sample[0], config(bits)): sample[0] for sample in trajectory.samples}
    return [by_print[row[key]] for row in rows]


def p3_values(spec, rows, trajectory, bits):
    coeffs = asymptotics.g_small_coefficients(Fraction(option(spec["argv"], "--a")), P3_ORDER)
    out = config(2 * bits)
    values = []
    with working_precision(4 * bits):
        c = [mpf(q.numerator) / q.denominator for q in coeffs]
        for s in exact_abscissae(rows, trajectory, "s", bits):
            g = mp.fsum(ck * s ** (k + 1) for k, ck in enumerate(c))
            dg = mp.fsum((k + 1) * ck * s ** k for k, ck in enumerate(c))
            values.append({"g": report.fmt(g, out), "dg": report.fmt(dg, out)})
    return values


def pv_values(spec, rows, trajectory, bits):
    n = int(option(spec["argv"], "--n"))
    out = config(2 * bits)
    values = []
    for t in exact_abscissae(rows, trajectory, "t", bits):
        params = make_params(option(spec["argv"], "--alpha"), t, out)
        rec = recurrence_table(n + 1, params, out)
        with working_precision(out):
            par = -1 if n % 2 else 1
            k1 = 2 * n + 2 * params.alpha + 1
            big_r, r = aux_R(n, rec), aux_r(n, rec)
            d_big_r = (big_r ** 2 + (1 - 2 * par * t - 2 * r) * big_r - 2 * par * k1 * t) / (2 * t)
        values.append({"R": report.fmt(big_r, out), "dR": report.fmt(d_big_r, out)})
    return values


def doubled_values(spec, rows, bits):
    argv = list(spec["argv"])
    argv[argv.index("--bits") + 1] = str(2 * bits)
    doubled, _ = run(spec, argv)
    if [r["n"] for r in doubled] != [r["n"] for r in rows]:
        sys.exit(f"{spec['id']}: rows at twice the bits differ")
    return [{c: r[c] for c in spec["columns"]} for r in doubled]


def reference(spec):
    command = "verify" if "call" in spec else spec["argv"][0]
    bits = job_runner.job_bits(cli, spec)
    spy = {"solve-p3": "solve_piii_prime", "solve-pv": "continue_pv"}.get(command)
    rows, captured = run(spec, spy=spy)
    ref = {"keys": KEYS[command], "rows": [[row[k] for k in KEYS[command]] for row in rows]}
    if spec["check"] == "values":
        if command == "solve-p3":
            ref["values"] = p3_values(spec, rows, captured[0], bits)
        elif command == "solve-pv":
            ref["values"] = pv_values(spec, rows, captured[0], bits)
        else:
            ref["values"] = doubled_values(spec, rows, bits)
    return ref


def main():
    refs = {}
    for workload in WORKLOADS.values():
        for spec in workload["jobs"]:
            refs[spec["id"]] = reference(spec)
            print(f"recorded {spec['id']}", file=sys.stderr)
    with open(os.path.join(HERE, "refs.json"), "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
