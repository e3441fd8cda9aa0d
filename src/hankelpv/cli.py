"""Command-line front end exposing every pipeline with reproducible output.

Exit-status contract: 0 on success, 1 when any row of a verify or bridge
report has passed=false or when solve-pv's endpoint differs from the direct
tables' R_n(t_end) by more than tolerance * max(1, |R_n(t_end)|) (a
finding, not a crash), 2 on numeric breakdown
(precision escalation failure, halted trajectory, unusable scan) and on
usage errors. All real-valued output is printed as decimal strings at
target_digits; identical invocations produce byte-identical output.

Each subcommand's handler reads the parsed argparse namespace, once
config_from_args has resolved --bits and split --n-list, and passes its
value rows under its own column names to report.table_records.

A command loads only what it runs. At import this module loads report,
precision and the parser's choices (choices.py); every handler imports its
pipeline when it runs. So series loads only the series, only the two flow
commands and dyson's flow route load flows.py and ode, and only the
commands that integrate load quadrature. solve_piii_prime and continue_pv
forward to flows.py, importing it when called, and a caller may patch them.
They are all the CLI takes from flows.py: a flow picks its own start and
the grid its rows lie on, and the CLI only renders those rows.
"""

from __future__ import annotations

import argparse
import os
import sys

from mpmath import mp

from . import report
from .choices import (AUX_ROUTES, DEFAULT_N_LIST, FIXED_KINDS, ROUTE_IDENTITY, SCAN_MODES,
                      SERIES_KINDS)
from .precision import (
    DEFAULT_BITS,
    DEFAULT_TARGET_DIGITS,
    ENV_BITS,
    NumericsError,
    PrecisionConfig,
    digits_capacity,
    working_precision,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_NUMERIC = 2

VERIFY_SUITES = ("all", "scalar", "difference", "differential", "ladder", "ode-pn", "integral")
BRIDGE_SUITES = ("all", "parity", "jmo")
JMO_B = "-0.5"  # shifted-weight exponent at 0 when --b is not given

# natural (x, y) columns for --emit-plot-data, per command that offers it
PLOT_KEYS = {
    "moments": ("j", "value"),
    "hankel": ("n", "log_det"),
    "recurrence": ("n", "beta"),
    "aux": ("n", "R"),
    "solve-pv": ("t", "R"),
    "solve-p3": ("s", "g"),
    "scan": ("n", "raw"),
    "series": ("s", "value"),
}


def target_digits_for_bits(bits: int) -> int:
    """Printed significant digits as a function of working precision.

    Scales linearly with bits through the (512, 60) anchor but never
    exceeds what the mantissa can actually certify.
    """
    scaled = (bits * DEFAULT_TARGET_DIGITS) // DEFAULT_BITS
    return max(15, min(scaled, digits_capacity(bits) - 4))


def _default_bits() -> int:
    raw = os.environ.get(ENV_BITS)
    if raw is None:
        return DEFAULT_BITS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_BITS} must be an integer, got {raw!r}") from exc


def _count(least: int):
    """argparse type: an integer count of at least `least`."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _parse_n_list(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"bad n list {raw!r}: comma-separated integers required") from exc
    if not values:
        raise ValueError("n list is empty")
    return values


def solve_piii_prime(*args, **kwargs):
    from .flows import solve_piii_prime

    return solve_piii_prime(*args, **kwargs)


def continue_pv(*args, **kwargs):
    from .flows import continue_pv

    return continue_pv(*args, **kwargs)


def _flow_report(trajectory, columns, config: PrecisionConfig, notes=(), status=EXIT_OK):
    """A flow's grid rows as it returns them, under `columns` (x, y, y'); a
    halted flow exits 2 with a `halted:` note that names the cause and the
    halt point. Every flow reports its accepted Taylor steps and the order
    they ran at."""
    if trajectory.halted:
        notes = [f"halted: {trajectory.halt_reason} at "
                 f"{columns[0]}={report.fmt(trajectory.reached, config)}", *notes]
        status = EXIT_NUMERIC
    notes = [*notes, f"steps: {trajectory.steps}", f"order: {trajectory.order}"]
    return report.table_records(trajectory.samples, columns, config), status, notes


def _cmd_moments(args, config: PrecisionConfig):
    from .weights import MomentTable, make_params

    params = make_params(args.alpha, args.t, config)
    if args.j is not None:
        indices = [args.j]
    else:
        indices = list(range((8 if args.j_max is None else args.j_max) + 1))
    table = MomentTable.build(params, indices[-1], config)
    rows = [(j, params.alpha, params.t, table.mu[j], table.provenance[j]) for j in indices]
    return report.table_records(rows, ("j", "alpha", "t", "value", "route"), config), EXIT_OK, []


def _bits_note(config: PrecisionConfig, used: PrecisionConfig) -> list:
    """The escalation of a pivot pass, if its precision ran out."""
    return [f"bits: {config.bits} -> {used.bits}"] if used.bits > config.bits else []


def _cmd_hankel(args, config: PrecisionConfig):
    from .recurrence import recurrence_table
    from .weights import make_params

    params = make_params(args.alpha, args.t, config)
    orders = [args.n] if args.n is not None else list(range(1, args.n_max + 1))
    table = recurrence_table(orders[-1], params, config)
    rows = [(n, params.alpha, params.t, table.logD[n], 1) for n in orders]
    return (report.table_records(rows, ("n", "alpha", "t", "log_det", "sign"), config),
            EXIT_OK, _bits_note(config, table.config))


def _cmd_recurrence(args, config: PrecisionConfig):
    from .recurrence import recurrence_table
    from .weights import make_params

    params = make_params(args.alpha, args.t, config)
    table = recurrence_table(args.n_max, params, config)
    rows = [(n, table.params.alpha, table.params.t, table.h[n], table.beta[n], table.p1[n],
             table.logD[n]) for n in range(table.n_max + 1)]
    return (report.table_records(rows, ("n", "alpha", "t", "h", "beta", "p1", "log_D"), config),
            EXIT_OK, _bits_note(config, table.config))


def _cmd_aux(args, config: PrecisionConfig):
    from .ladder import aux_table
    from .weights import make_params

    params = make_params(args.alpha, args.t, config)
    aux = aux_table(args.n_max, params, config, route=args.route)
    rows = [(n, aux.params.alpha, aux.params.t, aux.r[n], aux.R[n], aux.sigma[n], args.route)
            for n in range(len(aux.r))]
    return (report.table_records(rows, ("n", "alpha", "t", "r", "R", "sigma", "route"), config),
            EXIT_OK, _bits_note(config, aux.config))


def _residual_report(rows, config: PrecisionConfig, notes: list):
    """A residual report's records, and exit 1 with a note when any row failed."""
    failed = sum(1 for row in rows if not row.passed)
    if failed:
        notes.append(f"findings: {failed} of {len(rows)} rows failed")
    return report.verify_records(rows, config), EXIT_FINDING if failed else EXIT_OK, notes


def _reject_unread(args, option: str, *readers: str, chooser: str = "--suite") -> None:
    """A usage error when `option` was given, but the value of `chooser`
    (--suite or --route) is none of the `readers` that read it."""
    chosen = getattr(args, chooser[2:])
    if getattr(args, option[2:].replace("-", "_")) is not None and chosen not in readers:
        raise ValueError(f"{option} is read only by {chooser} {' or '.join(readers)}, "
                         f"not by {chooser} {chosen}")


def _cmd_verify(args, config: PrecisionConfig):
    from .identities import run_identity_suite
    from .weights import make_params

    _reject_unread(args, "--n", "integral")
    params = make_params(args.alpha, args.t, config)
    rows, bad_signs = run_identity_suite(args.n_max, params, config, args.suite,
                                         2 if args.n is None else args.n)
    notes = []
    if bad_signs:
        joined = ",".join(str(n) for n in bad_signs)
        notes.append(f"sign-monitor: R_n not positive at n={joined}")
    return _residual_report(rows, config, notes)


def _cmd_bridge(args, config: PrecisionConfig):
    from .bridge import make_tilde_params, verify_jmo_sigma_form, verify_parity_splitting
    from .weights import make_params

    for option in ("--n-list", "--b"):
        _reject_unread(args, option, "jmo", "all")
    _reject_unread(args, "--n-max", "parity", "all")
    parity, jmo = args.suite in ("all", "parity"), args.suite in ("all", "jmo")
    if parity and args.n_max is None:
        raise ValueError(f"--suite {args.suite} requires --n-max")
    params = make_params(args.alpha, args.t, config)
    # the jmo rows run first, so a bad jmo input fails before any parity table
    jmo_rows = []
    if jmo:
        tp = make_tilde_params(JMO_B if args.b is None else args.b, args.alpha, args.t, config)
        n_list = list(args.n_list) if args.n_list is not None else [1, 2]
        jmo_rows = verify_jmo_sigma_form(n_list, tp, config)
    rows = verify_parity_splitting(args.n_max, params, config) if parity else []
    return _residual_report(rows + jmo_rows, config, [])


def _cmd_solve_pv(args, config: PrecisionConfig):
    from .weights import make_params

    trajectory = continue_pv(args.n, make_params(args.alpha, args.t0, config), args.t0,
                             args.t_end, config, tolerance=args.tolerance, samples=args.samples)
    notes = []
    status = EXIT_OK
    gap = trajectory.endpoint_gap
    if gap is not None:
        # the flow was asked for this tolerance; R_n(t_end) is the direct tables' value
        with working_precision(config):
            scale = abs(trajectory.endpoint_direct)
            bar = trajectory.tolerance * max(1, scale)
            digits = config.target_digits if gap == 0 else \
                int(mp.floor(min(config.target_digits, -mp.log10(gap / scale))))
        notes.append(f"endpoint_gap: {report.fmt(gap, config)}")
        notes.append(f"endpoint_digits: {digits}")
        if gap > bar:
            notes.append(f"finding: endpoint_gap above tolerance * max(1, |R_n(t_end)|) "
                         f"= {report.fmt(bar, config)}")
            status = EXIT_FINDING
    return _flow_report(trajectory, ("t", "R", "dR"), config, notes, status)


def _cmd_solve_p3(args, config: PrecisionConfig):
    y0 = None if args.g0 is None and args.dg0 is None else (args.g0, args.dg0)
    trajectory = solve_piii_prime(args.a, args.s, config, s0=args.s0, y0=y0,
                                  tolerance=args.tolerance, samples=args.samples)
    return _flow_report(trajectory, ("s", "g", "dg"), config)


def _cmd_scan(args, config: PrecisionConfig):
    from .scans import double_scaling_scan

    n_list = args.n_list if args.n_list is not None else DEFAULT_N_LIST
    result = double_scaling_scan(args.s, n_list, args.alpha, args.mode, config,
                                 allow_large_n=args.allow_large_n,
                                 reference_kind=args.reference)
    notes = [f"{note} at n={n}" for n, used in zip(result.n_list, result.configs)
             for note in _bits_note(config, used)]
    notes += [f"point-error at n={n}: {error}" for n, error in zip(result.n_list, result.errors)
              if error is not None]
    notes += [f"flag: {flag}" for flag in result.flags]
    if result.error_bar is not None:
        notes.append(f"error_bar: {report.fmt(result.error_bar, config)}")
    status = EXIT_OK if result.extrapolated is not None else EXIT_NUMERIC
    rows = [(result.mode, result.s, n, raw, result.extrapolated, result.reference,
             result.agreement_digits) for n, raw in zip(result.n_list, result.raw)]
    columns = ("mode", "s", "n", "raw", "extrapolated", "reference", "agreement_digits")
    return report.table_records(rows, columns, config), status, notes


def _cmd_series(args, config: PrecisionConfig):
    from .series import series_eval

    rows = []
    for part in args.s.split(","):
        value = series_eval(args.kind, part.strip(), config, a=args.a)
        rows.append((value.kind, value.a, value.s, value.value, value.truncation,
                     value.in_regime))
    columns = ("kind", "a", "s", "value", "truncation", "in_regime")
    return report.table_records(rows, columns, config), EXIT_OK, []


def _cmd_dyson(args, config: PrecisionConfig):
    from .scans import dyson_constant_experiment

    _reject_unread(args, "--tolerance", "auto", "ode", chooser="--route")
    n_list = args.n_list if args.n_list is not None else DEFAULT_N_LIST
    experiment = dyson_constant_experiment(args.alpha, args.s_lo, args.s_hi, n_list, config,
                                           route=args.route, tolerance=args.tolerance)
    notes = [f"flag: {flag}" for flag in experiment.flags]
    status = EXIT_OK if experiment.constant_estimate is not None else EXIT_NUMERIC
    columns = ("alpha", "s_lo", "s_hi", "route", "constant_estimate", "reference",
               "exact_constant_sum", "cancellation_ok", "ode_halted", "ode_reached", "flags")
    row = [getattr(experiment, key) for key in columns[:-1]] + [";".join(experiment.flags)]
    return report.table_records([row], columns, config), status, notes


_HANDLERS = {
    "moments": _cmd_moments,
    "hankel": _cmd_hankel,
    "recurrence": _cmd_recurrence,
    "aux": _cmd_aux,
    "verify": _cmd_verify,
    "bridge": _cmd_bridge,
    "solve-pv": _cmd_solve_pv,
    "solve-p3": _cmd_solve_p3,
    "scan": _cmd_scan,
    "series": _cmd_series,
    "dyson": _cmd_dyson,
}


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def run(args: argparse.Namespace) -> int:
    """Execute one invocation, as config_from_args resolves it; returns the exit status."""
    config = PrecisionConfig(bits=args.bits, target_digits=target_digits_for_bits(args.bits))
    records, status, notes = _HANDLERS[args.command](args, config)
    _write_text(report.render(records, args.format), args.output)
    if args.emit_plot_data is not None:
        _write_text(report.plot_lines(records, *PLOT_KEYS[args.command]), args.emit_plot_data)
    for note in notes:
        print(f"{args.command}: {note}", file=sys.stderr)
    return status


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    parser.add_argument("--bits", type=int, default=None,
                        help=f"working precision in bits (default: ${ENV_BITS} or {DEFAULT_BITS})")
    parser.add_argument("--format", choices=report.FORMATS, default=report.FORMAT_CSV)
    parser.add_argument("--output", default=None, help="write the table here instead of stdout")
    if command in PLOT_KEYS:
        parser.add_argument("--emit-plot-data", default=None, metavar="PATH",
                            help="also write a two-column (x, y) file for plotting")
    else:
        parser.set_defaults(emit_plot_data=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankelpv",
        description="Hankel determinant pipelines for the singularly perturbed Jacobi weight",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment table mu_j(t) with route tags")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--j-max", type=_count(0), default=None)
    group.add_argument("--j", type=_count(0), default=None)

    p = sub.add_parser("hankel", help="log Hankel determinants ln D_n(t)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_count(1), default=None)
    group.add_argument("--n-max", type=_count(1), default=None)

    p = sub.add_parser("recurrence", help="h_n, beta_n, p(n,t), ln D_n table")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(1), required=True)

    p = sub.add_parser("aux", help="auxiliary quantities r_n, R_n, sigma_n")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), required=True)
    p.add_argument("--route", choices=AUX_ROUTES, default=ROUTE_IDENTITY)

    p = sub.add_parser("verify", help="residual report for the identity suite")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), required=True)
    p.add_argument("--n", type=_count(1), default=None,
                   help="integral suite only: representation order")

    p = sub.add_parser("bridge", help="parity splitting and shifted-weight reports")
    p.add_argument("--suite", choices=BRIDGE_SUITES, default="all")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), default=None,
                   help="parity rows only, and required by them: largest order")
    p.add_argument("--n-list", default=None, help="jmo rows only: orders, e.g. 1,2")
    p.add_argument("--b", default=None,
                   help=f"jmo rows only: shifted-weight exponent at 0 (default {JMO_B})")

    p = sub.add_parser("solve-pv", help="continue R_n(t) in t by its Painleve V equation")
    p.add_argument("--n", type=_count(0), required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--t-end", required=True)
    p.add_argument("--tolerance", default=None)
    p.add_argument("--samples", type=_count(2), default=17)

    p = sub.add_parser("solve-p3", help="integrate the scaling-limit ODE for g(s)")
    p.add_argument("--a", required=True, help="parameter a, exact fractions accepted")
    p.add_argument("--s", required=True, dest="s", help="target point s_end")
    p.add_argument("--s0", default=None,
                   help="start point s0 > 0; without --g0/--dg0 the small-s series' tail must "
                        "meet the seed budget there (default: the first of min(s/2, 1/8), "
                        "its half, ... that meets it)")
    p.add_argument("--g0", default=None, help="g(s0); with --dg0 and --s0, start the flow there")
    p.add_argument("--dg0", default=None, help="g'(s0); with --g0 and --s0, start the flow there")
    p.add_argument("--tolerance", default=None,
                   help="flow tolerance (default 10^-(printed digits/4)); a small-s seed's tail "
                        "must be at most tolerance^4*max(1,|g0|)")
    p.add_argument("--samples", type=_count(2), default=17)

    p = sub.add_parser("scan", help="finite-n double-scaling scan with extrapolation")
    p.add_argument("--mode", choices=SCAN_MODES, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--n-list", default=None)
    p.add_argument("--reference", choices=FIXED_KINDS, default=None)
    p.add_argument("--allow-large-n", action="store_true")

    p = sub.add_parser("series", help="evaluate a printed asymptotic expansion")
    p.add_argument("--kind", choices=SERIES_KINDS, required=True)
    p.add_argument("--s", required=True, help="point or comma-separated points")
    p.add_argument("--a", default=None)

    p = sub.add_parser("dyson", help="constant-term experiment for the large-s expansion")
    p.add_argument("--alpha", default="1")
    p.add_argument("--s-lo", default="0.05")
    p.add_argument("--s-hi", default="4")
    p.add_argument("--n-list", default=None)
    p.add_argument("--route", choices=("auto", "ode", "scan"), default="auto")
    p.add_argument("--tolerance", default=None)

    for command, p in sub.choices.items():
        _add_common(p, command)
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """A copy of the parsed arguments with --bits resolved and --n-list split."""
    resolved = argparse.Namespace(**vars(args))
    if resolved.bits is None:
        resolved.bits = _default_bits()
    if getattr(resolved, "n_list", None) is not None:
        resolved.n_list = _parse_n_list(resolved.n_list)
    return resolved


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except (NumericsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
