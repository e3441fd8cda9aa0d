"""Command-line front end exposing every pipeline with reproducible output.

Exit-status contract: 0 on success, 1 when any row of a verify or bridge
report has passed=false (a finding, not a crash), 2 on numeric breakdown
(precision escalation failure, halted trajectory, unusable scan) and on
usage errors. All real-valued output is printed as decimal strings at
target_digits; identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

from . import report
from .asymptotics import (
    DEFAULT_N_LIST,
    FIXED_KINDS,
    SCAN_MODES,
    SEED_EXPLICIT,
    SEED_LARGE_SERIES,
    SEED_SMALL_SERIES,
    SERIES_KINDS,
    continue_pv,
    double_scaling_scan,
    dyson_constant_experiment,
    series_eval,
    solve_piii_prime,
)
from .bridge import make_tilde_params, verify_jmo_sigma_form, verify_parity_splitting
from .identities import (
    DEFAULT_Z_POINTS,
    run_identity_suite,
    sign_monitor,
    verify_difference_equations,
    verify_differential,
    verify_integral_representation,
    verify_ladder_relations,
    verify_linear_ode_Pn,
    verify_scalar_identities,
)
from .ladder import ROUTE_IDENTITY, ROUTE_QUADRATURE, aux_table
from .precision import (
    DEFAULT_BITS,
    DEFAULT_TARGET_DIGITS,
    ENV_BITS,
    MIN_BITS,
    EscalationError,
    NumericsError,
    PrecisionConfig,
    digits_capacity,
    to_mpf,
    working_precision,
)
from .recurrence import hankel_log_dets, recurrence_table
from .special import UnsupportedArgumentError
from .weights import MomentTable, make_params

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_NUMERIC = 2

VERIFY_SUITES = (
    "all",
    "scalar",
    "difference",
    "differential",
    "ladder",
    "ode-pn",
    "integral",
)
BRIDGE_SUITES = ("all", "parity", "jmo")
AUX_ROUTES = (ROUTE_IDENTITY, ROUTE_QUADRATURE)

# natural (x, y) columns for --emit-plot-data, per command
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


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation; identical configs give identical bytes."""

    command: str
    bits: int
    format: str = report.FORMAT_CSV
    output: str | None = None
    emit_plot_data: str | None = None
    alpha: str | None = None
    t: str | None = None
    s: str | None = None
    n: int | None = None
    n_max: int | None = None
    n_list: tuple[int, ...] | None = None
    suite: str | None = None
    options: dict = field(default_factory=dict)


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


def _make_precision(run: RunConfig) -> PrecisionConfig:
    if run.bits < MIN_BITS:
        raise ValueError(f"bits must be at least {MIN_BITS}")
    return PrecisionConfig(bits=run.bits, target_digits=target_digits_for_bits(run.bits))


def _grid(a, b, count: int, config: PrecisionConfig):
    """count points from a to b inclusive, at working precision."""
    with working_precision(config):
        lo = to_mpf(a, config)
        hi = to_mpf(b, config)
        if count < 2 or lo == hi:
            return [lo, hi] if lo != hi else [lo]
        step = (hi - lo) / (count - 1)
        points = [lo + k * step for k in range(count - 1)]
        points.append(hi)
        return points


def _nearest_rows(samples, points):
    """Pick one trajectory row per requested point, deduplicated, in order."""
    chosen = []
    seen = set()
    for p in points:
        best = min(range(len(samples)), key=lambda i: abs(samples[i][0] - p))
        if best not in seen:
            seen.add(best)
            chosen.append(samples[best])
    return chosen


def _flow_notes(trajectory) -> list:
    """The flow's accepted Taylor steps and the order they ran at."""
    return [f"steps: {trajectory.steps}", f"order: {trajectory.order}"]


def _cmd_moments(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    single = run.options.get("j")
    if single is not None:
        indices = [single]
    else:
        j_max = run.options.get("j_max")
        indices = list(range((8 if j_max is None else j_max) + 1))
    table = MomentTable.build(params, indices[-1], config)
    entries = [(j, table.mu[j], table.provenance[j]) for j in indices]
    return report.moment_records(entries, params, config), EXIT_OK, []


def _bits_note(config: PrecisionConfig, used: PrecisionConfig) -> list:
    """The escalation of a pivot pass, if its precision ran out."""
    return [f"bits: {config.bits} -> {used.bits}"] if used.bits > config.bits else []


def _cmd_hankel(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    orders = [run.n] if run.n is not None else list(range(1, run.n_max + 1))
    log_dets, used = hankel_log_dets(orders[-1], params, config)
    entries = [(n, log_dets[n - 1], 1) for n in orders]
    return report.hankel_records(entries, params, config), EXIT_OK, _bits_note(config, used)


def _cmd_recurrence(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    table = recurrence_table(run.n_max, params, config)
    return (report.recurrence_records(table, config), EXIT_OK,
            _bits_note(config, table.config))


def _cmd_aux(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    aux = aux_table(run.n_max, params, config, route=run.options["route"])
    return report.aux_records(aux, config), EXIT_OK, []


def _verify_rows(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    n_max = run.n_max
    suite = run.suite
    if suite == "all":
        return run_identity_suite(n_max, params, config)
    if suite == "differential":
        return verify_differential(list(range(n_max + 1)), params, config), []
    if suite == "integral":
        if params.t <= 0:
            raise ValueError("the integral representation needs t > 0")
        n = run.n if run.n is not None else 2
        return [verify_integral_representation(n, params, params.t, config=config)], []
    rec = recurrence_table(n_max + 2, params, config)
    aux_q = aux_table(n_max + 1, params, config, route=ROUTE_QUADRATURE, recurrence=rec)
    if suite == "scalar":
        rows = verify_scalar_identities(n_max, params, aux_q, rec, config)
    elif suite == "difference":
        rows = verify_difference_equations(n_max, params, aux_q, config)
    elif suite == "ladder":
        rows = verify_ladder_relations(
            min(n_max, 8), DEFAULT_Z_POINTS, params, aux_q, rec, config
        )
    else:
        rows = [
            verify_linear_ode_Pn(n, DEFAULT_Z_POINTS, params, aux_q, rec, config)
            for n in range(min(n_max, 8) + 1)
        ]
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows, sign_monitor(aux_q)


def _cmd_verify(run: RunConfig, config: PrecisionConfig):
    rows, bad_signs = _verify_rows(run, config)
    notes = []
    if bad_signs:
        joined = ",".join(str(n) for n in bad_signs)
        notes.append(f"sign-monitor: R_n not positive at n={joined}")
    failed = sum(1 for row in rows if not row.passed)
    if failed:
        notes.append(f"findings: {failed} of {len(rows)} rows failed")
    status = EXIT_FINDING if failed else EXIT_OK
    return report.verify_records(rows, config), status, notes


def _cmd_bridge(run: RunConfig, config: PrecisionConfig):
    params = make_params(run.alpha, run.t, config)
    rows = []
    if run.suite in ("all", "parity"):
        rows += verify_parity_splitting(run.n_max, params, config)
    if run.suite in ("all", "jmo"):
        if params.t <= 0:
            raise ValueError("the jmo rows need t > 0: the t-derivatives of H_n use "
                             "moments of negative order")
        tp = make_tilde_params(run.options["b"], run.alpha, run.t, config)
        n_list = run.n_list if run.n_list is not None else (1, 2)
        rows += verify_jmo_sigma_form(list(n_list), tp, config)
    notes = []
    failed = sum(1 for row in rows if not row.passed)
    if failed:
        notes.append(f"findings: {failed} of {len(rows)} rows failed")
    status = EXIT_FINDING if failed else EXIT_OK
    return report.verify_records(rows, config), status, notes


def _cmd_solve_pv(run: RunConfig, config: PrecisionConfig):
    t0 = run.options["t0"]
    t_end = run.options["t_end"]
    params = make_params(run.alpha, t0, config)
    points = _grid(t0, t_end, run.options["samples"], config)
    tolerance = run.options.get("tolerance")
    trajectory = continue_pv(
        run.n, params, t0, t_end, config,
        tolerance=None if tolerance is None else to_mpf(tolerance, config),
        sample_points=points,
    )
    trimmed = replace(
        trajectory, samples=_nearest_rows(trajectory.samples, points)
    )
    notes = []
    status = EXIT_OK
    if trajectory.halted:
        notes.append(f"halted: {trajectory.halt_reason} at t={report.fmt(trajectory.samples[-1][0], config)}")
        status = EXIT_NUMERIC
    elif trajectory.endpoint_gap is not None:
        notes.append(f"endpoint_gap: {report.fmt(trajectory.endpoint_gap, config)}")
    notes += _flow_notes(trajectory)
    return report.pv_records(trimmed, config), status, notes


def _cmd_solve_p3(run: RunConfig, config: PrecisionConfig):
    opts = run.options
    seed = opts["seed"]
    s_end = to_mpf(run.s, config)
    s0 = opts.get("s0")
    y0 = None
    if seed == SEED_EXPLICIT:
        if s0 is None or opts.get("g0") is None or opts.get("dg0") is None:
            raise ValueError("explicit seed needs --s0, --g0 and --dg0")
        y0 = (to_mpf(opts["g0"], config), to_mpf(opts["dg0"], config))
    with working_precision(config):
        if s0 is not None:
            start = to_mpf(s0, config)
        elif seed == SEED_LARGE_SERIES:
            start = 2 * s_end
        else:
            start = min(s_end / 2, to_mpf("0.125", config))
    points = _grid(start, s_end, opts["samples"], config)
    tolerance = opts.get("tolerance")
    trajectory = solve_piii_prime(
        opts["a"], s_end, config, seed=seed,
        s0=None if s0 is None else to_mpf(s0, config), y0=y0,
        tolerance=None if tolerance is None else to_mpf(tolerance, config),
        sample_points=[p for p in points if p != start] or None,
        seed_order=opts.get("seed_order"),
    )
    trimmed = replace(
        trajectory, samples=_nearest_rows(trajectory.samples, points)
    )
    notes = []
    status = EXIT_OK
    if trajectory.halted:
        notes.append(f"halted: {trajectory.halt_reason} at s={report.fmt(trajectory.reached, config)}")
        status = EXIT_NUMERIC
    notes += _flow_notes(trajectory)
    return report.piii_records(trimmed, config), status, notes


def _cmd_scan(run: RunConfig, config: PrecisionConfig):
    n_list = run.n_list if run.n_list is not None else DEFAULT_N_LIST
    result = double_scaling_scan(
        run.s, n_list, run.alpha, run.options["mode"], config,
        allow_large_n=run.options["allow_large_n"],
        reference_kind=run.options.get("reference"),
    )
    notes = [f"{note} at n={n}" for n, used in zip(result.n_list, result.configs)
             for note in _bits_note(config, used)]
    notes += [f"flag: {flag}" for flag in result.flags]
    if result.error_bar is not None:
        notes.append(f"error_bar: {report.fmt(result.error_bar, config)}")
    status = EXIT_OK if result.extrapolated is not None else EXIT_NUMERIC
    return report.scan_records(result, config), status, notes


def _cmd_series(run: RunConfig, config: PrecisionConfig):
    entries = []
    for part in run.s.split(","):
        value = series_eval(run.options["kind"], part.strip(), config, a=run.options.get("a"))
        entries.append((value.kind, value.a, value.s, value))
    return report.series_records(entries, config), EXIT_OK, []


def _cmd_dyson(run: RunConfig, config: PrecisionConfig):
    n_list = run.n_list if run.n_list is not None else DEFAULT_N_LIST
    tolerance = run.options.get("tolerance")
    experiment = dyson_constant_experiment(
        run.alpha, run.options["s_lo"], run.options["s_hi"], n_list, config,
        route=run.options["route"],
        tolerance=None if tolerance is None else to_mpf(tolerance, config),
    )
    notes = [f"flag: {flag}" for flag in experiment.flags]
    status = EXIT_OK if experiment.constant_estimate is not None else EXIT_NUMERIC
    return report.dyson_records(experiment, config), status, notes


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


def run(run_config: RunConfig) -> int:
    """Execute one invocation; returns the exit status."""
    config = _make_precision(run_config)
    records, status, notes = _HANDLERS[run_config.command](run_config, config)
    _write_text(report.render(records, run_config.format), run_config.output)
    if run_config.emit_plot_data is not None:
        x_key, y_key = PLOT_KEYS[run_config.command]
        _write_text(report.plot_lines(records, x_key, y_key), run_config.emit_plot_data)
    for note in notes:
        print(f"{run_config.command}: {note}", file=sys.stderr)
    return status


def _add_common(parser: argparse.ArgumentParser, plot: bool = False) -> None:
    parser.add_argument("--bits", type=int, default=None,
                        help=f"working precision in bits (default: ${ENV_BITS} or {DEFAULT_BITS})")
    parser.add_argument("--format", choices=report.FORMATS, default=report.FORMAT_CSV)
    parser.add_argument("--output", default=None, help="write the table here instead of stdout")
    if plot:
        parser.add_argument("--emit-plot-data", default=None, metavar="PATH",
                            help="also write a two-column (x, y) file for plotting")


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
    _add_common(p, plot=True)

    p = sub.add_parser("hankel", help="log Hankel determinants ln D_n(t)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_count(1), default=None)
    group.add_argument("--n-max", type=_count(1), default=None)
    _add_common(p, plot=True)

    p = sub.add_parser("recurrence", help="h_n, beta_n, p(n,t), ln D_n table")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(1), required=True)
    _add_common(p, plot=True)

    p = sub.add_parser("aux", help="auxiliary quantities r_n, R_n, sigma_n")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), required=True)
    p.add_argument("--route", choices=AUX_ROUTES, default=ROUTE_IDENTITY)
    _add_common(p, plot=True)

    p = sub.add_parser("verify", help="residual report for the identity suite")
    p.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), required=True)
    p.add_argument("--n", type=_count(1), default=None,
                   help="integral suite only: representation order")
    _add_common(p)

    p = sub.add_parser("bridge", help="parity splitting and shifted-weight reports")
    p.add_argument("--suite", choices=BRIDGE_SUITES, default="all")
    p.add_argument("--alpha", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--n-max", type=_count(0), required=True)
    p.add_argument("--n-list", default=None, help="orders for the jmo rows, e.g. 1,2")
    p.add_argument("--b", default="-0.5", help="shifted-weight exponent at 0")
    _add_common(p)

    p = sub.add_parser("solve-pv", help="continue R_n(t) in t by its Painleve V equation")
    p.add_argument("--n", type=_count(0), required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--t0", required=True)
    p.add_argument("--t-end", required=True)
    p.add_argument("--tolerance", default=None)
    p.add_argument("--samples", type=int, default=17)
    _add_common(p, plot=True)

    p = sub.add_parser("solve-p3", help="integrate the scaling-limit ODE for g(s)")
    p.add_argument("--a", required=True, help="parameter a, exact fractions accepted")
    p.add_argument("--s", required=True, dest="s", help="target point s_end")
    p.add_argument("--seed", choices=(SEED_SMALL_SERIES, SEED_LARGE_SERIES, SEED_EXPLICIT),
                   default=SEED_SMALL_SERIES)
    p.add_argument("--s0", default=None)
    p.add_argument("--g0", default=None)
    p.add_argument("--dg0", default=None)
    p.add_argument("--tolerance", default=None)
    p.add_argument("--seed-order", type=int, default=None)
    p.add_argument("--samples", type=int, default=17)
    _add_common(p, plot=True)

    p = sub.add_parser("scan", help="finite-n double-scaling scan with extrapolation")
    p.add_argument("--mode", choices=SCAN_MODES, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--alpha", default="1")
    p.add_argument("--n-list", default=None)
    p.add_argument("--reference", choices=FIXED_KINDS, default=None)
    p.add_argument("--allow-large-n", action="store_true")
    _add_common(p, plot=True)

    p = sub.add_parser("series", help="evaluate a printed asymptotic expansion")
    p.add_argument("--kind", choices=SERIES_KINDS, required=True)
    p.add_argument("--s", required=True, help="point or comma-separated points")
    p.add_argument("--a", default=None)
    _add_common(p, plot=True)

    p = sub.add_parser("dyson", help="constant-term experiment for the large-s expansion")
    p.add_argument("--alpha", default="1")
    p.add_argument("--s-lo", default="0.05")
    p.add_argument("--s-hi", default="4")
    p.add_argument("--n-list", default=None)
    p.add_argument("--route", choices=("auto", "ode", "scan"), default="auto")
    p.add_argument("--tolerance", default=None)
    _add_common(p)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    bits = args.bits if args.bits is not None else _default_bits()
    n_list = None
    if getattr(args, "n_list", None) is not None:
        n_list = _parse_n_list(args.n_list)
    options = {}
    for key in ("j", "j_max", "route", "b", "t0", "t_end", "tolerance", "samples",
                "a", "seed", "s0", "g0", "dg0", "seed_order", "mode",
                "reference", "allow_large_n", "kind", "s_lo", "s_hi"):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        bits=bits,
        format=args.format,
        output=args.output,
        emit_plot_data=getattr(args, "emit_plot_data", None),
        alpha=getattr(args, "alpha", None),
        t=getattr(args, "t", None),
        s=getattr(args, "s", None),
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        n_list=n_list,
        suite=getattr(args, "suite", None),
        options=options,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run_config = config_from_args(args)
        return run(run_config)
    except (NumericsError, EscalationError, UnsupportedArgumentError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
