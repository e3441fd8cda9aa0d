"""Flat-record building and deterministic rendering for the command line.

Every numeric field is rendered through trunc_decimal, never as a binary
float, so a consumer that re-parses the JSON or CSV recovers exactly the
digits that were printed. Each record family has a fixed key order and
the serializers avoid hash-order or locale dependence, which makes a
repeated run byte-identical to the first.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from mpmath import mp, mpf

from .precision import PrecisionConfig, working_precision

FORMAT_CSV = "csv"
FORMAT_JSON = "json"
FORMATS = (FORMAT_CSV, FORMAT_JSON)

# guard digits rendered before truncation, so the kept digits are the
# true leading digits of the decimal expansion rather than a rounding
_GUARD_DIGITS = 12


def _truncate_sig(rendered: str, digits: int) -> str:
    """Cut a decimal string down to `digits` significant digits.

    Truncates instead of rounding: the shorter rendering is then always a
    digit-for-digit prefix of a longer rendering of the same value, which
    is what makes output stable under a precision doubling.
    """
    mantissa, _, exponent = rendered.partition("e")
    sign = ""
    if mantissa[0] in "+-":
        sign, mantissa = mantissa[0], mantissa[1:]
    int_part, _, frac_part = mantissa.partition(".")
    stream = int_part + frac_part
    point = len(int_part)
    first = 0
    while first < len(stream) and stream[first] == "0":
        first += 1
    if first == len(stream):
        return "0.0"
    kept = stream[: first + digits]
    if point > len(kept):
        kept += "0" * (point - len(kept))
    tail = kept[point:] or "0"
    out = f"{sign}{kept[:point]}.{tail}"
    if exponent:
        out += "e" + exponent
    return out


def trunc_decimal(value, config: PrecisionConfig, digits: int | None = None) -> str:
    """Deterministic truncating decimal rendering at `digits` significant digits."""
    d = config.target_digits if digits is None else digits
    with working_precision(config, extra_bits=32):
        if isinstance(value, Fraction):
            x = mpf(value.numerator) / value.denominator
        else:
            x = mpf(value)
        if not mp.isfinite(x):
            return mp.nstr(x, d)
        if x == 0:
            return "0.0"
        return _truncate_sig(mp.nstr(x, d + _GUARD_DIGITS), d)


def fmt(value, config: PrecisionConfig, digits: int | None = None) -> str:
    """One output cell. Numbers go through trunc_decimal, flags to true/false."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return trunc_decimal(value, config, digits)


def moment_records(entries, params, config: PrecisionConfig):
    """entries: iterable of (j, value, route) triples."""
    records = []
    for j, value, route in entries:
        records.append(
            {
                "j": fmt(j, config),
                "alpha": fmt(params.alpha, config),
                "t": fmt(params.t, config),
                "value": fmt(value, config),
                "route": route,
            }
        )
    return records


def hankel_records(entries, params, config: PrecisionConfig):
    """entries: iterable of (n, log_det, sign) triples."""
    records = []
    for n, log_det, sign in entries:
        records.append(
            {
                "n": fmt(n, config),
                "alpha": fmt(params.alpha, config),
                "t": fmt(params.t, config),
                "log_det": fmt(log_det, config),
                "sign": fmt(sign, config),
            }
        )
    return records


def recurrence_records(table, config: PrecisionConfig):
    records = []
    for n in range(table.n_max + 1):
        records.append(
            {
                "n": fmt(n, config),
                "alpha": fmt(table.params.alpha, config),
                "t": fmt(table.params.t, config),
                "h": fmt(table.h[n], config),
                "beta": fmt(table.beta[n], config),
                "p1": fmt(table.p1[n], config),
                "log_D": fmt(table.logD[n], config),
            }
        )
    return records


def aux_records(aux, config: PrecisionConfig):
    records = []
    for n in range(len(aux.r)):
        records.append(
            {
                "n": fmt(n, config),
                "alpha": fmt(aux.params.alpha, config),
                "t": fmt(aux.params.t, config),
                "r": fmt(aux.r[n], config),
                "R": fmt(aux.R[n], config),
                "sigma": fmt(aux.sigma[n], config),
                "route": aux.tags[n],
            }
        )
    return records


def verify_records(rows, config: PrecisionConfig):
    """ReportRow list to flat records, one per residual row."""
    records = []
    for row in rows:
        records.append(
            {
                "identity": row.identity,
                "n": fmt(row.n, config),
                "alpha": fmt(row.alpha, config),
                "t": fmt(row.t, config),
                "bits": fmt(row.bits, config),
                "lhs_scale": fmt(row.lhs_scale, config),
                "residual": fmt(row.residual, config),
                "passed": fmt(row.passed, config),
                "trivial": fmt(row.trivial, config),
                "branch": row.branch,
                "detail": row.detail,
            }
        )
    return records


def scan_records(result, config: PrecisionConfig):
    """ScanResult to one record per n, table-level columns repeated."""
    extrapolated = fmt(result.extrapolated, config)
    reference = fmt(result.reference, config)
    agreement = fmt(result.agreement_digits, config)
    records = []
    for n, raw in zip(result.n_list, result.raw):
        records.append(
            {
                "mode": result.mode,
                "s": fmt(result.s, config),
                "n": fmt(n, config),
                "raw": fmt(raw, config),
                "extrapolated": extrapolated,
                "reference": reference,
                "agreement_digits": agreement,
            }
        )
    return records


def flow_records(rows, columns, config: PrecisionConfig):
    """Trajectory rows (x, y, y') as records keyed by `columns`."""
    return [{key: fmt(value, config) for key, value in zip(columns, row)} for row in rows]


def series_records(entries, config: PrecisionConfig):
    """entries: iterable of (kind, a, s, SeriesValue) tuples."""
    records = []
    for kind, a, s, sv in entries:
        records.append(
            {
                "kind": kind,
                "a": fmt(a, config),
                "s": fmt(s, config),
                "value": fmt(sv.value, config),
                "truncation": fmt(sv.truncation, config),
                "in_regime": fmt(sv.in_regime, config),
            }
        )
    return records


def dyson_records(experiment, config: PrecisionConfig):
    return [
        {
            "alpha": fmt(experiment.alpha, config),
            "s_lo": fmt(experiment.s_lo, config),
            "s_hi": fmt(experiment.s_hi, config),
            "route": experiment.route,
            "constant_estimate": fmt(experiment.constant_estimate, config),
            "reference": fmt(experiment.reference, config),
            "exact_constant_sum": fmt(experiment.exact_constant_sum, config),
            "cancellation_ok": fmt(experiment.cancellation_ok, config),
            "ode_halted": fmt(experiment.ode_halted, config),
            "ode_reached": fmt(experiment.ode_reached, config),
            "flags": ";".join(experiment.flags),
        }
    ]


def to_json(records) -> str:
    """JSON array of flat records; insertion key order, trailing newline."""
    return json.dumps(records, indent=2) + "\n"


def to_csv(records) -> str:
    """CSV with a header row taken from the first record's key order."""
    if not records:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=list(records[0].keys()), lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(records)
    return buf.getvalue()


def render(records, output_format: str) -> str:
    if output_format == FORMAT_JSON:
        return to_json(records)
    if output_format == FORMAT_CSV:
        return to_csv(records)
    raise ValueError(f"unknown format {output_format!r}")


def plot_lines(records, x_key: str, y_key: str) -> str:
    """Two-column whitespace-separated (x, y) series for external plotting."""
    lines = []
    for record in records:
        x = record.get(x_key, "")
        y = record.get(y_key, "")
        if x == "" or y == "":
            continue
        lines.append(f"{x} {y}")
    return "\n".join(lines) + ("\n" if lines else "")
