"""Residual rows, flat-record building and deterministic rendering.

A residual row (ReportRow) is built in one place, residual_row, from the
(scale, residual) pair that normalize gives for one relation written as
signed terms; identities and bridge both report through it, and
verify_records prints its fields in their declared order. One builder,
table_records, turns a command's value rows into records under the column
names that command passes; every cell goes through fmt, and every number
through trunc_decimal, never as a binary float, so a consumer that
re-parses the JSON or CSV recovers exactly the digits that were printed.
Records keep their columns' order and the serializers avoid hash-order or
locale dependence, which makes a repeated run byte-identical to the first.
"""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

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


def trunc_decimal(value, config: PrecisionConfig) -> str:
    """Deterministic truncating decimal rendering at target_digits significant digits."""
    d = config.target_digits
    with working_precision(config, extra_bits=32):
        # a Fraction, or any other numerator/denominator pair; mpf has neither
        if hasattr(value, "numerator") and hasattr(value, "denominator"):
            x = mpf(value.numerator) / value.denominator
        else:
            x = mpf(value)
        if not mp.isfinite(x):
            return mp.nstr(x, d)
        if x == 0:
            return "0.0"
        return _truncate_sig(mp.nstr(x, d + _GUARD_DIGITS), d)


def fmt(value, config: PrecisionConfig) -> str:
    """One output cell. Numbers go through trunc_decimal, flags to true/false."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return trunc_decimal(value, config)


def table_records(rows, columns, config: PrecisionConfig):
    """Value rows as records keyed by `columns`, every cell through fmt."""
    return [{key: fmt(value, config) for key, value in zip(columns, row)} for row in rows]


class ReportRow(NamedTuple):
    """One residual row, its fields in the order they are printed. A named
    tuple rather than a dataclass: every command imports this module, and a
    named tuple class is about ten times cheaper to create."""

    identity: str
    n: int
    alpha: mpf
    t: mpf
    bits: int
    lhs_scale: mpf
    residual: mpf
    passed: bool
    trivial: bool
    branch: str
    detail: str


def normalize(*relations, floor=0):
    """(scale, residual) of one row at the ambient precision.

    Each relation is a list of signed terms whose fsum vanishes when it
    holds. scale is the largest |term| over every list, and at least
    floor; residual is the largest |fsum| over the lists, over scale. No
    lists, or a scale of 0, give (0, None): a trivially true row.
    """
    scale = max([mpf(floor)] + [abs(v) for terms in relations for v in terms])
    if not relations or scale == 0:
        return mpf(0), None
    return scale, max(abs(mp.fsum(terms)) for terms in relations) / scale


def worst_sample(samples):
    """The (scale, residual) sample with the largest residual (the first on
    a tie), for rows that report the worst of several sample points.

    Trivial samples (residual None) are skipped; (0, None) comes back when
    no sample is left.
    """
    return max((s for s in samples if s[1] is not None), key=lambda s: s[1],
               default=(mpf(0), None))


def residual_row(identity, n, alpha, t, config: PrecisionConfig, scale, residual,
                 branch="", detail="") -> ReportRow:
    """The one ReportRow builder.

    A None residual marks a trivially true row: it prints residual 0 and
    passes. Any other row passes when its residual is at most the config's
    residual threshold.
    """
    trivial = residual is None
    if trivial:
        residual, passed = mpf(0), True
    else:
        passed = bool(residual <= config.residual_threshold())
    return ReportRow(identity, n, alpha, t, config.bits, scale, residual, passed,
                     trivial, branch, detail)


def verify_records(rows, config: PrecisionConfig):
    """ReportRow list to flat records, one per residual row."""
    return table_records(rows, ReportRow._fields, config)


def to_json(records) -> str:
    """JSON array of flat records; insertion key order, trailing newline."""
    import json

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
