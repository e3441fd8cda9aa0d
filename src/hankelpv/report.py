"""Flat-record building and deterministic rendering for the command line.

One builder, table_records, turns a command's value rows into records
under the column names that command passes; every cell goes through fmt,
and every number through trunc_decimal, never as a binary float, so a
consumer that re-parses the JSON or CSV recovers exactly the digits that
were printed. Records keep their columns' order and the serializers avoid
hash-order or locale dependence, which makes a repeated run
byte-identical to the first.
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


def table_records(rows, columns, config: PrecisionConfig):
    """Value rows as records keyed by `columns`, every cell through fmt."""
    return [{key: fmt(value, config) for key, value in zip(columns, row)} for row in rows]


VERIFY_COLUMNS = ("identity", "n", "alpha", "t", "bits", "lhs_scale", "residual",
                  "passed", "trivial", "branch", "detail")


def verify_records(rows, config: PrecisionConfig):
    """ReportRow list to flat records, one per residual row."""
    return table_records([[getattr(row, key) for key in VERIFY_COLUMNS] for row in rows],
                         VERIFY_COLUMNS, config)


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
