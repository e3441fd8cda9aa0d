"""Grade one job's printed CSV against its recorded reference.

A job's digits are the fewest correct significant digits among the
numbers it printed, capped at its target digits. For a value this is
-log10 of its relative distance from the recorded reference; for a
residual row it is -log10(residual). A job fails when it raised, exited
with another status than 0, printed rows other than the recorded ones,
printed passed=false, or printed a value with fewer than half its target
digits.
"""

import csv
import io

from mpmath import mp, mpf

mp.prec = 1024  # above the digits of every recorded reference


def _digits(value: str, reference: str | None, cap: int) -> float:
    v = mpf(value)
    if reference is None:  # a residual
        return float(cap) if v == 0 else min(float(cap), float(-mp.log10(abs(v))))
    r = mpf(reference)
    if v == r:
        return float(cap)
    error = abs(v - r) / abs(r) if r != 0 else abs(v)
    return min(float(cap), float(-mp.log10(error)))


def grade(job: dict, result: dict, reference: dict) -> tuple[float | None, str | None]:
    """(digits, None) for a job that passed, (digits or None, reason) for one that failed."""
    if result["error"] is not None:
        return None, "raised: " + result["error"].strip().splitlines()[-1]
    if result["status"] != 0:
        return None, f"exit status {result['status']}"
    rows = list(csv.DictReader(io.StringIO(result["stdout"])))
    keys = [[row.get(k) for k in reference["keys"]] for row in rows]
    if keys != reference["rows"]:
        return None, "printed rows differ from the recorded ones"
    cap = result["target_digits"]
    digits = float(cap)
    try:
        for i, row in enumerate(rows):
            if job["check"] == "residual":
                if row["passed"] != "true":
                    return None, f"row {keys[i]} printed passed={row['passed']}"
                digits = min(digits, _digits(row["residual"], None, cap))
            else:
                for column in job["columns"]:
                    digits = min(digits, _digits(row[column], reference["values"][i][column], cap))
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"unreadable number: {exc}"
    if digits < cap / 2:
        return digits, f"only {digits:.1f} of {cap} digits correct"
    return digits, None
