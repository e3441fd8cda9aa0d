"""Adaptive high-order ODE integration (extrapolated midpoint / GBS).

The Gragg smoothed-midpoint rule has a pure h^2 error expansion, so
polynomial extrapolation over the even substep sequence n_j = 2, 4, 6, ...
gives a one-step method of any even order whose tableau is exact rational
arithmetic at any working precision (published embedded Runge-Kutta pairs
of order >= 8 ship 16-digit coefficients, which would cap endpoint
accuracy far above what the verification pipelines need). Column j of the
Aitken-Neville tableau combines the passes n_0..n_j; a step advances with
the order-2j entry that leaves out n_0 and estimates its error against
the order-2j+2 entry, an embedded result. The order never drops below 8
(column MIN_ACCEPT_COLUMN).

Order and step size are chosen by work per unit step, as in Deuflhard's
ODEX controller (Numer. Math. 41 (1983) 399-422; Hairer, Norsett &
Wanner, Solving ODEs I, II.9). A step aimed at column k builds columns up
to k+1 and is accepted at the first of the two whose error fits the
budget; otherwise it is rejected. Every column j >= MIN_ACCEPT_COLUMN it
built, up to the last usable column len(SUBSTEP_SEQUENCE) - 2, proposes
the step H_j = H * clip(SAFETY * err_j^(-1/(2j+1)), 1/4, 4) at the cost of
COLUMN_COST[j] right-hand-side calls. The next step takes the column with
the least cost per unit step, judged before the clip, and one column
higher (with H scaled by the cost ratio) when that is the last column
built and the step was accepted there at the first try. A rejected step
retries at no higher column. The first step, a sixteenth of the span at
column MIN_ACCEPT_COLUMN, is a probe: like a step whose shrink the clip cut
short, its size was chosen by no error, so even when it fits it is
retried at the step its errors propose.

Tolerance semantics are deliberately conservative: the internal per-step
error budget is tolerance^4 (clipped at the working precision floor), so
the local error is far below `tolerance` per unit step and halving the
tolerance cuts the achieved global error by roughly 16x. Since every
accepted step has a size some error estimate chose, the error follows the
tolerance also on runs of a handful of high-order steps, though there one
step can set the global error and the gain of a single halving scatters
more widely about 16x.

Dense output: requested sample abscissae are made exact step endpoints,
so sampled values carry full integration accuracy with no interpolation.
A target within the step floor of a full step is landed on rather than
left as a sliver. A step shortened to land keeps the step proposed before
it, so checkpoints do not shrink the steps between them; its column drops
to the cheapest one whose error shows it can take that step (or reach the
next checkpoint, when nearer). Step sequences are deterministic functions
of the problem and config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, working_precision

# columns 0..97. The extrapolation amplifies rounding by about 2^(1.13 k)
# at column k, which at the last usable column, 96, still fits in the 64
# guard bits plus the 48 bits the budget floor leaves. The flows reach
# column 14 at 256 bits, 28 at 512 and 60 at 1024
SUBSTEP_SEQUENCE = tuple(range(2, 197, 2))
MIN_ACCEPT_COLUMN = 4  # advanced value has order 2*4 = 8, the contract minimum
# right-hand-side calls to build columns 0..j of one step; f(x, y) is shared
COLUMN_COST = tuple(1 + sum(SUBSTEP_SEQUENCE[: j + 1]) for j in range(len(SUBSTEP_SEQUENCE)))
TOLERANCE_EXPONENT = 4
SAFETY = mpf(4) / 5
DEFAULT_MAX_STEPS = 50000


class OdeHalt(NumericsError):
    """Integration stopped before x_end; carries the partial trajectory."""

    def __init__(self, message, x, y, samples):
        super().__init__(message)
        self.x = x
        self.y = y
        self.samples = samples


class SingularityHalt(OdeHalt):
    """The problem's singularity_guard fired."""


class StepUnderflowHalt(OdeHalt):
    """Step size collapsed below the precision floor."""


@dataclass
class OdeProblem:
    dimension: int
    rhs: Callable
    x0: object
    y0: Sequence
    x_end: object
    tolerance: object
    singularity_guard: Optional[Callable] = None
    max_steps: int = DEFAULT_MAX_STEPS


def _midpoint_pass(rhs, x, y, f0, H, n):
    """Gragg's smoothed modified midpoint with n substeps; None on overflow."""
    h = H / n
    z_prev = list(y)
    z_cur = [y[i] + h * f0[i] for i in range(len(y))]
    for k in range(1, n):
        fk = rhs(x + k * h, z_cur)
        if fk is None:
            return None
        z_next = [z_prev[i] + 2 * h * fk[i] for i in range(len(y))]
        z_prev, z_cur = z_cur, z_next
    fn = rhs(x + H, z_cur)
    if fn is None:
        return None
    return [(z_cur[i] + z_prev[i] + h * fn[i]) / 2 for i in range(len(y))]


def _finite(values):
    return all(mp.isfinite(v) for v in values)


def _clip(factor):
    return min(max(factor, mpf(1) / 4), mpf(4))


def _extrapolate(rhs, x, y, f0, Hs, column, unit):
    """One GBS step of signed size Hs aimed at `column`.

    Builds the Aitken-Neville rows T[j][k] in (Hs/n_j)^2 up to column+1 and
    stops at the first column j >= column whose error fits. Returns
    (errors, accepted): errors maps every column j >= MIN_ACCEPT_COLUMN
    built to the error of T[j][j-1] in units of unit * (1 + |value|), and
    accepted is (j, T[j][j-1]) or None. Returns None when a pass overflows.
    """
    rows = []
    errors = {}
    for j in range(column + 2):
        n = SUBSTEP_SEQUENCE[j]
        entry = _midpoint_pass(rhs, x, y, f0, Hs, n)
        if entry is None or not _finite(entry):
            return None
        row = [entry]
        for k in range(1, j + 1):
            ratio = (mpf(n) / SUBSTEP_SEQUENCE[j - k]) ** 2
            prev = row[k - 1]
            diag = rows[j - 1][k - 1]
            row.append([prev[i] + (prev[i] - diag[i]) / (ratio - 1) for i in range(len(y))])
        rows.append(row)
        if j >= MIN_ACCEPT_COLUMN:
            # advance with row[j-1] (order 2j); the difference against
            # row[j] estimates exactly its local error, so the realized
            # error tracks the budget linearly
            y_new = row[j - 1]
            errors[j] = max(abs(row[j][i] - y_new[i]) / (unit * (1 + abs(y_new[i])))
                            for i in range(len(y)))
            if j >= column and errors[j] <= 1 and _finite(y_new):
                return errors, (j, y_new)
    return errors, None


def solve_ode(problem: OdeProblem, config: PrecisionConfig, sample_points=None):
    """Integrate problem.rhs from x0 to x_end.

    Returns the trajectory as a list of (x, y_list) pairs containing x0,
    every accepted step endpoint (which includes all requested sample
    points), and x_end. Raises SingularityHalt / StepUnderflowHalt with
    the partial trajectory attached when integration cannot proceed.
    """
    with working_precision(config, extra_bits=64):
        x = mpf(problem.x0)
        x_end = mpf(problem.x_end)
        y = [mpf(v) for v in problem.y0]
        if len(y) != problem.dimension:
            raise ValueError("y0 length does not match problem dimension")
        tol = mpf(problem.tolerance)
        if tol <= 0:
            raise ValueError("tolerance must be positive")
        min_tol = mpf(10) ** (-config.target_digits)
        if tol < min_tol:
            raise ValueError(
                f"tolerance {tol} below 10^-target_digits = {min_tol}"
            )
        budget = max(tol**TOLERANCE_EXPONENT, mpf(2) ** (-(config.bits - 48)))
        span = x_end - x
        if span == 0:
            return [(x, list(y))]
        direction = 1 if span > 0 else -1

        checkpoints = []
        if sample_points is not None:
            checkpoints = sorted((mpf(p) for p in sample_points), reverse=(direction < 0))
            for p in checkpoints:
                if (p - x) * direction < 0 or (x_end - p) * direction < 0:
                    raise ValueError(f"sample point {p} outside integration range")
        checkpoints.append(x_end)

        samples = [(x, list(y))]
        h_floor_rel = mpf(2) ** (-(config.bits // 2))
        tiny = mpf(2) ** (-(config.bits + 64))
        H = abs(span) / 16
        guessed = True  # H was not sized by an error estimate
        column = MIN_ACCEPT_COLUMN
        top = len(SUBSTEP_SEQUENCE) - 2  # a step builds up to column + 1
        steps = 0
        guard = problem.singularity_guard

        def wrapped_rhs(xx, yy):
            vals = problem.rhs(xx, yy)
            vals = [mpf(v) for v in vals]
            if not _finite(vals):
                return None
            return vals

        for index, target in enumerate(checkpoints):
            while (target - x) * direction > 0:
                if guard is not None and guard(x, y):
                    raise SingularityHalt(
                        f"singularity guard fired at x={mp.nstr(x, 17)}",
                        x=x, y=list(y), samples=samples,
                    )
                f0 = wrapped_rhs(x, y)
                rejected = False
                while True:
                    steps += 1
                    if steps > problem.max_steps:
                        raise StepUnderflowHalt(
                            "step budget exhausted", x=x, y=list(y), samples=samples
                        )
                    h_floor = h_floor_rel * max(1, abs(x))
                    if H < h_floor:
                        raise StepUnderflowHalt(
                            f"step size underflow at x={mp.nstr(x, 17)}",
                            x=x, y=list(y), samples=samples,
                        )
                    # land on the target when no more than the step floor
                    # would be left over
                    remaining = abs(target - x)
                    landing = remaining <= H + h_floor
                    step = remaining if landing else H
                    outcome = None
                    if f0 is not None:
                        outcome = _extrapolate(wrapped_rhs, x, y, f0, direction * step,
                                               column, budget * step)
                    if outcome is None:
                        H = H / 2
                        rejected = True
                        continue
                    errors, accepted = outcome
                    # the column with the least cost per unit step, judged
                    # on the unclipped factors: the clip bounds how fast the
                    # step may change, not what a column can do. Column
                    # top + 1 only estimates the error of column top.
                    factors = {
                        j: SAFETY * (err + tiny) ** (-mpf(1) / (2 * j + 1))
                        for j, err in errors.items() if j <= top
                    }
                    best = min(factors, key=lambda j: COLUMN_COST[j] / factors[j])
                    if accepted is None or (guessed and not landing):
                        # retry at the step the errors propose. A step whose
                        # size no error chose (the first one, or a shrink cut
                        # short by the clip) is retried even when it fits:
                        # its error would not follow the tolerance, and on a
                        # short run one such step can set the global error
                        rejected = True
                        column = min(best, column)
                        H = step * _clip(factors[column])
                        guessed = factors[column] < mpf(1) / 4
                        continue
                    j, y = accepted
                    x = target if landing else x + direction * step
                    samples.append((x, list(y)))
                    if step < H - h_floor:
                        # shortened only to land: keep the proposed step, on
                        # the cheapest column this step shows can take it (or
                        # reach the next checkpoint, when that is nearer)
                        if index + 1 < len(checkpoints):
                            reach = min(H, abs(checkpoints[index + 1] - x))
                            able = [i for i in factors if step * factors[i] >= reach]
                            column = min(able, default=column)
                        break
                    H = step * _clip(factors[best])
                    column = best
                    if best == j and j < top and not rejected:
                        H = H * COLUMN_COST[j + 1] / COLUMN_COST[j]
                        column = j + 1
                    break
        return samples
