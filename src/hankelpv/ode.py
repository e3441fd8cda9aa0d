"""Adaptive Taylor-series ODE integration from Cauchy-product recurrences.

Every flow here is polynomial once its denominators are cleared, so the
Taylor coefficients of its solution through any point (x, y) follow order
by order from Cauchy products of the coefficients already known. Each
problem supplies them as a jet, `jet(x, y, order)`: one list of
coefficients a_0 = y_i, a_1, ..., a_order per component (Jorba & Zou,
Experiment. Math. 14 (2005) 99-117; `cauchy` is the shared product).

Budget. The per-step error budget is tolerance^4, clipped at the working
precision floor 2^-(bits-48), so the local error is far below `tolerance`
per unit step and halving the tolerance cuts the achieved global error by
roughly 16x.

Order. p = 2 ceil(log_16(1/budget)), never below 8. Halving the tolerance
divides the budget by 16 and so raises the order by exactly two: a run of a
single step still gains accuracy, and the parity of the order, which sets
the character of the leading error term (in an oscillation, amplitude or
phase), stays fixed, so the error falls with the tolerance on short runs
too. The order tracks the digit count at 1.44 times the order -ln(budget)/2
that minimizes the work per unit length in Jorba & Zou's model, whose
minimum is flat: at budget 1e-28 the model charges the higher order about
15% more work.

Step. The jet runs ESTIMATE_TERMS orders past p, and the step advances with
the degree-p polynomial, so those last coefficients are an embedded
estimate of its error: the step is the largest h at which each of them,
|a_k| h^k, stays within ESTIMATE_SHARE * budget * h * (1 + |y_i|) in every
component. When they vanish in every component the solution is a
polynomial of lower degree and the step runs to x_end. A step within the
step floor of x_end lands on it.

Dense output. Requested sample abscissae are evaluated by Horner on the
Taylor polynomial of the step that covers them, so checkpoints never
shorten a step and sampled values carry the step's accuracy.

Singular points. A problem may name the state-dependent factor of its
cleared denominator (`denominator(x, y)`). The jet divides by it at every
order, and the solution can be analytic where it vanishes (an apparent
singularity of the equation), so the coefficient decay would step straight
across. A step that would carry the factor through zero is halved until it
keeps its sign, so the flow approaches such a point geometrically and the
singularity guard stops it there.

Halts. The singularity guard, checked before every step, raises
SingularityHalt; a step below the floor 2^-(bits/2) max(1, |x|) and more
than max_steps accepted steps raise StepUnderflowHalt. Either carries the
trajectory so far.

Defect check. After each step, problem.rhs at the step end is compared
with the derivative of the step's Taylor polynomial there. A jet that
encodes its equation meets it within the derivative of the truncation
error; a mismatch beyond DEFECT_SAFETY * p * budget raises JetDefectError,
an independent check on the hand-cleared recurrences.

Step sequences are deterministic functions of the problem and config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, working_precision

TOLERANCE_EXPONENT = 4
MIN_ORDER = 8
ESTIMATE_TERMS = 2
# each estimate term may take this share of the budget per unit step: the
# estimate leaves out the tail past it and the build-up over many steps
ESTIMATE_SHARE = mpf(1) / 512
DEFAULT_MAX_STEPS = 50000
# a correct jet meets its rhs within about p * budget * (1 + |y| + |h y'|)
DEFECT_SAFETY = 2 ** 10


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
    """Step size collapsed below the precision floor, or max_steps ran out."""


class JetDefectError(NumericsError):
    """The jet's Taylor polynomial does not satisfy problem.rhs."""


class Samples(list):
    """Trajectory rows (x, y): x0, every step end and every sample point, in
    order of x; `steps` counts the accepted steps that made them, each a
    Taylor polynomial of degree `order`."""

    steps = 0
    order = 0


@dataclass
class OdeProblem:
    """y' = rhs(x, y) from (x0, y0) to x_end.

    jet(x, y, order) returns, for each component, the Taylor coefficients
    a_0 .. a_order of the solution through (x, y). denominator(x, y), when
    given, is the factor the jet divides by; the flow is singular where it
    vanishes.
    """

    dimension: int
    rhs: Callable
    jet: Callable
    x0: object
    y0: Sequence
    x_end: object
    tolerance: object
    singularity_guard: Optional[Callable] = None
    denominator: Optional[Callable] = None
    max_steps: int = DEFAULT_MAX_STEPS


def cauchy(a, b, m, start=0):
    """sum_{i=start}^{m} a_i b_(m-i), the order-m coefficient of a product.

    `a` may be shorter than m + 1 (a polynomial factor such as the powers
    of x0 + tau): the pairs stop with its last coefficient.
    """
    if m < start:
        return mpf(0)
    return mp.fdot(a[start:m + 1], b[m - start::-1])


def _taylor_order(budget) -> int:
    """Order of the steps at this budget: two more per factor 16."""
    return max(MIN_ORDER, 2 * int(mp.ceil(-mp.log(budget, 16))))


def _horner(coefficients, tau):
    total = mpf(0)
    for c in reversed(coefficients):
        total = total * tau + c
    return total


def _slope(coefficients, tau):
    total = mpf(0)
    for k in range(len(coefficients) - 1, 0, -1):
        total = total * tau + k * coefficients[k]
    return total


def _decay_step(rows, order, budget):
    """Largest step at which every coefficient past `order` fits its share
    of the budget per unit step in every row; None when they all vanish."""
    step = None
    for row in rows:
        share = ESTIMATE_SHARE * budget * (1 + abs(row[0]))
        for k in range(order + 1, order + ESTIMATE_TERMS + 1):
            if row[k]:
                h = (share / abs(row[k])) ** (mpf(1) / (k - 1))
                step = h if step is None else min(step, h)
    return step


def solve_ode(problem: OdeProblem, config: PrecisionConfig, sample_points=None):
    """Integrate problem from x0 to x_end.

    Returns Samples: (x, y_list) rows for x0, every accepted step end and
    every requested sample point, ending at x_end. Raises SingularityHalt /
    StepUnderflowHalt with the partial trajectory attached when integration
    cannot proceed, and JetDefectError when the jet misses the rhs.
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
        samples = Samples([(x, list(y))])
        samples.order = order = _taylor_order(budget)
        span = x_end - x
        if span == 0:
            return samples
        direction = 1 if span > 0 else -1

        pending = []
        if sample_points is not None:
            pending = sorted((mpf(p) for p in sample_points), reverse=(direction < 0))
            for p in pending:
                if (p - x) * direction < 0 or (x_end - p) * direction < 0:
                    raise ValueError(f"sample point {p} outside integration range")
        # x0 and x_end are rows of every trajectory
        pending = [p for p in pending if p != x and p != x_end]

        h_floor_rel = mpf(2) ** (-(config.bits // 2))
        guard = problem.singularity_guard
        denominator = problem.denominator

        def halt(kind, message):
            return kind(message, x=x, y=list(y), samples=samples)

        while x != x_end:
            if guard is not None and guard(x, y):
                raise halt(SingularityHalt, f"singularity guard fired at x={mp.nstr(x, 17)}")
            if samples.steps >= problem.max_steps:
                raise halt(StepUnderflowHalt, "step budget exhausted")
            rows = problem.jet(x, y, order + ESTIMATE_TERMS)
            state = [row[:order + 1] for row in rows]
            h_floor = h_floor_rel * max(1, abs(x))
            remaining = abs(x_end - x)
            h = _decay_step(rows, order, budget)
            if h is None or remaining <= h + h_floor:
                h = remaining
            sign = None if denominator is None else mp.sign(denominator(x, y))
            while True:
                if h < h_floor:
                    raise halt(StepUnderflowHalt, f"step size underflow at x={mp.nstr(x, 17)}")
                x_new = x_end if h == remaining else x + direction * h
                tau = x_new - x
                y_new = [_horner(row, tau) for row in state]
                if sign is None or mp.sign(denominator(x_new, y_new)) == sign:
                    break
                h = h / 2

            while pending and (x_new - pending[0]) * direction > 0:
                point = pending.pop(0)
                samples.append((point, [_horner(row, point - x) for row in state]))
            if pending and pending[0] == x_new:
                pending.pop(0)

            f = problem.rhs(x_new, y_new)
            for i, row in enumerate(state):
                slope = _slope(row, tau)
                gap = abs(f[i] - slope)
                bound = DEFECT_SAFETY * order * budget * (1 + abs(y_new[i]) + abs(tau * slope))
                if not gap <= bound:
                    raise JetDefectError(
                        f"jet misses rhs component {i} by {mp.nstr(gap, 3)} "
                        f"(bound {mp.nstr(bound, 3)}) at x={mp.nstr(x_new, 17)}")

            x, y = x_new, y_new
            samples.append((x, list(y)))
            samples.steps += 1
        return samples
