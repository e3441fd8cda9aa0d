"""Adaptive Taylor-series ODE integration from Cauchy-product recurrences.

Every flow here is polynomial once its denominators are cleared, so the
Taylor coefficients of its solution through any point (x, y) follow order
by order from Cauchy products of the coefficients already known (Jorba &
Zou, Experiment. Math. 14 (2005) 99-117). Each problem supplies them as a
jet, `jet(x, y, order, scale)`: one row of coefficients per component, in
the scaled variable sigma = (x' - x) / 2^scale and in fixed point.

Fixed point. A row holds Python-int mantissas at one binary point F =
binary_point(), the working precision's bits plus GUARD_BITS: entry k is
a_k 2^(scale k) 2^F rounded down, and entry 0 is y_i. Each Cauchy product
is one integer dot product (int_cauchy) shifted down by F, so every
operation rounds by 2^-F absolute, below the budget's own absolute terms
(Brent & Zimmermann, Modern Computer Arithmetic, CUP 2010, ch. 1-3). The
module holds fixed-point arithmetic only: the mpf series products of the
moment-route jets are recurrence.cauchy.

Scale. The power of two 2^scale is chosen near the step, so the scaled
terms are near the size of their contribution to it: at the step the
estimate terms are about ESTIMATE_SHARE * budget * 2^scale, and at F =
bits + 96 they keep about 135 + scale bits whatever the radius of
convergence, where an unscaled binary point rounds the tail of a
wide-radius jet away. The first jet of a run is scaled to the whole span,
each later one to the step estimate of the jet before. A jet whose step
estimate, or with a vanishing tail the span left, exceeds twice its scale
is taken again at that scale, so a vanishing tail stays below 2^-F on the
whole span left.

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

Dense output. The step end and requested sample abscissae are evaluated
by integer Horner sums on the Taylor polynomial of the step that covers
them, so checkpoints never shorten a step and sampled values carry the
step's accuracy.

Singular points. A problem may name the state-dependent factor of its
cleared denominator (`denominator(x, y)`). The jet divides by it at every
order, and the solution can be analytic where it vanishes (an apparent
singularity of the equation), so the coefficient decay would step straight
across. A step that would carry the factor through zero is halved until it
keeps its sign, so the flow approaches such a point geometrically and the
singularity guard stops it there.

Halts. The singularity guard, checked before every step, raises
SingularityHalt; a step below the floor 2^-(bits/2) max(1, |x|) and more
than DEFAULT_MAX_STEPS accepted steps raise StepUnderflowHalt. Either
carries the halt point and the trajectory so far; its message names only
the cause.

Defect check. After each step, problem.rhs at the step end is compared
with the derivative of the step's Taylor polynomial there. A jet that
encodes its equation meets it within the derivative of the truncation
error; a mismatch beyond DEFECT_SAFETY * p * budget raises JetDefectError,
an independent check on the hand-cleared recurrences.

Step sequences are deterministic functions of the problem and config.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Sequence

from mpmath import libmp, mp, mpf

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
# fixed-point bits below the working precision's last bit
GUARD_BITS = 32


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
    """Step size collapsed below the precision floor, or DEFAULT_MAX_STEPS ran out."""


class JetDefectError(NumericsError):
    """The jet's Taylor polynomial does not satisfy problem.rhs."""


class Samples(list):
    """Trajectory rows (x, y): x0, every step end and every sample point, in
    order of x; `steps` counts the accepted steps that made them, each a
    Taylor polynomial of degree `order` (0 for a zero span)."""

    steps = 0
    order = 0


@dataclass
class OdeProblem:
    """y' = rhs(x, y) from (x0, y0) to x_end.

    jet(x, y, order, scale) returns, for each component, the Taylor
    coefficients a_0 .. a_order of the solution through (x, y) as integers
    a_k 2^(scale k) 2^binary_point() (module docstring). denominator(x, y), when
    given, is the factor the jet divides by; the flow is singular where it
    vanishes.
    """

    rhs: Callable
    jet: Callable
    x0: object
    y0: Sequence
    x_end: object
    tolerance: object
    singularity_guard: Optional[Callable] = None
    denominator: Optional[Callable] = None


def int_cauchy(a, b, m, start=0) -> int:
    """sum_{i=start}^{m} a_i b_(m-i), the order-m coefficient of the product
    of two fixed-point rows: an integer at twice their binary point."""
    return sum(map(mul, a[start:m + 1], b[m - start::-1]))


def binary_point() -> int:
    """The jets' binary point F at the ambient precision."""
    return mp.prec + GUARD_BITS


def to_fixed(value, point: int) -> int:
    """floor(value 2^point) of an mpf, int or string."""
    return libmp.to_fixed(mpf(value)._mpf_, point)


def shifted(value: int, bits: int) -> int:
    """value 2^bits, rounded down when bits is negative."""
    return value << bits if bits >= 0 else value >> -bits


def _taylor_order(budget) -> int:
    """Order of the steps at this budget: two more per factor 16."""
    return max(MIN_ORDER, 2 * int(mp.ceil(-mp.log(budget, 16))))


def _horner(row, s: int, point: int) -> int:
    """sum_k row[k] s^k, all at binary point `point`."""
    total = 0
    for c in reversed(row):
        total = (total * s >> point) + c
    return total


def _slope(row, s: int, point: int) -> int:
    """sum_k k row[k] s^(k-1), all at binary point `point`."""
    total = 0
    for k in range(len(row) - 1, 0, -1):
        total = (total * s >> point) + k * row[k]
    return total


def _decay_step(rows, order, budget, scale, point):
    """Largest step at which every coefficient past `order` fits its share
    of the budget per unit step in every row; None when they all vanish."""
    step = None
    for row in rows:
        share = ESTIMATE_SHARE * budget * (1 + abs(mpf((row[0], -point))))
        for k in range(order + 1, order + ESTIMATE_TERMS + 1):
            if row[k]:
                a_k = mpf((abs(row[k]), -point - scale * k))
                h = (share / a_k) ** (mpf(1) / (k - 1))
                step = h if step is None else min(step, h)
    return step


def _scale_for(estimate, remaining) -> int:
    """The exponent of the least power of two above the step estimate, or
    without one the span left."""
    return mp.mag(remaining if estimate is None else min(estimate, remaining))


def _scaled_jet(jet, x, y, order, budget, scale, remaining, point):
    """The step's rows, step estimate and scale: the jet is taken again at the
    estimate's scale while the estimate, or with a vanishing tail the span
    left, exceeds twice the scale (module docstring)."""
    while True:
        rows = jet(x, y, order + ESTIMATE_TERMS, scale)
        h = _decay_step(rows, order, budget, scale, point)
        need = _scale_for(h, remaining)
        if need <= scale + 1:
            return rows, h, scale
        scale = need


def solve_ode(problem: OdeProblem, config: PrecisionConfig, sample_points=None):
    """Integrate problem from x0 to x_end.

    Returns Samples: (x, y_list) rows for x0, every accepted step end and
    every requested sample point, ending at x_end; a zero span returns the
    one row x0 with no steps and order 0. Raises SingularityHalt /
    StepUnderflowHalt with the partial trajectory attached when integration
    cannot proceed, and JetDefectError when the jet misses the rhs.
    """
    with working_precision(config, extra_bits=64):
        x = mpf(problem.x0)
        x_end = mpf(problem.x_end)
        y = [mpf(v) for v in problem.y0]
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
        span = x_end - x
        if span == 0:
            return samples
        samples.order = order = _taylor_order(budget)
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
        point = binary_point()
        estimate = None

        def halt(kind, message):
            return kind(message, x=x, y=list(y), samples=samples)

        def value(row, at):
            return mpf((_horner(row, at, point), -point))

        while x != x_end:
            if guard is not None and guard(x, y):
                raise halt(SingularityHalt, "singularity guard fired")
            if samples.steps >= DEFAULT_MAX_STEPS:
                raise halt(StepUnderflowHalt, "step budget exhausted")
            remaining = abs(x_end - x)
            rows, estimate, scale = _scaled_jet(problem.jet, x, y, order, budget,
                                                _scale_for(estimate, remaining), remaining,
                                                point)
            state = [row[:order + 1] for row in rows]
            h_floor = h_floor_rel * max(1, abs(x))
            h = estimate
            if h is None or remaining <= h + h_floor:
                h = remaining
            sign = None if denominator is None else mp.sign(denominator(x, y))
            while True:
                if h < h_floor:
                    raise halt(StepUnderflowHalt, "step size underflow")
                x_new = x_end if h == remaining else x + direction * h
                tau = x_new - x
                at = to_fixed(mp.ldexp(tau, -scale), point)
                y_new = [value(row, at) for row in state]
                if sign is None or mp.sign(denominator(x_new, y_new)) == sign:
                    break
                h = h / 2

            while pending and (x_new - pending[0]) * direction > 0:
                sample = pending.pop(0)
                at_sample = to_fixed(mp.ldexp(sample - x, -scale), point)
                samples.append((sample, [value(row, at_sample) for row in state]))
            if pending and pending[0] == x_new:
                pending.pop(0)

            f = problem.rhs(x_new, y_new)
            for i, row in enumerate(state):
                slope = mpf((_slope(row, at, point), -point - scale))
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
