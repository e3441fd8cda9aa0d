"""Double-exponential (tanh-sinh) quadrature.

Nodes and weights are generated once per (working precision, level) and
cached; levels refine by inserting odd multiples of the halved spacing, so
coarser-level function values are reused. Refinement stops when two
successive levels agree to the requested digits, otherwise a
ConvergenceError carrying the last two level values is raised. Summation
order is fixed (levels ascending, nodes ascending within a level), making
results bit-for-bit deterministic.

Endpoint care: a node u maps to x = tanh((pi/2) sinh u), and 1 - x is
computed directly from the exponential form so callers integrating over
(0, 1] get both endpoints at full relative precision. Integrands with the
essential singularity exp(-t/x^2) should evaluate the exponential through
`clamped_exp`, which returns exact 0 once the argument underflows the
working dynamic range instead of overflowing the tanh-sinh tails.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, working_precision

GUARD_BITS = 64
MAX_LEVEL = 12
FIRST_CHECK_LEVEL = 3

_NODE_CACHE: dict = {}


class ConvergenceError(NumericsError):
    """Successive quadrature levels failed to agree."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


def clamped_exp(x) -> mpf:
    """exp(x), or exact 0 once x underflows the working dynamic range."""
    if x < -0.6931471805599453 * (mp.prec + 2 * GUARD_BITS):
        return mpf(0)
    return mp.exp(x)


def _u_max(prec: int) -> float:
    # beyond u_max both the weight and the endpoint distance drop below
    # 2^-(prec+48): pi*sinh(u) = (prec+48)*ln2
    return math.asinh((prec + 48) * math.log(2.0) / math.pi)


def _level_nodes(prec: int, level: int):
    """New nodes at `level` for working precision `prec`.

    Returns a list of (x, one_minus_x, weight) for u > 0, plus the u = 0
    node first when level == 0. Entries for u < 0 follow by symmetry:
    x -> -x with the same weight, and 1 - (-x) = 1 + x is benign.
    """
    key = (prec, level)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    nodes = []
    with working_precision(prec):
        umax = _u_max(prec)
        h = mpf(2) ** (-level)
        half_pi = mp.pi / 2
        if level == 0:
            ks = range(0, int(umax) + 1)
        else:
            ks = range(1, int(umax * 2**level) + 1, 2)
        for k in ks:
            u = k * h
            s = half_pi * mp.sinh(u)
            # x = tanh(s); 1 - x = 2 / (e^{2s} + 1) evaluated stably
            e2s = mp.exp(2 * s)
            omx = 2 / (e2s + 1)
            x = 1 - omx
            w = half_pi * mp.cosh(u) / mp.cosh(s) ** 2
            nodes.append((x, omx, w))
    _NODE_CACHE[key] = nodes
    return nodes


def _agrees(value, previous, magnitude, tol) -> bool:
    bound = max(abs(value), magnitude)
    return bound == 0 or abs(value - previous) <= tol * bound


def _tanh_sinh(f, size, point_map, scale, config: PrecisionConfig, target_digits,
               description):
    """The one tanh-sinh driver: f(y) returns `size` values.

    point_map(x, 1-x) gives the pair (hi, lo) of abscissae for the node
    pair +-x, with None for a point that rounded onto an endpoint (its
    weight is below one ulp of the level sum); at x = 0 only hi is used.
    Each level sum is multiplied by the constant `scale`.

    Each component is frozen at the first level where it agrees with the
    level before, so its value does not depend on what it is batched with:
    it is the value a one-component pass returns for it. Refinement stops
    when every component is frozen. Agreement is measured against the
    integral of |f| rather than the value itself, so integrals that vanish
    by cancellation (orthogonality inner products) converge once the
    increments settle at the attainable floor.
    """
    digits = config.target_digits if target_digits is None else target_digits
    prec = config.bits + GUARD_BITS
    with working_precision(prec):
        tol = mpf(10) ** (-(digits + 3))
        running = running_abs = previous = None
        frozen = [None] * size
        for level in range(0, MAX_LEVEL + 1):
            total = [mpf(0)] * size
            total_abs = [mpf(0)] * size
            for x, omx, w in _level_nodes(prec, level):
                hi, lo = point_map(x, omx)
                for y in (hi,) if x == 0 else (hi, lo):
                    if y is not None:
                        for i, v in enumerate(f(y)):
                            term = w * v
                            total[i] += term
                            total_abs[i] += abs(term)
            total = [scale * v for v in total]
            total_abs = [scale * v for v in total_abs]
            if running is None:
                running, running_abs = total, total_abs
            else:
                running = [r + v for r, v in zip(running, total)]
                running_abs = [r + v for r, v in zip(running_abs, total_abs)]
            step = mpf(2) ** (-level)
            value = [r * step for r in running]
            if level >= FIRST_CHECK_LEVEL:
                for i, (v, p, m) in enumerate(zip(value, previous, running_abs)):
                    if frozen[i] is None and _agrees(v, p, m * step, tol):
                        frozen[i] = v
                if all(v is not None for v in frozen):
                    return frozen
            previous = value
        raise ConvergenceError(
            f"tanh-sinh failed to reach {digits} digits for {description} "
            f"within {MAX_LEVEL} levels",
            last_two=(previous, value),
        )


def _scalar(f, point_map, scale, config, target_digits, description) -> mpf:
    try:
        return _tanh_sinh(lambda y: (f(y),), 1, point_map, scale, config,
                          target_digits, description)[0]
    except ConvergenceError as exc:
        exc.last_two = tuple(v[0] for v in exc.last_two)
        raise


def _unit_points(x, omx):
    # (1+x)/2 near 1 and (1-x)/2 near 0; the latter uses the stored 1-x so
    # the distance to 0 keeps full relative precision
    hi = (1 + x) / 2
    return (hi if hi < 1 else None), omx / 2


def integrate(f, interval, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral of f over a finite interval (a, b)."""
    a, b = interval
    with working_precision(config.bits + GUARD_BITS):
        av, bv = mpf(a), mpf(b)
        center = (av + bv) / 2
        radius = (bv - av) / 2

    def points(x, _omx):
        hi = center + radius * x
        lo = center - radius * x
        return (hi if hi < bv else None), (lo if lo > av else None)

    return _scalar(f, points, radius, config, target_digits, f"interval ({a}, {b})")


def integrate_unit(f, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral of f over (0, 1) with both endpoints handled stably."""
    return _scalar(f, _unit_points, mpf(0.5), config, target_digits, "interval (0, 1)")


def integrate_even(f, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral over (-1, 1) of an even integrand, folded to (0, 1].

    Only f(x) for x in (0, 1) is ever evaluated, so integrands singular
    at 0 (tamed by clamped_exp) and at 1 are both safe. The scale is
    2 * (1/2), from the folding and the affine map.
    """
    return _scalar(f, _unit_points, mpf(1), config, target_digits, "even fold of (-1, 1)")


def integrate_unit_vector(f, size, config: PrecisionConfig, target_digits=None):
    """Vector version of integrate_unit: f returns a list of `size` values.

    Each component equals what integrate_unit returns for it alone, bit for
    bit; refinement stops when every component has converged.
    """
    return _tanh_sinh(f, size, _unit_points, mpf(0.5), config, target_digits,
                      "interval (0, 1)")
