"""Double-exponential quadrature: one level loop, two node maps.

Both maps put nodes at u = k h, h = 2^-level, in a variable u in which
the integrand decays double exponentially, and `_level_loop` sums them.
Levels refine by inserting odd multiples of the halved spacing, so
coarser-level function values are reused, and nodes are cached per
map, working precision and level (tanh-sinh's also per window). Each
component of a vector integrand is frozen at the first level where it
agrees with the level before, to 10^-(digits+3) of the integral of |f|;
a pass that does not settle within MAX_LEVEL, or that sees a component
exactly 0 at every node, raises ConvergenceError carrying the last two
level values.
Each component's level sum adds, in ascending u, one `mp.fdot` per chunk
of CHUNK nodes, which rounds a sum of exact products once: results are
bit-for-bit deterministic, and the buffers stay bounded.

- tanh-sinh, x = tanh((pi/2) sinh u), serves finite intervals and the
  (0, 1) integrands without exponential decay (t = 0). Its window
  |u| <= u_max ends where the weights, times a (1-x)^e integrand at the
  ends, drop below 2^-(prec+48): an exponent e < 0 widens it, as it
  widens the z-map's end at x = 1.
- The z-map serves (0, 1) integrands that carry e^(-t/x^p), t > 0: the
  paper's weight (p = 2) and its folded auxiliary form (p = 1). That
  factor has an infinitely strong zero at x = 0, which tanh-sinh sees as
  an essential singularity at an endpoint and resolves slowly.
  z = x^-p - 1 turns it into e^(-t(1+z)) on (0, inf), and the
  exponential-type map z = exp(u - e^-u) (Takahasi & Mori, Publ. RIMS 9
  (1974) 721-741) decays double exponentially at both ends of u. A node
  costs one exponential, z = exp(-e^-u)/e^-u: e^-u is e^-floor(u) times
  e^(-2^-l) for each binary digit 2^-l of u - floor(u), at most `level`
  products of cached exponentials, so a node depends only on precision,
  p, level and k, whichever window came first. Its window is sized from
  the integrand: the far end from e^(-t(1+z)), where the guard bits are
  the margin for polynomial factors, and the end at x = 1 from the
  exponent e of the integrand's (1-x)^e there. A component whose
  outermost terms are not below the tolerance raises ConvergenceError:
  the window was too narrow.

`integrate_unit_vector` picks the z-map whenever its caller passes t > 0
and tanh-sinh at t = 0. It calls its integrand as f(x, 1-x), both at full
relative precision from either map: tanh-sinh's 1 - x is half of the
stored 1 - tanh s, the z-map's is z/(1+z) at p = 1 and z x/(1+r),
r = sqrt(1+z), at p = 2. Every node with 1 - x > 0 is kept, even
where x rounds onto 1, so an integrand that takes its powers of 1 - x
from the second argument is integrable up to a (1-x)^e, e > -1, spike.
The scalar entry points `integrate`, `integrate_unit` and
`integrate_even` are that t = 0 pass on a one-component integrand mapped
affinely onto (0, 1): they call f(y) alone, and a node whose y rounds
onto an end of the interval adds 0 without calling f. Integrands with
e^(-t/x^p) evaluate the exponential through
`clamped_exp`, which returns exact 0 once the argument lies below the
integrand's peak exponent, -t at x = 1, by more than the working dynamic
range: the cut is relative, so at large t, where every node carries about
e^(-t), no node that holds digits of the integral is cut.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, NamedTuple

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, working_precision

GUARD_BITS = 64
MAX_LEVEL = 12
FIRST_CHECK_LEVEL = 3
CHUNK = 16  # nodes per partial sum of a level, which bounds the buffered values

_NODE_CACHE: dict = {}


class ConvergenceError(NumericsError):
    """Successive quadrature levels failed to agree."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


def clamped_exp(x, peak) -> mpf:
    """exp(x), or exact 0 once x lies below peak, the largest exponent the
    integrand reaches, by more than the working dynamic range."""
    if x - peak < -0.6931471805599453 * (mp.prec + 2 * GUARD_BITS):
        return mpf(0)
    return mp.exp(x)


def _u_max(prec: int, exponent) -> float:
    # beyond u_max the weight times (1-x)^e, e = min(exponent, 0), drops
    # below 2^-(prec+48): (e+1)*pi*sinh(u) = (prec+48)*ln2
    e = min(float(exponent), 0.0)
    return math.asinh((prec + 48) * math.log(2.0) / ((e + 1) * math.pi))


def _level_nodes(prec: int, level: int, umax: float):
    """New tanh-sinh nodes at `level` for working precision `prec` in the
    window |u| <= umax.

    Returns a list of (x, one_minus_x, weight) for u > 0, plus the u = 0
    node first when level == 0. Entries for u < 0 follow by symmetry:
    x -> -x with the same weight, and 1 - (-x) = 1 + x is benign.
    """
    key = (prec, level, umax)
    cached = _NODE_CACHE.get(key)
    if cached is not None:
        return cached
    nodes = []
    with working_precision(prec):
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


def _z_window(prec: int, t, exponent) -> tuple:
    """Integer ends (k_lo, k_hi) of the z-map's u-window.

    Far end: t z >= prec ln 2, where e^(-t(1+z)) has dropped below the
    working precision; z = exp(u - e^-u) is solved for u by Newton's
    method, which approaches the root of this concave function from
    below after its first step. End at x = 1: there 1 - x ~ z/p and
    z ~ exp(-e^-u), so a (1-x)^e integrand times dx/du ~ z falls below
    the working precision once (e + 1) e^-u >= prec ln 2.
    """
    budget = prec * math.log(2.0)
    target = math.log(budget / float(t))
    u = max(target, 0.0)
    for _ in range(30):
        u -= (u - math.exp(-u) - target) / (1 + math.exp(-u))
    k_hi = math.ceil(u)
    k_lo = math.floor(-math.log(budget / (float(exponent) + 1)))
    return min(k_lo, k_hi - 1), k_hi


def _exp_minus_u(prec: int, level: int, k: int) -> mpf:
    """e^-u at u = k 2^-level, under working precision prec (module docstring)."""
    cache = _NODE_CACHE.setdefault(("e^-u", prec), {})
    whole, fraction = divmod(k, 2**level)
    eu = mpf(1)
    for i, bits in [(whole, 0)] + [(1, level - j) for j in range(level) if fraction >> j & 1]:
        if (i, bits) not in cache:
            cache[i, bits] = mp.exp(-mp.ldexp(i, -bits))
        eu *= cache[i, bits]
    return eu


def _z_node(eu, p: int):
    """(weight, ((x, 1-x),)) of the z-map node whose e^-u is eu: x = (1+z)^(-1/p)."""
    z = mp.exp(-eu) / eu
    r = 1 + z if p == 1 else mp.sqrt(1 + z)
    x = 1 / r
    # r^p - 1 = z = (r - 1)(1 + r)^(p-1), so 1 - x = (r - 1)/r keeps its
    # relative precision as z -> 0
    omx = z * x if p == 1 else z * x / (1 + r)
    # |dx/du| = (1/p) (1+z)^(-1/p-1) dz/du, and dz/du = z (1 + e^-u)
    return x ** (p + 1) * z * (1 + eu) / p, ((x, omx),)


def _z_level_nodes(prec: int, p: int, level: int, k_lo: int, k_hi: int) -> list:
    """z-map nodes new at `level` in the window [k_lo, k_hi], ascending in u."""
    cache = _NODE_CACHE.setdefault(("z", prec, p, level), {})
    steps = 2**level
    ks = range(k_lo, k_hi + 1) if level == 0 else range(k_lo * steps + 1, k_hi * steps, 2)
    nodes = []
    with working_precision(prec):
        for k in ks:
            node = cache.get(k)
            if node is None:
                node = cache[k] = _z_node(_exp_minus_u(prec, level, k), p)
            nodes.append(node)
    return nodes


class _Rule(NamedTuple):
    """A node map for the level loop.

    nodes(prec, level) lists the level's (weight, points) in ascending u,
    each point a tuple of integrand arguments; each level sum is multiplied
    by the constant `scale`. An `edged` map has a finite u-window whose ends
    are the first and last nodes of level 0.
    """

    nodes: Callable
    scale: mpf
    description: str
    edged: bool = False


def _agrees(value, previous, magnitude, tol) -> bool:
    return abs(value - previous) <= tol * max(abs(value), magnitude)


def _level_loop(f, size, rule: _Rule, config: PrecisionConfig, target_digits):
    """The one quadrature driver: f(*point) returns `size` values.

    Each component is frozen at the first level where it agrees with the
    level before, so its value does not depend on what it is batched with:
    it is the value a one-component pass returns for it. Refinement stops
    when every component is frozen. Agreement is measured against the
    integral of |f| rather than the value itself, so integrals that vanish
    by cancellation (orthogonality inner products) converge once the
    increments settle at the attainable floor. A component that is exactly
    0 at every node of a checked level raises ConvergenceError: the pass
    has seen nothing of it, so 0 is no value. On an edged map, a component
    whose outermost terms are not below the same tolerance at a checked
    level raises ConvergenceError: no finer level can make up for the
    integrand beyond the window.
    """
    digits = config.target_digits if target_digits is None else target_digits
    prec = config.bits + GUARD_BITS
    with working_precision(prec):
        tol = mpf(10) ** (-(digits + 3))
        running = running_abs = previous = edge = None
        frozen = [None] * size
        for level in range(0, MAX_LEVEL + 1):
            total = [mpf(0)] * size
            total_abs = [mpf(0)] * size
            ends = []
            pairs = ((w, point) for w, points in rule.nodes(prec, level) for point in points)
            while chunk := list(islice(pairs, CHUNK)):
                weights = [w for w, _ in chunk]
                rows = [f(*point) for _, point in chunk]
                # the weights are positive, so w |v| = |w v|
                for i, column in enumerate(zip(*rows)):
                    total[i] += mp.fdot(weights, column)
                    total_abs[i] += mp.fdot(weights, map(abs, column))
                if rule.edged and level == 0:
                    ends = [ends[0] if ends else [weights[0] * v for v in rows[0]],
                            [weights[-1] * v for v in rows[-1]]]
            if ends:
                edge = [rule.scale * max(abs(a), abs(b)) for a, b in zip(*ends)]
            total = [rule.scale * v for v in total]
            total_abs = [rule.scale * v for v in total_abs]
            if running is None:
                running, running_abs = total, total_abs
            else:
                running = [r + v for r, v in zip(running, total)]
                running_abs = [r + v for r, v in zip(running_abs, total_abs)]
            step = mpf(2) ** (-level)
            value = [r * step for r in running]
            if level >= FIRST_CHECK_LEVEL:
                for i, (v, p, m) in enumerate(zip(value, previous, running_abs)):
                    if frozen[i] is not None:
                        continue
                    if m == 0:
                        raise ConvergenceError(f"component {i} is exactly 0 at every node "
                                               f"of the {rule.description}",
                                               last_two=(previous, value))
                    if edge is not None and edge[i] * step > tol * max(abs(v), m * step):
                        raise ConvergenceError(
                            f"the outermost nodes of the {rule.description} carry "
                            f"more than 10^-{digits + 3} of component {i}: "
                            "the window is too narrow",
                            last_two=(previous, value),
                        )
                    if _agrees(v, p, m * step, tol):
                        frozen[i] = v
                if all(v is not None for v in frozen):
                    return frozen
            previous = value
        raise ConvergenceError(
            f"quadrature failed to reach {digits} digits for {rule.description} "
            f"within {MAX_LEVEL} levels",
            last_two=(previous, value),
        )


def _unit_pairs(x, omx):
    # the points (1+x)/2 near 1 and (1-x)/2 near 0, each with its distance
    # to 1, which is the other; the latter uses the stored 1-x so the
    # distance to 0 keeps full relative precision
    hi, lo = (1 + x) / 2, omx / 2
    return ((hi, lo),) if x == 0 else ((hi, lo), (lo, hi))


def integrate(f, interval, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral of f over a finite interval (a, b): (b - a) times the t = 0
    pass of integrate_unit_vector on y -> f(a + (b - a) y)."""
    with working_precision(config.bits + GUARD_BITS):
        a, b = mpf(interval[0]), mpf(interval[1])
        width = b - a

    def mapped(y, _one_minus_y):
        x = a + width * y
        return (f(x) if a < x < b else mpf(0),)

    value = integrate_unit_vector(mapped, 1, config, target_digits)[0]
    with working_precision(config.bits + GUARD_BITS):
        return width * value


def integrate_unit(f, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral of f over (0, 1) with both endpoints handled stably."""
    return integrate(f, (0, 1), config, target_digits)


def integrate_even(f, config: PrecisionConfig, target_digits=None) -> mpf:
    """Integral over (-1, 1) of an even integrand: twice its integral over
    (0, 1), where f is evaluated only inside, so integrands singular at 0
    (tamed by clamped_exp) and at 1 are both safe."""
    return mp.ldexp(integrate(f, (0, 1), config, target_digits), 1)


def integrate_unit_vector(f, size, config: PrecisionConfig, target_digits=None,
                          t=0, p=1, exponent=0, exponent_at_zero=0):
    """Integrals over (0, 1) of the `size` values of f(x, 1-x).

    The integrand carries the factor e^(-t/x^p), p = 1 or 2, and behaves
    like (1-x)^exponent at x = 1 and, at t = 0, like x^exponent_at_zero at
    x = 0 (each > -1, the least over the components). t > 0 selects the
    z-map in z = x^-p - 1, whose window is sized from t and the exponent at
    x = 1; t = 0 the tanh-sinh map, whose window is sized from the lesser
    of the two exponents. Each component equals what a one-component pass
    with the same t, p and exponents returns for it, bit for bit;
    refinement stops when every component has converged.
    """
    if t == 0:
        def nodes(prec, level):
            umax = _u_max(prec, min(exponent, exponent_at_zero))
            return [(w, _unit_pairs(x, omx)) for x, omx, w in _level_nodes(prec, level, umax)]

        rule = _Rule(nodes, mpf(0.5), "tanh-sinh on (0, 1)")
    else:
        k_lo, k_hi = _z_window(config.bits + GUARD_BITS, t, exponent)
        rule = _Rule(lambda prec, level: _z_level_nodes(prec, p, level, k_lo, k_hi), mpf(1),
                     f"z-map on (0, 1), u in [{k_lo}, {k_hi}]", edged=True)
    return _level_loop(f, size, rule, config, target_digits)
