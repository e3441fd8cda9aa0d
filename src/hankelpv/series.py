"""Exact rational series of the scaled quantity g(s, a) to any order.

The evolution equation fixes every coefficient of its small-s Taylor
branch and its large-s descending branch through exact rational
recurrences obtained from the polynomial form
  4s^2 g g'' - 4s^2 (g')^2 + 4s g g' - 8g^3 - 2asg + s^2 = 0,
and the log-ratio L(s) follows from g through d/ds(s L'(s)) = -g(s)/s.
The series tables of asymptotics are these recurrences truncated after six
or seven terms, which the tests compare with the printed coefficients.  Six
terms are far too few to seed an integrator whose per-step budget is
tolerance^4: matching that budget with a 7th-order remainder would push
the seed point so close to the singular origin that the step count
explodes, so the flows' seeds run the small-s recurrence much further.

Each recurrence runs on integers: the coefficients are numerators N_k over
one common denominator D, and g^2 is kept as numerators over D^2, so the
sums of products that fix the next coefficient are integer dot products
over a known power of D.  The next coefficient is then one Fraction, whose
reduction gives its denominator; when that brings a factor D lacks, D
grows by it and every numerator is rescaled.  The seeds evaluate the
numerators and divide by D once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from mpmath import mpf


def _as_fraction(value, name: str = "a") -> Fraction:
    """Exact rational from int/str/Fraction/float (float via its repr)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"{name} must be an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class ExactSeries:
    """Exact coefficients, as `fractions` and as integer `numerators` over
    one positive common `denominator`."""

    numerators: tuple
    denominator: int
    fractions: tuple


def _common(num, sq, den, value):
    """Numerators and g^2 numerators over the least common multiple of den
    and value's denominator, that multiple, and value's numerator over it."""
    grow = value.denominator // gcd(den, value.denominator)
    if grow > 1:
        den *= grow
        num = [n * grow for n in num]
        sq = [n * grow * grow for n in sq]
    return num, sq, den, value.numerator * (den // value.denominator)


@lru_cache(maxsize=None)
def g_small_series(a, order: int) -> ExactSeries:
    """Taylor coefficients c_1..c_order of the analytic branch at s = 0.

    Matching powers of s gives c_1 = 1/(2a) and, for p >= 3, a linear
    solve for c_{p-1} whose pivot 4c_1(p-2)^2 - 2a = (2/a)((p-2)^2 - a^2)
    vanishes exactly when a is an integer (the resonant case).
    """
    a = _as_fraction(a)
    if a.denominator == 1:
        raise ValueError("integer a is resonant; the analytic branch needs a not in Z")
    if order < 1:
        raise ValueError("order must be at least 1")
    pa, qa = a.numerator, a.denominator
    c1 = Fraction(qa, 2 * pa)
    den = c1.denominator
    num = [0, c1.numerator] + [0] * (order - 1)  # c_k = num[k] / den
    sq = [0] * (order + 1)  # the coefficients of g^2 over den^2
    fractions = [c1]
    for p in range(3, order + 2):
        q = p - 1
        sq[q] = (2 * sum(num[i] * num[q - i] for i in range(1, (q + 1) // 2))
                 + (num[q // 2] ** 2 if q % 2 == 0 else 0))
        # the s^2 g g'', s^2 g'^2 and s g g' products share c_m c_(p-m), with
        # weight 4(p-m)(p-m-1) - 4m(p-m) + 4(p-m) = 4(p-m)(p-2m); m and p-m
        # together weigh 4(p-2m)^2
        pairs = sum(4 * (p - 2 * m) ** 2 * num[m] * num[p - m] for m in range(1, (p + 1) // 2))
        triple = sum(num[m] * sq[p - m] for m in range(1, p - 1))
        # c_(p-1) = -(pairs / den^2 - 8 triple / den^3) / pivot
        value = Fraction(-(den * pairs - 8 * triple) * pa * qa,
                         2 * den ** 3 * ((p - 2) ** 2 * qa * qa - pa * pa))
        fractions.append(value)
        num, sq, den, num_q = _common(num, sq, den, value)
        num[q] = num_q
    return ExactSeries(tuple(num[1:]), den, tuple(fractions))


def g_small_coefficients(a, order: int) -> tuple:
    """c_1..c_order of g_small_series as Fractions."""
    return g_small_series(a, order).fractions


@lru_cache(maxsize=None)
def g_large_series(a, order: int) -> ExactSeries:
    """Coefficients d_0..d_order of the descending branch, d_k on s^{(2-k)/3}.

    The balance at the two leading powers forces d_0 = 1/2 and d_1 = -a/6;
    each later order is an explicit division by 6, so the whole family is
    resonance-free.  The expansion is asymptotic (the coefficients grow
    factorially), so consumers truncate at the smallest term.
    """
    a = _as_fraction(a)
    if order < 1:
        raise ValueError("order must be at least 1")
    pa, qa = a.numerator, a.denominator
    fractions = [Fraction(1, 2), -a / 6]
    num, sq, den, first = _common([1, 0], [], 2, fractions[1])
    num = num[:1] + [first] + [0] * (order - 1)  # d_k = num[k] / den
    sq = [num[0] * num[0], 2 * num[0] * num[1]] + [0] * (order - 1)  # over den^2
    for q in range(0, order - 1):
        slot = q + 2
        # num[slot] is still 0 here, so this is sq[slot] less its 2 d_0 d_slot
        partial = sum(num[i] * num[slot - i] for i in range(1, slot))
        # the s^2 g g'', s^2 g'^2 and s g g' products share d_i d_(q-i), with
        # weight (4/9)(2-j)(i-j) at j = q-i; i and q-i together weigh (4/9)(q-2i)^2
        pairs = sum((q - 2 * i) ** 2 * num[i] * num[q - i] for i in range((q + 1) // 2))
        triple = partial * num[0] + sum(num[m] * sq[slot - m] for m in range(1, slot + 1))
        # d_slot = ((4/9) pairs / den^2 - 8 triple / den^3 - 2a num[q+1] / den) / 6
        value = Fraction(4 * den * pairs * qa - 72 * triple * qa - 18 * pa * den * den * num[q + 1],
                         54 * qa * den ** 3)
        fractions.append(value)
        old = den
        num, sq, den, num_slot = _common(num, sq, den, value)
        num[slot] = num_slot
        sq[slot] = partial * (den // old) ** 2 + 2 * num[0] * num[slot]
    return ExactSeries(tuple(num), den, tuple(fractions))


def g_large_coefficients(a, order: int) -> tuple:
    """d_0..d_order of g_large_series as Fractions."""
    return g_large_series(a, order).fractions


@lru_cache(maxsize=None)
def log_ratio_small_series(a, order: int) -> ExactSeries:
    """Taylor coefficients of the small-s log-ratio, lambda_1..lambda_order.

    The log-ratio L(s) is tied to g by d/ds(s L'(s)) = -g(s)/s, which maps
    coefficients as lambda_m = -c_m/m^2; the delta-ab-small table is the
    first six. Their common denominator is g's times lcm(1..order)^2.
    """
    g = g_small_series(a, order)
    squares = lcm(*range(1, order + 1)) ** 2
    return ExactSeries(
        tuple(-n * (squares // (m * m)) for m, n in enumerate(g.numerators, start=1)),
        g.denominator * squares,
        tuple(-c / (m * m) for m, c in enumerate(g.fractions, start=1)))


def log_ratio_small_coefficients(a, order: int) -> tuple:
    """lambda_1..lambda_order of log_ratio_small_series as Fractions."""
    return log_ratio_small_series(a, order).fractions


def _poly_seed(series: ExactSeries, s0: mpf):
    """Value and derivative of sum c_m s^m, m = 1..K, at s0."""
    val = der = mpf(0)
    for m in range(len(series.numerators), 0, -1):
        n = series.numerators[m - 1]
        val = val * s0 + n
        der = der * s0 + m * n
    return val * s0 / series.denominator, der / series.denominator


def _small_seed_tail(series: ExactSeries, s0: mpf) -> mpf:
    """Geometric continuation estimate for the dropped Taylor remainder."""
    top = len(series.numerators)
    t_last = abs(series.numerators[-1]) * s0 ** top / series.denominator
    t_prev = abs(series.numerators[-2]) * s0 ** (top - 1) / series.denominator
    if t_prev == 0:
        return t_last
    ratio = t_last / t_prev
    if ratio < mpf("0.5"):
        return t_last * ratio / (1 - ratio)
    return t_last * 10
