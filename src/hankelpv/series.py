"""Exact rational series of the scaled quantity g(s, a), and their tables.

The evolution equation fixes every coefficient of its small-s Taylor
branch and its large-s descending branch through exact rational
recurrences obtained from the polynomial form
  4s^2 g g'' - 4s^2 (g')^2 + 4s g g' - 8g^3 - 2asg + s^2 = 0,
and the log-ratio L(s) follows from g through d/ds(s L'(s)) = -g(s)/s.
The series tables, the references of the scans (scans.py), are these
recurrences truncated after six or seven terms, with a first-omitted-term
truncation estimate.  Six terms are far too few to seed an integrator
whose per-step budget is tolerance^4: matching that budget with a
7th-order remainder would push the seed point so close to the singular
origin that the step count explodes, so the flows' seeds (flows.py) run
the small-s recurrence much further.

Each recurrence runs on integers: the coefficients are numerators N_k over
one common denominator D, and g^2 is kept as numerators over D^2, so the
sums of products that fix the next coefficient are integer dot products
over a known power of D.  The next coefficient is then one Fraction, whose
reduction gives its denominator; when that brings a factor D lacks, D
grows by it and every numerator is rescaled.  The seeds evaluate the
numerators and divide by D once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Optional

from mpmath import mp, mpf

from .choices import SERIES_KINDS
from .precision import PrecisionConfig, to_mpf, working_precision


def _as_fraction(value) -> Fraction:
    """Exact rational from int/str/Fraction/float (float via its repr)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    raise TypeError(f"a must be an exact rational, got {type(value).__name__}")


def _fr(value: Fraction) -> mpf:
    """Fraction to mpf at the ambient precision."""
    return mpf(value.numerator) / value.denominator


class ExactSeries(NamedTuple):
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


# --- the series tables ---------------------------------------------------------

SMALL = "small-s"
LARGE = "large-s"

# Unknown-next-coefficient allowance: the tabulated families show
# consecutive-coefficient magnitude ratios jumping by up to ~2.4 after a
# dip, so the reported truncation bound carries a factor-4 cushion on top
# of the geometric ratio extrapolation.  The regime heuristic compares
# like-for-like magnitudes and therefore omits the cushion.
ESTIMATOR_SAFETY = 4

_FR0 = Fraction(0)


def dyson_reference(config: PrecisionConfig) -> mpf:
    """ln(2)/12 + 3 zeta'(-1), the constant in the large-s delta expansion."""
    from .special import zeta_prime_minus_one

    with working_precision(config):
        return mp.log(2) / 12 + 3 * zeta_prime_minus_one(config)


def c_constant(a, config: PrecisionConfig) -> mpf:
    """c(a) = ln G(a+1) - (a/2) ln(2 pi); Barnes grid only."""
    from .special import log_barnes_g

    fr = _as_fraction(a)
    with working_precision(config):
        av = _fr(fr)
        return log_barnes_g(av + 1, config) - av / 2 * mp.log(2 * mp.pi)


class SeriesExpansion(NamedTuple):
    """A truncated expansion with exact rational terms.

    `terms` holds (exponent, coefficient) pairs in decreasing significance
    for the stated regime, so the final entry is the least significant
    retained term.  `log_coefficient` multiplies ln(s) and `has_constant`
    marks an s-independent additive constant (evaluated on demand, since
    it is transcendental).  `next_exponent` is the exponent of the first
    dropped term.
    """

    kind: str
    validity: str
    terms: tuple
    next_exponent: Fraction
    log_coefficient: Fraction = _FR0
    has_constant: bool = False
    a: Optional[Fraction] = None

    def constant_value(self, config: PrecisionConfig) -> mpf:
        if not self.has_constant:
            return mpf(0)
        if self.kind == "delta-large":
            return dyson_reference(config)
        return c_constant(self.a, config)

    def _point(self, s, config: PrecisionConfig) -> mpf:
        """s at the ambient precision, checked against the regime."""
        sv = mpf(to_mpf(s, config))
        if self.validity == SMALL:
            if sv < 0:
                raise ValueError(f"{self.kind} needs s >= 0, got {sv}")
        elif sv <= 0:
            raise ValueError(f"{self.kind} needs s > 0, got {sv}")
        return sv

    def _tail(self, sv: mpf):
        """|last kept term| at sv > 0, and |first dropped term| estimated as the
        last coefficient, grown by its ratio to the one before, at next_exponent."""
        nz = [(e, c) for e, c in self.terms if c != 0]
        if not nz:
            raise ValueError(f"{self.kind} has no nonzero terms")
        e_last, c_last = nz[-1]
        c_prev = nz[-2][1] if len(nz) > 1 else c_last
        last = abs(_fr(c_last))
        growth = max(mpf(1), last / abs(_fr(c_prev)))
        return last * sv ** _fr(e_last), growth * last * sv ** _fr(self.next_exponent)

    def eval(self, s, config: PrecisionConfig, include_constant: bool = True) -> mpf:
        with working_precision(config):
            sv = self._point(s, config)
            total = mpf(0)
            for exponent, coefficient in self.terms:
                if coefficient == 0:
                    continue
                total += _fr(coefficient) * sv ** _fr(exponent)
            if self.log_coefficient != 0:
                total += _fr(self.log_coefficient) * mp.log(sv)
            if include_constant and self.has_constant:
                total += self.constant_value(config)
            return total

    def truncation_estimator(self, s, config: PrecisionConfig) -> mpf:
        """Bound proxy for the first omitted term at s."""
        with working_precision(config):
            sv = self._point(s, config)
            return ESTIMATOR_SAFETY * self._tail(sv)[1] if sv else mpf(0)

    def in_regime(self, s, config: PrecisionConfig) -> bool:
        """Heuristic: estimated first omitted term below the last kept one.
        A small-s table is in regime at s = 0."""
        with working_precision(config):
            sv = self._point(s, config)
            if sv == 0:
                return True
            last, dropped = self._tail(sv)
            return dropped < last


def _ascending(coefficients) -> tuple:
    """Taylor coefficients c_1, c_2, ... as (m, c_m) terms on s^m."""
    return tuple((Fraction(m), c) for m, c in enumerate(coefficients, start=1))


def _descending(coefficients) -> tuple:
    """d_0, d_1, ... as ((2-k)/3, d_k) terms; the s^0 slot d_2 vanishes for
    every a and is left out."""
    assert coefficients[2] == 0
    return tuple((Fraction(2 - k, 3), dk) for k, dk in enumerate(coefficients) if k != 2)


# Every parametric table is an exact recurrence truncated.  On the large-s
# side d/ds(s L') = -g/s maps a g term d s^e onto the log-ratio term
# -d/e^2 s^e; the log coefficient and the Barnes constant are not fixed by
# the g recurrence.
_FAMILIES = {
    "g-small": lambda a: _ascending(g_small_coefficients(a, 6)),
    "g-large": lambda a: _descending(g_large_coefficients(a, 6)),
    "delta-ab-small": lambda a: _ascending(log_ratio_small_coefficients(a, 6)),
    "delta-ab-large": lambda a: tuple((e, -d / e ** 2) for e, d in
                                      _descending(g_large_coefficients(a, 7))),
}

_PLUS, _MINUS = (Fraction(1, 2),), (Fraction(-1, 2),)

# kind: (validity, family, a values summed (None: the caller's a), factor,
# exponent of the first dropped term).  The fixed kinds are the families at
# a = +-1/2: g1 and g2 are 4 g(s, a) at a = -1/2 and +1/2, and delta sums
# the two log-ratio branches, dropping the odd powers that cancel.
# The next exponent is not derived: at a in {0, +-1} the recurrence's next
# term vanishes, which would move the truncation estimate there.
_SPECS = {
    "g1-small": (SMALL, "g-small", _MINUS, 4, Fraction(7)),
    "g2-small": (SMALL, "g-small", _PLUS, 4, Fraction(7)),
    "g1-large": (LARGE, "g-large", _MINUS, 4, Fraction(-5, 3)),
    "g2-large": (LARGE, "g-large", _PLUS, 4, Fraction(-5, 3)),
    "delta-small": (SMALL, "delta-ab-small", _PLUS + _MINUS, 1, Fraction(8)),
    "delta-large": (LARGE, "delta-ab-large", _PLUS + _MINUS, 1, Fraction(-2)),
    "g-small": (SMALL, "g-small", None, 1, Fraction(7)),
    "g-large": (LARGE, "g-large", None, 1, Fraction(-5, 3)),
    "delta-ab-small": (SMALL, "delta-ab-small", None, 1, Fraction(7)),
    "delta-ab-large": (LARGE, "delta-ab-large", None, 1, Fraction(-2)),
}

def series_expansion(kind: str, a=None) -> SeriesExpansion:
    """Expansion table for `kind`; parametric kinds need the exact a."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    validity, family, a_values, factor, next_exponent = _SPECS[kind]
    fr = None
    if a_values is None:
        if a is None:
            raise ValueError(f"{kind} requires the parameter a")
        fr = _as_fraction(a)
    elif a is not None:
        raise ValueError(f"{kind} does not take a parameter")
    values = a_values or (fr,)
    summed: dict = {}
    for value in values:
        for e, c in _FAMILIES[family](value):
            summed[e] = summed.get(e, _FR0) + factor * c
    # a parametric table keeps its explicit zeros, a fixed one drops them
    terms = tuple((e, c) for e, c in summed.items() if fr is not None or c != 0)
    has_log = family == "delta-ab-large"
    log_coefficient = sum((1 - 6 * v * v) / Fraction(36) for v in values) if has_log else _FR0
    return SeriesExpansion(kind, validity, terms, next_exponent,
                           log_coefficient=log_coefficient, has_constant=has_log, a=fr)


class SeriesValue(NamedTuple):
    kind: str
    s: mpf
    value: mpf
    truncation: mpf
    in_regime: bool
    a: Optional[Fraction] = None


def series_eval(kind: str, s, config: PrecisionConfig, a=None) -> SeriesValue:
    """Truncated series value with its truncation estimate and regime flag."""
    exp = series_expansion(kind, a=a)
    with working_precision(config):
        sv = to_mpf(s, config)
        return SeriesValue(kind, sv, exp.eval(sv, config), exp.truncation_estimator(sv, config),
                           exp.in_regime(sv, config), exp.a)

