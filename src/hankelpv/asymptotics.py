"""Double-scaling layer: reference series, scaled flows, and finite-n scans.

Three cooperating parts.  The series tables are the exact rational
recurrences for the small-s and large-s expansions of the scaled quantities,
truncated after six or seven terms, evaluated together with a
first-omitted-term truncation estimate.  The flow solvers integrate the
scaled second-order equation for g(s,a) and the finite-n evolution equation
for R_n(t) as initial value problems, seeded from the series respectively
from the finite-n tables; each supplies the Taylor jet of its cleared,
polynomial form to the integrator in ode.py.  The scan driver measures the
double-scaling limits directly: raw finite-n values along the prescribed
(n, t) trajectories, Richardson extrapolation in 1/n with a dual-model error
bar, and comparison against the series references.

The two scaling regimes are distinct and never mixed: the g/delta scans
hold s = 2n^2 t fixed, the sigma scan holds s = n^4 t fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .identities import normalize, residual_row
from .ladder import _parity, aux_R, aux_r
from .ode import OdeHalt, OdeProblem, cauchy, solve_ode
from .precision import NumericsError, PrecisionConfig, to_mpf, working_precision
from .recurrence import hankel_det_t0, recurrence_table
from .special import log_barnes_g, zeta_prime_minus_one
from .weights import make_params

SMALL = "small-s"
LARGE = "large-s"

FIXED_KINDS = ("g1-small", "g2-small", "g1-large", "g2-large",
               "delta-small", "delta-large")
PARAMETRIC_KINDS = ("g-small", "g-large", "delta-ab-small", "delta-ab-large")
SERIES_KINDS = FIXED_KINDS + PARAMETRIC_KINDS

SCAN_MODES = ("g1", "g2", "delta1", "delta2", "sigma-n4")
DEFAULT_N_LIST = (8, 16, 32, 64)
N_CAP = 64
N_CAP_EXTENDED = 128

SEED_SMALL_SERIES = "small-series"
SEED_LARGE_SERIES = "large-series"
SEED_EXPLICIT = "explicit"

# Unknown-next-coefficient allowance: the tabulated families show
# consecutive-coefficient magnitude ratios jumping by up to ~2.4 after a
# dip, so the reported truncation bound carries a factor-4 cushion on top
# of the geometric ratio extrapolation.  The regime heuristic compares
# like-for-like magnitudes and therefore omits the cushion.
ESTIMATOR_SAFETY = 4

_FR0 = Fraction(0)


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


def _fr(value: Fraction) -> mpf:
    """Fraction to mpf at the ambient precision."""
    return mpf(value.numerator) / value.denominator


def dyson_reference(config: PrecisionConfig) -> mpf:
    """ln(2)/12 + 3 zeta'(-1), the constant in the large-s delta expansion."""
    with working_precision(config):
        return mp.log(2) / 12 + 3 * zeta_prime_minus_one(config)


def c_constant(a, config: PrecisionConfig) -> mpf:
    """c(a) = ln G(a+1) - (a/2) ln(2 pi); Barnes grid only."""
    fr = _as_fraction(a)
    with working_precision(config):
        av = _fr(fr)
        return log_barnes_g(av + 1, config) - av / 2 * mp.log(2 * mp.pi)


@dataclass(frozen=True)
class SeriesExpansion:
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

    def _check_point(self, sv: mpf) -> None:
        if self.validity == SMALL:
            if sv < 0:
                raise ValueError(f"{self.kind} needs s >= 0, got {sv}")
        elif sv <= 0:
            raise ValueError(f"{self.kind} needs s > 0, got {sv}")

    def eval(self, s, config: PrecisionConfig, include_constant: bool = True) -> mpf:
        with working_precision(config):
            sv = mpf(to_mpf(s, config))
            self._check_point(sv)
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

    def _nonzero_tail(self):
        nz = [(e, c) for e, c in self.terms if c != 0]
        if not nz:
            raise ValueError(f"{self.kind} has no nonzero terms")
        last = nz[-1]
        prev = nz[-2] if len(nz) > 1 else last
        return last, prev

    def last_term_magnitude(self, s, config: PrecisionConfig) -> mpf:
        with working_precision(config):
            sv = abs(mpf(to_mpf(s, config)))
            self._check_point(sv)
            (e_last, c_last), _ = self._nonzero_tail()
            if sv == 0:
                return mpf(0)
            return abs(_fr(c_last)) * sv ** _fr(e_last)

    def _next_term_magnitude(self, sv: mpf) -> mpf:
        (e_last, c_last), (_, c_prev) = self._nonzero_tail()
        growth = max(mpf(1), abs(_fr(c_last)) / abs(_fr(c_prev)))
        return growth * abs(_fr(c_last)) * sv ** _fr(self.next_exponent)

    def truncation_estimator(self, s, config: PrecisionConfig) -> mpf:
        """Bound proxy for the first omitted term at s."""
        with working_precision(config):
            sv = abs(mpf(to_mpf(s, config)))
            self._check_point(sv)
            if sv == 0:
                return mpf(0)
            return ESTIMATOR_SAFETY * self._next_term_magnitude(sv)

    def in_regime(self, s, config: PrecisionConfig) -> bool:
        """Heuristic: estimated first omitted term below the last kept one."""
        with working_precision(config):
            sv = abs(mpf(to_mpf(s, config)))
            self._check_point(sv)
            if sv == 0:
                return self.validity == SMALL
            return self._next_term_magnitude(sv) < self.last_term_magnitude(sv, config)


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

_SERIES_CACHE: dict = {}


def series_expansion(kind: str, a=None) -> SeriesExpansion:
    """Expansion table for `kind`; parametric kinds need the exact a."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    validity, family, a_values, factor, next_exponent = _SPECS[kind]
    if a_values is None:
        if a is None:
            raise ValueError(f"{kind} requires the parameter a")
        fr = _as_fraction(a)
    else:
        if a is not None:
            raise ValueError(f"{kind} does not take a parameter")
        fr = None
    key = (kind, fr)
    if key in _SERIES_CACHE:
        return _SERIES_CACHE[key]
    values = a_values or (fr,)
    summed: dict = {}
    for value in values:
        for e, c in _FAMILIES[family](value):
            summed[e] = summed.get(e, _FR0) + factor * c
    # a parametric table keeps its explicit zeros, a fixed one drops them
    terms = tuple((e, c) for e, c in summed.items() if fr is not None or c != 0)
    has_log = family == "delta-ab-large"
    log_coefficient = sum((1 - 6 * v * v) / Fraction(36) for v in values) if has_log else _FR0
    exp = SeriesExpansion(kind, validity, terms, next_exponent,
                          log_coefficient=log_coefficient, has_constant=has_log, a=fr)
    _SERIES_CACHE[key] = exp
    return exp


@dataclass(frozen=True)
class SeriesValue:
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
        return SeriesValue(
            kind=kind,
            s=sv,
            value=exp.eval(sv, config),
            truncation=exp.truncation_estimator(sv, config),
            in_regime=exp.in_regime(sv, config),
            a=exp.a,
        )


# --- series coefficients to arbitrary order -----------------------------------
#
# The evolution equation fixes every coefficient of both expansions through
# exact rational recurrences obtained from the polynomial form
#   4s^2 g g'' - 4s^2 (g')^2 + 4s g g' - 8g^3 - 2asg + s^2 = 0.
# The series tables above are these recurrences truncated after six or seven
# terms, which the tests compare with the printed coefficients.  Six terms
# are far too few to seed an integrator whose per-step budget is
# tolerance^4: matching that budget with a 7th-order remainder would push
# the seed point so close to the singular origin that the step count
# explodes, so the seeds run the recurrences much further.

ORDER_SMALL_SEED = 64
ORDER_LARGE_SEED = 72


@lru_cache(maxsize=None)
def g_small_coefficients(a: Fraction, order: int) -> tuple:
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
    c = [Fraction(0)] * (order + 1)
    c[1] = 1 / (2 * a)
    g2 = [Fraction(0)] * (order + 1)
    for p in range(3, order + 2):
        q = p - 1
        g2[q] = (2 * sum(c[i] * c[q - i] for i in range(1, (q + 1) // 2))
                 + (c[q // 2] ** 2 if q % 2 == 0 else 0))
        # the s^2 g g'', s^2 g'^2 and s g g' products share c_m c_(p-m), with
        # weight 4(p-m)(p-m-1) - 4m(p-m) + 4(p-m) = 4(p-m)(p-2m); m and p-m
        # together weigh 4(p-2m)^2
        pairs = sum(4 * (p - 2 * m) ** 2 * (c[m] * c[p - m]) for m in range(1, (p + 1) // 2))
        triple = sum(c[m] * g2[p - m] for m in range(1, p - 1))
        rest = pairs - 8 * triple
        pivot = 4 * c[1] * (p - 2) ** 2 - 2 * a
        c[p - 1] = -rest / pivot
    return tuple(c[1:])


@lru_cache(maxsize=None)
def g_large_coefficients(a: Fraction, order: int) -> tuple:
    """Coefficients d_0..d_order of the descending branch, d_k on s^{(2-k)/3}.

    The balance at the two leading powers forces d_0 = 1/2 and d_1 = -a/6;
    each later order is an explicit division by 6, so the whole family is
    resonance-free.  The expansion is asymptotic (the coefficients grow
    factorially), so consumers truncate at the smallest term.
    """
    a = _as_fraction(a)
    if order < 1:
        raise ValueError("order must be at least 1")
    d = [Fraction(0)] * (order + 1)
    d[0] = Fraction(1, 2)
    d[1] = -a / 6
    g2 = [Fraction(0)] * (order + 1)
    g2[0] = d[0] * d[0]
    g2[1] = 2 * d[0] * d[1]
    for q in range(0, order - 1):
        slot = q + 2
        partial = sum(d[i] * d[slot - i] for i in range(slot + 1))
        pair_a = sum(d[i] * d[q - i] * (2 - (q - i)) * (-1 - (q - i))
                     for i in range(q + 1))
        pair_b = sum(d[i] * d[q - i] * (2 - i) * (2 - (q - i))
                     for i in range(q + 1))
        pair_c = sum(d[i] * d[q - i] * (2 - (q - i)) for i in range(q + 1))
        triple = partial * d[0] + sum(d[m] * g2[slot - m]
                                      for m in range(1, slot + 1))
        d[slot] = (Fraction(4, 9) * (pair_a - pair_b) + Fraction(4, 3) * pair_c
                   - 8 * triple - 2 * a * d[q + 1]) / 6
        g2[slot] = sum(d[i] * d[slot - i] for i in range(slot + 1))
    return tuple(d)


@lru_cache(maxsize=None)
def log_ratio_small_coefficients(a: Fraction, order: int) -> tuple:
    """Taylor coefficients of the small-s log-ratio, lambda_1..lambda_order.

    The log-ratio L(s) is tied to g by d/ds(s L'(s)) = -g(s)/s, which maps
    coefficients as lambda_m = -c_m/m^2; the delta-ab-small table is the
    first six.
    """
    cs = g_small_coefficients(a, order)
    return tuple(-c / Fraction((m + 1) ** 2) for m, c in enumerate(cs))


def _poly_seed(coeffs, s0: mpf, lowest: int = 1):
    """Value and derivative of sum coeffs[i] * s^(lowest+i) at s0."""
    val = mpf(0)
    der = mpf(0)
    for i in range(len(coeffs) - 1, -1, -1):
        m = lowest + i
        cm = _fr(coeffs[i])
        val = val + cm * s0 ** m
        der = der + m * cm * s0 ** (m - 1)
    return val, der


def _small_seed_tail(coeffs, s0: mpf) -> mpf:
    """Geometric continuation estimate for the dropped Taylor remainder."""
    t_last = abs(_fr(coeffs[-1])) * s0 ** len(coeffs)
    t_prev = abs(_fr(coeffs[-2])) * s0 ** (len(coeffs) - 1)
    if t_prev == 0:
        return t_last
    ratio = t_last / t_prev
    if ratio < mpf("0.5"):
        return t_last * ratio / (1 - ratio)
    return t_last * 10


def _large_seed(a: Fraction, s0: mpf, order: int):
    """(g, g', tail) from the descending expansion truncated at its smallest term."""
    d = g_large_coefficients(a, order)
    u = s0 ** (mpf(1) / 3)
    candidates = [(abs(_fr(dk)) * u ** (2 - k), k)
                  for k, dk in enumerate(d) if k >= 2 and dk != 0]
    tail, cut = min(candidates) if candidates else (mpf(0), len(d) - 1)
    val = mpf(0)
    der = mpf(0)
    for k in range(cut + 1):
        if d[k] == 0:
            continue
        term = _fr(d[k]) * u ** (2 - k)
        val += term
        der += term * (2 - k) / (3 * s0)
    return val, der, tail


# --- scaled flow for g(s, a) -------------------------------------------------

_DIVERGENCE_CAP = mpf(10) ** 12


def _piii_rhs(a_val: mpf) -> Callable:
    def rhs(s, y):
        g, gp = y
        den = 4 * s * s * g
        if den == 0:
            return [gp, mp.inf]
        num = (4 * s * s * gp * gp - 4 * s * g * gp + 8 * g ** 3
               + 2 * a_val * s * g - s * s)
        return [gp, num / den]

    return rhs


def _piii_series(a_val: mpf, s0: mpf, y, order: int):
    """Taylor coefficients of g and g' at s0 through `order`, from the
    cleared form 4s^2 g g'' = 4s g'(s g' - g) + 8g^3 + 2as g - s^2."""
    s1 = [s0, 1]
    s2 = [s0 * s0, 2 * s0, 1]
    g = [mpf(y[0]), mpf(y[1])]
    v = [mpf(y[1])]
    e, c, z, k, d, gpp = [], [], [], [], [], []  # g^2, g^3, s g' - g, g' z, s^2 g, g''
    for m in range(order):
        e.append(cauchy(g, g, m))
        c.append(cauchy(g, e, m))
        z.append(cauchy(s1, v, m) - g[m])
        k.append(cauchy(v, z, m))
        d.append(cauchy(s2, g, m))
        rhs = (4 * cauchy(s1, k, m) + 8 * c[m] + 2 * a_val * cauchy(s1, g, m)
               - (s2[m] if m < 3 else 0))
        gpp.append((rhs / 4 - cauchy(d, gpp, m, start=1)) / d[0])
        g.append(gpp[m] / ((m + 1) * (m + 2)))
        v.append((m + 2) * g[m + 2])
    return [g[:order + 1], v]


def _piii_jet(a_val: mpf) -> Callable:
    return lambda s, y, order: _piii_series(a_val, s, y, order)


def _g_factor(s, y):
    """The factor g of the cleared denominator 4s^2 g."""
    return y[0]


def _flow_guard(config: PrecisionConfig) -> Callable:
    floor = mpf(10) ** (-(config.target_digits // 2))

    def guard(x, y):
        # zeros of g are genuine singular points of the flow; the cap
        # catches movable-pole blowups before step collapse sets in
        return (abs(y[0]) < floor or abs(y[0]) > _DIVERGENCE_CAP
                or abs(y[1]) > _DIVERGENCE_CAP)

    return guard


@dataclass
class PiiiTrajectory:
    """Integrated path of (g, g') with seed metadata and halt status;
    `steps` counts the integrator's accepted steps, Taylor polynomials of
    degree `order`."""

    a: mpf
    seed: str
    s0: mpf
    s_end: mpf
    tolerance: mpf
    samples: list
    halted: bool
    halt_reason: Optional[str]
    steps: int
    order: int

    @property
    def endpoint(self):
        return self.samples[-1]

    @property
    def reached(self) -> mpf:
        return self.samples[-1][0]

    def value_at(self, s) -> mpf:
        sv = mpf(s)
        tol = abs(sv) * mpf(10) ** -40 + mpf(10) ** -60
        for x, g, _ in self.samples:
            if abs(x - sv) <= tol:
                return g
        raise ValueError(f"s={sv} is not a stored sample point")


def _default_flow_tolerance(config: PrecisionConfig) -> mpf:
    # the integrator's internal budget is tolerance^4, so a quarter of the
    # digit target keeps the endpoint error near the working floor
    return mpf(10) ** (-(config.target_digits // 4))


def solve_piii_prime(
    a,
    s_end,
    config: PrecisionConfig,
    seed: str = SEED_SMALL_SERIES,
    s0=None,
    y0=None,
    tolerance=None,
    sample_points=None,
    seed_order: Optional[int] = None,
) -> PiiiTrajectory:
    """Integrate g'' = (g')^2/g - g'/s + 2g^2/s^2 + a/(2s) - 1/(4g).

    Seeding: `small-series` starts from the extended Taylor expansion at an
    s0 small enough that the seed remainder sits below tolerance^4 (the
    equation is singular at s=0, so direct initialization there is
    impossible); `large-series` starts at s0 = 2*s_end (or the given s0)
    from the extended descending expansion truncated at its smallest term
    and integrates downward; `explicit` takes (s0, y0) verbatim.  A guard
    halts the flow when g approaches 0 or diverges; the partial path is
    returned with `halted` set rather than raised.
    """
    with working_precision(config):
        s_end = to_mpf(s_end, config)
        if s_end <= 0:
            raise ValueError("s_end must be positive")
        tol = _default_flow_tolerance(config) if tolerance is None \
            else to_mpf(tolerance, config)
        if seed == SEED_SMALL_SERIES:
            fr = _as_fraction(a)
            order = ORDER_SMALL_SEED if seed_order is None else seed_order
            coeffs = g_small_coefficients(fr, order)
            if s0 is None:
                s0 = min(s_end / 2, mpf(1) / 8)
                budget = tol ** 4
                for _ in range(80):
                    g0, _unused = _poly_seed(coeffs, s0)
                    if _small_seed_tail(coeffs, s0) <= budget * max(mpf(1), abs(g0)):
                        break
                    s0 /= 2
                else:
                    raise NumericsError("no admissible seed point for the flow")
            else:
                s0 = to_mpf(s0, config)
            gv, gd = _poly_seed(coeffs, s0)
            start = [gv, gd]
            a_val = _fr(fr)
        elif seed == SEED_LARGE_SERIES:
            fr = _as_fraction(a)
            order = ORDER_LARGE_SEED if seed_order is None else seed_order
            s0 = 2 * s_end if s0 is None else to_mpf(s0, config)
            gv, gd, _tail = _large_seed(fr, s0, order)
            start = [gv, gd]
            a_val = _fr(fr)
        elif seed == SEED_EXPLICIT:
            if s0 is None or y0 is None:
                raise ValueError("explicit seeding needs both s0 and y0")
            s0 = to_mpf(s0, config)
            start = [to_mpf(y0[0], config), to_mpf(y0[1], config)]
            try:
                a_val = _fr(_as_fraction(a))
            except TypeError:
                a_val = to_mpf(a, config)
        else:
            raise ValueError(f"unknown seed mode {seed!r}")

        problem = OdeProblem(
            dimension=2,
            rhs=_piii_rhs(a_val),
            jet=_piii_jet(a_val),
            x0=s0,
            y0=start,
            x_end=s_end,
            tolerance=tol,
            singularity_guard=_flow_guard(config),
            denominator=_g_factor,
        )
        halted = False
        reason = None
        try:
            samples = solve_ode(problem, config, sample_points=sample_points)
        except OdeHalt as halt:
            samples = halt.samples
            halted = True
            reason = str(halt)
        path = [(x, y[0], y[1]) for x, y in samples]
    return PiiiTrajectory(
        a=a_val, seed=seed, s0=s0, s_end=s_end, tolerance=tol,
        samples=path, halted=halted, halt_reason=reason,
        steps=samples.steps, order=samples.order,
    )


# --- finite-n evolution of R_n(t) --------------------------------------------


@dataclass
class PvTrajectory:
    """Integrated path of (R_n, R_n') with the endpoint cross-check;
    `steps` counts the integrator's accepted steps, Taylor polynomials of
    degree `order`."""

    n: int
    alpha: mpf
    t0: mpf
    t_end: mpf
    tolerance: mpf
    samples: list
    halted: bool
    halt_reason: Optional[str]
    endpoint_direct: Optional[mpf]
    endpoint_gap: Optional[mpf]
    steps: int
    order: int

    @property
    def endpoint(self):
        return self.samples[-1]


def _pv_rhs(n: int, alpha: mpf) -> Callable:
    par = _parity(n)
    k1 = 2 * n + 2 * alpha + 1
    c3 = 4 * n ** 2 + 4 * (2 * alpha + 1) * n + 4 * alpha + 1

    def rhs(t, y):
        big_r, rp = y
        den = 8 * t * t * big_r * (k1 + big_r)
        if den == 0:
            return [rp, mp.inf]
        num = (4 * t * t * (4 * n + 4 * alpha + 2 + 3 * big_r) * rp * rp
               - 8 * t * (k1 + big_r) * big_r * rp
               + big_r ** 5
               + 2 * k1 * big_r ** 4
               + (c3 - 4 * t * t - 4 * par * t) * big_r ** 3
               - 8 * t * k1 * (par + 2 * t) * big_r ** 2
               - 4 * t * k1 ** 2 * (par + 5 * t) * big_r
               - 8 * t * t * k1 ** 3)
        return [rp, num / den]

    return rhs


def _pv_jet(n: int, alpha: mpf) -> Callable:
    """Taylor coefficients of (R, R') from 8t^2 R(k1+R) R'' = the numerator
    of _pv_rhs, written as R^3 (R^2 + 2k1 R + c3) + 4t R' X + t A1 + t^2 A2
    with X = t(4n+4alpha+2+3R) R' - 2R(k1+R) and A1, A2 linear in R, R^2, R^3."""
    par = _parity(n)
    k1 = 2 * n + 2 * alpha + 1
    c3 = 4 * n ** 2 + 4 * (2 * alpha + 1) * n + 4 * alpha + 1
    c_v = 4 * n + 4 * alpha + 2

    def jet(t0, y, order):
        t1 = [t0, 1]
        t2 = [t0 * t0, 2 * t0, 1]
        u = [mpf(y[0]), mpf(y[1])]
        v = [mpf(y[1])]
        e2, e3, quad, z, lin, w, x, k, a1, a2, d, rpp = ([] for _ in range(12))
        for m in range(order):
            e2.append(cauchy(u, u, m))
            e3.append(cauchy(u, e2, m))
            quad.append(e2[m] + 2 * k1 * u[m] + (c3 if m == 0 else 0))
            z.append(k1 * u[m] + e2[m])  # R (k1 + R)
            lin.append(3 * u[m] + (c_v if m == 0 else 0))
            w.append(cauchy(lin, v, m))
            x.append(cauchy(t1, w, m) - 2 * z[m])
            k.append(cauchy(v, x, m))
            a1.append(-4 * par * (e3[m] + 2 * k1 * e2[m] + k1 ** 2 * u[m]))
            a2.append(-4 * e3[m] - 16 * k1 * e2[m] - 20 * k1 ** 2 * u[m]
                      - (8 * k1 ** 3 if m == 0 else 0))
            d.append(cauchy(t2, z, m))
            num = (cauchy(e3, quad, m) + 4 * cauchy(t1, k, m)
                   + cauchy(t1, a1, m) + cauchy(t2, a2, m))
            rpp.append((num / 8 - cauchy(d, rpp, m, start=1)) / d[0])
            u.append(rpp[m] / ((m + 1) * (m + 2)))
            v.append((m + 2) * u[m + 2])
        return [u[:order + 1], v]

    return jet


def _seed_aux(n: int, alpha, t, config: PrecisionConfig):
    """R_n and R_n' from the finite-n tables at t (first-order relation)."""
    params = make_params(alpha, t, config)
    rec = recurrence_table(n + 1, params, config)
    with working_precision(config):
        par = _parity(n)
        k1 = 2 * n + 2 * params.alpha + 1
        r_val = aux_r(n, rec)
        big_r = aux_R(n, rec)
        rp = (big_r ** 2 + (1 - 2 * par * params.t - 2 * r_val) * big_r
              - 2 * par * k1 * params.t) / (2 * params.t)
    return big_r, rp


def continue_pv(
    n: int,
    params,
    t0,
    t_end,
    config: PrecisionConfig,
    tolerance=None,
    sample_points=None,
) -> PvTrajectory:
    """Evolve R_n(t) from t0 to t_end and cross-check the endpoint.

    The seed (R_n, R_n') comes from the finite-n tables at t0, the slope
    through the first-order relation 2tR' = R^2 + (1-2(-1)^n t-2r)R
    - 2(-1)^n(2n+2alpha+1)t.  Guards halt on R_n -> 0 or
    2n+2alpha+1+R_n -> 0, the zeros of the evolution's leading
    coefficient.  Only params.alpha is read; the trajectory's own t span
    is [t0, t_end], which must stay positive (the equation is singular at
    t=0).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    with working_precision(config):
        t0 = to_mpf(t0, config)
        t_end = to_mpf(t_end, config)
        if t0 <= 0 or t_end <= 0:
            raise ValueError("the evolution needs t0 > 0 and t_end > 0")
        tol = _default_flow_tolerance(config) if tolerance is None \
            else to_mpf(tolerance, config)
        alpha = to_mpf(params.alpha, config)
        k1 = 2 * n + 2 * alpha + 1
        big_r0, rp0 = _seed_aux(n, alpha, t0, config)

        if t_end == t0:
            return PvTrajectory(
                n=n, alpha=alpha, t0=t0, t_end=t_end, tolerance=tol,
                samples=[(t0, big_r0, rp0)], halted=False, halt_reason=None,
                endpoint_direct=big_r0, endpoint_gap=mpf(0), steps=0, order=0,
            )

        floor = mpf(10) ** (-(config.target_digits // 2))

        def guard(x, y):
            return abs(y[0]) < floor or abs(k1 + y[0]) < floor

        problem = OdeProblem(
            dimension=2,
            rhs=_pv_rhs(n, alpha),
            jet=_pv_jet(n, alpha),
            x0=t0,
            y0=[big_r0, rp0],
            x_end=t_end,
            tolerance=tol,
            singularity_guard=guard,
            denominator=lambda x, y: y[0] * (k1 + y[0]),
        )
        halted = False
        reason = None
        try:
            samples = solve_ode(problem, config, sample_points=sample_points)
        except OdeHalt as halt:
            samples = halt.samples
            halted = True
            reason = str(halt)
        path = [(x, y[0], y[1]) for x, y in samples]

        endpoint_direct = None
        endpoint_gap = None
        if not halted:
            endpoint_direct, _ = _seed_aux(n, alpha, t_end, config)
            endpoint_gap = abs(path[-1][1] - endpoint_direct)
    return PvTrajectory(
        n=n, alpha=alpha, t0=t0, t_end=t_end, tolerance=tol,
        samples=path, halted=halted, halt_reason=reason,
        endpoint_direct=endpoint_direct, endpoint_gap=endpoint_gap,
        steps=samples.steps, order=samples.order,
    )


def _spread_indices(count: int, max_rows: int):
    if count <= max_rows:
        return list(range(count))
    stride = (count - 1) / (max_rows - 1)
    picked = sorted({round(i * stride) for i in range(max_rows)})
    picked[-1] = count - 1
    return picked


def pv_residual_rows(trajectory: PvTrajectory, config: PrecisionConfig,
                     max_rows: int = 17) -> list:
    """Residual of the S_n form along the path, S_n = 1 + R_n/(2n+2alpha+1).

    S'' is taken from the evolution right-hand side, so each row checks
    that the transformed equation holds at the stored (R, R') points; the
    trajectory's own accuracy is covered by the endpoint cross-check.
    """
    n = trajectory.n
    alpha = trajectory.alpha
    par = _parity(n)
    rhs = _pv_rhs(n, alpha)
    rows = []
    with working_precision(config):
        k1 = 2 * n + 2 * alpha + 1
        for idx in _spread_indices(len(trajectory.samples), max_rows):
            t, big_r, rp = trajectory.samples[idx]
            r2 = rhs(t, [big_r, rp])[1]
            s_val = 1 + big_r / k1
            s1 = rp / k1
            s2 = r2 / k1
            if s_val == 0 or s_val == 1:
                rows.append(residual_row("pv-path", n, alpha, t, config, mpf(0), None,
                                         detail="S(S-1)=0 pole"))
                continue
            terms = [
                (3 * s_val - 1) * s1 ** 2 / (2 * s_val * (s_val - 1)),
                -s1 / t,
                (s_val - 1) ** 2 / t ** 2 * (k1 ** 2 * s_val / 8
                                             - alpha ** 2 / (2 * s_val)),
                -par * s_val / (2 * t),
                -s_val * (s_val + 1) / (2 * (s_val - 1)),
            ]
            rows.append(residual_row("pv-path", n, alpha, t, config,
                                     *normalize([s2] + terms, s2 - mp.fsum(terms)),
                                     detail="second derivative from the evolution"))
    return rows


# --- double-scaling scans -----------------------------------------------------


@dataclass
class ScanResult:
    """Raw finite-n values, extrapolation, and series comparison."""

    mode: str
    s: mpf
    alpha: mpf
    n_list: tuple
    raw: list
    errors: list
    extrapolated: Optional[mpf]
    extrapolated_alt: Optional[mpf]
    model: Optional[str]
    error_bar: Optional[mpf]
    reference: Optional[mpf]
    reference_kind: Optional[str]
    agreement_digits: Optional[mpf]
    monotone: Optional[bool]
    flags: list = field(default_factory=list)
    # the config each point's table ran at: more bits than asked is an escalation
    configs: list = field(default_factory=list)


def _neville_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x=0; returns the diagonal."""
    work = list(ys)
    diag = [work[0]]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            work[i] = (xs[i - k] * work[i] - xs[i] * work[i - 1]) \
                / (xs[i - k] - xs[i])
        diag.append(work[k])
    return diag


def _scan_raw(mode: str, s: mpf, n: int, alpha: mpf, config: PrecisionConfig):
    """The mode's finite-n value, and the config its table ran at."""
    with working_precision(config):
        if mode == "sigma-n4":
            t = s / mpf(n) ** 4
        else:
            t = s / (2 * mpf(n) ** 2)
        params = make_params(alpha, t, config)
        if mode == "g1":
            rec = recurrence_table(2 * n + 1, params, config)
            return n * aux_R(2 * n, rec), rec.config
        if mode == "g2":
            rec = recurrence_table(2 * n + 2, params, config)
            return n * aux_R(2 * n + 1, rec), rec.config
        if mode == "delta1":
            rec = recurrence_table(2 * n, params, config)
            return rec.logD[2 * n] - hankel_det_t0(2 * n, alpha, config), rec.config
        if mode == "delta2":
            rec = recurrence_table(2 * n + 1, params, config)
            return rec.logD[2 * n + 1] - hankel_det_t0(2 * n + 1, alpha, config), rec.config
        # sigma-n4
        rec = recurrence_table(n + 1, params, config)
        return -mp.fsum(aux_R(k, rec) for k in range(n)), rec.config


_REFERENCE_KINDS = {
    "g1": ("g1-small", "g1-large"),
    "g2": ("g2-small", "g2-large"),
    "delta1": ("delta-small", "delta-large"),
    "delta2": ("delta-small", "delta-large"),
}


def _pick_reference(mode: str, s: mpf, config: PrecisionConfig,
                    reference_kind: Optional[str]):
    if mode not in _REFERENCE_KINDS:
        if reference_kind is not None:
            raise ValueError(f"mode {mode!r} takes no series reference")
        return None, None, []
    small_kind, large_kind = _REFERENCE_KINDS[mode]
    if reference_kind is not None:
        if reference_kind not in (small_kind, large_kind):
            raise ValueError(
                f"reference for {mode!r} must be {small_kind} or {large_kind}")
        sv = series_eval(reference_kind, s, config)
        flags = [] if sv.in_regime else ["reference-out-of-regime"]
        return sv.value, reference_kind, flags
    small = series_eval(small_kind, s, config)
    if s == 0 or small.in_regime:
        return small.value, small_kind, []
    large = series_eval(large_kind, s, config)
    if large.in_regime:
        return large.value, large_kind, []
    pick = small if small.truncation <= large.truncation else large
    return pick.value, pick.kind, ["reference-out-of-regime"]


def double_scaling_scan(
    s,
    n_list: Sequence[int],
    alpha,
    mode: str,
    config: PrecisionConfig,
    allow_large_n: bool = False,
    reference_kind: Optional[str] = None,
) -> ScanResult:
    """Finite-n approach to a scaled limit along the mode's trajectory.

    g/delta modes hold s = 2n^2 t fixed; sigma-n4 holds s = n^4 t fixed.
    Extrapolation runs two Richardson models (corrections in powers of 1/n
    and of 1/n^2); the reported value comes from the model whose final
    correction is smaller and the spread between models feeds the error
    bar.  Per-point numeric failures are recorded, not raised.
    """
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if not n_list:
        raise ValueError("n_list must be non-empty")
    n_list = tuple(int(n) for n in n_list)
    if any(n < 1 for n in n_list):
        raise ValueError("scan indices must be positive")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    cap = N_CAP_EXTENDED if allow_large_n else N_CAP
    if n_list[-1] > cap:
        raise ValueError(
            f"n={n_list[-1]} beyond cap {cap}; pass allow_large_n for up to "
            f"{N_CAP_EXTENDED}")
    with working_precision(config):
        s_val = to_mpf(s, config)
        if s_val < 0:
            raise ValueError("s must be non-negative")
        alpha_val = to_mpf(alpha, config)
        # a mismatched reference is rejected before any table is built
        reference, ref_kind, ref_flags = _pick_reference(
            mode, s_val, config, reference_kind)

        raw, errors, configs = [], [], []
        for n in n_list:
            try:
                value, used = _scan_raw(mode, s_val, n, alpha_val, config)
                error = None
            except NumericsError as exc:
                value, used, error = None, config, str(exc)
            raw.append(value)
            errors.append(error)
            configs.append(used)

        flags = []
        if any(errors):
            flags.append("point-errors")
        good = [(n, v) for n, v in zip(n_list, raw) if v is not None]
        extrapolated = extrapolated_alt = model = error_bar = None
        if len(good) >= 2:
            xs1 = [mpf(1) / n for n, _ in good]
            xs2 = [mpf(1) / (mpf(n) * n) for n, _ in good]
            ys = [v for _, v in good]
            diag1 = _neville_zero(xs1, ys)
            diag2 = _neville_zero(xs2, ys)
            step1 = abs(diag1[-1] - diag1[-2])
            step2 = abs(diag2[-1] - diag2[-2])
            if step1 <= step2:
                extrapolated, extrapolated_alt = diag1[-1], diag2[-1]
                model, step = "1/n", step1
            else:
                extrapolated, extrapolated_alt = diag2[-1], diag1[-1]
                model, step = "1/n^2", step2
            error_bar = abs(diag1[-1] - diag2[-1]) + step
        else:
            flags.append("extrapolation-unavailable")

        flags.extend(ref_flags)

        agreement = None
        monotone = None
        if reference is not None and extrapolated is not None:
            diff = abs(extrapolated - reference)
            scale = max(abs(reference), mpf(10) ** (-config.target_digits))
            if diff <= mpf(10) ** (-config.target_digits):
                agreement = mpf(config.target_digits)
            else:
                agreement = min(-mp.log10(diff / scale),
                                mpf(config.target_digits))
            gaps = [abs(v - reference) for _, v in good]
            monotone = all(b <= a for a, b in zip(gaps, gaps[1:]))
            if not monotone:
                flags.append("non-monotone-approach")
    return ScanResult(
        mode=mode, s=s_val, alpha=alpha_val, n_list=n_list, raw=raw,
        errors=errors, extrapolated=extrapolated,
        extrapolated_alt=extrapolated_alt, model=model, error_bar=error_bar,
        reference=reference, reference_kind=ref_kind,
        agreement_digits=agreement, monotone=monotone, flags=flags, configs=configs,
    )


def sigma_form_residual(
    sigma_samples: Callable,
    s_points: Sequence,
    config: PrecisionConfig,
    h0=None,
    sample_error=None,
    alpha=0,
) -> list:
    """Residual rows of 4s^2(o'')^2+4so'o''+8s(o')^3-4o(o')^2+(o')^2 = 0.

    Derivatives come from Richardson stencils on `sigma_samples`; when the
    sampler is itself an extrapolation, pass `h0` sized to its noise floor
    (about noise^(1/10)) and `sample_error` so the row's pass bar can
    propagate the input uncertainty through the stencil amplification.
    Rows pass when the residual sits below the propagated bar (or the
    global threshold when that is larger).
    """
    from .derivatives import derivative_bundle

    rows = []
    with working_precision(config):
        alpha_val = to_mpf(alpha, config)
        err0 = mpf(0) if sample_error is None else to_mpf(sample_error, config)
        for point in s_points:
            s = to_mpf(point, config)
            bundle = derivative_bundle(sigma_samples, s, config,
                                       orders=(1, 2), h0=h0)
            d1, e1 = bundle[1]
            d2, e2 = bundle[2]
            sig = to_mpf(sigma_samples(s), config)
            terms = [
                4 * s ** 2 * d2 ** 2,
                4 * s * d1 * d2,
                8 * s * d1 ** 3,
                -4 * sig * d1 ** 2,
                d1 ** 2,
            ]
            scale, residual = normalize(terms, mp.fsum(terms))
            if residual is None:
                rows.append(residual_row("sf", 0, alpha_val, s, config, scale, None,
                                         detail="flat sample"))
                continue
            sens_d2 = abs(8 * s ** 2 * d2 + 4 * s * d1)
            sens_d1 = abs(4 * s * d2 + 24 * s * d1 ** 2 - 8 * sig * d1 + 2 * d1)
            sens_sig = 4 * d1 ** 2
            # first-order propagation of stencil + sampler uncertainty,
            # with slack for the neglected cross terms
            bar = 4 * (sens_d2 * e2 + sens_d1 * e1 + sens_sig * err0) / scale
            rows.append(residual_row("sf", 0, alpha_val, s, config, scale, residual,
                                     detail=f"error-bar~{mp.nstr(bar, 3)}", bar=bar))
    return rows


# --- the constant-term experiment ---------------------------------------------


@dataclass
class DysonExperiment:
    """Every measurable piece of the large-s constant-term estimate."""

    alpha: mpf
    s_lo: mpf
    s_hi: mpf
    n_list: tuple
    route: str
    ode_constant: Optional[mpf]
    ode_halted: bool
    ode_halt_reason: Optional[str]
    ode_reached: Optional[mpf]
    scan_constant: Optional[mpf]
    scan: Optional[ScanResult]
    constant_estimate: Optional[mpf]
    exact_constant_sum: mpf
    reference: mpf
    cancellation_ok: bool
    flags: list = field(default_factory=list)


def _odd_terms_cancel() -> bool:
    """Exact-rational check that the a = +-1/2 product drops odd terms."""
    plus = dict(series_expansion("delta-ab-large", a=Fraction(1, 2)).terms)
    minus = dict(series_expansion("delta-ab-large", a=Fraction(-1, 2)).terms)
    odd = (Fraction(1, 3), Fraction(-1, 3), Fraction(-1), Fraction(-5, 3))
    return all(plus[e] + minus[e] == 0 for e in odd)


def _coupled_jet(a_val: mpf) -> Callable:
    """The PIII' jet with s H' = -g and s L' = H, order by order."""

    def jet(s, y, order):
        g, v = _piii_series(a_val, s, y, order)
        big_h, big_l = [mpf(y[2])], [mpf(y[3])]
        dh, dl = [], []
        for m in range(order):
            dh.append((-g[m] - (dh[m - 1] if m else 0)) / s)
            dl.append((big_h[m] - (dl[m - 1] if m else 0)) / s)
            big_h.append(dh[m] / (m + 1))
            big_l.append(dl[m] / (m + 1))
        return [g, v, big_h, big_l]

    return jet


def _coupled_rhs(a_val: mpf) -> Callable:
    """(g, g', H, L) flow: the inner pair is the g equation, and
    d/ds(s L') = -g/s closes the log-ratio, the same map that builds the
    log-ratio tables from the g coefficients term by term."""
    base = _piii_rhs(a_val)

    def rhs(s, y):
        g, gp, slope, _ = y
        inner = base(s, [g, gp])
        return [inner[0], inner[1], -g / s, slope / s]

    return rhs


def dyson_constant_experiment(
    alpha,
    s_lo,
    s_hi,
    n_list: Sequence[int],
    config: PrecisionConfig,
    route: str = "auto",
    tolerance=None,
) -> DysonExperiment:
    """Estimate the constant term of the large-s delta expansion.

    The flow route anchors ln Delta(s, a, alpha) for a = +-1/2 at s_lo via
    the small-s series, carries it to s_hi with the coupled g flow, sums
    the two branches, and subtracts the non-constant large-s terms.  The
    scan route reads ln Delta_1(s_hi) off the finite-n extrapolation
    instead.  `route` picks "ode", "scan", or "auto" (flow first, scan as
    fallback when the flow halts).  Every exact ingredient - the Barnes
    constant sum and the odd-term cancellation - is computed regardless.
    """
    if route not in ("auto", "ode", "scan"):
        raise ValueError(f"unknown route {route!r}")
    n_list = tuple(int(n) for n in n_list)
    with working_precision(config):
        alpha_val = to_mpf(alpha, config)
        s_lo_val = to_mpf(s_lo, config)
        s_hi_val = to_mpf(s_hi, config)
        if not 0 < s_lo_val < s_hi_val:
            raise ValueError("need 0 < s_lo < s_hi")
        tol = _default_flow_tolerance(config) if tolerance is None \
            else to_mpf(tolerance, config)

        exact_sum = (c_constant(Fraction(1, 2), config)
                     + c_constant(Fraction(-1, 2), config))
        reference = dyson_reference(config)
        cancellation = _odd_terms_cancel()

        flags = []
        large = series_expansion("delta-large")
        if not large.in_regime(s_hi_val, config):
            flags.append("s_hi-outside-large-regime")
        tail = large.eval(s_hi_val, config, include_constant=False)

        ode_constant = None
        ode_halted = False
        ode_reason = None
        ode_reached = None
        if route in ("auto", "ode"):
            branch_logs = []
            reached = []
            for fr in (Fraction(1, 2), Fraction(-1, 2)):
                dser = series_expansion("delta-ab-small", a=fr)
                if not dser.in_regime(s_lo_val, config):
                    flags.append(f"s_lo-outside-small-regime(a={fr})")
                gv, gd = _poly_seed(
                    g_small_coefficients(fr, ORDER_SMALL_SEED), s_lo_val)
                lam = log_ratio_small_coefficients(fr, ORDER_SMALL_SEED)
                lv, ld = _poly_seed(lam, s_lo_val)
                start = [gv, gd, s_lo_val * ld, lv]
                problem = OdeProblem(
                    dimension=4,
                    rhs=_coupled_rhs(_fr(fr)),
                    jet=_coupled_jet(_fr(fr)),
                    x0=s_lo_val,
                    y0=start,
                    x_end=s_hi_val,
                    tolerance=tol,
                    singularity_guard=lambda x, y: (
                        abs(y[0]) < mpf(10) ** (-(config.target_digits // 2))
                        or abs(y[0]) > _DIVERGENCE_CAP
                        or abs(y[1]) > _DIVERGENCE_CAP),
                    denominator=_g_factor,
                )
                try:
                    samples = solve_ode(problem, config)
                    branch_logs.append(samples[-1][1][3])
                    reached.append(samples[-1][0])
                except OdeHalt as halt:
                    ode_halted = True
                    ode_reason = f"a={fr}: {halt}"
                    reached.append(halt.x)
                    break
            ode_reached = min(reached) if reached else None
            if not ode_halted and len(branch_logs) == 2:
                ode_constant = branch_logs[0] + branch_logs[1] - tail
            elif ode_halted:
                flags.append("ode-route-halted")

        scan_constant = None
        scan_result = None
        if route == "scan" or (route == "auto" and ode_constant is None):
            scan_result = double_scaling_scan(
                s_hi_val, n_list, alpha_val, "delta1", config,
                reference_kind="delta-large")
            if scan_result.extrapolated is not None:
                scan_constant = scan_result.extrapolated - tail

        constant = ode_constant if ode_constant is not None else scan_constant
    return DysonExperiment(
        alpha=alpha_val, s_lo=s_lo_val, s_hi=s_hi_val, n_list=n_list,
        route=route, ode_constant=ode_constant, ode_halted=ode_halted,
        ode_halt_reason=ode_reason, ode_reached=ode_reached,
        scan_constant=scan_constant, scan=scan_result,
        constant_estimate=constant, exact_constant_sum=exact_sum,
        reference=reference, cancellation_ok=cancellation, flags=flags,
    )
