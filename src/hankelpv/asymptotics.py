"""Double-scaling layer: reference series, scaled flows, and finite-n scans.

Three cooperating parts.  The series tables are the exact rational
recurrences of series.py for the small-s and large-s expansions of the
scaled quantities, truncated after six or seven terms, evaluated together
with a first-omitted-term truncation estimate.  The flow solvers integrate the
scaled second-order equation for g(s,a) and the Painleve V equation for
R_n(t), seeded from the small-s Taylor series (or a given start)
respectively from the finite-n tables.  The large-s series are references,
never seeds: the g solutions that share that expansion differ by
exponentially small terms, which grow as a flow runs inward.  The
R_n flow's rhs and seed slope solve ladder.pv_terms and riccati_terms, which
the identity rows check.  Each Taylor jet for ode.py is its own transcription
of its cleared equation: solve_ode checks every step's jet against the rhs,
which is a check only while the two are written apart.  The three flows
(g, R_n, and g with the log-ratio) share one runner and one Trajectory;
each names the factors of its cleared denominator (g; R_n and k1 + R_n),
which drive the runner's singularity guard.  The scan driver
measures the double-scaling limits directly: raw finite-n values along the
prescribed (n, t) trajectories, Richardson extrapolation in 1/n with a
dual-model error bar, and comparison against the series references.

Each raw value comes from ladder.difference_run, the forward run of the
paper's second-order difference equation for r_n seeded by the two moment
anchors: O(n) steps per point, where a Chebyshev table from 2n moments
costs O(n^2) and loses about 0.75 digits per degree.  The g modes read R_n
from the run and sigma-n4 sums it; the delta modes take beta_k(t) from
ladder.beta_aux_terms and normalise by the closed-form t = 0 Jacobi data
(recurrence.log_det_ratio).  The run's digits fall with s, not with n.
Every point is certified by precision.stabilized: a second run at 64
more bits from its own anchors, and one escalation to doubled bits before
it fails. At s = 0 every value is an exact zero, and no run is made.

The two scaling regimes are distinct and never mixed: the g/delta scans
hold s = 2n^2 t fixed, the sigma scan holds s = n^4 t fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .ladder import (_parity, beta_aux_terms, difference_run, ladder_maps, pv_terms,
                     riccati_terms)
from .ode import (OdeHalt, OdeProblem, binary_point, int_cauchy, shifted, solve_ode,
                  to_fixed)
from .precision import NumericsError, PrecisionConfig, stabilized, to_mpf, working_precision
from .recurrence import log_det_ratio, recurrence_table
from .series import (_as_fraction, _poly_seed, _small_seed_tail, g_large_coefficients,
                     g_small_coefficients, g_small_series, log_ratio_small_coefficients,
                     log_ratio_small_series)
from .special import log_barnes_g, zeta_prime_minus_one
from .weights import MomentTable, WeightParams, make_params

SMALL = "small-s"
LARGE = "large-s"

FIXED_KINDS = ("g1-small", "g2-small", "g1-large", "g2-large",
               "delta-small", "delta-large")
PARAMETRIC_KINDS = ("g-small", "g-large", "delta-ab-small", "delta-ab-large")
SERIES_KINDS = FIXED_KINDS + PARAMETRIC_KINDS

SCAN_MODES = ("g1", "g2", "delta1", "delta2", "sigma-n4")
DEFAULT_N_LIST = (8, 16, 32, 64)
N_CAP = 1024
N_CAP_EXTENDED = 4096

# Unknown-next-coefficient allowance: the tabulated families show
# consecutive-coefficient magnitude ratios jumping by up to ~2.4 after a
# dip, so the reported truncation bound carries a factor-4 cushion on top
# of the geometric ratio extrapolation.  The regime heuristic compares
# like-for-like magnitudes and therefore omits the cushion.
ESTIMATOR_SAFETY = 4

_FR0 = Fraction(0)


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
    if a_values is None:
        if a is None:
            raise ValueError(f"{kind} requires the parameter a")
        fr = _as_fraction(a)
    else:
        if a is not None:
            raise ValueError(f"{kind} does not take a parameter")
        fr = None
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


# --- seeds from the exact small-s series (series.py) ---------------------------

ORDER_SMALL_SEED = 64


def _small_seed_point(series, s0: mpf, tol: mpf, search: bool = True) -> mpf:
    """s0, or with `search` the first of s0, s0/2, s0/4, ... at which each
    small-s series' seed tail is at most tol^4 * max(1, |its value|), the
    integrator's budget, so no flow starts from digits its seed does not
    hold.  Without `search`, an s0 whose tail misses the budget raises."""
    budget = tol ** 4
    for _ in range(80):
        for one in series:
            tail = _small_seed_tail(one, s0)
            bound = budget * max(mpf(1), abs(_poly_seed(one, s0)[0]))
            if tail > bound:
                break
        else:
            return s0
        if not search:
            raise NumericsError(f"the small-series seed at s0={mp.nstr(s0, 6)} has a tail of "
                                f"{mp.nstr(tail, 3)}, above tolerance^4*max(1,|g0|) = "
                                f"{mp.nstr(bound, 3)}")
        s0 /= 2
    raise NumericsError("no admissible seed point for the flow")


# --- one runner for every flow ---------------------------------------------

_DIVERGENCE_CAP = mpf(10) ** 12


def _flow_tolerance(tolerance, config: PrecisionConfig) -> mpf:
    """The flow tolerance asked for, or by default a quarter of the digit
    target: the integrator's internal budget is tolerance^4, which keeps the
    endpoint error near the working floor."""
    if tolerance is None:
        return mpf(10) ** (-(config.target_digits // 4))
    return to_mpf(tolerance, config)


@dataclass
class Trajectory:
    """One flow's rows (x, *y), from the seed to where it finished or halted.

    `halt_reason` is None when the flow reached its end point; `steps`
    counts the integrator's accepted steps, Taylor polynomials of degree
    `order`. A series seed's tail is checked where the seed is made
    (_small_seed_point), so no trajectory carries it; `endpoint_direct`
    and `endpoint_gap` are the PV flow's cross-check against the tables.
    """

    samples: list
    tolerance: mpf
    halt_reason: Optional[str]
    steps: int
    order: int
    endpoint_direct: Optional[mpf] = None
    endpoint_gap: Optional[mpf] = None

    @property
    def halted(self) -> bool:
        return self.halt_reason is not None

    @property
    def reached(self) -> mpf:
        return self.samples[-1][0]

    @property
    def endpoint(self):
        return self.samples[-1]


def _run_flow(rhs, jet, factors, x0, y0, x_end, tolerance, config: PrecisionConfig,
              sample_points=None) -> Trajectory:
    """Integrate one flow from (x0, y0) to x_end; a halt returns the partial path.

    `factors(y)` lists the state-dependent factors of the flow's cleared
    denominator. Their product is the denominator the integrator keeps the
    sign of, and the guard halts where one of them falls below
    10^-(target_digits/2), a genuine singular point of the flow, or where
    |y| or |y'| passes the divergence cap, a movable pole, before step
    collapse sets in.
    """
    floor = mpf(10) ** (-(config.target_digits // 2))

    def guard(x, y):
        return (any(abs(f) < floor for f in factors(y))
                or abs(y[0]) > _DIVERGENCE_CAP or abs(y[1]) > _DIVERGENCE_CAP)

    problem = OdeProblem(
        rhs=rhs,
        jet=jet,
        x0=x0,
        y0=y0,
        x_end=x_end,
        tolerance=tolerance,
        singularity_guard=guard,
        denominator=lambda x, y: mp.fprod(factors(y)),
    )
    reason = None
    try:
        samples = solve_ode(problem, config, sample_points=sample_points)
    except OdeHalt as halt:
        samples = halt.samples
        reason = str(halt)
    return Trajectory(samples=[(x, *y) for x, y in samples], tolerance=tolerance,
                      halt_reason=reason, steps=samples.steps, order=samples.order)


# --- scaled flow for g(s, a) -------------------------------------------------


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


def _piii_series(a_val: mpf, s0: mpf, y, order: int, scale: int):
    """Fixed-point Taylor rows of g and g' at s0 through `order` in
    sigma = (s - s0) / H, H = 2^scale (ode module docstring), from the cleared
    form 4s^2 g g'' = 4s g'(s g' - g) + 8g^3 + 2as g - s^2. With V = H g' and
    P = H^2 g'' it reads 4s^2 g P = 4s V (s V - H g) + H^2 (8g^3 + 2as g - s^2);
    V_k = (k+1) b_(k+1) and P_m = (m+1)(m+2) b_(m+2) on the rows b_k of g."""
    f = binary_point()
    a2 = to_fixed(2 * a_val, f)
    s1 = [to_fixed(s0, f), shifted(1, f + scale)]
    s2 = [s1[0] * s1[0] >> f, 2 * s1[0] * s1[1] >> f, s1[1] * s1[1] >> f]
    y1 = to_fixed(y[1], f)
    g = [to_fixed(y[0], f), shifted(y1, scale)]
    v = [g[1]]
    e, c, z, k, d, gpp = [], [], [], [], [], []  # g^2, g^3, s V - H g, V z, s^2 g, P
    for m in range(order):
        e.append(int_cauchy(g, g, m) >> f)
        c.append(int_cauchy(g, e, m) >> f)
        z.append((int_cauchy(s1, v, m) >> f) - shifted(g[m], scale))
        k.append(int_cauchy(v, z, m) >> f)
        d.append(int_cauchy(s2, g, m) >> f)
        lower = 8 * c[m] + (a2 * (int_cauchy(s1, g, m) >> f) >> f) - (s2[m] if m < 3 else 0)
        rhs = 4 * int_cauchy(s1, k, m) + (shifted(lower, 2 * scale) << f)
        gpp.append(((rhs >> 2) - int_cauchy(d, gpp, m, start=1)) // d[0])
        g.append(gpp[m] // ((m + 1) * (m + 2)))
        v.append((m + 2) * g[m + 2])
    return [g[:order + 1], [y1] + [shifted(vk, -scale) for vk in v[1:]]]


def _piii_jet(a_val: mpf) -> Callable:
    return lambda s, y, order, scale: _piii_series(a_val, s, y, order, scale)


def seed_point(s_end, config: PrecisionConfig) -> mpf:
    """Where the small-s seed's search for an admissible seed point begins
    when no s0 is given: min(s_end/2, 1/8)."""
    with working_precision(config):
        return min(to_mpf(s_end, config) / 2, mpf(1) / 8)


def solve_piii_prime(
    a,
    s_end,
    config: PrecisionConfig,
    s0=None,
    y0=None,
    tolerance=None,
    sample_points=None,
) -> Trajectory:
    """Integrate g'' = (g')^2/g - g'/s + 2g^2/s^2 + a/(2s) - 1/(4g).

    One start: given y0 = (g0, g0'), the flow starts there at the given s0.
    Otherwise it starts from the order-ORDER_SMALL_SEED Taylor series at s0,
    or, with no s0, at the first of seed_point, its half, ... whose seed
    tail is below tolerance^4 * max(1, |g0|); a given s0 whose tail misses
    that budget raises NumericsError.  The equation is singular at s = 0, so
    s0 must be positive.  The descending large-s expansion is no start: the
    solutions that share it differ by exponentially small terms that grow
    as the flow runs inward.  A guard halts the flow when g approaches 0 or
    diverges; the partial path is returned with `halted` set rather than
    raised.
    """
    with working_precision(config):
        s_end = to_mpf(s_end, config)
        if s_end <= 0:
            raise ValueError("s_end must be positive")
        if s0 is not None:
            s0 = to_mpf(s0, config)
            if s0 <= 0:
                raise ValueError("s0 must be positive: the flow is singular at s = 0")
        tol = _flow_tolerance(tolerance, config)
        fr = _as_fraction(a)
        if y0 is None:
            series = g_small_series(fr, ORDER_SMALL_SEED)
            s0 = _small_seed_point([series], seed_point(s_end, config) if s0 is None else s0,
                                   tol, search=s0 is None)
            start = list(_poly_seed(series, s0))
        elif s0 is None or None in y0:
            raise ValueError("an explicit start needs s0, g0 and g0'")
        else:
            start = [to_mpf(y0[0], config), to_mpf(y0[1], config)]
        a_val = _fr(fr)
        return _run_flow(_piii_rhs(a_val), _piii_jet(a_val), lambda y: [y[0]],
                         s0, start, s_end, tol, config, sample_points)


# --- finite-n evolution of R_n(t) --------------------------------------------


def _pv_rhs(n: int, alpha: mpf) -> Callable:
    def rhs(t, y):
        # at R'' = 1 the first term is its own coefficient, 8t^2 R (k1 + R)
        terms = pv_terms(n, y[0], y[1], 1, WeightParams(alpha=alpha, t=t))
        if terms[0] == 0:
            return [y[1], mp.inf]
        return [y[1], -sum(terms[1:]) / terms[0]]

    return rhs


def _pv_jet(n: int, alpha: mpf) -> Callable:
    """Fixed-point Taylor rows of (R, R') in sigma = (t - t0) / H, H = 2^scale
    (ode module docstring), from 8t^2 R(k1+R) R'' = -(the other
    ladder.pv_terms), written as R^3 (R^2 + 2k1 R + c3) + 4t R' X + t A1 + t^2 A2
    with X = t(4n+4alpha+2+3R) R' - 2R(k1+R) and A1, A2 linear in R, R^2, R^3.
    With V = H R' and P = H^2 R'' the terms without R' carry H^2 and X
    becomes H X = t(4n+4alpha+2+3R) V - 2H R(k1+R)."""
    par = _parity(n)
    k1 = 2 * n + 2 * alpha + 1
    c3 = 4 * n ** 2 + 4 * (2 * alpha + 1) * n + 4 * alpha + 1
    c_v = 4 * n + 4 * alpha + 2

    def jet(t0, y, order, scale):
        f = binary_point()
        k1_f, k1sq_f, k1cube_f, c3_f, c_v_f = (to_fixed(c, f) for c in
                                               (k1, k1 ** 2, 8 * k1 ** 3, c3, c_v))
        t1 = [to_fixed(t0, f), shifted(1, f + scale)]
        t2 = [t1[0] * t1[0] >> f, 2 * t1[0] * t1[1] >> f, t1[1] * t1[1] >> f]
        y1 = to_fixed(y[1], f)
        u = [to_fixed(y[0], f), shifted(y1, scale)]
        v = [u[1]]
        e2, e3, quad, z, lin, w, x, k, a1, a2, d, rpp = ([] for _ in range(12))
        for m in range(order):
            e2.append(int_cauchy(u, u, m) >> f)
            e3.append(int_cauchy(u, e2, m) >> f)
            k1u, k1e2, k1sq_u = k1_f * u[m] >> f, k1_f * e2[m] >> f, k1sq_f * u[m] >> f
            quad.append(e2[m] + 2 * k1u + (c3_f if m == 0 else 0))
            z.append(k1u + e2[m])  # R (k1 + R)
            lin.append(3 * u[m] + (c_v_f if m == 0 else 0))
            w.append(int_cauchy(lin, v, m) >> f)
            x.append((int_cauchy(t1, w, m) >> f) - shifted(2 * z[m], scale))
            k.append(int_cauchy(v, x, m) >> f)
            a1.append(-4 * par * (e3[m] + 2 * k1e2 + k1sq_u))
            a2.append(-4 * e3[m] - 16 * k1e2 - 20 * k1sq_u - (k1cube_f if m == 0 else 0))
            d.append(int_cauchy(t2, z, m) >> f)
            lower = int_cauchy(e3, quad, m) + int_cauchy(t1, a1, m) + int_cauchy(t2, a2, m)
            num = shifted(lower, 2 * scale) + 4 * int_cauchy(t1, k, m)
            rpp.append(((num >> 3) - int_cauchy(d, rpp, m, start=1)) // d[0])
            u.append(rpp[m] // ((m + 1) * (m + 2)))
            v.append((m + 2) * u[m + 2])
        return [u[:order + 1], [y1] + [shifted(vk, -scale) for vk in v[1:]]]

    return jet


def _seed_aux(n: int, alpha, t, config: PrecisionConfig):
    """R_n and R_n' from the finite-n tables at t (first-order relation)."""
    params = make_params(alpha, t, config)
    rec = recurrence_table(n + 1, params, config)
    with working_precision(config):
        _, r, big_r, _ = ladder_maps(rec.beta, params)
        rp = sum(riccati_terms(n, big_r[n], r[n], params)) / (2 * params.t)
    return big_r[n], rp


def continue_pv(
    n: int,
    params,
    t0,
    t_end,
    config: PrecisionConfig,
    tolerance=None,
    sample_points=None,
) -> Trajectory:
    """Evolve R_n(t) from t0 to t_end and cross-check the endpoint.

    The seed (R_n, R_n') comes from the finite-n tables at t0, the slope
    through the Riccati relation.  Guards halt on R_n -> 0 or
    2n+2alpha+1+R_n -> 0, the zeros of the evolution's leading coefficient,
    and at the divergence cap.  Only params.alpha is read; the trajectory's
    own t span is [t0, t_end], which must stay positive (the equation is
    singular at t=0).
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    with working_precision(config):
        t0 = to_mpf(t0, config)
        t_end = to_mpf(t_end, config)
        if t0 <= 0 or t_end <= 0:
            raise ValueError("the evolution needs t0 > 0 and t_end > 0")
        alpha = to_mpf(params.alpha, config)
        k1 = 2 * n + 2 * alpha + 1
        trajectory = _run_flow(_pv_rhs(n, alpha), _pv_jet(n, alpha),
                               lambda y: [y[0], k1 + y[0]],
                               t0, list(_seed_aux(n, alpha, t0, config)), t_end,
                               _flow_tolerance(tolerance, config), config, sample_points)
        if not trajectory.halted:
            trajectory.endpoint_direct, _ = _seed_aux(n, alpha, t_end, config)
            trajectory.endpoint_gap = abs(trajectory.endpoint[1] - trajectory.endpoint_direct)
    return trajectory


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
    model: Optional[str]
    error_bar: Optional[mpf]
    reference: Optional[mpf]
    reference_kind: Optional[str]
    agreement_digits: Optional[mpf]
    flags: list = field(default_factory=list)
    # the config each point was certified at: more bits than asked is an escalation
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


def _scan_value(mode: str, n: int, params: WeightParams, config: PrecisionConfig):
    """The mode's finite-n value at params.t > 0, from one difference run."""
    with working_precision(config):
        if mode in ("g1", "g2"):
            index = 2 * n if mode == "g1" else 2 * n + 1
            return n * difference_run(index + 1, params, config)[1][index]
        if mode == "sigma-n4":
            return -mp.fsum(difference_run(n, params, config)[1])
        size = 2 * n if mode == "delta1" else 2 * n + 1
        moments = MomentTable.build(params, 2, config)
        r, big_r = difference_run(size, params, config, moments)
        beta = [mpf(0)] + [sum(beta_aux_terms(k, big_r[k], r[k], params))
                           for k in range(1, size)]
        return log_det_ratio(moments[0], beta, params.alpha, config)


def _scan_raw(mode: str, s: mpf, n: int, alpha: mpf, config: PrecisionConfig):
    """The mode's finite-n value, certified by precision.stabilized, and the
    config it was certified at; raises NumericsError if the two runs
    disagree at doubled bits too. At s = 0 every r_n and R_n vanishes, and
    so does every mode."""
    with working_precision(config):
        if mode == "sigma-n4":
            t = s / mpf(n) ** 4
        else:
            t = s / (2 * mpf(n) ** 2)
        if t == 0:
            return mpf(0), config
        params = make_params(alpha, t, config)
    return stabilized(lambda cfg: _scan_value(mode, n, params, cfg), config)


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
    Each raw value is one forward run of the difference equation for r_n
    (module docstring), O(n) per point, so n runs to N_CAP, or to
    N_CAP_EXTENDED with allow_large_n. precision.stabilized certifies each
    value by a second run at 64 more bits, escalating once to doubled bits;
    `configs` records the config of each. At s = 0 every value is zero.
    The delta modes are ln D_N(t) - ln D_N(0), normalised by the closed
    form of the Jacobi weight at t = 0 (recurrence.log_det_ratio).
    Extrapolation runs two Richardson models (corrections in powers of 1/n
    and of 1/n^2); the reported value comes from the model whose final
    correction is smaller and the spread between models feeds the error
    bar.  Per-point numeric failures, a point that fails its second run at
    doubled bits included, are recorded, not raised.
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
        extrapolated = model = error_bar = None
        if len(good) >= 2:
            xs1 = [mpf(1) / n for n, _ in good]
            xs2 = [mpf(1) / (mpf(n) * n) for n, _ in good]
            ys = [v for _, v in good]
            diag1 = _neville_zero(xs1, ys)
            diag2 = _neville_zero(xs2, ys)
            step1 = abs(diag1[-1] - diag1[-2])
            step2 = abs(diag2[-1] - diag2[-2])
            if step1 <= step2:
                extrapolated, model, step = diag1[-1], "1/n", step1
            else:
                extrapolated, model, step = diag2[-1], "1/n^2", step2
            error_bar = abs(diag1[-1] - diag2[-1]) + step
        else:
            flags.append("extrapolation-unavailable")

        flags.extend(ref_flags)

        agreement = None
        if reference is not None and extrapolated is not None:
            diff = abs(extrapolated - reference)
            scale = max(abs(reference), mpf(10) ** (-config.target_digits))
            if diff <= mpf(10) ** (-config.target_digits):
                agreement = mpf(config.target_digits)
            else:
                agreement = min(-mp.log10(diff / scale),
                                mpf(config.target_digits))
            gaps = [abs(v - reference) for _, v in good]
            if any(b > a for a, b in zip(gaps, gaps[1:])):
                flags.append("non-monotone-approach")
    return ScanResult(
        mode=mode, s=s_val, alpha=alpha_val, n_list=n_list, raw=raw,
        errors=errors, extrapolated=extrapolated, model=model, error_bar=error_bar,
        reference=reference, reference_kind=ref_kind,
        agreement_digits=agreement, flags=flags, configs=configs,
    )


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
    """The PIII' jet with s H' = -g and s L' = H, order by order: on the
    scaled rows the order-m terms of (s0 + H sigma) dF/dsigma = H rhs give
    (m+1) F_(m+1) = H (rhs_m - m F_m) / s0."""

    def jet(s, y, order, scale):
        f = binary_point()
        g, v = _piii_series(a_val, s, y, order, scale)
        s0 = to_fixed(s, f)
        big_h, big_l = [to_fixed(y[2], f)], [to_fixed(y[3], f)]
        dh = dl = 0
        for m in range(order):
            dh = shifted((-g[m] - dh) << f, scale) // s0
            dl = shifted((big_h[m] - dl) << f, scale) // s0
            big_h.append(dh // (m + 1))
            big_l.append(dl // (m + 1))
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

    The flow route anchors ln Delta(s, a, alpha) for a = +-1/2 via the
    small-s series at s_lo, halved until the tails of the g and log-ratio
    series meet the flow's budget, carries it to s_hi with the coupled g
    flow, sums the two branches, and subtracts the non-constant large-s
    terms.  The scan route reads ln Delta_1(s_hi) off the finite-n
    extrapolation instead.  `route` picks "ode", "scan", or "auto" (flow
    first, scan as fallback when the flow halts).  Every exact ingredient -
    the Barnes constant sum and the odd-term cancellation - is computed
    regardless.
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
        tol = _flow_tolerance(tolerance, config)

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
        ode_reached = None
        if route in ("auto", "ode"):
            flows = []
            for fr in (Fraction(1, 2), Fraction(-1, 2)):
                dser = series_expansion("delta-ab-small", a=fr)
                if not dser.in_regime(s_lo_val, config):
                    flags.append(f"s_lo-outside-small-regime(a={fr})")
                series = g_small_series(fr, ORDER_SMALL_SEED)
                lam = log_ratio_small_series(fr, ORDER_SMALL_SEED)
                s0 = _small_seed_point([series, lam], s_lo_val, tol)
                gv, gd = _poly_seed(series, s0)
                lv, ld = _poly_seed(lam, s0)
                start = [gv, gd, s0 * ld, lv]
                flows.append(_run_flow(_coupled_rhs(_fr(fr)), _coupled_jet(_fr(fr)),
                                       lambda y: [y[0]], s0, start, s_hi_val, tol, config))
                if flows[-1].halted:
                    ode_halted = True
                    flags.append("ode-route-halted")
                    break
            else:
                # the rows are (s, g, g', H, L): the branches' log-ratios are L
                ode_constant = flows[0].endpoint[4] + flows[1].endpoint[4] - tail
            ode_reached = min(flow.reached for flow in flows)

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
        route=route, ode_constant=ode_constant, ode_halted=ode_halted, ode_reached=ode_reached,
        scan_constant=scan_constant, scan=scan_result,
        constant_estimate=constant, exact_constant_sum=exact_sum,
        reference=reference, cancellation_ok=cancellation, flags=flags,
    )
