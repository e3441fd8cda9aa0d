"""Taylor flows: the scaled PIII' function g(s, a) and R_n(t) by Painleve V.

The flow solvers integrate the scaled second-order equation for g(s, a),
alone or with the log-ratio for the Dyson experiment (scans.py), and the
Painleve V equation for R_n(t), seeded from the small-s Taylor series (or
a given start) respectively from the finite-n tables.  The large-s series
are references, never seeds: the g solutions that share that expansion
differ by exponentially small terms, which grow as a flow runs inward.
The R_n flow's rhs and seed slope solve ladder.pv_terms and riccati_terms,
which the identity rows check.  Each Taylor jet for ode.py is its own
transcription of its cleared equation: solve_ode checks every step's jet
against the rhs, which is a check only while the two are written apart.
Every flow runs through one runner and returns one Trajectory; each names
the factors of its cleared denominator (g; R_n and k1 + R_n), which drive
the runner's singularity guard.  A trajectory's rows are its grid, evenly
spaced from the flow's actual start to its end, and any halt point.

Only ode and precision load with this module: the g flows import series,
and the R_n flow ladder, recurrence and weights, when they seed.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from mpmath import mp, mpf

from .ode import (OdeHalt, OdeProblem, binary_point, int_cauchy, shifted, solve_ode,
                  to_fixed)
from .precision import NumericsError, PrecisionConfig, to_mpf, working_precision


# --- seeds from the exact small-s series (series.py) ---------------------------

ORDER_SMALL_SEED = 64


def _poly_seed(series, s0: mpf):
    """Value and derivative at s0 of an ExactSeries, sum c_m s^m, m = 1..K."""
    val = der = mpf(0)
    for m in range(len(series.numerators), 0, -1):
        n = series.numerators[m - 1]
        val = val * s0 + n
        der = der * s0 + m * n
    return val * s0 / series.denominator, der / series.denominator


def _small_seed_tail(series, s0: mpf) -> mpf:
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


def flow_tolerance(tolerance, config: PrecisionConfig) -> mpf:
    """The flow tolerance asked for, or by default a quarter of the digit
    target: the integrator's internal budget is tolerance^4, which keeps the
    endpoint error near the working floor."""
    if tolerance is None:
        return mpf(10) ** (-(config.target_digits // 4))
    return to_mpf(tolerance, config)


class Trajectory(NamedTuple):
    """One flow's grid rows (x, *y), from the seed to where it finished or
    halted; a halted flow's last row is its halt point.

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
              samples: int = 2) -> Trajectory:
    """Integrate one flow from (x0, y0) to x_end; a halt returns the partial path.

    The rows are the points of an even `samples`-point grid from x0 to x_end
    (x0 alone on a zero span) that the flow reached, then any halt point.

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
    grid = [x0]
    if x_end != x0:
        step = (x_end - x0) / (samples - 1)
        grid = [x0 + k * step for k in range(samples - 1)] + [x_end]
    reason = None
    try:
        rows = solve_ode(problem, config, sample_points=grid)
    except OdeHalt as halt:
        rows = halt.samples
        reason = str(halt)
    # the last row is x_end, or where the flow halted
    keep = {*grid, rows[-1][0]}
    return Trajectory(samples=[(x, *y) for x, y in rows if x in keep], tolerance=tolerance,
                      halt_reason=reason, steps=rows.steps, order=rows.order)


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


def solve_piii_prime(
    a,
    s_end,
    config: PrecisionConfig,
    s0=None,
    y0=None,
    tolerance=None,
    samples: int = 2,
) -> Trajectory:
    """Integrate g'' = (g')^2/g - g'/s + 2g^2/s^2 + a/(2s) - 1/(4g).

    One start: given y0 = (g0, g0'), the flow starts there at the given s0.
    Otherwise it starts from the order-ORDER_SMALL_SEED Taylor series at s0,
    or, with no s0, at the first of min(s_end/2, 1/8), its half, ... whose seed
    tail is below tolerance^4 * max(1, |g0|); a given s0 whose tail misses
    that budget raises NumericsError.  The equation is singular at s = 0, so
    s0 must be positive.  The descending large-s expansion is no start: the
    solutions that share it differ by exponentially small terms that grow
    as the flow runs inward.  A guard halts the flow when g approaches 0 or
    diverges; the partial path is returned with `halted` set rather than
    raised.  The rows are `samples` grid points from the start (_run_flow).
    """
    from .series import _as_fraction, _fr, g_small_series

    with working_precision(config):
        s_end = to_mpf(s_end, config)
        if s_end <= 0:
            raise ValueError("s_end must be positive")
        if s0 is not None:
            s0 = to_mpf(s0, config)
            if s0 <= 0:
                raise ValueError("s0 must be positive: the flow is singular at s = 0")
        tol = flow_tolerance(tolerance, config)
        fr = _as_fraction(a)
        if y0 is None:
            series = g_small_series(fr, ORDER_SMALL_SEED)
            s0 = _small_seed_point([series], min(s_end / 2, mpf(1) / 8) if s0 is None else s0,
                                   tol, search=s0 is None)
            start = list(_poly_seed(series, s0))
        elif s0 is None or None in y0:
            raise ValueError("an explicit start needs s0, g0 and g0'")
        else:
            start = [to_mpf(y0[0], config), to_mpf(y0[1], config)]
        a_val = _fr(fr)
        return _run_flow(_piii_rhs(a_val), _piii_jet(a_val), lambda y: [y[0]],
                         s0, start, s_end, tol, config, samples)


# --- the g flow with the log-ratio, for the Dyson experiment --------------------


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


def log_ratio_flows(a_values, s_lo, s_end, tol: mpf, config: PrecisionConfig) -> list:
    """The coupled flow (s, g, g', H, L), L the log-ratio, of each a in
    `a_values` to s_end, up to the first that halts; each starts at the first
    of s_lo, s_lo/2, ... where the small-s series of g and L meet its budget."""
    from .series import _fr, g_small_series, log_ratio_small_series

    flows = []
    with working_precision(config):
        for fr in a_values:
            series = g_small_series(fr, ORDER_SMALL_SEED)
            lam = log_ratio_small_series(fr, ORDER_SMALL_SEED)
            s0 = _small_seed_point([series, lam], s_lo, tol)
            gv, gd = _poly_seed(series, s0)
            lv, ld = _poly_seed(lam, s0)
            flows.append(_run_flow(_coupled_rhs(_fr(fr)), _coupled_jet(_fr(fr)),
                                   lambda y: [y[0]], s0, [gv, gd, s0 * ld, lv], s_end, tol,
                                   config))
            if flows[-1].halted:
                break
    return flows


# --- finite-n evolution of R_n(t) --------------------------------------------


def _pv_rhs(n: int, alpha: mpf) -> Callable:
    from .ladder import pv_terms
    from .weights import WeightParams

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
    from .ladder import _parity

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
    from .ladder import ladder_maps, riccati_terms
    from .recurrence import recurrence_table
    from .weights import make_params

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
    samples: int = 2,
) -> Trajectory:
    """Evolve R_n(t) from t0 to t_end and cross-check the endpoint.

    The seed (R_n, R_n') comes from the finite-n tables at t0, the slope
    through the Riccati relation.  Guards halt on R_n -> 0 or
    2n+2alpha+1+R_n -> 0, the zeros of the evolution's leading coefficient,
    and at the divergence cap.  Only params.alpha is read; the trajectory's
    own t span is [t0, t_end], which must stay positive (the equation is
    singular at t=0).  The rows are `samples` grid points from t0 (_run_flow).
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
                               flow_tolerance(tolerance, config), config, samples)
        if trajectory.halted:
            return trajectory
        direct, _ = _seed_aux(n, alpha, t_end, config)
        return trajectory._replace(endpoint_direct=direct,
                                   endpoint_gap=abs(trajectory.endpoint[1] - direct))
