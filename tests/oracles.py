"""Independent routes that only the tests use.

The scan values on the moment route (Chebyshev tables, with ln D_n(0) in
closed form), which the difference run of the scans replaces. Closed
forms for the first ladder coefficients (r_1 = R_0 and R_1, by
direct evaluation of their defining integrals in terms of Kummer
functions), the ladder functions A_n(z) and B_n(z) from their defining
integrals, and the shifted weight's monic polynomials one degree at a
time. The Taylor jets of the Painleve III' and V flows on mpf arithmetic,
with unscaled coefficients, which the package's fixed-point jets replace.
The package computes the same quantities by other routes, which these
check.
"""

from mpmath import mp, mpf

from hankelpv import bridge
from hankelpv.ladder import _parity, ladder_maps, v_prime
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import integrate
from hankelpv.recurrence import (cauchy, eval_poly, hankel_det_t0, recurrence_table,
                                 three_term_values)
from hankelpv.special import gamma, kummer_phi
from hankelpv.weights import WeightParams, make_params, weight_value


def chebyshev_scan_value(mode: str, s, n: int, alpha, config: PrecisionConfig) -> mpf:
    """The scan mode's finite-n value from a Chebyshev recurrence table.

    g1 and g2 are n R_2n and n R_2n+1, sigma-n4 is -sum_{j<n} R_j, and the
    delta modes are ln D_N(t) - ln D_N(0) for N = 2n and 2n + 1.
    """
    with working_precision(config):
        s = mpf(s)
        t = s / mpf(n) ** 4 if mode == "sigma-n4" else s / (2 * mpf(n) ** 2)
        params = make_params(alpha, t, config)
        if mode in ("g1", "g2"):
            index = 2 * n if mode == "g1" else 2 * n + 1
            rec = recurrence_table(index + 1, params, config)
            return n * ladder_maps(rec.beta, params)[2][index]
        if mode == "sigma-n4":
            rec = recurrence_table(n + 1, params, config)
            return -mp.fsum(ladder_maps(rec.beta, params)[2][:n])
        size = 2 * n if mode == "delta1" else 2 * n + 1
        return recurrence_table(size, params, config).logD[size] - hankel_det_t0(
            size, alpha, config)


def initial_r1(params: WeightParams, config: PrecisionConfig) -> mpf:
    """Closed form for r_1(t) = R_0(t) in terms of Kummer functions."""
    with working_precision(config):
        a = params.alpha
        t = params.t
        rt = mp.sqrt(t)
        num = 2 * rt * (
            gamma(mpf(3) / 2 + a, config) * kummer_phi(-a, mpf(1) / 2, -t, config)
            - (1 + 2 * a)
            * rt
            * gamma(1 + a, config)
            * kummer_phi(mpf(1) / 2 - a, mpf(3) / 2, -t, config)
        )
        den = gamma(1 + a, config) * kummer_phi(
            -mpf(1) / 2 - a, mpf(1) / 2, -t, config
        ) - 2 * rt * gamma(mpf(3) / 2 + a, config) * kummer_phi(
            -a, mpf(3) / 2, -t, config
        )
        return num / den


def initial_R1(params: WeightParams, config: PrecisionConfig) -> mpf:
    """Closed form for R_1(t) in terms of Kummer functions."""
    with working_precision(config):
        a = params.alpha
        t = params.t
        rt = mp.sqrt(t)
        num = 6 * t * (
            (3 + 2 * a)
            * gamma(1 + a, config)
            * kummer_phi(-mpf(1) / 2 - a, mpf(1) / 2, -t, config)
            - 4 * rt * gamma(mpf(5) / 2 + a, config)
            * kummer_phi(-a, mpf(3) / 2, -t, config)
        )
        den = 3 * gamma(1 + a, config) * kummer_phi(
            -mpf(3) / 2 - a, -mpf(1) / 2, -t, config
        ) + 8 * t * rt * gamma(mpf(5) / 2 + a, config) * kummer_phi(
            -a, mpf(5) / 2, -t, config
        )
        return num / den


def v_double_prime(z, params: WeightParams) -> mpf:
    z = mpf(z)
    one_m = 1 - z * z
    return 6 * params.t / z ** 4 + 2 * params.alpha * (1 + z * z) / one_m ** 2


def ladder_oracle_A(
    n: int,
    z,
    params: WeightParams,
    config: PrecisionConfig,
    recurrence=None,
) -> mpf:
    """A_n(z) from its defining integral with the raw difference quotient."""
    table = recurrence
    if table is None or table.n_max < n:
        table = recurrence_table(max(n, 1), params, config)
    with working_precision(config):
        z = mpf(z)
        vz = v_prime(z, params)
        near = mpf(2) ** (-(mp.prec // 2))

        def f(y):
            # w underflows to exact 0 only where its decay beats every
            # kernel pole; the discarded nodes are below working precision
            w = weight_value(y, params)
            if w == 0:
                return mpf(0)
            if abs(z - y) < near:
                kernel = v_double_prime((z + y) / 2, params)
            else:
                kernel = (vz - v_prime(y, params)) / (z - y)
            pn = eval_poly(n, y, table).value
            return kernel * pn * pn * w

        return integrate(f, (-1, 1), config) / table.h[n]


def ladder_oracle_B(
    n: int,
    z,
    params: WeightParams,
    config: PrecisionConfig,
    recurrence=None,
) -> mpf:
    """B_n(z) from its defining integral."""
    if n < 1:
        raise ValueError("B oracle needs n >= 1")
    table = recurrence
    if table is None or table.n_max < n:
        table = recurrence_table(n, params, config)
    with working_precision(config):
        z = mpf(z)
        vz = v_prime(z, params)
        near = mpf(2) ** (-(mp.prec // 2))

        def f(y):
            w = weight_value(y, params)
            if w == 0:
                return mpf(0)
            if abs(z - y) < near:
                kernel = v_double_prime((z + y) / 2, params)
            else:
                kernel = (vz - v_prime(y, params)) / (z - y)
            pn = eval_poly(n, y, table).value
            pm = eval_poly(n - 1, y, table).value
            return kernel * pn * pm * w

        return integrate(f, (-1, 1), config) / table.h[n - 1]


def eval_tilde_poly(n: int, x, table: bridge.TildeTable) -> mpf:
    """Monic auxiliary polynomial of degree n at x, by three-term recurrence."""
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if n > table.n_top:
        raise ValueError(f"table only covers degrees up to {table.n_top}")
    return three_term_values(n, mpf(x), table.rec_a, table.rec_b)[n]


def piii_series(a_val, s0, y, order: int):
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


def pv_series(n: int, alpha, t0, y, order: int):
    """Taylor coefficients of (R, R') at t0 through `order`, from
    8t^2 R(k1+R) R'' = -(the other ladder.pv_terms), written as
    R^3 (R^2 + 2k1 R + c3) + 4t R' X + t A1 + t^2 A2 with
    X = t(4n+4alpha+2+3R) R' - 2R(k1+R) and A1, A2 linear in R, R^2, R^3."""
    par = _parity(n)
    k1 = 2 * n + 2 * alpha + 1
    c3 = 4 * n ** 2 + 4 * (2 * alpha + 1) * n + 4 * alpha + 1
    c_v = 4 * n + 4 * alpha + 2
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
