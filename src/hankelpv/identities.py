"""Residual verification of the relations tying together h_n, beta_n,
p(n,t), r_n, R_n and sigma_n.

Every relation is written once, as a list of signed terms whose exact sum
vanishes when the relation holds, and is reported through
report.normalize and report.residual_row as the normalized residual

    residual = |fsum(terms)| / max(|term|),

so a fixed threshold is meaningful even when the terms span many orders
of magnitude. A row that states two relations reports the larger of their
residuals against the scale of all their terms; a row may also floor its
scale (at 1 where both sides vanish analytically). A row passes when the
residual is at most the config's residual_threshold(),
10^(-target_digits/2). Rows whose every term is exactly zero, and the
pole and degenerate rows that state no relation, are tagged trivially
true with residual 0.

Independence policy: r_n, R_n, sigma_n enter through the quadrature
route (defining integrals), beta_n and p(n,t) through the moment
determinants, and t-derivatives are exact, from d/dt mu_j = -mu_{j-2}
(Chebyshev's algorithm on the Taylor series of the moments at t,
recurrence.t_jets), so no relation is checked against values produced by
that same relation.  The t-differential and integral-representation rows
read values and derivatives from one such jets pass: its order-0
coefficients are the recurrence table's beta_n, and ladder.ladder_maps
takes every order of beta to p, r, R and sigma.  The relations that are also solved (PV for R_n, the
Riccati relation for R_n', beta_n from R_n and r_n) live in ladder.py as
pv_terms, riccati_terms and beta_aux_terms, which the ode, ricca2 and be3
rows normalize (negated where they form a right-hand side); the flows'
Taylor jets stay separate, to check their rhs.

Three relations were printed after clearing a square root and are
quadratic in the highest derivative or in an inner bracket.  Those rows
carry a branch marker: the sign of the root that matches the directly
measured quantity ("+", "-", or "none" when the discriminant is
negative and only the squared form is checkable).
"""

from math import factorial

from mpmath import mp, mpf

from .ladder import (ROUTE_QUADRATURE, AuxTable, _parity, aux_table, beta_aux_terms, eval_ladder,
                     ladder_maps, ladder_pieces, pv_terms, riccati_terms, rn_diff_terms, v_prime)
from .precision import PrecisionConfig, working_precision
from .quadrature import ConvergenceError
from .recurrence import (RecurrenceTable, eval_poly, hankel_det, log_derivatives,
                         recurrence_table, series_quotient, t_jets)
from .report import normalize, residual_row, worst_sample
from .weights import WeightParams, make_params

DEFAULT_Z_POINTS = ("0.2", "0.37", "0.8")

# first and last Clenshaw-Curtis rule (in intervals) of the integral-representation
# row; a first rule of 64 takes the 128-bit rows to roundoff
CC_START = 64
CC_MAX_NODES = 1024


def verify_scalar_identities(
    n_max: int,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig,
):
    """Rows for the algebraic relations (indices available up to n_max+1)."""
    if len(aux.r) < n_max + 2 or table.n_max < n_max + 1:
        raise ValueError("aux and table must cover n_max + 1")
    rows = []
    a = params.alpha
    t = params.t
    with working_precision(config):
        for n in range(n_max + 1):
            par = _parity(n)
            k1 = 2 * n + 1 + 2 * a
            k0 = 2 * n - 1 + 2 * a
            r = aux.r[n]
            R = aux.R[n]
            beta = table.beta[n]
            # R_{n-1} multiplies beta_0 = 0 at n=0, so any value works there
            R_prev = aux.R[n - 1] if n >= 1 else mpf(0)

            rows.append(residual_row("s1", n, a, t, config,
                                     *normalize([R, -aux.r[n + 1], -r])))

            if n >= 1:
                rows.append(residual_row("s21", n, a, t, config, *normalize(
                    [table.beta[n + 1] * aux.R[n + 1], -beta * R_prev, -2 * par * t])))
                rows.append(residual_row("s22", n, a, t, config, *normalize(
                    [table.beta[n + 1] * (2 * n + 3 + 2 * a + aux.R[n + 1]),
                     -beta * (k0 + R_prev), -1 - aux.r[n + 1] + r])))

            rows.append(residual_row("s2", n, a, t, config, *normalize(
                [(1 - par) * t, k1 * beta, -2 * table.p1[n], -(n + r)])))

            rows.append(residual_row("s2p1", n, a, t, config,
                                     *normalize([-2 * par * t * r, -beta * R * R_prev])))

            if n >= 1:
                rows.append(residual_row("s2p2", n, a, t, config, *normalize(
                    [(n + r) ** 2, 2 * a * (n + r), -beta * (k1 + R) * (k0 + R_prev)])))

                rows.append(residual_row("s2p3", n, a, t, config, *normalize([
                    r ** 2,
                    -2 * par * t * (n + r),
                    2 * a * (1 - par) * t,
                    -aux.sigma[n],
                    -beta * (k1 + R) * R_prev,
                    -beta * R * (k0 + R_prev),
                ])))

                rows.append(residual_row("imp", n, a, t, config, *normalize([
                    k1 * beta * R_prev,
                    k0 * beta * R,
                    -(n + r) ** 2,
                    -2 * a * (n + r),
                    -2 * par * t * r,
                    k1 * k0 * beta,
                ])))

                if R != 0:
                    t1, t2 = beta_aux_terms(n, R, r, params)
                    rows.append(residual_row("be3", n, a, t, config,
                                             *normalize([beta, -t1, -t2])))
                else:
                    rows.append(residual_row("be3", n, a, t, config, *normalize(),
                                             detail="R=0 pole"))

            k10 = k1 * k0
            rows.append(residual_row("be4", n, a, t, config, *normalize([
                beta,
                -n * (n + 2 * a) / k10,
                -2 * (n + a) * r / k10,
                -aux.sigma[n] / k10,
                -2 * t * (par * (n + a) - a) / k10,
            ])))

            # sigma_n in terms of r_n and R_n alone
            if R != 0:
                rows.append(residual_row("sr", n, a, t, config, *normalize([
                    aux.sigma[n],
                    mpf(n) ** 2,
                    2 * a * (n - t),
                    2 * (n + a) * (par * t + r),
                    -k1 * 2 * par * t * r / R,
                    -k1 * (n + r) * (n + 2 * a + r) / (k1 + R),
                ])))
            else:
                rows.append(residual_row("sr", n, a, t, config, *normalize(),
                                         detail="R=0 pole"))
    return rows


def verify_difference_equations(
    n_max: int, params: WeightParams, aux: AuxTable, config: PrecisionConfig
):
    """Rows for the three second-order difference equations, 1 <= n <= n_max."""
    if len(aux.r) < n_max + 2:
        raise ValueError("aux must cover n_max + 1")
    rows = []
    a = params.alpha
    t = params.t
    with working_precision(config):
        for n in range(1, n_max + 1):
            t1, t2 = rn_diff_terms(n, aux.r[n - 1], aux.r[n], aux.r[n + 1], params)
            rows.append(residual_row("rn-diff", n, a, t, config, *normalize([t1, t2])))

            rows.append(_rn_big_row(n, params, aux, config))

            rows.append(_sd_row(n, params, aux, config))
    return rows


def _rn_big_row(n, params, aux, config):
    a = params.alpha
    t = params.t
    par = _parity(n)
    R = aux.R[n]
    Rp = aux.R[n + 1]
    Rm = aux.R[n - 1]
    m1 = 2 * n + 2 * a + 1
    m3 = 2 * n + 2 * a + 3
    mm = 2 * n + 2 * a - 1

    inner1 = (
        Rp * R ** 4
        + 2 * (m1 * Rp - par * t * m3) * R ** 3
        + (
            (
                4 * n ** 2
                + 4 * n * (2 * a + 1)
                - 2 * t ** 2
                + 2 * par * t
                + 2 * a ** 2
                + 4 * a
                + 1
            )
            * Rp
            - 2 * t * m3 * (t + par * (3 * n + 3 * a + 1))
        )
        * R ** 2
        + 2 * t * m1 * ((par - 2 * t) * Rp - m3 * (2 * t + par * (n + a))) * R
        - 2 * t ** 2 * m1 ** 2 * (m3 + Rp)
    )
    inner2 = (
        par * Rp * R ** 2
        + ((par * (n + a + 1) - t) * Rp - t * m3) * R
        - t * m1 * (m3 + Rp)
    )
    left = inner1 * Rm + 2 * t * mm * (m1 + R) * inner2

    brace_a = (
        par * t * mm * (m1 + R) + ((n + a + par * t) * R + par * t * m1) * Rm
    ) ** 2 - n * (n + 2 * a) * Rm ** 2 * R ** 2
    brace_b = (
        par * t * m1 * (m3 + Rp) - ((n + a + 1 - par * t) * Rp - par * t * m3) * R
    ) ** 2 - (n + 1) * (n + 2 * a + 1) * R ** 2 * Rp ** 2

    branch = "none"
    prod = brace_a * brace_b
    if prod >= 0:
        root = 2 * mp.sqrt(prod)
        branch = "+" if abs(left - root) <= abs(left + root) else "-"
    return residual_row("Rn-diff", n, a, t, config,
                        *normalize([left ** 2, -4 * brace_a * brace_b]), branch=branch)


def _sd_row(n, params, aux, config):
    a = params.alpha
    t = params.t
    par = _parity(n)
    k1 = 2 * n + 1 + 2 * a
    k0 = 2 * n - 1 + 2 * a
    dm = aux.sigma[n - 1] - aux.sigma[n]
    dp = aux.sigma[n] - aux.sigma[n + 1]
    e = 2 * a * (n - t) + 2 * par * t * (n + a) + n ** 2 + aux.sigma[n]

    q_den = 2 * (par * t * k1 * k0 + (n + a) * dm * dp)
    r_den = t * k1 * k0 + par * (n + a) * dm * dp
    if q_den == 0 or r_den == 0:
        return residual_row("sd", n, a, t, config, *normalize(),
                            detail="degenerate denominator")
    q = dm * dp * e / q_den
    return residual_row("sd", n, a, t, config, *normalize(
        [(n - q) * (n + 2 * a - q), -t * (k0 + dm) * (k1 + dp) * e / r_den],
        floor=max(abs(n - q), abs(n + 2 * a - q))))


def _ladder_t_derivatives(n_top: int, params: WeightParams, config: PrecisionConfig,
                          order: int):
    """Values and t-derivatives of beta, p, r, R and sigma from one t_jets pass.

    Each of those names maps to a list over k = 0 .. order of the k-th
    derivatives, each a list over the index; "dlnh" holds (ln h_m)'. The
    jets of h_0 .. h_{n_top+1} give beta_m = h_m / h_{m-1} by series
    division at the bits the pass ran at, so the values are those of
    recurrence_table bit for bit, and ladder_maps takes beta's k-th
    derivative to those of p, r, R and sigma, the values being those of
    aux_table's identity route. R and sigma run to index n_top.
    """
    jets, cfg = t_jets(n_top + 1, params, config, order)
    with working_precision(cfg):
        beta = [[mpf(0)] * (order + 1)] + [series_quotient(jets[m], jets[m - 1])
                                           for m in range(1, n_top + 2)]
        # the k-th derivative is k! times the order-k coefficient
        out = {"dlnh": [log_derivatives(jet)[0] for jet in jets],
               "beta": [[factorial(k) * b[k] for b in beta] for k in range(order + 1)]}
    with working_precision(config):
        maps = [ladder_maps(db, params, k) for k, db in enumerate(out["beta"])]
    for name, values in zip(("p", "r", "R", "sigma"), zip(*maps)):
        out[name] = list(values)
    return out


def verify_differential(n_list, params: WeightParams, config: PrecisionConfig):
    """Rows for the nine t-differential relations at each n in n_list.

    Values and t-derivatives come from one _ladder_t_derivatives pass at t,
    which needs t > 0 for its moments of negative order.
    """
    if not params.t > 0:
        raise ValueError("the t-differential suite needs t > 0: "
                         "its t-derivatives use moments of negative order")
    der = _ladder_t_derivatives(max(n_list), params, config, 2)
    rows = []
    a, t = params.alpha, params.t
    with working_precision(config):
        for n in n_list:
            par = _parity(n)
            k1 = 2 * n + 1 + 2 * a
            r, r1, r2 = (der["r"][k][n] for k in range(3))
            R, R1, R2 = (der["R"][k][n] for k in range(3))
            sig, beta = der["sigma"][0][n], der["beta"][0][n]

            rows.append(residual_row("eq1", n, a, t, config, *normalize(
                [2 * t * der["dlnh"][n], R]), detail="deriv=jet"))

            if n >= 1:
                R_prev = der["R"][0][n - 1]
                rows.append(residual_row("eq2", n, a, t, config, *normalize(
                    [2 * t * der["beta"][1][n], -beta * R_prev, beta * R]),
                    detail="deriv=jet"))

            rows.append(residual_row("pnt", n, a, t, config, *normalize(
                [2 * t * der["p"][1][n], -(1 - par) * t, beta * R]), detail="deriv=jet"))

            if R != 0:
                rows.append(residual_row("ricca1", n, a, t, config, *normalize([
                    2 * t * r1,
                    2 * par * t * r * (k1 + R) / R,
                    (n + r) * (n + 2 * a + r) * R / (k1 + R),
                ]), detail="deriv=jet"))

            rows.append(residual_row("ricca2", n, a, t, config, *normalize(
                [2 * t * R1] + [-v for v in riccati_terms(n, R, r, params)]),
                detail="deriv=jet"))

            rows.append(residual_row("ode", n, a, t, config,
                                     *normalize(pv_terms(n, R, R1, R2, params)),
                                     detail="deriv=jet"))
            rows.append(_pv_row(n, params, config, R, R1, R2))
            rows.append(_ode2_row(n, params, config, r, r1, r2))
            rows.append(_sode_row(n, params, config, sig, der["sigma"][1][n],
                                  der["sigma"][2][n], r))
    return rows


def _pv_row(n, params, config, R, R1, R2):
    a = params.alpha
    t = params.t
    par = _parity(n)
    k1 = 2 * n + 2 * a + 1
    S = 1 + R / k1
    S1 = R1 / k1
    S2 = R2 / k1
    if S == 0 or S == 1:
        return residual_row("pv", n, a, t, config, *normalize(), detail="S(S-1)=0 pole")
    return residual_row("pv", n, a, t, config, *normalize([
        S2,
        -(3 * S - 1) * S1 ** 2 / (2 * S * (S - 1)),
        S1 / t,
        -(S - 1) ** 2 / t ** 2 * (k1 ** 2 * S / 8 - a ** 2 / (2 * S)),
        par * S / (2 * t),
        S * (S + 1) / (2 * (S - 1)),
    ]), detail="deriv=jet")


def _ode2_row(n, params, config, r, r1, r2):
    a = params.alpha
    t = params.t
    par = _parity(n)
    w = 3 * r ** 2 + 4 * (n + a) * r + n * (n + 2 * a)
    terms = [
        4 * t ** 3 * r2 ** 2,
        4 * t ** 2 * (r1 - 2 * par * w) * r2,
        -t * (4 * r ** 2 - 8 * par * t * r + 4 * t ** 2 - 1) * r1 ** 2,
        -4 * par * t * w * r1,
        8 * par * r ** 5,
        4 * (4 * par * (n + a) + 5 * t) * r ** 4,
        8 * (par * (n ** 2 + 2 * n * a + t ** 2) + 8 * t * (n + a)) * r ** 3,
        8 * t * (2 * par * t * (n + a) + (3 * n + 2 * a) * (3 * n + 4 * a)) * r ** 2,
        8 * n * (n + 2 * a) * t * (4 * n + 4 * a + par * t) * r,
        4 * n ** 2 * (n + 2 * a) ** 2 * t,
    ]
    # quadratic in r'' -> record which root the measured value realizes
    branch = "none"
    qa = 4 * t ** 3
    qb = 4 * t ** 2 * (r1 - 2 * par * w)
    qc = sum(terms[2:])
    disc = qb ** 2 - 4 * qa * qc
    if disc >= 0:
        root = mp.sqrt(disc)
        plus = (-qb + root) / (2 * qa)
        minus = (-qb - root) / (2 * qa)
        branch = "+" if abs(r2 - plus) <= abs(r2 - minus) else "-"
    return residual_row("ode2", n, a, t, config,
                        *normalize(terms), branch=branch,
                        detail="deriv=jet")


def _sode_row(n, params, config, sig, s1, s2, r_val):
    a = params.alpha
    t = params.t
    par = _parity(n)
    left = (
        4 * t ** 3 * s2 ** 2
        - 4 * t ** 2 * (2 * t + 2 * a - 2 * par * (n + a) - s1) * s2
        + 8 * t ** 2 * s1 ** 3
        - t
        * (4 * t ** 2 + 40 * a * t - 1 + 4 * sig + 24 * par * t * (n + a))
        * s1 ** 2
        + 4
        * t
        * (
            12 * a * t ** 2
            - (20 * n ** 2 + 40 * n * a + 3) * t
            - a
            + par * (n + a) * (12 * t ** 2 + 1)
            + 4 * (a - t + 3 * par * (n + a)) * sig
        )
        * s1
        + 8 * (t - 2 * par * (n + a)) * sig ** 2
        + 4
        * t
        * (
            2 * t ** 2
            + 1
            + 14 * n ** 2
            + 28 * n * a
            + 8 * a ** 2
            - 4 * par * (n + a) * (3 * t + 2 * a)
        )
        * sig
        - 4
        * t
        * (
            4 * a * t ** 3
            - 2 * t ** 2 * (7 * n ** 2 + 14 * n * a + 1)
            - 4 * a * t * (3 * n ** 2 + 6 * n * a + 1)
            - n ** 2
            - 2 * n * a
            - 2 * a ** 2
            + 2
            * par
            * (
                2 * t ** 3 * (n + a)
                + 2 * (3 * n ** 3 + 9 * n ** 2 * a + n * (6 * a ** 2 + 1) + a) * t
                + n * a
                + a ** 2
            )
        )
    )
    g = t * (t + 2 * a - 2 * s1 - 2 * par * (n + a)) + sig
    h = (
        2 * par * t ** 2 * s2
        + t
        * (par * (4 * n ** 2 + 8 * n * a - 8 * a * t + 1 + 4 * sig) - 8 * t * (n + a))
        * s1
        - 2 * par * sig ** 2
        + 2 * (4 * t * (n + a) - par * (n ** 2 + 2 * n * a + t ** 2)) * sig
        + 2
        * t
        * (
            (n + a) * (2 * n ** 2 + 4 * n * a + 2 * t ** 2 + 1)
            + par
            * (
                2 * a * t ** 2
                - (5 * n ** 2 + 10 * n * a + 1) * t
                - a * (2 * n ** 2 + 4 * n * a + 1)
            )
        )
    )
    # the derivation's square root is sqrt(g); record which sign of it
    # reproduces the directly computed r_n
    branch = "none"
    if g >= 0:
        root = mp.sqrt(g)
        base = -par * t
        branch = "+" if abs(r_val - (base + root)) <= abs(r_val - (base - root)) else "-"
    return residual_row("sode", n, a, t, config,
                        *normalize([left ** 2, -16 * g * h ** 2]), branch=branch,
                        detail="deriv=jet")


def _cc_rule(m: int):
    """Clenshaw-Curtis nodes x_k = cos(pi k/m) and weights on [-1, 1], m even.

    w_k = (c_k/m) (1 - sum_{j=1}^{m/2} b_j cos(2 pi j k/m) / (4j^2 - 1)),
    with c_k = 1 at the ends and 2 inside, and b_j = 1 at j = m/2 and 2
    below it (Trefethen, SIAM Review 50 (2008) 67-87). The cosines are
    nodes again, so the rule costs m+1 cosines.
    """
    nodes = [mp.cos(mp.pi * k / m) for k in range(m + 1)]
    js = range(1, m // 2 + 1)
    coefficients = [mpf(1 if 2 * j == m else 2) / (4 * j * j - 1) for j in js]
    weights = []
    for k in range(m + 1):
        cosines = [nodes[min(i, 2 * m - i)] for i in (2 * j * k % (2 * m) for j in js)]
        total = 1 - mp.fdot(coefficients, cosines)
        weights.append(total * (1 if k in (0, m) else 2) / m)
    return nodes, weights


def verify_integral_representation(n: int, params: WeightParams, config: PrecisionConfig):
    """One row at t_end = params.t: the R_n-integrand quadrature against the
    determinant ratio; t_end = 0 gives a trivially true row.

    The integrand is taken in u = sqrt(s), where R_n is analytic through
    u = 0. At each Chebyshev-Lobatto node in u it takes R_n and, exactly,
    R_n' from one order-1 _ladder_t_derivatives pass on the node's own
    moments, so no interpolant stands between the samples and the sum.
    Nested Clenshaw-Curtis rules double m from CC_START, reusing every
    earlier sample, until |Q_m - Q_{m/2}| is at most 1/100 of the residual
    threshold relative to Q_m; past CC_MAX_NODES a ConvergenceError is
    raised. The detail column gives that difference (cc-err), the final m
    and s0. The short initial piece [0, s0] is evaluated directly as a
    determinant difference, so no endpoint series is needed.
    """
    a = params.alpha
    with working_precision(config):
        t_end = params.t
        if t_end == 0:
            return residual_row("integral-rep", n, a, t_end, config, *normalize())
        s0 = mpf(10) ** (-(config.target_digits // 4))
        if s0 >= t_end:
            # the integration path [s0, t_end] must not be empty
            s0 = t_end / 4
        u_lo = mp.sqrt(s0)
        u_hi = mp.sqrt(t_end)
        k1 = 2 * n + 1 + 2 * a
        center = (u_hi + u_lo) / 2
        radius = (u_hi - u_lo) / 2

        def integrand(x):
            u = center + radius * x
            s = u * u
            big_r = _ladder_t_derivatives(n, make_params(a, s, config), config, 1)["R"]
            R, R1 = big_r[0][n], big_r[1][n]
            if R == 0:
                raise ValueError("R_n vanishes on the integration path")
            bracket = (
                4 * s ** 2 * k1 * R1 ** 2
                - 4 * s * R * (k1 + R) * R1
                - (2 * n - 1 + 2 * a) * R ** 4
                - 2 * (2 * n ** 2 + 4 * a * (n - s) - 1) * R ** 3
                - k1 * (4 * s ** 2 - 8 * a * s - 1) * R ** 2
                - 8 * s ** 2 * k1 ** 2 * R
                - 4 * s ** 2 * k1 ** 3
            )
            # ds = 2u du, and du = radius dx
            return bracket / (8 * s * R ** 2 * (k1 + R)) * 2 * u * radius

        tol = config.residual_threshold() / 100
        m = CC_START
        nodes, weights = _cc_rule(m)
        values = [integrand(x) for x in nodes]
        quad = mp.fsum(w * v for w, v in zip(_cc_rule(m // 2)[1], values[::2]))
        while True:
            previous, quad = quad, mp.fsum(w * v for w, v in zip(weights, values))
            err = abs(quad - previous)
            if err <= tol * abs(quad):
                break
            if 2 * m > CC_MAX_NODES:
                raise ConvergenceError(
                    f"Clenshaw-Curtis failed to reach a relative {mp.nstr(tol, 3)} "
                    f"for the integral representation within m = {CC_MAX_NODES}",
                    last_two=(previous, quad))
            m *= 2
            nodes, weights = _cc_rule(m)
            fresh = [integrand(x) for x in nodes[1::2]]
            values = [v for pair in zip(values, fresh) for v in pair] + values[-1:]

        p_end = make_params(a, t_end, config)
        p_lo = make_params(a, s0, config)
        lhs = hankel_det(n, p_end, config) - hankel_det(n, p_lo, config)
        return residual_row("integral-rep", n, p_end.alpha, p_end.t, config,
                            *normalize([lhs, -quad]),
                            detail=f"cc-err~{mp.nstr(err, 3)};m={m};s0={mp.nstr(s0, 2)}")


def verify_linear_ode_Pn(
    n: int,
    z_points,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig,
):
    """One row: the second-order ODE for y = P_n(z), max residual over z."""
    with working_precision(config):
        samples = []
        for z in z_points:
            zv = mpf(z)
            pieces = ladder_pieces(n, zv, aux.R[n], aux.r[n], params)
            if pieces["A"] == 0:
                raise ValueError(f"A_n({z}) = 0: coefficient pole")
            sum_a = mpf(0)
            for j in range(n):
                pj = ladder_pieces(j, zv, aux.R[j], aux.r[j], params)
                sum_a += pj["A"]
            ratio = pieces["A1"] / pieces["A"]
            ev = eval_poly(n, zv, table)
            terms = [
                ev.d2,
                -(v_prime(zv, params) + ratio) * ev.d1,
                (pieces["B1"] - pieces["B"] * ratio + sum_a) * ev.value,
            ]
            samples.append(normalize(terms))
        detail = "z=" + ",".join(str(z) for z in z_points)
        return residual_row("linear-ode-Pn", n, params.alpha, params.t, config,
                            *worst_sample(samples), detail=detail)


def verify_ladder_relations(
    n_max: int,
    z_points,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig,
):
    """Lowering/raising rows per n, max residual over the z sample."""
    rows = []
    with working_precision(config):
        for n in range(1, n_max + 1):
            lowering, raising = [], []
            for z in z_points:
                zv = mpf(z)
                a_val, b_val = eval_ladder(n, zv, aux)
                a_prev, _ = eval_ladder(n - 1, zv, aux)
                pn = eval_poly(n, zv, table)
                pm = eval_poly(n - 1, zv, table)

                terms = [pn.d1, b_val * pn.value, -table.beta[n] * a_val * pm.value]
                lowering.append(normalize(terms))

                terms = [
                    pm.d1,
                    -(b_val + v_prime(zv, params)) * pm.value,
                    a_prev * pn.value,
                ]
                raising.append(normalize(terms))
            detail = "z=" + ",".join(str(z) for z in z_points)
            for name, samples in (("lowering", lowering), ("raising", raising)):
                rows.append(residual_row(name, n, params.alpha, params.t, config,
                                         *worst_sample(samples), detail=detail))
    return rows


def sign_monitor(aux: AuxTable):
    """Indices where R_n fails the observed positivity for t > 0.

    The sign of R_n is a monitored property, never a fatal assertion:
    violations are returned for reporting.
    """
    if aux.params.t == 0:
        return []
    return [n for n, value in enumerate(aux.R) if not value > 0]


def run_identity_suite(n_max: int, params: WeightParams, config: PrecisionConfig,
                       suite: str = "all", n: int = 2):
    """Rows of one suite at one (alpha, t) grid point, and the indices the
    sign monitor flags.

    "all" takes every suite, sorted and tagged; at t = 0 it leaves out the
    t-differential and integral-representation rows, whose negative-order
    moments and integration path need t > 0; its representation row is at
    order 2. The "integral" suite is that row at order n.
    """
    if suite == "differential":
        return verify_differential(list(range(n_max + 1)), params, config), []
    if suite == "integral":
        if params.t <= 0:
            raise ValueError("the integral representation needs t > 0")
        return [verify_integral_representation(n, params, config)], []
    rec = recurrence_table(n_max + 2, params, config)
    aux_q = aux_table(n_max + 1, params, config, route=ROUTE_QUADRATURE, recurrence=rec)
    every = suite == "all"
    with_t = every and params.t > 0
    z_points, n_poly = DEFAULT_Z_POINTS, min(n_max, 8)
    rows = []
    if every or suite == "scalar":
        rows += verify_scalar_identities(n_max, params, aux_q, rec, config)
    if every or suite == "difference":
        rows += verify_difference_equations(n_max, params, aux_q, config)
    if with_t:
        rows += verify_differential(list(range(n_max + 1)), params, config)
    if every or suite == "ladder":
        rows += verify_ladder_relations(n_poly, z_points, params, aux_q, rec, config)
    if every or suite == "ode-pn":
        rows += [verify_linear_ode_Pn(m, z_points, params, aux_q, rec, config)
                 for m in range(n_poly + 1)]
    if with_t:
        rows.append(verify_integral_representation(2, params, config))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows, sign_monitor(aux_q)
