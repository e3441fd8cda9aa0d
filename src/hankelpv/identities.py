"""Residual verification of the relations tying together h_n, beta_n,
p(n,t), r_n, R_n and sigma_n.

Every relation is evaluated as a normalized residual

    residual = |LHS - RHS| / max(|term|),

the maximum running over the individual additive terms of both sides, so
a fixed threshold is meaningful even when the terms span many orders of
magnitude.  A row passes when the residual is at most
10^(-residual_scale * target_digits).  Rows whose every term is exactly
zero are tagged trivially-true with residual 0.

Independence policy: r_n, R_n, sigma_n enter through the quadrature
route (defining integrals), beta_n and p(n,t) through the moment
determinants, and t-derivatives are exact, from d/dt mu_j = -mu_{j-2}
(traces over the moment factorization at t), so no relation is checked
against values produced by that same relation.

Three relations were printed after clearing a square root and are
quadratic in the highest derivative or in an inner bracket.  Those rows
carry a branch marker: the sign of the root that matches the directly
measured quantity ("+", "-", or "none" when the discriminant is
negative and only the squared form is checkable).
"""

from dataclasses import dataclass
from itertools import accumulate

from mpmath import mp, mpf

from .ladder import (
    ROUTE_QUADRATURE,
    AuxTable,
    _parity,
    aux_table,
    eval_ladder,
    ladder_pieces,
    v_prime,
)
from .precision import PrecisionConfig, working_precision
from .quadrature import integrate
from .recurrence import (
    RecurrenceTable,
    eval_poly,
    hankel_det,
    log_det_t_derivatives,
    recurrence_table,
)
from .weights import MomentTable, WeightParams, make_params

IDENTITY_IDS = (
    "s1",
    "s21",
    "s22",
    "s2",
    "s2p1",
    "s2p2",
    "s2p3",
    "imp",
    "be3",
    "be4",
    "rn-diff",
    "Rn-diff",
    "ricca1",
    "ricca2",
    "ode",
    "pv",
    "ode2",
    "eq1",
    "eq2",
    "pnt",
    "sode",
    "sd",
    "sr",
    "integral-rep",
    "linear-ode-Pn",
    "lowering",
    "raising",
)

DEFAULT_Z_POINTS = ("0.2", "0.37", "0.8")


@dataclass(frozen=True)
class ReportRow:
    identity: str
    n: int
    alpha: mpf
    t: mpf
    bits: int
    lhs_scale: mpf
    residual: mpf
    passed: bool
    branch: str = ""
    trivial: bool = False
    detail: str = ""


def normalize(terms, diff):
    """(scale, residual) of one relation at the ambient precision.

    scale is the largest |term| and residual = |diff| / scale; residual is
    None when every term is exactly zero (a trivially true relation).
    """
    scale = mpf(0)
    for v in terms:
        scale = max(scale, abs(v))
    if scale == 0:
        return scale, None
    return scale, abs(diff) / scale


def worst_sample(samples, scale=mpf(0)):
    """The (scale, residual) pair with the largest residual, for rows that
    report the worst of several sample points.

    Samples with a None residual are skipped; None comes back when no
    sample is left. While every residual is exactly 0 the given scale
    stands.
    """
    worst = None
    for sample_scale, residual in samples:
        if residual is None:
            continue
        if worst is None:
            worst = mpf(0)
        if residual > worst:
            scale, worst = sample_scale, residual
    return scale, worst


def residual_row(identity, n, alpha, t, config: PrecisionConfig, scale, residual,
                 branch="", detail="", bar=None) -> ReportRow:
    """The one ReportRow builder.

    A None residual marks a trivially true row: it prints residual 0 and
    passes. Any other row passes when its residual is at most the config's
    residual threshold, or `bar` when the caller propagated a larger
    uncertainty of its own.
    """
    trivial = residual is None
    if trivial:
        residual, passed = mpf(0), True
    else:
        threshold = config.residual_threshold()
        if bar is not None:
            threshold = max(bar, threshold)
        passed = bool(residual <= threshold)
    return ReportRow(
        identity=identity, n=n, alpha=alpha, t=t, bits=config.bits,
        lhs_scale=scale, residual=residual, passed=passed,
        branch=branch, trivial=trivial, detail=detail,
    )


def verify_scalar_identities(
    n_max: int,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig = None,
):
    """Rows for the algebraic relations (indices available up to n_max+1)."""
    if config is None:
        config = aux.config
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

            d = R - (aux.r[n + 1] + r)
            rows.append(
                residual_row("s1", n, a, t, config, *normalize([R, aux.r[n + 1], r], d))
            )

            if n >= 1:
                t1 = table.beta[n + 1] * aux.R[n + 1]
                t2 = beta * R_prev
                t3 = 2 * par * t
                rows.append(residual_row("s21", n, a, t, config,
                                         *normalize([t1, t2, t3], t1 - t2 - t3)))

                t1 = table.beta[n + 1] * (2 * n + 3 + 2 * a + aux.R[n + 1])
                t2 = beta * (k0 + R_prev)
                t3 = 1 + aux.r[n + 1] - r
                rows.append(residual_row("s22", n, a, t, config,
                                         *normalize([t1, t2, t3], t1 - t2 - t3)))

            terms = [(1 - par) * t, k1 * beta, 2 * table.p1[n], n + r]
            d = terms[0] + terms[1] - terms[2] - terms[3]
            rows.append(residual_row("s2", n, a, t, config, *normalize(terms, d)))

            lhs = -2 * par * t * r
            rhs = beta * R * R_prev
            rows.append(residual_row("s2p1", n, a, t, config,
                                     *normalize([lhs, rhs], lhs - rhs)))

            if n >= 1:
                lhs = (n + r) ** 2 + 2 * a * (n + r)
                rhs = beta * (k1 + R) * (k0 + R_prev)
                rows.append(
                    residual_row("s2p2", n, a, t, config, *normalize(
                        [(n + r) ** 2, 2 * a * (n + r), rhs], lhs - rhs))
                )

                terms = [
                    r ** 2,
                    -2 * par * t * (n + r),
                    2 * a * (1 - par) * t,
                    -aux.sigma[n],
                ]
                rhs1 = beta * (k1 + R) * R_prev
                rhs2 = beta * R * (k0 + R_prev)
                d = sum(terms) - rhs1 - rhs2
                rows.append(
                    residual_row("s2p3", n, a, t, config,
                                 *normalize(terms + [rhs1, rhs2], d))
                )

                lhs1 = k1 * beta * R_prev
                lhs2 = k0 * beta * R
                terms = [
                    (n + r) ** 2,
                    2 * a * (n + r),
                    2 * par * t * r,
                    -k1 * k0 * beta,
                ]
                d = lhs1 + lhs2 - sum(terms)
                rows.append(residual_row("imp", n, a, t, config,
                                         *normalize([lhs1, lhs2] + terms, d)))

                if R != 0:
                    t1 = ((n + r) ** 2 + 2 * a * (n + r)) / (k0 * (k1 + R))
                    t2 = 2 * par * t * r / (k0 * R)
                    rows.append(
                        residual_row("be3", n, a, t, config,
                                     *normalize([beta, t1, t2], beta - t1 - t2))
                    )
                else:
                    rows.append(residual_row("be3", n, a, t, config, mpf(0), None,
                                             detail="R=0 pole"))

            num_terms = [
                n * (n + 2 * a),
                2 * (n + a) * r,
                aux.sigma[n],
                2 * t * (par * (n + a) - a),
            ]
            rhs = sum(num_terms) / (k1 * k0)
            rows.append(
                residual_row("be4", n, a, t, config, *normalize(
                    [beta] + [v / (k1 * k0) for v in num_terms], beta - rhs))
            )

            # sigma_n in terms of r_n and R_n alone
            if R != 0:
                terms = [
                    -mpf(n) ** 2,
                    -2 * a * (n - t),
                    -2 * (n + a) * (par * t + r),
                    k1 * 2 * par * t * r / R,
                    k1 * (n + r) * (n + 2 * a + r) / (k1 + R),
                ]
                d = aux.sigma[n] - sum(terms)
                rows.append(
                    residual_row("sr", n, a, t, config,
                                 *normalize([aux.sigma[n]] + terms, d))
                )
            else:
                rows.append(
                    residual_row("sr", n, a, t, config, mpf(0), None, detail="R=0 pole")
                )
    return rows


def verify_difference_equations(
    n_max: int, params: WeightParams, aux: AuxTable, config: PrecisionConfig = None
):
    """Rows for the three second-order difference equations, 1 <= n <= n_max."""
    if config is None:
        config = aux.config
    if len(aux.r) < n_max + 2:
        raise ValueError("aux must cover n_max + 1")
    rows = []
    a = params.alpha
    t = params.t
    with working_precision(config):
        for n in range(1, n_max + 1):
            par = _parity(n)
            k1 = 2 * n + 1 + 2 * a
            k0 = 2 * n - 1 + 2 * a
            r = aux.r[n]
            rp = aux.r[n + 1]
            rm = aux.r[n - 1]

            t1 = (n + r) * (n + 2 * a + r) * (rp + r) * (r + rm)
            t2 = 2 * par * t * r * (k0 + r + rm) * (k1 + rp + r)
            rows.append(residual_row("rn-diff", n, a, t, config,
                                     *normalize([t1, t2], t1 + t2)))

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

    lhs = left ** 2
    rhs = 4 * brace_a * brace_b
    branch = "none"
    prod = brace_a * brace_b
    if prod >= 0:
        root = 2 * mp.sqrt(prod)
        branch = "+" if abs(left - root) <= abs(left + root) else "-"
    return residual_row("Rn-diff", n, a, t, config,
                        *normalize([lhs, rhs], lhs - rhs), branch=branch)


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
        return residual_row("sd", n, a, t, config,
                            mpf(0), None, detail="degenerate denominator")
    q = dm * dp * e / q_den
    lhs = (n - q) * (n + 2 * a - q)
    rhs = t * (k0 + dm) * (k1 + dp) * e / r_den
    return residual_row("sd", n, a, t, config,
                        *normalize([lhs, rhs, n - q, n + 2 * a - q], lhs - rhs))


def _ladder_t_derivatives(rec: RecurrenceTable, n_top: int, config: PrecisionConfig,
                          moments: MomentTable):
    """{name: [first, second]} t-derivatives of ln h, beta, p, r, R and sigma.

    Each entry is a list over the index. They follow by the chain rule from
    the exact derivatives of L_m = ln D_m (log_det_t_derivatives):
    ln h_m = L_{m+1} - L_m and beta_m = h_m / h_{m-1}, and p, r, R and sigma
    are linear in beta, as in the identity route of aux_table. R and sigma
    run to index n_top.
    """
    a = rec.params.alpha
    logd = log_det_t_derivatives(n_top + 2, rec.params, config, 2, moments)
    with working_precision(config):
        lnh = [[d[m + 1] - d[m] for m in range(n_top + 2)] for d in logd]
        # (ln beta_m)' and (ln beta_m)'' for m >= 1
        lb1, lb2 = ([d[m] - d[m - 1] for m in range(1, n_top + 2)] for d in lnh)
        beta = ([mpf(0)] + [b * d1 for b, d1 in zip(rec.beta[1:], lb1)],
                [mpf(0)] + [b * (d2 + d1 ** 2) for b, d1, d2 in zip(rec.beta[1:], lb1, lb2)])
        out = {"lnh": lnh, "beta": beta, "p": [], "r": [], "R": [], "sigma": []}
        # dt is the derivative order's share of the [1-(-1)^n] t term of r_n
        for dt, db in zip((1, 0), beta):
            p = list(accumulate((-v for v in db[: n_top + 1]), initial=mpf(0)))
            r = [mpf(0)] + [(1 - _parity(n)) * dt + (2 * n + 1 + 2 * a) * db[n] - 2 * p[n]
                            for n in range(1, n_top + 2)]
            big_r = [r[n + 1] + r[n] for n in range(n_top + 1)]
            sig = list(accumulate((-v for v in big_r[:n_top]), initial=mpf(0)))
            for name, values in zip(("p", "r", "R", "sigma"), (p, r, big_r, sig)):
                out[name].append(values)
        return out


def verify_differential(n_list, params: WeightParams, config: PrecisionConfig):
    """Rows for the nine t-differential relations at each n in n_list.

    Values come from one recurrence table and one aux table at t, and
    t-derivatives from _ladder_t_derivatives at the same t, which needs
    t > 0 for its moments of negative order.
    """
    if not params.t > 0:
        raise ValueError("the t-differential suite needs t > 0: "
                         "its t-derivatives use moments of negative order")
    n_top = max(n_list)
    moments = MomentTable.build(params, 2 * n_top + 2, config)
    rec0 = recurrence_table(n_top + 1, params, config, moments)
    aux0 = aux_table(n_top, params, config, recurrence=rec0)
    der = _ladder_t_derivatives(rec0, n_top, config, moments)
    rows = []
    a, t = params.alpha, params.t
    with working_precision(config):
        for n in n_list:
            par = _parity(n)
            k1 = 2 * n + 1 + 2 * a
            r, R, sig, beta = aux0.r[n], aux0.R[n], aux0.sigma[n], rec0.beta[n]

            lhs = 2 * t * der["lnh"][0][n]
            rows.append(residual_row("eq1", n, a, t, config,
                                     *normalize([lhs, R], lhs + R), detail="deriv=trace"))

            if n >= 1:
                lhs = 2 * t * der["beta"][0][n]
                rhs = beta * aux0.R[n - 1] - beta * R
                rows.append(residual_row(
                    "eq2", n, a, t, config,
                    *normalize([lhs, beta * aux0.R[n - 1], beta * R], lhs - rhs),
                    detail="deriv=trace"))

            lhs = 2 * t * der["p"][0][n]
            terms = [(1 - par) * t, beta * R]
            rows.append(residual_row("pnt", n, a, t, config,
                                     *normalize([lhs] + terms, lhs - terms[0] + terms[1]),
                                     detail="deriv=trace"))

            r1, r2 = der["r"][0][n], der["r"][1][n]
            R1, R2 = der["R"][0][n], der["R"][1][n]

            if R != 0:
                lhs = 2 * t * r1
                t1 = -2 * par * t * r * (k1 + R) / R
                t2 = -(n + r) * (n + 2 * a + r) * R / (k1 + R)
                rows.append(residual_row("ricca1", n, a, t, config,
                                         *normalize([lhs, t1, t2], lhs - t1 - t2),
                                         detail="deriv=trace"))

            lhs = 2 * t * R1
            terms = [R ** 2, (1 - 2 * par * t - 2 * r) * R, -2 * par * k1 * t]
            rows.append(residual_row("ricca2", n, a, t, config,
                                     *normalize([lhs] + terms, lhs - sum(terms)),
                                     detail="deriv=trace"))

            rows.append(_ode_row(n, params, config, R, R1, R2))
            rows.append(_pv_row(n, params, config, R, R1, R2))
            rows.append(_ode2_row(n, params, config, r, r1, r2))
            rows.append(_sode_row(n, params, config, sig, der["sigma"][0][n],
                                  der["sigma"][1][n], r))
    return rows


def _ode_row(n, params, config, R, R1, R2):
    a = params.alpha
    t = params.t
    par = _parity(n)
    k1 = 2 * n + 2 * a + 1
    terms = [
        8 * t ** 2 * R * (k1 + R) * R2,
        -4 * t ** 2 * (4 * n + 4 * a + 2 + 3 * R) * R1 ** 2,
        8 * t * (k1 + R) * R * R1,
        -(R ** 5),
        -2 * k1 * R ** 4,
        -(4 * n ** 2 + 4 * (2 * a + 1) * n + 4 * a + 1 - 4 * t ** 2 - 4 * par * t)
        * R ** 3,
        8 * t * k1 * (par + 2 * t) * R ** 2,
        4 * t * k1 ** 2 * (par + 5 * t) * R,
        8 * t ** 2 * k1 ** 3,
    ]
    return residual_row("ode", n, a, t, config,
                        *normalize(terms, sum(terms)), detail="deriv=trace")


def _pv_row(n, params, config, R, R1, R2):
    a = params.alpha
    t = params.t
    par = _parity(n)
    k1 = 2 * n + 2 * a + 1
    S = 1 + R / k1
    S1 = R1 / k1
    S2 = R2 / k1
    if S == 0 or S == 1:
        return residual_row("pv", n, a, t, config, mpf(0), None, detail="S(S-1)=0 pole")
    terms = [
        (3 * S - 1) * S1 ** 2 / (2 * S * (S - 1)),
        -S1 / t,
        (S - 1) ** 2 / t ** 2 * (k1 ** 2 * S / 8 - a ** 2 / (2 * S)),
        -par * S / (2 * t),
        -S * (S + 1) / (2 * (S - 1)),
    ]
    return residual_row("pv", n, a, t, config,
                        *normalize([S2] + terms, S2 - sum(terms)),
                        detail="deriv=trace")


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
                        *normalize(terms, sum(terms)), branch=branch,
                        detail="deriv=trace")


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
    lhs = left ** 2
    rhs = 16 * g * h ** 2
    # the derivation's square root is sqrt(g); record which sign of it
    # reproduces the directly computed r_n
    branch = "none"
    if g >= 0:
        root = mp.sqrt(g)
        base = -par * t
        branch = "+" if abs(r_val - (base + root)) <= abs(r_val - (base - root)) else "-"
    return residual_row("sode", n, a, t, config,
                        *normalize([lhs, rhs], lhs - rhs), branch=branch,
                        detail="deriv=trace")


def _cheb_nodes(count: int):
    return [mp.cos(mp.pi * k / (count - 1)) for k in range(count)]


def _cheb_coeffs(values):
    # Clenshaw-Curtis style coefficients on extrema nodes
    m = len(values) - 1
    coeffs = []
    for j in range(m + 1):
        total = (values[0] + _parity(j) * values[m]) / 2
        for k in range(1, m):
            total += values[k] * mp.cos(mp.pi * j * k / m)
        coeffs.append(2 * total / m)
    coeffs[0] /= 2
    coeffs[m] /= 2
    return coeffs


def _cheb_eval(coeffs, x):
    b1 = mpf(0)
    b2 = mpf(0)
    for c in reversed(coeffs[1:]):
        b1, b2 = 2 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def _cheb_derivative(coeffs):
    m = len(coeffs) - 1
    out = [mpf(0)] * (m + 2)
    for k in range(m, 0, -1):
        out[k - 1] = out[k + 1] + 2 * k * coeffs[k]
    out[0] /= 2
    return out[: m + 1]


def verify_integral_representation(
    n: int,
    params: WeightParams,
    t_end,
    steps: int = None,
    config: PrecisionConfig = None,
):
    """One row: the R_n-integrand quadrature against the determinant ratio.

    R_n(s) is sampled at `steps` Chebyshev points in u = sqrt(s) (where it
    is analytic through u=0) and differentiated through the interpolant; the
    short initial piece [0, s0] is evaluated directly as a determinant
    difference, so no endpoint series is needed.
    """
    if config is None:
        config = PrecisionConfig()
    if steps is None:
        # interpolation error must shrink alongside everything else when
        # the precision target rises
        steps = max(48, 2 * config.target_digits)
    a = params.alpha
    with working_precision(config):
        t_end = mpf(t_end)
        if t_end == 0:
            return residual_row("integral-rep", n, a, t_end, config, mpf(0), None)
        s0 = mpf(10) ** (-(config.target_digits // 4))
        if s0 >= t_end:
            # the integration path [s0, t_end] must not be empty
            s0 = t_end / 4
        u_lo = mp.sqrt(s0)
        u_hi = mp.sqrt(t_end)
        k1 = 2 * n + 1 + 2 * a

        center = (u_hi + u_lo) / 2
        radius = (u_hi - u_lo) / 2
        samples = []
        min_R = None
        for x in _cheb_nodes(steps):
            u = center + radius * x
            pv = make_params(a, u * u, config)
            rec = recurrence_table(n + 1, pv, config)
            r_n = aux_table(n, pv, config, recurrence=rec).R[n]
            if min_R is None or abs(r_n) < min_R:
                min_R = abs(r_n)
            samples.append(r_n)
        if min_R == 0:
            raise ValueError("R_n vanishes on the integration path")
        coeffs = _cheb_coeffs(samples)
        dcoeffs = _cheb_derivative(coeffs)

        # interpolant sanity: compare against a direct table off-grid
        u_mid = center + radius / mp.pi
        pv = make_params(a, u_mid * u_mid, config)
        rec = recurrence_table(n + 1, pv, config)
        direct = aux_table(n, pv, config, recurrence=rec).R[n]
        fit_err = abs(_cheb_eval(coeffs, mpf(1) / mp.pi) - direct)

        def integrand(u):
            x = (u - center) / radius
            R = _cheb_eval(coeffs, x)
            R1 = _cheb_eval(dcoeffs, x) / radius / (2 * u)
            s = u * u
            bracket = (
                4 * s ** 2 * k1 * R1 ** 2
                - 4 * s * R * (k1 + R) * R1
                - (2 * n - 1 + 2 * a) * R ** 4
                - 2 * (2 * n ** 2 + 4 * a * (n - s) - 1) * R ** 3
                - k1 * (4 * s ** 2 - 8 * a * s - 1) * R ** 2
                - 8 * s ** 2 * k1 ** 2 * R
                - 4 * s ** 2 * k1 ** 3
            )
            # ds = 2u du
            return bracket / (8 * s * R ** 2 * (k1 + R)) * 2 * u

        quad = integrate(integrand, (u_lo, u_hi), config)

        p_end = make_params(a, t_end, config)
        p_lo = make_params(a, s0, config)
        lhs = hankel_det(n, p_end, config)[0] - hankel_det(n, p_lo, config)[0]
        return residual_row("integral-rep", n, p_end.alpha, p_end.t, config,
                            *normalize([lhs, quad], lhs - quad),
                            detail=f"fit-err~{mp.nstr(fit_err, 3)};s0={mp.nstr(s0, 2)}")


def verify_linear_ode_Pn(
    n: int,
    z_points,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig = None,
):
    """One row: the second-order ODE for y = P_n(z), max residual over z."""
    if config is None:
        config = aux.config
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
            samples.append(normalize(terms, sum(terms)))
        detail = "z=" + ",".join(str(z) for z in z_points)
        return residual_row("linear-ode-Pn", n, params.alpha, params.t, config,
                            *worst_sample(samples), detail=detail)


def verify_ladder_relations(
    n_max: int,
    z_points,
    params: WeightParams,
    aux: AuxTable,
    table: RecurrenceTable,
    config: PrecisionConfig = None,
):
    """Lowering/raising rows per n, max residual over the z sample."""
    if config is None:
        config = aux.config
    rows = []
    with working_precision(config):
        for n in range(1, n_max + 1):
            lowering, raising = [], []
            for z in z_points:
                zv = mpf(z)
                a_val, b_val = eval_ladder(n, zv, aux, params)
                a_prev, _ = eval_ladder(n - 1, zv, aux, params)
                pn = eval_poly(n, zv, table)
                pm = eval_poly(n - 1, zv, table)

                terms = [pn.d1, b_val * pn.value, -table.beta[n] * a_val * pm.value]
                lowering.append(normalize(terms, sum(terms)))

                terms = [
                    pm.d1,
                    -(b_val + v_prime(zv, params)) * pm.value,
                    a_prev * pn.value,
                ]
                raising.append(normalize(terms, sum(terms)))
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


def run_identity_suite(
    n_max: int,
    params: WeightParams,
    config: PrecisionConfig,
    z_points=DEFAULT_Z_POINTS,
):
    """All identity rows at one (alpha, t) grid point, sorted and tagged.

    At t = 0 the t-differential and integral-representation rows are left
    out: their negative-order moments and integration path need t > 0.
    """
    rec = recurrence_table(n_max + 2, params, config)
    aux_q = aux_table(n_max + 1, params, config, route=ROUTE_QUADRATURE, recurrence=rec)
    rows = []
    rows += verify_scalar_identities(n_max, params, aux_q, rec, config)
    rows += verify_difference_equations(n_max, params, aux_q, config)
    if params.t > 0:
        rows += verify_differential(list(range(n_max + 1)), params, config)
    rows += verify_ladder_relations(
        min(n_max, 8), z_points, params, aux_q, rec, config
    )
    for n in range(min(n_max, 8) + 1):
        rows.append(
            verify_linear_ode_Pn(n, z_points, params, aux_q, rec, config)
        )
    if params.t > 0:
        rows.append(verify_integral_representation(2, params, params.t, config=config))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows, sign_monitor(aux_q)
