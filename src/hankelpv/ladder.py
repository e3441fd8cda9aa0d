"""Ladder-operator auxiliary quantities for the perturbed Jacobi weight.

The lowering/raising pair for an even weight vanishing at both endpoints is
parametrized by two rational functions

    A_n(z) = R_n(t)/z^2 + (2n+1+2alpha+R_n(t))/(1-z^2),
    B_n(z) = [1-(-1)^n] t/z^3 + r_n(t)/z + z (n+r_n(t))/(1-z^2),

whose coefficients are the defining integrals

    R_n(t) = (2t/h_n)     * int P_n^2(y)       w(y)/y^2 dy,
    r_n(t) = (2t/h_{n-1}) * int P_n(y)P_{n-1}(y) w(y)/y^3 dy.

The compatibility conditions of the pair collapse to algebraic routes that
avoid the integrals entirely:

    r_n = [1-(-1)^n] t + (2n+1+2alpha) beta_n - 2 p(n,t) - n,
    R_n = r_{n+1} + r_n,
    sigma_n = 2t d/dt ln D_n = -sum_{j<n} R_j.

ladder_maps is the one transcription of these maps, for the values and for
every t-derivative of beta_n: the identity route of aux_table, the flows'
seed and the t-differential rows all read it. The integral route is kept
as the independent oracle.

The second-order difference equation for r_n is affine in r_{n+1}, so it
also runs forward: difference_run gives r_n and R_n for n < N in O(N)
steps from the two moment anchors, and the double-scaling scans read it.
Its coefficients are transcribed once (rn_diff_coefficients); the step
solves with them, and the identity suite checks the terms they make
(rn_diff_terms) on moment-route tables, which keeps the relation tied to
the moments.

The sign of R_n for t > 0 is never asserted: it is an observed property
(positive on every grid tested here) recorded at report level only.
"""

from typing import NamedTuple

from mpmath import mp, mpf

from .choices import AUX_ROUTES, ROUTE_IDENTITY, ROUTE_QUADRATURE
from .precision import NumericsError, PrecisionConfig, working_precision
from .recurrence import (RecurrenceTable, negated_prefix_sums, recurrence_table,
                         three_term_values)
from .weights import MomentTable, WeightParams, weight_value


def _parity(n: int) -> int:
    return -1 if n % 2 else 1


def ladder_maps(beta, params: WeightParams, order: int = 0):
    """(p, r, R, sigma) from beta_0 .. beta_N, or from their order-th
    t-derivatives, at ambient precision.

    The one transcription of the maps in the module docstring: p and r run
    to index N, R and sigma to N - 1, and every map is linear in beta but
    for the t term of r_n, which gives t at order 0, 1-(-1)^n at order 1
    and nothing beyond, and the -n term, which enters at order 0 only.
    """
    t_term = {0: params.t, 1: 1}.get(order, 0)
    p = negated_prefix_sums(beta[:-1])
    r = [mpf(0)] + [
        (1 - _parity(n)) * t_term + (2 * n + 1 + 2 * params.alpha) * beta[n] - 2 * p[n]
        - (n if order == 0 else 0)
        for n in range(1, len(beta))
    ]
    big_r = [r[n + 1] + r[n] for n in range(len(beta) - 1)]
    return p, r, big_r, negated_prefix_sums(big_r[:-1])


def aux_r(n: int, table: RecurrenceTable) -> mpf:
    """r_n(t), one entry of ladder_maps on the table's beta (perfbench/record.py
    reads it)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    return ladder_maps(table.beta[: n + 1], table.params)[1][n]


def aux_R(n: int, table: RecurrenceTable) -> mpf:
    """R_n(t), one entry of ladder_maps on the table's beta (perfbench/record.py
    reads it)."""
    return ladder_maps(table.beta[: n + 2], table.params)[2][n]


def aux_oracles(
    n_max: int, params: WeightParams, config: PrecisionConfig, recurrence=None
):
    """(r, R) for n <= n_max from their defining integrals, in one pass.

    Independent of the ladder identities. One vector quadrature pass
    evaluates the weight once per node and P_0 ... P_{n_max} in one
    three-term sweep (recurrence.three_term_values). The integrands are
    even, so the integral over (-1, 1) is exactly twice the one over (0, 1).
    """
    if n_max < 0:
        raise ValueError("index must be non-negative")
    if params.t == 0:
        # the 2t prefactors vanish
        return [mpf(0)] * (n_max + 1), [mpf(0)] * (n_max + 1)
    table = recurrence
    if table is None or table.n_max < n_max:
        table = recurrence_table(max(n_max, 1), params, config)
    # the weight is even: no alpha_k term, and y - 0 is exact
    alpha = [0] * n_max
    size = 2 * n_max + 1

    def f(y, omy):
        w = weight_value(y, params, omy)
        if w == 0:
            return [mpf(0)] * size
        polys = three_term_values(n_max, y, alpha, table.beta)
        w2, w3 = w / (y * y), w / y ** 3
        # r_n pairs P_n with P_{n-1} (P_{-1} = 0, so r_0 = 0); R_n squares P_n
        return ([polys[k] * polys[k - 1] * w3 for k in range(1, n_max + 1)]
                + [p * p * w2 for p in polys])

    from .quadrature import integrate_unit_vector

    # doubling by exponent shift stays exact at the quadrature's precision
    integrals = [mp.ldexp(v, 1) for v in integrate_unit_vector(
        f, size, config, t=params.t, p=2, exponent=params.alpha)]
    with working_precision(config):
        r = [mpf(0)] + [2 * params.t * integrals[k - 1] / table.h[k - 1]
                        for k in range(1, n_max + 1)]
        big_r = [2 * params.t * integrals[n_max + k] / table.h[k]
                 for k in range(n_max + 1)]
        return r, big_r


def aux_r_oracle(
    n: int, params: WeightParams, config: PrecisionConfig, recurrence=None
) -> mpf:
    """Defining integral for r_n(t): one entry of aux_oracles."""
    return aux_oracles(n, params, config, recurrence)[0][n]


def aux_R_oracle(
    n: int, params: WeightParams, config: PrecisionConfig, recurrence=None
) -> mpf:
    """Defining integral for R_n(t): one entry of aux_oracles."""
    return aux_oracles(n, params, config, recurrence)[1][n]


class AuxTable(NamedTuple):
    """r_n, R_n, sigma_n for n <= n_max, at its table's config."""

    params: WeightParams
    config: PrecisionConfig
    r: list
    R: list
    sigma: list


def aux_table(
    n_max: int,
    params: WeightParams,
    config: PrecisionConfig,
    route: str = ROUTE_IDENTITY,
    recurrence=None,
) -> AuxTable:
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if route not in AUX_ROUTES:
        raise ValueError(f"unknown route {route!r}")
    table = recurrence
    if table is None or table.n_max < n_max + 1:
        table = recurrence_table(n_max + 1, params, config)
    if route == ROUTE_QUADRATURE:
        r, big_r = aux_oracles(n_max, params, config, table)
        with working_precision(config):
            sigma = negated_prefix_sums(big_r[:n_max])
    else:
        with working_precision(config):
            _, r, big_r, sigma = ladder_maps(table.beta[: n_max + 2], params)
        r = r[: n_max + 1]
    return AuxTable(params=params, config=table.config, r=r, R=big_r, sigma=sigma)


# --- the compatibility conditions as additive terms, k1 = 2n+1+2alpha ---------


def pv_terms(n: int, R, R1, R2, params: WeightParams) -> list:
    """The nine terms of the cleared Painleve V equation for R_n(t), whose
    sum vanishes; the first is 8t^2 R (k1+R) R''."""
    a, t = params.alpha, params.t
    par = _parity(n)
    k1 = 2 * n + 2 * a + 1
    return [
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


def riccati_terms(n: int, R, r, params: WeightParams) -> list:
    """The three terms of the Riccati relation whose sum is 2t R_n'."""
    t = params.t
    par = _parity(n)
    k1 = 2 * n + 1 + 2 * params.alpha
    return [R ** 2, (1 - 2 * par * t - 2 * r) * R, -2 * par * k1 * t]


def rn_diff_coefficients(n: int, r_prev, r, params: WeightParams) -> list:
    """A_n and B_n of the second-order difference equation for r_n,

        A_n R_n + B_n (k1 + R_n) = 0,   R_n = r_{n+1} + r_n,

    with A_n = (n+r_n)(n+2alpha+r_n)(r_n+r_{n-1}) and
    B_n = 2(-1)^n t r_n (2n-1+2alpha+r_n+r_{n-1})."""
    a, t = params.alpha, params.t
    return [(n + r) * (n + 2 * a + r) * (r + r_prev),
            2 * _parity(n) * t * r * (2 * n - 1 + 2 * a + r + r_prev)]


def rn_diff_terms(n: int, r_prev, r, r_next, params: WeightParams) -> list:
    """The two terms of the difference equation for r_n, whose sum vanishes:
    A_n R_n and B_n (k1 + R_n), from rn_diff_coefficients."""
    a_n, b_n = rn_diff_coefficients(n, r_prev, r, params)
    big_r = r_next + r
    return [a_n * big_r, b_n * (2 * n + 1 + 2 * params.alpha + big_r)]


def difference_run(size: int, params: WeightParams, config: PrecisionConfig,
                   moments=None):
    """[r_0 .. r_{size-1}] and [R_0 .. R_{size-1}] by the forward run of the
    difference equation for r_n, for t > 0.

    The seed is r_0 = 0 and r_1 = 2t + (3+2alpha) mu_2/mu_0 - 1 (ladder_maps
    at n = 1, with beta_1 = mu_2/mu_0), so the run reads only the two moment
    anchors. The equation is affine in R_n, and each step solves it from
    rn_diff_coefficients: R_n = -B_n k1 / (A_n + B_n), r_{n+1} = R_n - r_n.
    At t = 0 every r_n vanishes and the step is 0/0. A step whose A_n + B_n
    is an exact 0 (at a t so small that r_1 rounds to 0) raises
    NumericsError.
    """
    if not params.t > 0:
        raise ValueError("the difference run needs t > 0: at t = 0 its step is 0/0")
    table = moments if moments is not None else MomentTable.build(params, 2, config)
    with working_precision(config):
        r = [mpf(0), 2 * params.t + (3 + 2 * params.alpha) * table[2] / table[0] - 1]
        big_r = [r[1]]
        for n in range(1, size):
            a_n, b_n = rn_diff_coefficients(n, r[n - 1], r[n], params)
            denominator = a_n + b_n
            if denominator == 0:
                raise NumericsError(f"the difference run divides by A_n + B_n = 0 at n={n}, "
                                    f"t={mp.nstr(params.t, 6)}")
            big_r.append(-b_n * (2 * n + 1 + 2 * params.alpha) / denominator)
            r.append(big_r[n] - r[n])
        return r[:size], big_r


def beta_aux_terms(n: int, R, r, params: WeightParams) -> list:
    """The two terms whose sum is beta_n, from (R_n, r_n)."""
    a = params.alpha
    k0 = 2 * n - 1 + 2 * a
    k1 = 2 * n + 1 + 2 * a
    return [((n + r) ** 2 + 2 * a * (n + r)) / (k0 * (k1 + R)),
            2 * _parity(n) * params.t * r / (k0 * R)]


def v_prime(z, params: WeightParams) -> mpf:
    """(-ln w)' at ambient precision."""
    z = mpf(z)
    return -2 * params.t / z ** 3 + 2 * params.alpha * z / (1 - z * z)


def ladder_pieces(n: int, z, R_n, r_n, params: WeightParams):
    """A_n, B_n and their z-derivatives at ambient precision.

    The derivatives are analytic (the pole structure is explicit), so the
    linear ODE for P_n never needs numerical differentiation in z.
    """
    z = mpf(z)
    if z == 0 or abs(z) == 1:
        raise NumericsError(f"ladder coefficients have a pole at z={z}")
    one_m = 1 - z * z
    c = 2 * n + 1 + 2 * params.alpha + R_n
    a_val = R_n / z ** 2 + c / one_m
    a_d1 = -2 * R_n / z ** 3 + 2 * z * c / one_m ** 2
    tcoef = (1 - _parity(n)) * params.t
    b_val = tcoef / z ** 3 + r_n / z + z * (n + r_n) / one_m
    b_d1 = (
        -3 * tcoef / z ** 4
        - r_n / z ** 2
        + (n + r_n) * (1 + z * z) / one_m ** 2
    )
    return {"A": a_val, "A1": a_d1, "B": b_val, "B1": b_d1}


def eval_ladder(n: int, z, aux: AuxTable):
    """(A_n(z), B_n(z)) from the stored auxiliary values."""
    pieces = ladder_pieces(n, z, aux.R[n], aux.r[n], aux.params)
    return pieces["A"], pieces["B"]
