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

Both routes are implemented; the integral route is kept as the independent
oracle.  Closed forms for the first members (r_1 = R_0 and R_1) come from
direct evaluation of the integrals in terms of Kummer functions.

The sign of R_n for t > 0 is never asserted: it is an observed property
(positive on every grid tested here) recorded at report level only.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, working_precision
from .quadrature import integrate, integrate_unit_vector
from .recurrence import RecurrenceTable, eval_poly, recurrence_table
from .special import gamma, kummer_phi
from .weights import WeightParams, weight_value

ROUTE_IDENTITY = "identity"
ROUTE_QUADRATURE = "quadrature"


def _parity(n: int) -> int:
    return -1 if n % 2 else 1


def aux_r(n: int, table: RecurrenceTable) -> mpf:
    """r_n(t) by the algebraic route (exact parity prefactor)."""
    if n < 0:
        raise ValueError("index must be non-negative")
    if n == 0:
        return mpf(0)
    params = table.params
    return (
        (1 - _parity(n)) * params.t
        + (2 * n + 1 + 2 * params.alpha) * table.beta[n]
        - 2 * table.p1[n]
        - n
    )


def aux_R(n: int, table: RecurrenceTable) -> mpf:
    """R_n(t) = r_{n+1}(t) + r_n(t)."""
    return aux_r(n + 1, table) + aux_r(n, table)


def aux_oracles(
    n_max: int, params: WeightParams, config: PrecisionConfig, recurrence=None
):
    """(r, R) for n <= n_max from their defining integrals, in one pass.

    Independent of the ladder identities. One vector tanh-sinh pass
    evaluates the weight once per node and P_0 ... P_{n_max} in one
    three-term sweep. The integrands are even, so the integral over
    (-1, 1) is exactly twice the one over (0, 1).
    """
    if n_max < 0:
        raise ValueError("index must be non-negative")
    if params.t == 0:
        # the 2t prefactors vanish
        return [mpf(0)] * (n_max + 1), [mpf(0)] * (n_max + 1)
    table = recurrence
    if table is None or table.n_max < n_max:
        table = recurrence_table(max(n_max, 1), params, config)
    beta = table.beta
    size = 2 * n_max + 1

    def f(y):
        w = weight_value(y, params)
        if w == 0:
            return [mpf(0)] * size
        polys = [mpf(1), y]
        for k in range(1, n_max):
            polys.append(y * polys[k] - beta[k] * polys[k - 1])
        y3 = y ** 3
        y2 = y * y
        # r_n pairs P_n with P_{n-1} (P_{-1} = 0, so r_0 = 0); R_n squares P_n
        return ([polys[k] * polys[k - 1] * w / y3 for k in range(1, n_max + 1)]
                + [p * p * w / y2 for p in polys[: n_max + 1]])

    # doubling by exponent shift stays exact at the quadrature's precision
    integrals = [mp.ldexp(v, 1) for v in integrate_unit_vector(f, size, config)]
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


@dataclass
class AuxTable:
    """r_n, R_n, sigma_n for n <= n_max with a per-entry route tag."""

    params: WeightParams
    config: PrecisionConfig
    r: list
    R: list
    sigma: list
    tags: list


def aux_table(
    n_max: int,
    params: WeightParams,
    config: PrecisionConfig,
    route: str = ROUTE_IDENTITY,
    recurrence=None,
) -> AuxTable:
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if route == ROUTE_IDENTITY:
        table = recurrence
        if table is None or table.n_max < n_max + 1:
            table = recurrence_table(n_max + 1, params, config)
        with working_precision(config):
            r = [aux_r(k, table) for k in range(n_max + 2)]
            big_r = [r[k + 1] + r[k] for k in range(n_max + 1)]
            r = r[: n_max + 1]
    elif route == ROUTE_QUADRATURE:
        table = recurrence
        if table is None or table.n_max < n_max + 1:
            table = recurrence_table(n_max + 1, params, config)
        r, big_r = aux_oracles(n_max, params, config, table)
    else:
        raise ValueError(f"unknown route {route!r}")
    with working_precision(config):
        sigma = [mpf(0)]
        for k in range(n_max):
            sigma.append(sigma[-1] - big_r[k])
    return AuxTable(
        params=params,
        config=config,
        r=r,
        R=big_r,
        sigma=sigma,
        tags=[route] * (n_max + 1),
    )


def sigma(n: int, table: AuxTable) -> mpf:
    if n < 0 or n >= len(table.sigma):
        raise ValueError("sigma index outside table range")
    return table.sigma[n]


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


def beta_via_aux(n: int, R_n, r_n, params: WeightParams, config: PrecisionConfig):
    """beta_n from (R_n, r_n); poles of the expression are reported."""
    with working_precision(config):
        a = params.alpha
        t = params.t
        d1 = (2 * n - 1 + 2 * a) * (2 * n + 1 + 2 * a + R_n)
        if d1 == 0 or R_n == 0:
            raise NumericsError(
                f"beta expression pole at n={n}: R_n={R_n}, shifted pole={d1}"
            )
        first = ((n + r_n) ** 2 + 2 * a * (n + r_n)) / d1
        second = 2 * _parity(n) * t * r_n / ((2 * n - 1 + 2 * a) * R_n)
        return first + second


def beta_via_sigma(n: int, r_n, sigma_n, params: WeightParams, config: PrecisionConfig):
    """beta_n from (r_n, sigma_n); denominator is strictly positive."""
    with working_precision(config):
        a = params.alpha
        t = params.t
        num = (
            n * (n + 2 * a)
            + 2 * (n + a) * r_n
            + sigma_n
            + 2 * t * (_parity(n) * (n + a) - a)
        )
        return num / ((2 * n + 1 + 2 * a) * (2 * n - 1 + 2 * a))


def v_prime(z, params: WeightParams) -> mpf:
    """(-ln w)' at ambient precision."""
    z = mpf(z)
    return -2 * params.t / z ** 3 + 2 * params.alpha * z / (1 - z * z)


def v_double_prime(z, params: WeightParams) -> mpf:
    z = mpf(z)
    one_m = 1 - z * z
    return 6 * params.t / z ** 4 + 2 * params.alpha * (1 + z * z) / one_m ** 2


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


def eval_ladder(n: int, z, aux: AuxTable, params: WeightParams = None):
    """(A_n(z), B_n(z)) from the stored auxiliary values."""
    if params is None:
        params = aux.params
    pieces = ladder_pieces(n, z, aux.R[n], aux.r[n], params)
    return pieces["A"], pieces["B"]


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
