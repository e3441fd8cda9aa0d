"""Hankel determinants and three-term recurrence data for the even weight.

The monic orthogonal polynomials satisfy x P_n = P_{n+1} + beta_n P_{n-1}
with beta_n = h_n / h_{n-1}, beta_0 = 0, h_n = int P_n^2 w, and
D_{n+1}/D_n = h_n. The subleading coefficient obeys p(n,t) = -sum_{j<n} beta_j.
ln D_n = sum_{k<n} ln h_k is formed in one place, recurrence_table, as a
running sum; hankel_det reads it from a table of order n.

The squared norms come from Chebyshev's algorithm on the moments (Gautschi,
*Orthogonal Polynomials: Computation and Approximation*, OUP 2004, §2.1.7,
Alg. 2.1). With sigma_{k,l} = int P_k x^l w, sigma_{0,l} = mu_l and
sigma_{-1,l} = 0, the three-term relation gives

    sigma_{k,l} = sigma_{k-1,l+1} - beta_{k-1} sigma_{k-2,l},   h_k = sigma_{k,k}.

The weight is even, so the recurrence has no alpha_k term and sigma_{k,l}
vanishes unless k + l is even: only l = k, k+2, ... is kept. The norms
h_0 .. h_{N-1} take mu_0 .. mu_{2N-2} and about N^2/2 multiply-subtracts,
and a shorter pass is a prefix of a longer one, bit for bit. The map from
moments to recurrence coefficients is as ill-conditioned as the Hankel
matrix itself, so this route loses digits with n at the rate a Cholesky
factorization of the moment matrix does; a non-positive h_k means the
precision ran out.

Exact t-derivatives come from the same algorithm run on truncated Taylor
series in tau (chebyshev_jets). Differentiating under the integral gives
d/dt mu_j = -mu_{j-c}, with c = 2 for this weight and c = 1 for the
auxiliary weight of bridge.py, so

    mu_j(t + tau) = sum_k (-tau)^k / k! mu_{j-ck}(t),

and one pass with every product a Cauchy product of series gives the jets
of all h_k at once. That general form keeps the alpha_k term, which the
auxiliary weight needs; on this even weight it is an exact zero, and the
order-0 coefficients are the norms of the plain pass bit for bit. The
negative orders come from the weight's Pearson relation (negative_moments),
so the jets need t > 0.

At t = 0 the weight is Jacobi's, with beta_k(0) = k(k+2alpha)/((2k+2alpha-1)
(2k+2alpha+1)) and mu_0(0) = B(1/2, 1+alpha) in closed form. log_det_ratio
uses them to give ln D_N(t) - ln D_N(0) from mu_0(t) and the beta_k(t) of
any route, without forming the two ln D_N of size N^2: the double-scaling
scans take their beta_k(t) from ladder.difference_run, in O(N) steps, and
build no table here. hankel_det_t0 is ln D_n(0) by Barnes G or Gamma
products; the tests check that route against these tables through it.

The module also holds the mpf Taylor-series kernel of the jets (cauchy,
series_quotient, log_derivatives) and the three-term sweep of the ladder
and bridge integrands (three_term_values).
"""

from itertools import accumulate
from math import factorial
from typing import NamedTuple

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, escalated, to_mpf, working_precision
from .special import exp_beta_moment, log_barnes_g, log_gamma
from .weights import MomentTable, WeightParams, negative_moments


class PivotError(NumericsError):
    """Non-positive norm or Cholesky pivot: precision exhausted or bad moments."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _cholesky(rows):
    """Lower-triangular factor at ambient precision; raises on bad pivots.

    No route of the package factors a moment matrix; the tests keep this as
    the independent reference for the Chebyshev norms.
    """
    n = len(rows)
    lower = [[mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            acc = rows[i][j]
            for k in range(j):
                acc -= lower[i][k] * lower[j][k]
            if i == j:
                if not acc > 0:
                    raise PivotError(f"non-positive pivot at index {i}", index=i)
                lower[i][i] = mp.sqrt(acc)
            else:
                lower[i][j] = acc / lower[j][j]
    return lower


def _chebyshev_norms(moments, size: int, config: PrecisionConfig) -> list:
    """h_0 .. h_{size-1} by Chebyshev's algorithm (module docstring).

    Row k holds sigma_{k,k+2i} for i = 0 .. size-1-k.
    """
    with working_precision(config):
        prev, row = [mpf(0)] * size, [moments[2 * i] for i in range(size)]
        h = []
        for k in range(size):
            if not row[0] > 0:
                raise PivotError(f"non-positive pivot at index {k}", index=k)
            h.append(row[0])
            beta = h[k] / h[k - 1] if k else 0
            prev, row = row, [row[i + 1] - beta * prev[i + 1] for i in range(size - k - 1)]
        return h


def cauchy(a, b, m, start=0):
    """sum_{i=start}^{m} a_i b_(m-i), the order-m coefficient of a product.

    `a` may be shorter than m + 1 (a polynomial factor such as the powers
    of x0 + tau): the pairs stop with its last coefficient.
    """
    if m < start:
        return mpf(0)
    return mp.fdot(a[start:m + 1], b[m - start::-1])


def series_quotient(a, b) -> list:
    """Taylor coefficients of a/b to the length of a; b_0 must not vanish."""
    q = []
    for m in range(len(a)):
        q.append((a[m] - cauchy(b, q, m, start=1)) / b[0])
    return q


def log_derivatives(jet) -> list:
    """(ln f)', (ln f)'', ... from the jet of f, one order fewer: k! times
    the order-k Taylor coefficient of f'/f."""
    q = series_quotient([k * c for k, c in enumerate(jet)][1:], jet[:-1])
    return [factorial(k) * c for k, c in enumerate(q)]


def three_term_values(n: int, x, alpha, beta) -> list:
    """P_0(x) .. P_n(x) of the monic family x P_k = P_{k+1} + alpha_k P_k +
    beta_k P_{k-1}, in one sweep at ambient precision."""
    values = [mpf(1)]
    if n > 0:
        values.append(x - alpha[0])
    for k in range(1, n):
        values.append((x - alpha[k]) * values[k] - beta[k] * values[k - 1])
    return values


def chebyshev_jets(mu, size: int, order: int, step: int, config: PrecisionConfig):
    """Jets of h_0 .. h_{size-1} and of alpha_0 .. alpha_{size-2} at t.

    A jet is the list of Taylor coefficients f^(k)(t)/k!, k = 0 .. order.
    mu(j) is mu_j(t) for every j >= -step * order, and d/dt mu_j =
    -mu_{j-step} (module docstring). Chebyshev's algorithm with its alpha_k
    term (Gautschi, §2.1.7) runs on those series: row k holds sigma_{k,l}
    for l = k .. 2 size - 2 - k, so mu_0 .. mu_{2 size - 2} suffice, and

        sigma_{k+1,l} = sigma_{k,l+1} - alpha_k sigma_{k,l} - beta_k sigma_{k-1,l},
        alpha_k = sigma_{k,k+1}/sigma_{k,k} - sigma_{k-1,k}/sigma_{k-1,k-1},

    with beta_k = h_k/h_{k-1} and h_k = sigma_{k,k}.
    """
    with working_precision(config):
        def jet(j):
            return [mu(j)] + [(-1) ** k * mu(j - step * k) / factorial(k)
                              for k in range(1, order + 1)]

        zero = [mpf(0)] * (order + 1)
        # sigma_{-1,l} = 0 enters only through beta_0 = 0, so row 0 stands in for it
        prev = row = [jet(j) for j in range(2 * size - 1)]
        h, alpha, shift = [], [], zero
        for k in range(size):
            if not row[0][0] > 0:
                raise PivotError(f"non-positive pivot at index {k}", index=k)
            h.append(row[0])
            if k == size - 1:
                break
            ratio = series_quotient(row[1], row[0])
            alpha.append([x - y for x, y in zip(ratio, shift)])
            beta = series_quotient(h[k], h[k - 1]) if k else zero
            prev, row, shift = row, [
                [row[i + 2][m] - cauchy(alpha[k], row[i + 1], m) - cauchy(beta, prev[i + 2], m)
                 for m in range(order + 1)] for i in range(len(row) - 2)], ratio
        return h, alpha


def _retried(params, j_max, config, moments, work):
    """work(moments, config) on moments up to j_max, and the config it ran at.

    A non-positive pivot (any NumericsError) reruns it once at doubled bits
    (precision.escalated). A caller's moments are used at their own config.
    """
    def attempt(cfg):
        table = moments
        if table is None or table.config != cfg:
            table = MomentTable.build(params, j_max, cfg)
        return work(table, cfg)

    return escalated(attempt, config)


def hankel_det(n: int, params: WeightParams, config: PrecisionConfig, moments=None):
    """ln D_n(t), read from recurrence_table(n); D_n > 0, so no sign is kept."""
    return recurrence_table(n, params, config, moments).logD[n]


def t_jets(n_top: int, params: WeightParams, config: PrecisionConfig, order: int):
    """[jet of h_m for m = 0 .. n_top] to the given order, at the one t > 0,
    and the config the pass ran at.

    One chebyshev_jets pass on the moments with step 2; the negative orders
    come from negative_moments and the odd moments are exact zeros. A
    non-positive pivot rebuilds the moments at doubled bits, as the plain
    pass does.
    """
    if not params.t > 0:
        raise ValueError("the t-derivatives of h_n need t > 0: "
                         "they use moments of negative order")

    def work(table, cfg):
        low = negative_moments(table, -2 * order)
        zero = mpf(0)

        def mu(j):
            return table[j] if j >= 0 else low.get(j, zero)

        return chebyshev_jets(mu, n_top + 1, order, 2, cfg)[0]

    return _retried(params, 2 * n_top, config, None, work)


def negated_prefix_sums(values) -> list:
    """[0, -v_0, -v_0 - v_1, ...] at ambient precision: p(n,t) from the
    beta_j, and sigma_n = -sum_{j<n} R_j from the R_j."""
    return list(accumulate((-v for v in values), initial=mpf(0)))


class RecurrenceTable(NamedTuple):
    """Orthonormalization data h_n, beta_n, p(n,t), ln D_n for n <= n_max."""

    params: WeightParams
    config: PrecisionConfig
    h: list
    beta: list
    p1: list
    logD: list

    @property
    def n_max(self) -> int:
        return len(self.h) - 1


def recurrence_table(
    n_max: int, params: WeightParams, config: PrecisionConfig, moments=None
) -> RecurrenceTable:
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    h, cfg = _retried(params, 2 * n_max, config, moments,
                      lambda table, cfg: _chebyshev_norms(table, n_max + 1, cfg))
    with working_precision(cfg):
        beta = [mpf(0)]
        for k in range(1, n_max + 1):
            beta.append(h[k] / h[k - 1])
        p1 = negated_prefix_sums(beta[:n_max])
        log_d = [mpf(0)]
        for k in range(1, n_max + 1):
            log_d.append(log_d[-1] + mp.log(h[k - 1]))
    return RecurrenceTable(params=params, config=cfg, h=h, beta=beta, p1=p1, logD=log_d)


class PolynomialEval(NamedTuple):
    n: int
    x: mpf
    value: mpf
    d1: mpf
    d2: mpf


def eval_poly(n: int, x, table: RecurrenceTable) -> PolynomialEval:
    """Monic P_n(x,t) and its first two x-derivatives at ambient precision.

    The derivative recurrences follow from differentiating the three-term
    relation: P'_{n+1} = P_n + x P'_n - beta_n P'_{n-1} and
    P''_{n+1} = 2 P'_n + x P''_n - beta_n P''_{n-1}.
    """
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if n > table.n_max:
        raise ValueError(f"table only covers degrees up to {table.n_max}")
    x = mpf(x)
    prev = (mpf(1), mpf(0), mpf(0))
    if n == 0:
        return PolynomialEval(n=0, x=x, value=prev[0], d1=prev[1], d2=prev[2])
    cur = (x, mpf(1), mpf(0))
    for k in range(1, n):
        b = table.beta[k]
        nxt = (
            x * cur[0] - b * prev[0],
            cur[0] + x * cur[1] - b * prev[1],
            2 * cur[1] + x * cur[2] - b * prev[2],
        )
        prev, cur = cur, nxt
    return PolynomialEval(n=n, x=x, value=cur[0], d1=cur[1], d2=cur[2])


def jacobi_beta_t0(k: int, alpha) -> mpf:
    """beta_k(0) = k(k+2alpha)/((2k+2alpha-1)(2k+2alpha+1)), the closed form
    for the Jacobi weight (1-x^2)^alpha, at ambient precision."""
    return k * (k + 2 * alpha) / ((2 * k + 2 * alpha - 1) * (2 * k + 2 * alpha + 1))


def log_det_ratio(mu0, beta, alpha, config: PrecisionConfig) -> mpf:
    """ln D_N(t) - ln D_N(0) for N = len(beta), from mu_0(t) and
    beta_1 .. beta_{N-1} at t (beta[0] is not read).

    D_N = mu_0^N prod_{0<k<N} beta_k^(N-k), so the difference is
    N ln(mu_0(t)/mu_0(0)) + sum_k (N-k) ln(beta_k(t)/beta_k(0)), with
    mu_0(0) = B(1/2, 1+alpha) and beta_k(0) from jacobi_beta_t0. It is taken
    as one log of prod_{k<N} h_k(t)/h_k(0), whose factors run up as
    products of those ratios; the two ln D_N, of size N^2, whose difference
    this is are never formed.
    """
    with working_precision(config):
        ratio = mu0 / exp_beta_moment(-mpf(1) / 2, alpha, 0, config)
        product = ratio
        for k in range(1, len(beta)):
            ratio *= beta[k] / jacobi_beta_t0(k, alpha)
            product *= ratio
        return mp.log(product)


def _t0_log_det_gammas(n: int, alpha, config: PrecisionConfig) -> mpf:
    with working_precision(config):
        two_a = 2 * alpha
        total = n * (n + two_a) * mp.log(2) - log_gamma(n + 1, config)
        for j in range(1, n + 1):
            total += (
                log_gamma(j + 1, config)
                + 2 * log_gamma(j + alpha, config)
                - log_gamma(j + n + two_a, config)
            )
        return total


def _t0_log_det_barnes(n: int, alpha, config: PrecisionConfig) -> mpf:
    with working_precision(config):
        two_a = 2 * alpha
        return (
            n * (n + two_a) * mp.log(2)
            + log_barnes_g(n + 1, config)
            + log_barnes_g(n + 1 + two_a, config)
            + 2 * log_barnes_g(n + alpha + 1, config)
            - log_barnes_g(2 * n + two_a + 1, config)
            - 2 * log_barnes_g(alpha + 1, config)
        )


def hankel_det_t0(n: int, alpha, config: PrecisionConfig) -> mpf:
    """ln D_n(0) in closed form; Barnes-G route on the half-integer grid."""
    if n < 1:
        raise ValueError("determinant order must be at least 1")
    alpha = to_mpf(alpha, config)
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    with working_precision(config):
        if 2 * alpha == mp.floor(2 * alpha):
            return _t0_log_det_barnes(n, alpha, config)
        return _t0_log_det_gammas(n, alpha, config)
