"""Hankel determinants and three-term recurrence data for the even weight.

The monic orthogonal polynomials satisfy x P_n = P_{n+1} + beta_n P_{n-1}
with beta_n = h_n / h_{n-1}, beta_0 = 0, h_n = int P_n^2 w, and
D_{n+1}/D_n = h_n. The subleading coefficient obeys p(n,t) = -sum_{j<n} beta_j.

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
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, to_mpf, working_precision
from .special import log_barnes_g, log_gamma
from .weights import MomentTable, WeightParams, negative_moments


class PivotError(NumericsError):
    """Non-positive norm or Cholesky pivot: precision exhausted or bad moments."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _cholesky(rows):
    """Lower-triangular factor at ambient precision; raises on bad pivots."""
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


def _factor(moments, size: int, config: PrecisionConfig):
    """Cholesky factor F of the size x size moment matrix, and F^{-1}."""
    with working_precision(config):
        lower = _cholesky([[moments[i + j] for j in range(size)] for i in range(size)])
        inv = [[mpf(0)] * size for _ in range(size)]
        for j in range(size):
            inv[j][j] = 1 / lower[j][j]
            for k in range(j - 1, -1, -1):
                acc = mpf(0)
                for m in range(k, j):
                    acc += lower[j][m] * inv[m][k]
                inv[j][k] = -acc / lower[j][j]
        return lower, inv


def _log_det_derivatives(mu, inv, orders: int, config: PrecisionConfig):
    """The first `orders` t-derivatives of ln det of the leading n x n block
    of the Hankel matrix M_ij = mu_{i+j}, for n = 0 .. len(inv).

    The moments obey d/dt mu_j = -mu_{j-1}, and mu maps every order
    j >= -orders to its moment. The k-th t-derivative of M is
    M^(k)_ij = (-1)^k mu_{i+j-k}; with A_k = M^{-1} M^(k) and L = ln det M,

      L'   = tr A_1,
      L''  = tr A_2 - tr A_1^2,
      L''' = tr A_3 - 3 tr A_1 A_2 + 2 tr A_1^3.

    The traces are taken of C_k = F^{-1} M^(k) F^{-T}, which is similar to
    A_k (F the Cholesky factor, inv = F^{-1}). F^{-1} is lower triangular,
    so the leading n x n block of C_k is the one of the leading n x n block
    of M, and one factor gives every n.
    """
    size = len(inv)
    with working_precision(config):
        c = []
        for k in range(1, orders + 1):
            sign = -1 if k % 2 else 1
            left = [[sign * mp.fsum(inv[i][p] * mu[p + q - k] for p in range(i + 1))
                     for q in range(size)] for i in range(size)]
            c.append([[mp.fsum(left[i][q] * inv[j][q] for q in range(j + 1))
                       for j in range(size)] for i in range(size)])
        out = [[] for _ in range(orders)]
        for n in range(size + 1):
            idx = range(n)
            out[0].append(mp.fsum(c[0][i][i] for i in idx))
            if orders > 1:
                square = mp.fsum(c[0][i][j] ** 2 for i in idx for j in idx)
                out[1].append(mp.fsum(c[1][i][i] for i in idx) - square)
            if orders > 2:
                mixed = mp.fsum(c[0][i][j] * c[1][i][j] for i in idx for j in idx)
                cube = mp.fsum(c[0][i][j] * c[0][j][m] * c[0][m][i]
                               for i in idx for j in idx for m in idx)
                out[2].append(mp.fsum(c[2][i][i] for i in idx) - 3 * mixed + 2 * cube)
        return out


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


def _retried(params, j_max, config, moments, work):
    """work(moments, config) on moments up to j_max, and the config it ran at.

    On a non-positive pivot the moments are rebuilt once at doubled bits;
    a second failure propagates.
    """
    for attempt, cfg in enumerate((config, config.doubled())):
        table = moments
        if table is None or attempt > 0:
            table = MomentTable.build(params, j_max, cfg)
        try:
            return work(table, cfg), cfg
        except PivotError:
            if attempt > 0:
                raise


def hankel_log_dets(n_max: int, params: WeightParams, config: PrecisionConfig,
                    moments=None):
    """[ln D_n(t) for n = 1 .. n_max] from one Chebyshev pass, and its config."""
    if n_max < 1:
        raise ValueError("determinant order must be at least 1")
    h, cfg = _retried(params, 2 * n_max - 2, config, moments,
                      lambda table, cfg: _chebyshev_norms(table, n_max, cfg))
    with working_precision(cfg):
        logs = [mp.log(x) for x in h]
        return [mp.fsum(logs[:n]) for n in range(1, n_max + 1)], cfg


def hankel_det(n: int, params: WeightParams, config: PrecisionConfig, moments=None):
    """ln D_n(t) and its sign, by Chebyshev's algorithm."""
    return hankel_log_dets(n, params, config, moments)[0][-1], 1


def log_det_t_derivatives(n_top: int, params: WeightParams, config: PrecisionConfig,
                          orders: int, moments=None):
    """[d^k/dt^k ln D_m for m = 0 .. n_top] for k = 1 .. orders, at the one t > 0.

    Differentiating under the integral gives d/dt mu_j = -mu_{j-2}. Both
    parity blocks are Hankel matrices in nu_k, with nu_k = mu_{2k} for E
    and mu_{2k+2} for O, and both obey d/dt nu_k = -nu_{k-1}, so the trace
    formulas of _log_det_derivatives apply to each block, and
    ln D_m = ln det E_{ceil(m/2)} + ln det O_{floor(m/2)}. The negative
    orders come from the weight's Pearson relation (negative_moments).
    """
    if not params.t > 0:
        raise ValueError("the t-derivatives of ln D_n need t > 0: "
                         "they use moments of negative order")
    sizes = ((n_top + 1) // 2, 0), (n_top // 2, 2)

    def blocks(table, cfg):
        low = negative_moments(table, -2 * orders)

        def mu(j):
            return low[j] if j < 0 else table[j]

        out = []
        for size, offset in sizes:
            nu = {k: mu(2 * k + offset) for k in range(-orders, 2 * size - 1)}
            _lower, inv = _factor(nu, size, cfg)
            out.append(_log_det_derivatives(nu, inv, orders, cfg))
        return out

    (even, odd), cfg = _retried(params, max(2 * n_top - 2, 0), config, moments, blocks)
    with working_precision(cfg):
        return [[even[k][(m + 1) // 2] + odd[k][m // 2] for m in range(n_top + 1)]
                for k in range(orders)]


@dataclass
class RecurrenceTable:
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
        p1 = [mpf(0)]
        for k in range(1, n_max + 1):
            p1.append(p1[-1] - beta[k - 1])
        log_d = [mpf(0)]
        for k in range(1, n_max + 1):
            log_d.append(log_d[-1] + mp.log(h[k - 1]))
    return RecurrenceTable(params=params, config=cfg, h=h, beta=beta, p1=p1, logD=log_d)


@dataclass(frozen=True)
class PolynomialEval:
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
