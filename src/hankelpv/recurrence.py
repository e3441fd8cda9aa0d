"""Hankel determinants and three-term recurrence data for the even weight.

Because odd moments vanish, permuting the Hankel matrix rows and columns by
index parity turns it into a direct sum of two smaller Hankel blocks
E_ab = mu_{2a+2b} and O_ab = mu_{2a+2b+2} (the permutation acts on both
sides, so the determinant is unchanged).  Cholesky pivots of those blocks
give the squared norms directly: h_{2k} = L_E[k,k]^2, h_{2k+1} = L_O[k,k]^2,
since D_{n+1}/D_n = h_n and consecutive n alternate between the blocks.

The monic polynomials satisfy x P_n = P_{n+1} + beta_n P_{n-1} with
beta_n = h_n / h_{n-1}, beta_0 = 0, and the subleading coefficient obeys
p(n,t) = -sum_{j<n} beta_j.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .precision import NumericsError, PrecisionConfig, to_mpf, working_precision
from .special import log_barnes_g, log_gamma
from .weights import MomentTable, WeightParams


class PivotError(NumericsError):
    """Non-positive Cholesky pivot: precision exhausted or bad moments."""

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


def _parity_block(moments: MomentTable, size: int, offset: int):
    return [
        [moments[2 * (a + b) + offset] for b in range(size)] for a in range(size)
    ]


def _block_pivots(moments: MomentTable, even_size: int, odd_size: int, config):
    with working_precision(config):
        diag_e = []
        diag_o = []
        if even_size:
            lower = _cholesky(_parity_block(moments, even_size, 0))
            diag_e = [lower[k][k] for k in range(even_size)]
        if odd_size:
            lower = _cholesky(_parity_block(moments, odd_size, 2))
            diag_o = [lower[k][k] for k in range(odd_size)]
        return diag_e, diag_o


def _retried_pivots(params, j_max, even_size, odd_size, config, moments):
    """Block pivots from moments up to j_max, and the config they were taken at.

    On a non-positive pivot the moments are rebuilt once at doubled bits;
    a second failure propagates.
    """
    for attempt, cfg in enumerate((config, config.doubled())):
        table = moments
        if table is None or attempt > 0:
            table = MomentTable.build(params, j_max, cfg)
        try:
            return _block_pivots(table, even_size, odd_size, cfg), cfg
        except PivotError:
            if attempt > 0:
                raise


def hankel_det(n: int, params: WeightParams, config: PrecisionConfig, moments=None):
    """ln D_n(t) and its sign via the parity-block factorization."""
    if n < 1:
        raise ValueError("determinant order must be at least 1")
    (diag_e, diag_o), cfg = _retried_pivots(
        params, max(2 * n - 2, 0), (n + 1) // 2, n // 2, config, moments
    )
    with working_precision(cfg):
        logdet = 2 * mp.fsum(mp.log(d) for d in diag_e + diag_o)
    return logdet, 1


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
    (diag_e, diag_o), cfg = _retried_pivots(
        params, 2 * n_max, n_max // 2 + 1, (n_max + 1) // 2, config, moments
    )
    with working_precision(cfg):
        h = []
        for k in range(n_max + 1):
            diag = diag_e if k % 2 == 0 else diag_o
            h.append(diag[k // 2] ** 2)
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
