"""Auxiliary weight x^a (1-x)^b e^{-t/x} on (0,1) and the parity splitting.

Because the main weight is even, every even-index quantity of the main
system is a quantity of this auxiliary system at a = -1/2 and every
odd-index one at a = +1/2, with b = alpha in both cases. The module
builds the auxiliary orthogonality data from scratch (quadrature
moments, Hankel pivots, a three-term recurrence read off the pivot
factorization) and verifies the splitting against the main engine:

  polynomial transplant  tilde_P_j(x, -1/2) = P_{2j}(sqrt x)
                         tilde_P_j(x, +1/2) = P_{2j+1}(sqrt x)/sqrt x
  norm mapping           h_{2j} = tilde_h_j(-1/2), h_{2j+1} = tilde_h_j(+1/2)
  determinant product    D_{2n} = tilde_D_n(+1/2) tilde_D_n(-1/2), odd twin
  sigma sum              sigma_{2n} = 2[H_n(+1/2) + H_n(-1/2)], odd twin
  R doubling             R_{2n} = 2 Rstar_n(-1/2), R_{2n+1} = 2 Rstar_n(+1/2)

where H_n(t,a,b) = t d/dt ln tilde_D_n. H_n and its t-derivatives come
from finite-difference stencils over quadrature-built tables. Those
table entries carry quadrature-level noise rather than roundoff-level
noise, so the stencils run at a wider step than the library default and
the underlying moment quadratures at near-capacity digit targets.

The empty determinant is taken as tilde_D_0 := 1, so product and sum
relations hold at n = 0 as exact trivial rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .derivatives import derivative, derivative_bundle
from .identities import ReportRow, normalize, residual_row, worst_sample
from .ladder import aux_table
from .precision import (
    PrecisionConfig,
    digits_capacity,
    to_mpf,
    working_precision,
)
from .quadrature import clamped_exp, integrate
from .recurrence import _cholesky, eval_poly, recurrence_table
from .special import gamma

PARITY_IDS = (
    "de1",
    "de2",
    "dou1",
    "dou2",
    "hd1",
    "hd2",
    "re3",
    "re4",
    "rela1",
    "rela2",
    "rs1",
    "rs2",
)

JMO_IDS = ("hn", "hn-sigma", "hn-shift")

DEFAULT_Y_POINTS = ("0.3", "0.62", "0.85")


@dataclass(frozen=True)
class TildeParams:
    """Auxiliary weight parameters, stored as exact mpf values."""

    a: mpf
    b: mpf
    t: mpf


def make_tilde_params(a, b, t, config: PrecisionConfig) -> TildeParams:
    a = to_mpf(a, config)
    b = to_mpf(b, config)
    t = to_mpf(t, config)
    if not a > -1:
        raise ValueError(f"a must exceed -1, got {a}")
    if not b > 0:
        raise ValueError(f"b must be positive, got {b}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return TildeParams(a=a, b=b, t=t)


def tilde_weight_value(x, tp: TildeParams) -> mpf:
    """x^a (1-x)^b e^{-t/x} at ambient precision, 0 outside (0,1)."""
    x = mpf(x)
    if x <= 0 or x >= 1:
        return mpf(0)
    # the decay factor goes first so the x^a spike at 0 for a < 0 is
    # multiplied by an exact zero once the exponential underflows
    decay = mpf(1) if tp.t == 0 else clamped_exp(-tp.t / x)
    if decay == 0:
        return mpf(0)
    return decay * x ** tp.a * (1 - x) ** tp.b


def tilde_moment(j: int, tp: TildeParams, config: PrecisionConfig, target_digits=None) -> mpf:
    """Moment integral of x^j against the auxiliary weight, by quadrature."""
    if j < 0:
        raise ValueError("moment index must be non-negative")

    def f(x):
        tw = tilde_weight_value(x, tp)
        if tw == 0:
            return mpf(0)
        return tw * x ** j

    return integrate(f, (0, 1), config, target_digits=target_digits)


def tilde_moment_hyperu(j: int, tp: TildeParams, config: PrecisionConfig) -> mpf:
    """Closed-form moment via the confluent U function (second route).

    Substituting x = 1/(1+u) maps the moment integral onto the standard
    integral representation of U, giving
    Gamma(b+1) e^{-t} U(b+1, -j-a, t). At t = 0 the integral is the Beta
    function instead.
    """
    if j < 0:
        raise ValueError("moment index must be non-negative")
    with working_precision(config):
        if tp.t == 0:
            return (
                gamma(tp.b + 1, config)
                * gamma(j + tp.a + 1, config)
                / gamma(j + tp.a + tp.b + 2, config)
            )
        return gamma(tp.b + 1, config) * mp.exp(-tp.t) * mp.hyperu(tp.b + 1, -j - tp.a, tp.t)


def _boosted_digits(config: PrecisionConfig) -> int:
    # stencil differencing divides table noise by the step, so moment
    # quadratures feeding stencils run near capacity, not at target_digits
    return max(config.target_digits, digits_capacity(config.bits) - 5)


def _stencil_step(config: PrecisionConfig) -> mpf:
    # balances stencil truncation (h^8) against quadrature noise (eps/h^2)
    with working_precision(config):
        return mpf(10) ** (-mpf(_boosted_digits(config)) / 10)


def _hankel_rows(moments, size: int):
    return [[moments[i + j] for j in range(size)] for i in range(size)]


def _orthogonality_data(moments, n_top: int, config: PrecisionConfig):
    """Pivots and three-term coefficients from the moment factorization.

    With M = L L^T the monic coefficient rows are diag(L_jj) L^{-1}, so
    tilde_h_j is the squared pivot and the recurrence shift a_j is the
    difference s_j - s_{j+1} of consecutive subleading coefficients.
    """
    with working_precision(config):
        lower = _cholesky(_hankel_rows(moments, n_top + 1))
        h = [lower[k][k] ** 2 for k in range(n_top + 1)]
        inv = [[mpf(0)] * (n_top + 1) for _ in range(n_top + 1)]
        for j in range(n_top + 1):
            inv[j][j] = 1 / lower[j][j]
            for k in range(j - 1, -1, -1):
                acc = mpf(0)
                for m in range(k, j):
                    acc += lower[j][m] * inv[m][k]
                inv[j][k] = -acc / lower[j][j]
        sub = [mpf(0)]
        for j in range(1, n_top + 1):
            sub.append(lower[j][j] * inv[j][j - 1])
        rec_a = [sub[j] - sub[j + 1] for j in range(n_top)]
        rec_b = [mpf(0)] + [h[j] / h[j - 1] for j in range(1, n_top + 1)]
        return h, rec_a, rec_b


@dataclass
class TildeTable:
    """Auxiliary orthogonality data for degrees up to n_top.

    tilde_logD and H carry one extra index (n_top + 1) because the
    odd-index splitting relations pair index n of one engine with index
    n + 1 of the other.
    """

    tp: TildeParams
    config: PrecisionConfig
    moments: list
    tilde_h: list
    tilde_logD: list
    rec_a: list
    rec_b: list
    H: list
    Rstar: list
    Rtilde: list

    @property
    def n_top(self) -> int:
        return len(self.tilde_h) - 1


def eval_tilde_poly(n: int, x, table: TildeTable) -> mpf:
    """Monic auxiliary polynomial of degree n at x, by three-term recurrence."""
    if n < 0:
        raise ValueError("polynomial degree must be non-negative")
    if n > table.n_top:
        raise ValueError(f"table only covers degrees up to {table.n_top}")
    return _eval_three_term(n, mpf(x), table.rec_a, table.rec_b)


def _eval_three_term(n: int, x: mpf, rec_a, rec_b) -> mpf:
    prev = mpf(1)
    if n == 0:
        return prev
    cur = x - rec_a[0]
    for k in range(1, n):
        prev, cur = cur, (x - rec_a[k]) * cur - rec_b[k] * prev
    return cur


def tilde_Rstar_quad(n: int, table: TildeTable, target_digits=None) -> mpf:
    """(t / tilde_h_n) times the moment of tilde_P_n^2 against weight/x."""
    tp, config = table.tp, table.config
    if tp.t == 0:
        # the t prefactor beats the integrable endpoint divergence
        return mpf(0)

    def f(y):
        tw = tilde_weight_value(y, tp)
        if tw == 0:
            return mpf(0)
        v = _eval_three_term(n, y, table.rec_a, table.rec_b)
        return v * v * tw / y

    with working_precision(config):
        value = integrate(f, (0, 1), config, target_digits=target_digits)
        return tp.t * value / table.tilde_h[n]


def tilde_Rtilde_quad(n: int, table: TildeTable, target_digits=None) -> mpf:
    """(b / tilde_h_n) times the moment of tilde_P_n^2 against weight/(1-x)."""
    tp, config = table.tp, table.config

    def f(y):
        tw = tilde_weight_value(y, tp)
        if tw == 0:
            return mpf(0)
        v = _eval_three_term(n, y, table.rec_a, table.rec_b)
        return v * v * tw / (1 - y)

    with working_precision(config):
        value = integrate(f, (0, 1), config, target_digits=target_digits)
        return tp.b * value / table.tilde_h[n]


def _logdet_list(moments, n_top: int, config: PrecisionConfig):
    with working_precision(config):
        lower = _cholesky(_hankel_rows(moments, n_top + 1))
        out = [mpf(0)]
        for k in range(n_top + 1):
            out.append(out[-1] + mp.log(lower[k][k] ** 2))
        return out


class _TildeStencilCache:
    """Quadrature log-determinant tables keyed on the shifted t value."""

    def __init__(self, tp: TildeParams, n_top: int, config: PrecisionConfig):
        self.tp = tp
        self.n_top = n_top
        self.config = config
        self.digits = _boosted_digits(config)
        self._tables = {}

    def seed(self, tv, moments):
        self._tables[mpf(tv)._mpf_] = _logdet_list(moments, self.n_top, self.config)

    def logdet(self, n: int, tv) -> mpf:
        key = mpf(tv)._mpf_
        table = self._tables.get(key)
        if table is None:
            shifted = TildeParams(a=self.tp.a, b=self.tp.b, t=mpf(tv))
            moments = [
                tilde_moment(j, shifted, self.config, target_digits=self.digits)
                for j in range(2 * self.n_top + 1)
            ]
            table = _logdet_list(moments, self.n_top, self.config)
            self._tables[key] = table
        return table[n]


def tilde_moments_and_table(n_max: int, tp: TildeParams, config: PrecisionConfig) -> TildeTable:
    """Build the full auxiliary table for degrees up to n_max.

    Moments are quadrature-only; H_n comes from a first-derivative
    stencil over log-determinant tables rebuilt at each shifted t;
    Rstar/Rtilde come from quadrature of their defining integrals.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    digits = _boosted_digits(config)
    moments = [tilde_moment(j, tp, config, target_digits=digits) for j in range(2 * n_max + 1)]
    h, rec_a, rec_b = _orthogonality_data(moments, n_max, config)
    logd = _logdet_list(moments, n_max, config)
    table = TildeTable(
        tp=tp,
        config=config,
        moments=moments,
        tilde_h=h,
        tilde_logD=logd,
        rec_a=rec_a,
        rec_b=rec_b,
        H=[],
        Rstar=[],
        Rtilde=[],
    )
    if tp.t == 0:
        # H = t dln(tilde_D)/dt vanishes with t (the log-derivative grows
        # at most like an inverse square root as t -> 0)
        table.H = [mpf(0)] * (n_max + 2)
    else:
        cache = _TildeStencilCache(tp, n_max, config)
        cache.seed(tp.t, moments)
        h0 = _stencil_step(config)
        with working_precision(config):
            for n in range(n_max + 2):
                d1, _err = derivative(
                    lambda tv, n=n: cache.logdet(n, tv), tp.t, 1, config, h0=h0
                )
                table.H.append(tp.t * d1)
    for n in range(n_max + 1):
        table.Rstar.append(tilde_Rstar_quad(n, table))
        table.Rtilde.append(tilde_Rtilde_quad(n, table))
    return table


def _transplant_row(identity, j, params, config, y_points, lhs_fn, rhs_fn) -> ReportRow:
    """Max-over-samples residual row for a polynomial identity on (0,1)."""
    with working_precision(config):
        samples = []
        for ys in y_points:
            y = mpf(ys)
            lhs = lhs_fn(j, y)
            rhs = rhs_fn(j, y)
            # the unit term floors the scale at 1
            samples.append(normalize([lhs, rhs, mpf(1)], lhs - rhs))
        return residual_row(identity, j, params.alpha, params.t, config,
                            *worst_sample(samples, scale=mpf(1)),
                            detail=f"y={','.join(str(v) for v in y_points)}")


def verify_parity_splitting(
    n_max: int, params, config: PrecisionConfig, y_points=DEFAULT_Y_POINTS
):
    """Residual rows for the even/odd splitting relations at n <= n_max.

    The main side comes from closed-form moments and the recurrence
    ladder; the auxiliary side is quadrature-built end to end, so every
    row compares two independent routes.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    rec = recurrence_table(2 * n_max + 2, params, config)
    aux = aux_table(2 * n_max + 1, params, config, recurrence=rec)
    half = mpf("0.5")
    tm = tilde_moments_and_table(
        n_max + 1, make_tilde_params(-half, params.alpha, params.t, config), config
    )
    tp_ = tilde_moments_and_table(
        n_max, make_tilde_params(half, params.alpha, params.t, config), config
    )
    alpha, t = params.alpha, params.t
    rows = []
    for j in range(n_max + 1):
        rows.append(
            _transplant_row(
                "de1",
                j,
                params,
                config,
                y_points,
                lambda j, y: _eval_three_term(j, y * y, tm.rec_a, tm.rec_b),
                lambda j, y: eval_poly(2 * j, y, rec).value,
            )
        )
        rows.append(
            _transplant_row(
                "de2",
                j,
                params,
                config,
                y_points,
                lambda j, y: _eval_three_term(j, y * y, tp_.rec_a, tp_.rec_b) * y,
                lambda j, y: eval_poly(2 * j + 1, y, rec).value,
            )
        )
    with working_precision(config):
        for j in range(n_max + 1):
            rows.append(residual_row(
                "rela1", j, alpha, t, config,
                *normalize([rec.h[2 * j], tm.tilde_h[j]], rec.h[2 * j] - tm.tilde_h[j])))
            rows.append(residual_row(
                "rela2", j, alpha, t, config,
                *normalize([rec.h[2 * j + 1], tp_.tilde_h[j]],
                           rec.h[2 * j + 1] - tp_.tilde_h[j])))
        for n in range(n_max + 1):
            lhs = rec.logD[2 * n]
            t1, t2 = tp_.tilde_logD[n], tm.tilde_logD[n]
            rows.append(residual_row(
                "hd1", n, alpha, t, config,
                *normalize([lhs, t1, t2], lhs - t1 - t2)))
            lhs = rec.logD[2 * n + 1]
            t1, t2 = tp_.tilde_logD[n], tm.tilde_logD[n + 1]
            rows.append(residual_row(
                "hd2", n, alpha, t, config,
                *normalize([lhs, t1, t2], lhs - t1 - t2)))

            sig = aux.sigma[2 * n]
            ha, hb = tp_.H[n], tm.H[n]
            rows.append(residual_row(
                "re3", n, alpha, t, config,
                *normalize([sig, 2 * ha, 2 * hb], sig - 2 * (ha + hb))))
            sig = aux.sigma[2 * n + 1]
            ha, hb = tp_.H[n], tm.H[n + 1]
            rows.append(residual_row(
                "re4", n, alpha, t, config,
                *normalize([sig, 2 * ha, 2 * hb], sig - 2 * (ha + hb))))

            sig = aux.sigma[2 * n]
            hta = tp_.H[n] - n * (n + half + alpha)
            htb = tm.H[n] - n * (n - half + alpha)
            shift = 2 * n * (n + alpha)
            rows.append(residual_row(
                "rs1", n, alpha, t, config,
                *normalize([sig, 2 * hta, 2 * htb, 2 * shift],
                           sig - 2 * (hta + htb + shift))))
            sig = aux.sigma[2 * n + 1]
            hta = tp_.H[n] - n * (n + half + alpha)
            htb = tm.H[n + 1] - (n + 1) * (n + half + alpha)
            shift = (2 * n + 1) * (n + alpha + half)
            rows.append(residual_row(
                "rs2", n, alpha, t, config,
                *normalize([sig, 2 * hta, 2 * htb, 2 * shift],
                           sig - 2 * (hta + htb + shift))))

            big = aux.R[2 * n]
            star = tm.Rstar[n]
            shifted = tm.Rtilde[n] - 2 * n - half - alpha
            rows.append(residual_row(
                "dou1", n, alpha, t, config,
                *normalize([big, 2 * star, 2 * shifted],
                           max(abs(big - 2 * star), abs(big - 2 * shifted)))))
            big = aux.R[2 * n + 1]
            star = tp_.Rstar[n]
            shifted = tp_.Rtilde[n] - 2 * n - 3 * half - alpha
            rows.append(residual_row(
                "dou2", n, alpha, t, config,
                *normalize([big, 2 * star, 2 * shifted],
                           max(abs(big - 2 * star), abs(big - 2 * shifted)))))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows


def verify_jmo_sigma_form(n_list, tp: TildeParams, config: PrecisionConfig):
    """Residual rows for the second-order equation satisfied by H_n.

    For each n: the (hn) form in H_n itself, the shifted sigma-form in
    tilde_H_n = H_n - n(n+a+b) with its Painleve V parameter tuple
    recorded in the detail column, and the exact shift bookkeeping row.
    H_n' and H_n'' come from an outer stencil over an inner-stencil H,
    both at the widened step.
    """
    if tp.t <= 0:
        raise ValueError("positive t required for the derivative stencils")
    n_top = max(n_list)
    cache = _TildeStencilCache(tp, n_top, config)
    h0 = _stencil_step(config)
    a, b, t = tp.a, tp.b, tp.t
    rows = []

    def h_fun(n, tv):
        d1, _err = derivative(lambda s: cache.logdet(n, s), tv, 1, config, h0=h0)
        return tv * d1

    with working_precision(config):
        for n in sorted(n_list):
            bundle = derivative_bundle(
                lambda tv, n=n: h_fun(n, tv), t, config, orders=(1, 2), h0=h0
            )
            hv = bundle[0]
            h1, h1_err = bundle[1]
            h2, h2_err = bundle[2]
            note = f"deriv-err~{mp.nstr(max(h1_err, h2_err), 3)}"
            lhs = (t * h2) ** 2
            mid = n * (n + a + b) - hv + (a + t) * h1
            tail = 4 * h1 * (t * h1 - hv) * (b - h1)
            rows.append(residual_row(
                "hn", n, b, t, config,
                *normalize([lhs, mid ** 2, tail], lhs - mid ** 2 - tail),
                detail=f"a={mp.nstr(a, 8)};{note}"))
            ht = hv - n * (n + a + b)
            t1 = -4 * t * h1 ** 3
            t2 = h1 ** 2 * (4 * ht + (a + 2 * b + t) ** 2 + 4 * n * (n + a + b) - 4 * b * (a + b))
            t3 = -2 * h1 * ((a + 2 * b + t) * ht + 2 * n * b * (n + a + b))
            t4 = ht ** 2
            nu = (
                "nu=(0,"
                f"{mp.nstr(-(n + a + b), 8)},{n},{mp.nstr(-b, 8)})"
            )
            rows.append(residual_row(
                "hn-sigma", n, b, t, config,
                *normalize([lhs, t1, t2, t3, t4], lhs - t1 - t2 - t3 - t4),
                detail=f"a={mp.nstr(a, 8)};{nu};{note}"))
            rows.append(residual_row(
                "hn-shift", n, b, t, config,
                *normalize([hv, ht, n * (n + a + b)], ht + n * (n + a + b) - hv),
                detail="definition"))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows
