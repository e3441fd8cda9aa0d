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

where H_n(t,a,b) = t d/dt ln tilde_D_n. H_n and its t-derivatives are
exact, not finite differences: differentiating under the integral gives
d/dt mu~_j = -mu~_{j-1}, finite for t > 0, so every t-derivative of the
moment matrix is again a Hankel matrix of moments, and the derivatives of
ln tilde_D_n are traces over the one Cholesky factor at a single t. One
vector quadrature pass gives all the moments a table needs, and one more
gives every Rstar_n and Rtilde_n.

The empty determinant is taken as tilde_D_0 := 1, so product and sum
relations hold at n = 0 as exact trivial rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .identities import ReportRow, normalize, residual_row, worst_sample
from .ladder import aux_table
from .precision import (
    PrecisionConfig,
    digits_capacity,
    to_mpf,
    working_precision,
)
from .quadrature import clamped_exp, integrate_unit_vector
from .recurrence import _factor, _log_det_derivatives, eval_poly, recurrence_table

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


def tilde_moments(j_lo: int, j_hi: int, tp: TildeParams, config: PrecisionConfig,
                  target_digits=None) -> list:
    """Moments of orders j_lo .. j_hi against the auxiliary weight, by quadrature.

    One vector tanh-sinh pass evaluates the weight once per node. Orders
    below 0 are finite only for t > 0, where e^{-t/x} beats every power
    of x at 0; they give the t-derivatives, d/dt mu~_j = -mu~_{j-1}.
    """
    if j_lo > j_hi:
        raise ValueError("empty moment range")
    if j_lo < 0 and tp.t == 0:
        raise ValueError("moments of negative order need t > 0")
    size = j_hi - j_lo + 1

    def f(x):
        tw = tilde_weight_value(x, tp)
        if tw == 0:
            return [mpf(0)] * size
        out = [tw * x ** j_lo]
        for _ in range(size - 1):
            out.append(out[-1] * x)
        return out

    return integrate_unit_vector(f, size, config, target_digits=target_digits)


def _boosted_digits(config: PrecisionConfig) -> int:
    # H_n and its t-derivatives are traces over the moment factorization and
    # are compared with the main engine at roundoff level, so the moment
    # quadratures run near capacity, not at target_digits
    return max(config.target_digits, digits_capacity(config.bits) - 5)


def _orthogonality_data(lower, inv, config: PrecisionConfig):
    """Pivots and three-term coefficients from the moment factorization.

    With M = F F^T the monic coefficient rows are diag(F_jj) F^{-1}, so
    tilde_h_j is the squared pivot and the recurrence shift a_j is the
    difference s_j - s_{j+1} of consecutive subleading coefficients.
    """
    size = len(lower)
    with working_precision(config):
        h = [lower[k][k] ** 2 for k in range(size)]
        sub = [mpf(0)]
        for j in range(1, size):
            sub.append(lower[j][j] * inv[j][j - 1])
        rec_a = [sub[j] - sub[j + 1] for j in range(size - 1)]
        rec_b = [mpf(0)] + [h[j] / h[j - 1] for j in range(1, size)]
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
    return _three_term_values(n, mpf(x), table.rec_a, table.rec_b)[n]


def _three_term_values(n: int, x: mpf, rec_a, rec_b) -> list:
    """tilde_P_0(x) .. tilde_P_n(x) in one three-term sweep."""
    values = [mpf(1)]
    if n > 0:
        values.append(x - rec_a[0])
    for k in range(1, n):
        values.append((x - rec_a[k]) * values[k] - rec_b[k] * values[k - 1])
    return values


def tilde_R_lists(n_top: int, table: TildeTable, target_digits=None):
    """(Rstar, Rtilde) for n <= n_top from one quadrature pass.

    Rstar_n = (t / tilde_h_n) int tilde_P_n^2 w~/x and
    Rtilde_n = (b / tilde_h_n) int tilde_P_n^2 w~/(1-x); the pass evaluates
    the weight once per node and every tilde_P_n in one sweep.
    """
    tp, config = table.tp, table.config
    count = n_top + 1
    # at t = 0 the t prefactor of Rstar beats the integrable endpoint divergence
    star = tp.t != 0
    size = 2 * count if star else count

    def f(y):
        tw = tilde_weight_value(y, tp)
        if tw == 0:
            return [mpf(0)] * size
        squares = [v * v * tw for v in _three_term_values(n_top, y, table.rec_a, table.rec_b)]
        out = [s / (1 - y) for s in squares]
        if star:
            out += [s / y for s in squares]
        return out

    values = integrate_unit_vector(f, size, config, target_digits=target_digits)
    with working_precision(config):
        rtilde = [tp.b * values[n] / table.tilde_h[n] for n in range(count)]
        if not star:
            return [mpf(0)] * count, rtilde
        rstar = [tp.t * values[count + n] / table.tilde_h[n] for n in range(count)]
        return rstar, rtilde


def tilde_moments_and_table(n_max: int, tp: TildeParams, config: PrecisionConfig) -> TildeTable:
    """Build the full auxiliary table for degrees up to n_max, in two passes.

    The first quadrature pass gives the moments mu~_0 .. mu~_{2 n_max},
    and mu~_{-1} when t > 0; H_n = t d/dt ln tilde_D_n is the trace formula
    over their one Cholesky factor. The second pass gives every Rstar_n
    and Rtilde_n from their defining integrals.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    j_lo = -1 if tp.t > 0 else 0
    values = tilde_moments(j_lo, 2 * n_max, tp, config, target_digits=_boosted_digits(config))
    moments = values[-j_lo:]
    lower, inv = _factor(moments, n_max + 1, config)
    h, rec_a, rec_b = _orthogonality_data(lower, inv, config)
    with working_precision(config):
        logd = [mpf(0)]
        for k in range(n_max + 1):
            logd.append(logd[-1] + mp.log(h[k]))
        if tp.t == 0:
            # H = t dln(tilde_D)/dt vanishes with t (the log-derivative grows
            # at most like an inverse square root as t -> 0)
            H = [mpf(0)] * (n_max + 2)
        else:
            mu = dict(zip(range(j_lo, 2 * n_max + 1), values))
            H = [tp.t * d1 for d1 in _log_det_derivatives(mu, inv, 1, config)[0]]
    table = TildeTable(tp=tp, config=config, moments=moments, tilde_h=h, tilde_logD=logd,
                       rec_a=rec_a, rec_b=rec_b, H=H, Rstar=[], Rtilde=[])
    table.Rstar, table.Rtilde = tilde_R_lists(n_max, table)
    return table


def tilde_H_derivatives(n_top: int, tp: TildeParams, config: PrecisionConfig):
    """[(H_n, dH_n/dt, d2H_n/dt2) for n = 0 .. n_top] at the one t > 0 of tp.

    One quadrature pass gives mu~_{-3} .. mu~_{2 n_top - 2}; with
    L = ln tilde_D_n and L1, L2, L3 its first three t-derivatives,
    H = t L1, dH/dt = L1 + t L2 and d2H/dt2 = 2 L2 + t L3.
    """
    if not tp.t > 0:
        raise ValueError("the t-derivatives of H_n need t > 0: "
                         "they use moments of order down to -3")
    j_hi = max(2 * n_top - 2, -3)
    values = tilde_moments(-3, j_hi, tp, config, target_digits=_boosted_digits(config))
    mu = dict(zip(range(-3, j_hi + 1), values))
    _lower, inv = _factor(mu, n_top, config)
    d1, d2, d3 = _log_det_derivatives(mu, inv, 3, config)
    t = tp.t
    with working_precision(config):
        return [(t * d1[n], d1[n] + t * d2[n], 2 * d2[n] + t * d3[n])
                for n in range(n_top + 1)]


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

    The main side comes from the U-anchored Pearson moments and the
    recurrence ladder; the auxiliary side is quadrature-built end to end, so every
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
                lambda j, y: _three_term_values(j, y * y, tm.rec_a, tm.rec_b)[j],
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
                lambda j, y: _three_term_values(j, y * y, tp_.rec_a, tp_.rec_b)[j] * y,
                lambda j, y: eval_poly(2 * j + 1, y, rec).value,
            )
        )
    with working_precision(config):
        # at t = 0, sigma_n and H_n vanish: the identity route leaves roundoff
        # in sigma and H is an exact 0, so the sigma rows take a unit floor
        # as the transplant rows do
        floor = [mpf(1)] if t == 0 else []
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
                *normalize([sig, 2 * ha, 2 * hb] + floor, sig - 2 * (ha + hb))))
            sig = aux.sigma[2 * n + 1]
            ha, hb = tp_.H[n], tm.H[n + 1]
            rows.append(residual_row(
                "re4", n, alpha, t, config,
                *normalize([sig, 2 * ha, 2 * hb] + floor, sig - 2 * (ha + hb))))

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

            # R = 2 (Rtilde - shift) cancels down to R, which vanishes at
            # t = 0, so the scale holds the cancelling magnitudes too
            for name, big, table, m, shift in (
                    ("dou1", aux.R[2 * n], tm, n, 2 * n + half + alpha),
                    ("dou2", aux.R[2 * n + 1], tp_, n, 2 * n + 3 * half + alpha)):
                star, rtilde = table.Rstar[m], table.Rtilde[m]
                rows.append(residual_row(
                    name, n, alpha, t, config,
                    *normalize([big, 2 * star, 2 * rtilde, 2 * shift],
                               max(abs(big - 2 * star), abs(big - 2 * (rtilde - shift))))))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows


def verify_jmo_sigma_form(n_list, tp: TildeParams, config: PrecisionConfig):
    """Residual rows for the second-order equation satisfied by H_n.

    For each n: the (hn) form in H_n itself, the shifted sigma-form in
    tilde_H_n = H_n - n(n+a+b) with its Painleve V parameter tuple
    recorded in the detail column, and the exact shift bookkeeping row.
    H_n, H_n' and H_n'' are exact t-derivatives from one moment table at
    t (tilde_H_derivatives), which needs t > 0.
    """
    n_top = max(n_list)
    derivs = tilde_H_derivatives(n_top, tp, config)
    a, b, t = tp.a, tp.b, tp.t
    rows = []
    with working_precision(config):
        for n in sorted(n_list):
            hv, h1, h2 = derivs[n]
            lhs = (t * h2) ** 2
            mid = n * (n + a + b) - hv + (a + t) * h1
            tail = 4 * h1 * (t * h1 - hv) * (b - h1)
            rows.append(residual_row(
                "hn", n, b, t, config,
                *normalize([lhs, mid ** 2, tail], lhs - mid ** 2 - tail),
                detail=f"a={mp.nstr(a, 8)};deriv=trace"))
            # exact subtraction: ht + shift rounds back to hv exactly
            shift = n * (n + a + b)
            ht = mp.fsub(hv, shift, exact=True)
            t1 = -4 * t * h1 ** 3
            t2 = h1 ** 2 * (4 * ht + (a + 2 * b + t) ** 2 + 4 * shift - 4 * b * (a + b))
            t3 = -2 * h1 * ((a + 2 * b + t) * ht + 2 * n * b * (n + a + b))
            t4 = ht ** 2
            nu = (
                "nu=(0,"
                f"{mp.nstr(-(n + a + b), 8)},{n},{mp.nstr(-b, 8)})"
            )
            rows.append(residual_row(
                "hn-sigma", n, b, t, config,
                *normalize([lhs, t1, t2, t3, t4], lhs - t1 - t2 - t3 - t4),
                detail=f"a={mp.nstr(a, 8)};{nu};deriv=trace"))
            rows.append(residual_row(
                "hn-shift", n, b, t, config,
                *normalize([hv, ht, shift], ht + shift - hv),
                detail="definition"))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows
