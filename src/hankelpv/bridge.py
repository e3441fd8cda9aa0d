"""Auxiliary weight x^a (1-x)^b e^{-t/x} on (0,1) and the parity splitting.

Because the main weight is even, the quantity of main index m = 2n + e,
e in {0, 1}, is a quantity of this auxiliary system at a = e - 1/2 (even
indices at a = -1/2, odd ones at a = +1/2), with b = alpha in both cases.
The module builds the auxiliary orthogonality data from scratch
(quadrature moments, then the norms and three-term coefficients by
Chebyshev's algorithm) and verifies the splitting against the main
engine, each relation once for both parities, with k = n + e:

  polynomial transplant  y^e tilde_P_n(y^2, e - 1/2) = P_m(y)
  norm mapping           h_m = tilde_h_n(e - 1/2)
  determinant product    D_m = tilde_D_n(+1/2) tilde_D_k(-1/2)
  sigma sum              sigma_m = 2[H_n(+1/2) + H_k(-1/2)]
  R doubling             R_m = 2 Rstar_n(e - 1/2)

where H_n(t,a,b) = t d/dt ln tilde_D_n. H_n and its t-derivatives are
exact, not finite differences: differentiating under the integral gives
d/dt mu~_j = -mu~_{j-1}, finite for t > 0, so the moments' Taylor series
at t are moments of lower order, and Chebyshev's algorithm run on those
series (recurrence.chebyshev_jets) gives the jets of every tilde_h_k and
so the derivatives of ln tilde_D_n at a single t. One moments-and-jets
pass (_tilde_jets) runs at the order its suite needs: order 1 for the
parity tables' H_n, order 3 for the jmo rows' H_n, H_n' and H_n''. One
more quadrature pass gives the parity tables every Rstar_n and Rtilde_n.
The two parity tables share both passes: mu~_j(+1/2) = mu~_{j+1}(-1/2),
and the weight at a = +1/2 is x times the one at -1/2.

The empty determinant is taken as tilde_D_0 := 1, so product and sum
relations hold at n = 0 as exact trivial rows.
"""

from __future__ import annotations

from typing import NamedTuple

from mpmath import mp, mpf

from .ladder import aux_table
from .precision import PrecisionConfig, digits_capacity, to_mpf, working_precision
from .quadrature import clamped_exp, integrate_unit_vector
from .recurrence import (chebyshev_jets, eval_poly, log_derivatives, recurrence_table,
                         three_term_values)
from .report import normalize, residual_row, worst_sample

DEFAULT_Y_POINTS = ("0.3", "0.62", "0.85")


class TildeParams(NamedTuple):
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


def tilde_weight_value(x, tp: TildeParams, one_minus_x=None) -> mpf:
    """x^a (1-x)^b e^{-t/x} at ambient precision, 0 outside (0,1).

    one_minus_x, when given, is 1 - x at full relative precision (a
    quadrature node's), so (1-x)^b keeps its digits where x rounds onto 1.
    """
    x = mpf(x)
    omx = 1 - x if one_minus_x is None else one_minus_x
    if x <= 0 or omx <= 0:
        return mpf(0)
    # the decay factor goes first so the x^a spike at 0 for a < 0 is
    # multiplied by an exact zero once the exponential underflows
    decay = mpf(1) if tp.t == 0 else clamped_exp(-tp.t / x, -tp.t)
    if decay == 0:
        return mpf(0)
    return decay * x ** tp.a * omx ** tp.b


def tilde_moments(j_lo: int, j_hi: int, tp: TildeParams, config: PrecisionConfig,
                  target_digits=None) -> list:
    """Moments of orders j_lo .. j_hi against the auxiliary weight, by quadrature.

    One vector quadrature pass evaluates the weight once per node. Orders
    below 0 are finite only for t > 0, where e^{-t/x} beats every power
    of x at 0; they give the t-derivatives, d/dt mu~_j = -mu~_{j-1}.
    """
    if j_lo > j_hi:
        raise ValueError("empty moment range")
    if j_lo < 0 and tp.t == 0:
        raise ValueError("moments of negative order need t > 0")
    size = j_hi - j_lo + 1

    def f(x, omx):
        tw = tilde_weight_value(x, tp, omx)
        if tw == 0:
            return [mpf(0)] * size
        # up and down from j = 0: each order's integrand is the same in every pass
        powers = {0: tw}
        for j in range(1, j_hi + 1):
            powers[j] = powers[j - 1] * x
        for j in range(-1, j_lo - 1, -1):
            powers[j] = powers[j + 1] / x
        return [powers[j] for j in range(j_lo, j_hi + 1)]

    return integrate_unit_vector(f, size, config, target_digits, t=tp.t, exponent=tp.b,
                                 exponent_at_zero=tp.a)


def _boosted_digits(config: PrecisionConfig) -> int:
    # H_n and its t-derivatives come from the moments through Chebyshev's
    # algorithm and are compared with the main engine at roundoff level, so
    # the moment quadratures run near capacity, not at target_digits
    return max(config.target_digits, digits_capacity(config.bits) - 5)


class TildeTable(NamedTuple):
    """Auxiliary orthogonality data for degrees up to n_top.

    tilde_logD and H carry one extra index (n_top + 1) because the
    odd-index splitting relations pair index n of one engine with index
    n + 1 of the other.
    """

    tp: TildeParams
    config: PrecisionConfig
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


def tilde_R_lists(n_top: int, *tables) -> list:
    """Rstar and Rtilde for n <= n_top - s of each tables[s] (at a = a_0 + s)
    in turn, from one quadrature pass.

    Rstar_n = (t / tilde_h_n) int tilde_P_n^2 w~/x and
    Rtilde_n = (b / tilde_h_n) int tilde_P_n^2 w~/(1-x). The pass evaluates
    w~ at a_0 once per node (at a_0 + s it is x^s times that) and each
    table's tilde_P_n in one sweep.
    """
    tp, config = tables[0].tp, tables[0].config
    counts = [n_top + 1 - s for s in range(len(tables))]
    # at t = 0 the t prefactor of Rstar beats the integrable endpoint divergence
    star = tp.t != 0
    size = sum(counts) * (2 if star else 1)

    def f(y, omy):
        tw = tilde_weight_value(y, tp, omy)
        if tw == 0:
            return [mpf(0)] * size
        out = []
        for s, (table, count) in enumerate(zip(tables, counts)):
            ws = tw * y ** s
            squares = [v * v for v in three_term_values(count - 1, y, table.rec_a, table.rec_b)]
            factors = (ws / omy, ws / y) if star else (ws / omy,)
            out += [q * g for g in factors for q in squares]
        return out

    # Rtilde's integrand behaves like (1-y)^(b-1) at y = 1 and, at t = 0,
    # like y^a_0 at y = 0
    values = iter(integrate_unit_vector(f, size, config, t=tp.t, exponent=tp.b - 1,
                                        exponent_at_zero=tp.a))
    lists = []
    with working_precision(config):
        for table, count in zip(tables, counts):
            h = table.tilde_h[:count]
            rtilde = [tp.b * next(values) / hn for hn in h]
            rstar = [tp.t * next(values) / hn for hn in h] if star else [mpf(0)] * count
            lists += [rstar, rtilde]
    return lists


def _tilde_jets(n_max: int, tp: TildeParams, config: PrecisionConfig, order: int,
                count: int = 1) -> tuple:
    """chebyshev_jets to the given order, (h jets, alpha jets), for each table
    at a = tp.a + s, s < count, in turn: degrees up to n_max - s.

    One quadrature pass gives mu~_{-order} .. mu~_{2 n_max} at a = tp.a, and
    mu~_j(a + s) = mu~_{j+s}(a). d/dt mu~_j = -mu~_{j-1}, so a jet coefficient
    of order k reads only the moments down to mu~_{-k}, and each moment comes
    out the same whatever the order.
    """
    values = tilde_moments(-order, max(2 * n_max, -order), tp, config,
                           target_digits=_boosted_digits(config))
    mu = dict(zip(range(-order, 2 * n_max + 1), values))
    return sum((chebyshev_jets(lambda j, s=s: mu[j + s], n_max + 1 - s, order, 1, config)
                for s in range(count)), ())


def _log_det_derivatives(jets, order: int) -> list:
    """ln tilde_D_n and its first `order` t-derivatives, each a list over
    n = 0 .. len(jets) of exact-rounded fsums over the jets of tilde_h_k, k < n."""
    terms = [[mp.log(jet[0])] + log_derivatives(jet)[:order] for jet in jets]
    return [[mp.fsum(term[k] for term in terms[:n]) for n in range(len(jets) + 1)]
            for k in range(order + 1)]


def _tilde_tables(n_top: int, tp: TildeParams, config: PrecisionConfig, count: int) -> list:
    """The auxiliary tables at a = tp.a + s to degree n_top - s, s < count,
    from two quadrature passes that they share.

    _tilde_jets at order 1 (order 0 at t = 0) gives tilde_h, the three-term
    coefficients and H_n = t sum_{k<n} tilde_h_k' / tilde_h_k; tilde_R_lists
    gives every Rstar_n and Rtilde_n from their defining integrals.
    """
    order = 1 if tp.t > 0 else 0
    flat = _tilde_jets(n_top, tp, config, order, count)
    tables = []
    for s, (jets, alpha) in enumerate(zip(flat[::2], flat[1::2])):
        with working_precision(config):
            h = [jet[0] for jet in jets]
            rec_b = [mpf(0)] + [h[j] / h[j - 1] for j in range(1, len(h))]
            logd, *slopes = _log_det_derivatives(jets, order)
            # at t = 0, H = t dln(tilde_D)/dt vanishes (the log-derivative
            # grows at most like an inverse square root as t -> 0)
            H = [tp.t * d1 for d1 in slopes[0]] if order else [mpf(0)] * len(logd)
            tables.append(TildeTable(tp=tp._replace(a=tp.a + s), config=config, tilde_h=h,
                                     tilde_logD=logd, rec_a=[jet[0] for jet in alpha],
                                     rec_b=rec_b, H=H, Rstar=[], Rtilde=[]))
    lists = tilde_R_lists(n_top, *tables)
    return [table._replace(Rstar=rstar, Rtilde=rtilde)
            for table, rstar, rtilde in zip(tables, lists[::2], lists[1::2])]


def tilde_moments_and_table(n_max: int, tp: TildeParams, config: PrecisionConfig) -> TildeTable:
    """The full auxiliary table to degree n_max: _tilde_tables for the one table."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    return _tilde_tables(n_max, tp, config, 1)[0]


def tilde_H_derivatives(n_top: int, tp: TildeParams, config: PrecisionConfig):
    """[(H_n, dH_n/dt, d2H_n/dt2) for n = 0 .. n_top] at the one t > 0 of tp.

    _tilde_jets at order 3 gives the jets of tilde_h_k for k < n_top. With
    L1, L2, L3 the first three t-derivatives of ln tilde_D_n, H = t L1,
    dH/dt = L1 + t L2 and d2H/dt2 = 2 L2 + t L3.
    """
    if not tp.t > 0:
        raise ValueError("the jmo rows need t > 0: the t-derivatives of H_n use "
                         "moments of negative order")
    jets, _alpha = _tilde_jets(n_top - 1, tp, config, 3)
    t = tp.t
    with working_precision(config):
        _logd, l1, l2, l3 = _log_det_derivatives(jets, 3)
        return [(t * l1[n], l1[n] + t * l2[n], 2 * l2[n] + t * l3[n])
                for n in range(n_top + 1)]


def verify_parity_splitting(n_max: int, params, config: PrecisionConfig):
    """Residual rows for the even/odd splitting relations at n <= n_max.

    Each relation is one statement about the main index m = 2n + e,
    e = 0 (even) or 1 (odd), against the auxiliary table at a = e - 1/2:
    de, rela and dou read that table at n; hd, re and rs pair the
    a = +1/2 table at n with the a = -1/2 table at k = n + e, which is
    why that one is built to n_max + 1. The main side comes from the
    U-anchored Pearson moments and the recurrence ladder; the auxiliary
    side is quadrature-built end to end, so every row compares two
    independent routes.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    rec = recurrence_table(2 * n_max + 2, params, config)
    aux = aux_table(2 * n_max + 1, params, config, recurrence=rec)
    half = mpf("0.5")
    alpha, t = params.alpha, params.t
    # tables[e] is the auxiliary table at a = e - 1/2, to degree n_max + 1 - e
    tables = _tilde_tables(n_max + 1, make_tilde_params(-half, alpha, t, config), config, 2)
    detail = "y=" + ",".join(DEFAULT_Y_POINTS)
    rows = []
    with working_precision(config):
        # at t = 0, sigma_n and H_n vanish: the identity route leaves roundoff
        # in sigma and H is an exact 0, so the sigma rows take a unit floor
        # as the transplant rows do
        floor = 1 if t == 0 else 0
        for e, (de, rela, hd, re, rs, dou) in enumerate((
                ("de1", "rela1", "hd1", "re3", "rs1", "dou1"),
                ("de2", "rela2", "hd2", "re4", "rs2", "dou2"))):
            tt = tables[e]
            for n in range(n_max + 1):
                m, k = 2 * n + e, n + e

                # transplant: y^e tilde_P_n(y^2) = P_m(y), the scale floored at 1
                samples = [normalize([three_term_values(n, y * y, tt.rec_a, tt.rec_b)[n] * y ** e,
                                      -eval_poly(m, y, rec).value], floor=1)
                           for y in map(mpf, DEFAULT_Y_POINTS)]
                rows.append(residual_row(de, n, alpha, t, config,
                                         *worst_sample(samples), detail=detail))

                rows.append(residual_row(rela, n, alpha, t, config,
                                         *normalize([rec.h[m], -tt.tilde_h[n]])))

                rows.append(residual_row(hd, n, alpha, t, config, *normalize(
                    [rec.logD[m], -tables[1].tilde_logD[n], -tables[0].tilde_logD[k]])))

                sig = aux.sigma[m]
                ha, hb = tables[1].H[n], tables[0].H[k]
                rows.append(residual_row(re, n, alpha, t, config,
                                         *normalize([sig, -2 * ha, -2 * hb], floor=floor)))

                # the two subtracted shifts sum to m (n + alpha + e/2)
                rows.append(residual_row(rs, n, alpha, t, config, *normalize([
                    sig,
                    -2 * (ha - n * (n + half + alpha)),
                    -2 * (hb - k * (k - half + alpha)),
                    -2 * m * (n + alpha + e * half),
                ])))

                # R = 2 (Rtilde - shift) cancels down to R, which vanishes at
                # t = 0, so the scale holds the cancelling magnitudes too
                big = aux.R[m]
                rows.append(residual_row(dou, n, alpha, t, config, *normalize(
                    [big, -2 * tt.Rstar[n]],
                    [big, -2 * tt.Rtilde[n], 2 * (m + half + alpha)])))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows


def verify_jmo_sigma_form(n_list, tp: TildeParams, config: PrecisionConfig):
    """Residual rows for the second-order equation satisfied by H_n.

    For each n: the (hn) form in H_n itself, the shifted sigma-form in
    tilde_H_n = H_n - n(n+a+b) with its Painleve V parameter tuple
    recorded in the detail column, and the exact shift bookkeeping row.
    H_n, H_n' and H_n'' are exact t-derivatives from one moment table at
    t (tilde_H_derivatives), which needs t > 0, and distinct orders n >= 0,
    in any order.
    """
    if min(n_list) < 0:
        raise ValueError(f"the jmo rows need orders n >= 0, got {min(n_list)}")
    if len(set(n_list)) != len(n_list):
        raise ValueError("the jmo orders must not repeat")
    n_top = max(n_list)
    derivs = tilde_H_derivatives(n_top, tp, config)
    a, b, t = tp.a, tp.b, tp.t
    rows = []
    with working_precision(config):
        for n in sorted(n_list):
            hv, h1, h2 = derivs[n]
            lhs = (t * h2) ** 2
            rows.append(residual_row("hn", n, b, t, config, *normalize([
                lhs,
                -(n * (n + a + b) - hv + (a + t) * h1) ** 2,
                -4 * h1 * (t * h1 - hv) * (b - h1),
            ]), detail=f"a={mp.nstr(a, 8)};deriv=jet"))
            # exact subtraction: ht + shift rounds back to hv exactly
            shift = n * (n + a + b)
            ht = mp.fsub(hv, shift, exact=True)
            nu = f"nu=(0,{mp.nstr(-(n + a + b), 8)},{n},{mp.nstr(-b, 8)})"
            rows.append(residual_row("hn-sigma", n, b, t, config, *normalize([
                lhs,
                4 * t * h1 ** 3,
                -h1 ** 2 * (4 * ht + (a + 2 * b + t) ** 2 + 4 * shift - 4 * b * (a + b)),
                2 * h1 * ((a + 2 * b + t) * ht + 2 * n * b * (n + a + b)),
                -ht ** 2,
            ]), detail=f"a={mp.nstr(a, 8)};{nu};deriv=jet"))
            rows.append(residual_row("hn-shift", n, b, t, config,
                                     *normalize([ht, shift, -hv]), detail="definition"))
    rows.sort(key=lambda row: (row.identity, row.n))
    return rows
