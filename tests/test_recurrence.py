"""Recurrence tables, Hankel determinants, polynomial evaluation."""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from hankelpv import cli, recurrence
from hankelpv.derivatives import derivative_bundle
from hankelpv.precision import PrecisionConfig, digits_capacity, working_precision
from hankelpv.quadrature import integrate_even
from hankelpv.recurrence import (
    PivotError,
    _chebyshev_norms,
    _cholesky,
    _t0_log_det_barnes,
    _t0_log_det_gammas,
    chebyshev_jets,
    eval_poly,
    hankel_det,
    hankel_det_t0,
    jacobi_beta_t0,
    log_derivatives,
    log_det_ratio,
    recurrence_table,
    t_jets,
)
from hankelpv.weights import MomentTable, make_params, moment_entry, weight_value

CFG = PrecisionConfig()


def test_cholesky_rejects_non_positive_definite():
    with working_precision(CFG):
        rows = [[mpf(1), mpf(2)], [mpf(2), mpf(1)]]
        with pytest.raises(PivotError) as excinfo:
            _cholesky(rows)
        assert excinfo.value.index == 1


@pytest.mark.parametrize("moments, index", [
    (["1", "0", "-1"], 1),
    # mu_4 < mu_2^2 / mu_0 breaks Cauchy-Schwarz, so h_2 = mu_4 - mu_2^2/mu_0 < 0
    (["1", "0", "1", "0", "0.5"], 2),
])
def test_chebyshev_rejects_non_positive_definite(moments, index):
    with pytest.raises(PivotError) as excinfo:
        _chebyshev_norms([mpf(m) for m in moments], index + 1, CFG)
    assert excinfo.value.index == index


def test_shorter_pass_is_a_prefix():
    p = make_params("2.3", "0.5", CFG)
    moments = MomentTable.build(p, 80, CFG)
    long = _chebyshev_norms(moments, 41, CFG)
    assert _chebyshev_norms(moments, 17, CFG) == long[:17]
    assert recurrence_table(16, p, CFG).h == long[:17]


def test_hankel_runs_one_pivot_pass(monkeypatch):
    passes = []
    original = recurrence._chebyshev_norms

    def counted(moments, size, config):
        passes.append(size)
        return original(moments, size, config)

    monkeypatch.setattr(recurrence, "_chebyshev_norms", counted)
    with redirect_stdout(io.StringIO()):
        status = cli.main(["hankel", "--alpha", "1", "--t", "0.5", "--n-max", "12",
                           "--bits", "128"])
    assert status == cli.EXIT_OK
    # one recurrence_table(12): the pass holds h_0 .. h_12
    assert passes == [13]


def test_hankel_det_order_one_and_two():
    p = make_params(1, "0.5", CFG)
    with working_precision(CFG):
        mu0 = moment_entry(0, p, CFG)[0]
        mu2 = moment_entry(2, p, CFG)[0]
        ld1 = hankel_det(1, p, CFG)
        ld2 = hankel_det(2, p, CFG)
        assert abs(ld1 - mp.log(mu0)) < mpf(10) ** -140
        assert abs(ld2 - mp.log(mu0 * mu2)) < mpf(10) ** -140


def test_t0_closed_form_order_one():
    with working_precision(CFG):
        assert abs(hankel_det_t0(1, 1, CFG) - mp.log(mpf(4) / 3)) < mpf(10) ** -140


@pytest.mark.parametrize("n,alpha", [(8, "1"), (4, "1"), (2, "0.5"), (5, "2.5")])
def test_t0_closed_form_matches_determinant(n, alpha):
    p = make_params(alpha, 0, CFG)
    with working_precision(CFG):
        ld = hankel_det(n, p, CFG)
        assert abs(ld - hankel_det_t0(n, alpha, CFG)) < mpf(10) ** -60


def test_t0_gamma_line_matches_barnes_line():
    # both closed-form branches must agree wherever both apply
    with working_precision(CFG):
        for n in (1, 3, 6):
            a = mpf(3) / 2
            diff = abs(
                _t0_log_det_barnes(n, a, CFG) - _t0_log_det_gammas(n, a, CFG)
            )
            assert diff < mpf(10) ** -140


@pytest.mark.parametrize("alpha", ["1", "0.7"])
def test_t0_closed_forms_normalise_the_log_determinant(alpha):
    t0 = recurrence_table(8, make_params(alpha, 0, CFG), CFG)
    rec = recurrence_table(8, make_params(alpha, "0.3", CFG), CFG)
    with working_precision(CFG):
        a = mpf(alpha)
        assert all(abs(t0.beta[k] - jacobi_beta_t0(k, a)) < mpf(10) ** -100
                   for k in range(1, 9))
        for n in (1, 2, 8):
            ratio = log_det_ratio(rec.h[0], rec.beta[:n], a, CFG)
            assert abs(ratio - (rec.logD[n] - hankel_det_t0(n, alpha, CFG))) < mpf(10) ** -100


def test_t0_general_alpha_uses_gamma_line():
    p = make_params("0.7", 0, CFG)
    with working_precision(CFG):
        ld = hankel_det(6, p, CFG)
        assert abs(ld - hankel_det_t0(6, "0.7", CFG)) < mpf(10) ** -60


@pytest.mark.parametrize("alpha", ["1", "0.7"])
def test_classical_jacobi_beta_at_t0(alpha):
    # beta_n(0) = n(n+2a) / ((2n+2a-1)(2n+2a+1)) for the symmetric weight
    p = make_params(alpha, 0, CFG)
    table = recurrence_table(8, p, CFG)
    with working_precision(CFG):
        a = p.alpha
        for n in range(1, 9):
            if alpha == "1":
                frac = Fraction(n * (n + 2), (2 * n + 1) * (2 * n + 3))
                expected = mpf(frac.numerator) / frac.denominator
            else:
                expected = n * (n + 2 * a) / ((2 * n + 2 * a - 1) * (2 * n + 2 * a + 1))
            assert abs(table.beta[n] - expected) < mpf(10) ** -60


def test_table_bookkeeping():
    p = make_params("2.3", "0.5", CFG)
    table = recurrence_table(10, p, CFG)
    assert table.beta[0] == 0
    assert table.p1[0] == 0 and table.p1[1] == 0
    assert table.logD[0] == 0
    with working_precision(CFG):
        assert table.p1[2] == -table.beta[1]
        acc = mpf(0)
        for n in range(1, 11):
            assert abs(table.p1[n] + mp.fsum(table.beta[:n])) < mpf(10) ** -140
            acc += mp.log(table.h[n - 1])
            assert abs(table.logD[n] - acc) < mpf(10) ** -140


def test_two_determinant_routes_agree():
    # hankel_det reads a table of order n, and a shorter pass is a prefix
    # of a longer one, bit for bit
    p = make_params("0.7", "0.5", CFG)
    table = recurrence_table(9, p, CFG)
    for n in (3, 5, 9):
        assert hankel_det(n, p, CFG) == table.logD[n]


@pytest.mark.parametrize("alpha", ["0.7", "1", "2.3"])
@pytest.mark.parametrize("t", ["0", "0.05", "0.5", "2"])
def test_h_and_beta_positive_on_grid(alpha, t):
    p = make_params(alpha, t, CFG)
    table = recurrence_table(40, p, CFG)
    assert all(h > 0 for h in table.h)
    assert all(b > 0 for b in table.beta[1:])


def test_pivot_escalation_doubles_bits():
    small = PrecisionConfig(bits=128, target_digits=20)
    p = make_params(1, "0.5", small)
    table = recurrence_table(60, p, small)
    # 128 bits exhaust on the order-60 blocks; the retry must have doubled
    assert table.config.bits == 256
    assert all(h > 0 for h in table.h)


def test_scan_g2_top_table_escalates():
    # the scan-g2 benchmark job's n = 64 table (degree 130 at t = s/(2n^2), s = 1/2)
    # loses a pivot at 256 bits; the workload's one escalation depends on it
    cfg = PrecisionConfig(bits=256, target_digits=30)
    table = recurrence_table(130, make_params(1, mpf(1) / 16384, cfg), cfg)
    assert table.config.bits == 512


@pytest.mark.parametrize("alpha,t", [("1", "0.5"), ("2.5", "3"), ("0.5", "0.01"),
                                     ("1", "1e-5"), ("1", "0")])
def test_table_accuracy_against_quadruple_bits(alpha, t):
    cfg = PrecisionConfig(bits=256, target_digits=30)
    ref_cfg = PrecisionConfig(bits=1024, target_digits=30)
    table = recurrence_table(60, make_params(alpha, t, cfg), cfg)
    ref = recurrence_table(60, make_params(alpha, t, ref_cfg), ref_cfg)
    with working_precision(ref_cfg):
        assert all(abs(table.beta[n] - ref.beta[n]) < mpf(10) ** -27 for n in range(61))
        assert all(abs(table.h[n] / ref.h[n] - 1) < mpf(10) ** -60 for n in range(17))


def test_eval_poly_low_orders():
    p = make_params(1, "0.5", CFG)
    table = recurrence_table(6, p, CFG)
    with working_precision(CFG):
        e0 = eval_poly(0, mpf(7) / 10, table)
        assert (e0.value, e0.d1, e0.d2) == (1, 0, 0)
        e1 = eval_poly(1, mpf(7) / 10, table)
        assert (e1.value, e1.d1, e1.d2) == (mpf(7) / 10, 1, 0)
        e2 = eval_poly(2, mpf(0), table)
        assert abs(e2.value - table.p1[2]) < mpf(10) ** -140


def test_eval_poly_parity_and_monic():
    p = make_params("0.7", "0.5", CFG)
    table = recurrence_table(6, p, CFG)
    with working_precision(CFG):
        x = mpf(1) / 3
        odd = eval_poly(3, x, table)
        odd_neg = eval_poly(3, -x, table)
        assert odd.value == -odd_neg.value
        even = eval_poly(6, x, table)
        even_neg = eval_poly(6, -x, table)
        assert even.value == even_neg.value
        # leading coefficient 1: at x=10 the top power dominates
        ratio = eval_poly(6, mpf(10), table).value / mpf(10) ** 6
        assert abs(ratio - 1) < mpf(1) / 50


def test_eval_poly_derivatives_match_richardson():
    p = make_params("0.7", "0.5", CFG)
    table = recurrence_table(5, p, CFG)
    with working_precision(CFG):
        x = mpf(3) / 10
        got = eval_poly(5, x, table)
        bundle = derivative_bundle(
            lambda z: eval_poly(5, z, table).value, x, CFG
        )
        d1, err1 = bundle[1]
        d2, err2 = bundle[2]
        assert abs(got.d1 - d1) < max(err1, mpf(10) ** -40)
        assert abs(got.d2 - d2) < max(err2, mpf(10) ** -40)


def _log_det_derivatives(jets, cfg, orders=2):
    """[d^k/dt^k ln D_m for m = 0 .. len(jets)] for k = 1 .. orders, from the
    h_k jets: ln D_m is the sum of ln h_k over k < m."""
    with working_precision(cfg):
        slopes = [log_derivatives(jet) for jet in jets]
        return [[mp.fsum(s[k] for s in slopes[:m]) for m in range(len(jets) + 1)]
                for k in range(orders)]


@pytest.mark.parametrize("alpha,t", [(1, "0.5"), ("2.5", "3")])
def test_t_jets_against_stencils(alpha, t):
    # Richardson bundles over ln D_m of tables rebuilt at shifted t; the step
    # balances truncation (h^8) against the determinant noise (eps/h^2)
    cfg = PrecisionConfig(bits=256, target_digits=30)
    p = make_params(alpha, t, cfg)
    d1, d2 = _log_det_derivatives(t_jets(3, p, cfg, 2)[0], cfg)
    tables = {}

    def log_det(m):
        def f(tv):
            key = mpf(tv)._mpf_
            if key not in tables:
                tables[key] = recurrence_table(4, make_params(alpha, tv, cfg), cfg)
            return tables[key].logD[m]
        return f

    assert d1[0] == d2[0] == 0
    with working_precision(cfg):
        h0 = mpf(10) ** (-mpf(digits_capacity(cfg.bits)) / 10)
        for m in range(1, 5):
            bundle = derivative_bundle(log_det(m), p.t, cfg, h0=h0)
            (l1, e1), (l2, e2) = bundle[1], bundle[2]
            assert abs(d1[m] - l1) <= e1
            assert abs(d2[m] - l2) <= e2


def test_t_jets_need_positive_t():
    with pytest.raises(ValueError):
        t_jets(2, make_params(1, 0, CFG), CFG, 1)


def test_series_pass_at_order_zero_is_the_plain_pass():
    # on the even weight the alpha_k terms are exact zeros, so the series
    # pass rounds exactly as the plain one does
    p = make_params("0.7", "0.05", CFG)
    moments = MomentTable.build(p, 78, CFG)
    h, alpha = chebyshev_jets(moments.__getitem__, 40, 0, 2, CFG)
    assert [jet[0] for jet in h] == _chebyshev_norms(moments, 40, CFG)
    assert all(jet == [0] for jet in alpha)


@pytest.mark.parametrize("alpha,t", [(1, "0.5"), ("2.5", "3"), ("0.7", "0.05")])
def test_t_jets_agree_across_precisions(alpha, t):
    # d^k/dt^k ln D_m for k <= 3 and m <= 24; the moment map loses digits
    # with m, and at (2.5, 3) the third derivative of ln D_24 keeps 57 of
    # the 77 digits of 256 bits
    lo_cfg = PrecisionConfig(bits=256, target_digits=30)
    hi_cfg = PrecisionConfig(bits=1024, target_digits=120)
    lo = t_jets(23, make_params(alpha, t, lo_cfg), lo_cfg, 3)[0]
    hi = t_jets(23, make_params(alpha, t, hi_cfg), hi_cfg, 3)[0]
    with working_precision(hi_cfg):
        lo_d, hi_d = (_log_det_derivatives(jets, hi_cfg, 3) for jets in (lo, hi))
        for lo_k, hi_k in zip(lo_d, hi_d):
            for a, b in zip(lo_k[1:], hi_k[1:]):
                assert abs(a - b) <= mpf(10) ** -55 * abs(b)


def test_orthogonality_spot_check():
    p = make_params(1, "0.5", CFG)
    table = recurrence_table(8, p, CFG)
    with working_precision(CFG):
        def inner(m, n):
            def f(x):
                return (
                    eval_poly(m, x, table).value
                    * eval_poly(n, x, table).value
                    * weight_value(x, p)
                )
            return integrate_even(f, CFG)

        for m, n in ((0, 2), (1, 3), (2, 6)):
            value = inner(m, n) / mp.sqrt(table.h[m] * table.h[n])
            assert abs(value) < mpf(10) ** -30
        for n in (0, 3, 8):
            assert abs(inner(n, n) - table.h[n]) < table.h[n] * mpf(10) ** -30


def test_table_determinism():
    p = make_params("2.3", "2", CFG)
    a = recurrence_table(12, p, CFG)
    b = recurrence_table(12, p, CFG)
    assert a.h == b.h and a.beta == b.beta and a.p1 == b.p1 and a.logD == b.logD


def test_moment_reuse_path():
    p = make_params(1, "0.05", CFG)
    moments = MomentTable.build(p, 20, CFG)
    table = recurrence_table(10, p, CFG, moments=moments)
    fresh = recurrence_table(10, p, CFG)
    assert table.h == fresh.h
    # moments built at other bits are rebuilt at the table's, not reused
    wide = MomentTable.build(p, 20, CFG.doubled())
    assert recurrence_table(10, p, CFG, wide).h == fresh.h
