"""Auxiliary-weight engine and parity-splitting verification tests."""

import pytest
from mpmath import mp, mpf

from hankelpv.bridge import (
    JMO_IDS,
    PARITY_IDS,
    _boosted_digits,
    eval_tilde_poly,
    make_tilde_params,
    tilde_H_derivatives,
    tilde_moments,
    tilde_moments_and_table,
    tilde_R_lists,
    tilde_weight_value,
    verify_jmo_sigma_form,
    verify_parity_splitting,
)
from hankelpv.derivatives import derivative_bundle
from hankelpv.ladder import aux_R_oracle
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import integrate, integrate_unit_vector
from hankelpv.recurrence import _factor, recurrence_table
from hankelpv.special import exp_beta_moment
from hankelpv.weights import make_params, moment_entry

CFG = PrecisionConfig()
CFG128 = PrecisionConfig(bits=128, target_digits=15)
CFG256 = PrecisionConfig(bits=256, target_digits=30)
HALF = mpf("0.5")


@pytest.fixture(scope="module")
def table_neg():
    tp = make_tilde_params(-HALF, 1, "0.5", CFG)
    return tilde_moments_and_table(3, tp, CFG)


@pytest.fixture(scope="module")
def parity_rows():
    p = make_params(1, "0.5", CFG)
    return verify_parity_splitting(2, p, CFG)


def test_tilde_params_validation():
    with pytest.raises(ValueError):
        make_tilde_params(-1, 1, "0.5", CFG)
    with pytest.raises(ValueError):
        make_tilde_params(-HALF, 0, "0.5", CFG)
    with pytest.raises(ValueError):
        make_tilde_params(-HALF, 1, "-0.1", CFG)


def test_tilde_weight_outside_support():
    tp = make_tilde_params(-HALF, 1, "0.5", CFG)
    assert tilde_weight_value(0, tp) == 0
    assert tilde_weight_value(1, tp) == 0
    assert tilde_weight_value("1.2", tp) == 0
    with working_precision(CFG):
        assert tilde_weight_value("0.5", tp) > 0


@pytest.mark.parametrize("a", ["-0.5", "0.5"])
@pytest.mark.parametrize("j", [0, 1, 4])
def test_tilde_moment_two_routes(a, j):
    # quadrature against the confluent-U closed form
    tp = make_tilde_params(a, "2.3", "0.05", CFG)
    with working_precision(CFG):
        quad = tilde_moments(j, j, tp, CFG)[0]
        closed = exp_beta_moment(j + tp.a, tp.b, tp.t, CFG)
        assert abs(quad - closed) < mpf(10) ** -60 * abs(closed)


@pytest.mark.parametrize("alpha,t", [(1, "0.5"), ("0.7", "0.05")])
def test_tilde_moment_change_of_variables(alpha, t):
    # x = y^2 maps the auxiliary moments onto the main even moments
    p = make_params(alpha, t, CFG)
    neg = tilde_moments(0, 3, make_tilde_params(-HALF, alpha, t, CFG), CFG)
    pos = tilde_moments(0, 3, make_tilde_params(HALF, alpha, t, CFG), CFG)
    with working_precision(CFG):
        for j in range(4):
            main_even = moment_entry(2 * j, p, CFG)[0]
            assert abs(neg[j] - main_even) < mpf(10) ** -60 * abs(main_even)
            main_next = moment_entry(2 * j + 2, p, CFG)[0]
            assert abs(pos[j] - main_next) < mpf(10) ** -60 * abs(main_next)


@pytest.mark.parametrize("a", ["-0.5", "0.5"])
def test_negative_order_moments_two_routes(a):
    # mu~_{-k} enter the t-derivatives of the moment matrix; finite for t > 0
    tp = make_tilde_params(a, "2.3", "0.05", CFG256)
    with working_precision(CFG256):
        quad = tilde_moments(-3, -1, tp, CFG256)
        for j, value in zip((-3, -2, -1), quad):
            closed = exp_beta_moment(j + tp.a, tp.b, tp.t, CFG256)
            assert abs(value - closed) < mpf(10) ** -30 * abs(closed)


def test_negative_order_moments_need_positive_t():
    tp = make_tilde_params(HALF, 1, 0, CFG)
    with pytest.raises(ValueError):
        tilde_moments(-1, 2, tp, CFG)


def test_tilde_moment_beta_at_t0():
    tp = make_tilde_params(-HALF, "1.5", 0, CFG)
    with working_precision(CFG):
        for j in (0, 2):
            quad = tilde_moments(j, j, tp, CFG)[0]
            closed = exp_beta_moment(j + tp.a, tp.b, tp.t, CFG)
            assert abs(quad - closed) < mpf(10) ** -60 * abs(closed)


def test_tilde_polys_orthogonal(table_neg):
    tp, config = table_neg.tp, table_neg.config
    with working_precision(config):
        tol = mpf(10) ** -50
        pairs = ((1, 0), (2, 1), (3, 0), (3, 2), (0, 0), (2, 2), (3, 3))

        def f(y):
            tw = tilde_weight_value(y, tp)
            if tw == 0:
                return [mpf(0)] * len(pairs)
            return [eval_tilde_poly(i, y, table_neg) * eval_tilde_poly(j, y, table_neg) * tw
                    for i, j in pairs]

        inner = dict(zip(pairs, integrate_unit_vector(f, len(pairs), config)))
        for i, j in pairs:
            h = table_neg.tilde_h[min(i, j)]
            expected = h if i == j else 0
            assert abs(inner[i, j] - expected) < tol * h


def test_orthogonality_detects_corruption(table_neg):
    import copy

    broken = copy.copy(table_neg)
    with working_precision(CFG):
        broken.rec_a = list(table_neg.rec_a)
        # the shift enters the inner product damped by roughly 1/200
        broken.rec_a[1] += mpf(10) ** -10

        def f(y):
            tw = tilde_weight_value(y, table_neg.tp, )
            if tw == 0:
                return mpf(0)
            return eval_tilde_poly(2, y, broken) * eval_tilde_poly(1, y, broken) * tw

        assert abs(integrate(f, (0, 1), CFG)) > mpf(10) ** -14


def test_table_structure(table_neg):
    assert table_neg.n_top == 3
    assert len(table_neg.tilde_h) == 4
    assert len(table_neg.tilde_logD) == 5
    assert len(table_neg.H) == 5
    assert len(table_neg.Rstar) == 4
    assert len(table_neg.Rtilde) == 4
    with working_precision(CFG):
        acc = mpf(0)
        for n in range(5):
            assert table_neg.tilde_logD[n] == acc
            if n < 4:
                acc += mp.log(table_neg.tilde_h[n])


def test_rstar_rtilde_relation(table_neg):
    tp = table_neg.tp
    with working_precision(CFG):
        for n in range(4):
            lhs = table_neg.Rstar[n]
            rhs = table_neg.Rtilde[n] - 2 * n - 1 - tp.a - tp.b
            assert abs(lhs - rhs) < mpf(10) ** -50 * max(abs(lhs), mpf(1))


def test_h_column_zero_at_t0():
    tp = make_tilde_params(HALF, 1, 0, CFG)
    table = tilde_moments_and_table(1, tp, CFG)
    assert table.H == [mpf(0)] * 3
    assert table.Rstar == [mpf(0)] * 2


def test_parity_ids_complete(parity_rows):
    assert {r.identity for r in parity_rows} == set(PARITY_IDS)


def test_parity_rows_all_pass(parity_rows):
    failing = [(r.identity, r.n) for r in parity_rows if not r.passed]
    assert failing == []
    with working_precision(CFG):
        for r in parity_rows:
            if not r.trivial:
                assert r.residual <= mpf(10) ** -30, (r.identity, r.n)


def test_parity_trivial_rows(parity_rows):
    trivial = sorted((r.identity, r.n) for r in parity_rows if r.trivial)
    assert trivial == [("hd1", 0), ("re3", 0), ("rs1", 0)]


def test_parity_rows_sorted(parity_rows):
    keys = [(r.identity, r.n) for r in parity_rows]
    assert keys == sorted(keys)


def test_dou1_n0_both_sides_by_quadrature(table_neg):
    p = make_params(1, "0.5", CFG)
    with working_precision(CFG):
        main = aux_R_oracle(0, p, CFG)
        stars, rtildes = tilde_R_lists(0, table_neg)
        assert abs(main - 2 * stars[0]) < mpf(10) ** -50 * abs(main)
    # a one-index pass reproduces the table's batch entries, bit for bit
    assert stars[0] == table_neg.Rstar[0]
    assert rtildes[0] == table_neg.Rtilde[0]


def test_jmo_rows():
    tp = make_tilde_params(-HALF, 1, "0.5", CFG)
    rows = verify_jmo_sigma_form((1, 2), tp, CFG)
    assert {r.identity for r in rows} == set(JMO_IDS)
    assert all(r.passed for r in rows)
    with working_precision(CFG):
        for r in rows:
            if r.identity in ("hn", "hn-sigma"):
                assert r.residual <= mpf(10) ** -30, (r.identity, r.n)
    shift = [r for r in rows if r.identity == "hn-shift"]
    assert all(r.residual == 0 for r in shift)
    sig2 = next(r for r in rows if r.identity == "hn-sigma" and r.n == 2)
    assert "nu=(0,-2.5,2,-1.0)" in sig2.detail


def test_jmo_rejects_t0():
    tp = make_tilde_params(-HALF, 1, 0, CFG)
    with pytest.raises(ValueError):
        verify_jmo_sigma_form((1,), tp, CFG)


def test_exact_H_derivatives_against_stencils():
    # the one finite-difference check of the trace formulas: Richardson
    # stencils over the quadrature log-determinant give H and H', and over
    # the exact H give H''; each agrees within the stencil's error bar
    n, a, b = 2, -HALF, 1
    tp = make_tilde_params(a, b, "0.5", CFG128)
    hv, h1, h2 = tilde_H_derivatives(n, tp, CFG128)[n]
    digits = _boosted_digits(CFG128)

    def log_det(tv):
        shifted = make_tilde_params(a, b, tv, CFG128)
        mu = tilde_moments(0, 2 * n - 2, shifted, CFG128, target_digits=digits)
        lower, _inv = _factor(mu, n, CFG128)
        return mp.fsum(mp.log(lower[k][k] ** 2) for k in range(n))

    def exact_h(tv):
        return tilde_H_derivatives(n, make_tilde_params(a, b, tv, CFG128), CFG128)[n][0]

    with working_precision(CFG128):
        # balances stencil truncation (h^8) against quadrature noise (eps/h^2)
        h0 = mpf(10) ** (-mpf(digits) / 10)
        bundle = derivative_bundle(log_det, tp.t, CFG128, h0=h0)
        (l1, e1), (l2, e2) = bundle[1], bundle[2]
        d2, e2h = derivative_bundle(exact_h, tp.t, CFG128, orders=(2,), h0=h0)[2]
        t = tp.t
        assert abs(hv - t * l1) <= t * e1
        assert abs(h1 - (l1 + t * l2)) <= e1 + t * e2
        assert abs(h2 - d2) <= e2h


@pytest.mark.parametrize("t", ["0.5", "0"])
def test_tilde_table_makes_two_passes(quadrature_passes, t):
    tilde_moments_and_table(2, make_tilde_params(-HALF, 1, t, CFG128), CFG128)
    # moments mu~_{-1} .. mu~_4, then Rtilde_0..2 (and Rstar_0..2 when t > 0)
    assert quadrature_passes == ([6, 6] if t == "0.5" else [5, 3])


def test_jmo_rows_make_one_pass(quadrature_passes):
    verify_jmo_sigma_form((1, 2), make_tilde_params(-HALF, 1, "0.5", CFG128), CFG128)
    assert quadrature_passes == [6]  # mu~_{-3} .. mu~_2


def test_small_t_H_agrees_across_precisions():
    # at t = 0.001 the boundary layer of e^{-t/x} sits near x = 0, where the
    # (0, 1) node map keeps full relative precision
    cfg192 = PrecisionConfig(bits=192, target_digits=22)
    lo = tilde_moments_and_table(3, make_tilde_params(-HALF, 1, "0.001", CFG128), CFG128)
    hi = tilde_moments_and_table(3, make_tilde_params(-HALF, 1, "0.001", cfg192), cfg192)
    with working_precision(cfg192):
        assert abs(lo.H[4] - hi.H[4]) < mpf(10) ** -25 * abs(hi.H[4])


def test_eval_tilde_poly_bounds(table_neg):
    with pytest.raises(ValueError):
        eval_tilde_poly(-1, "0.5", table_neg)
    with pytest.raises(ValueError):
        eval_tilde_poly(9, "0.5", table_neg)
    assert eval_tilde_poly(0, "0.5", table_neg) == 1


def test_transplant_against_main_polys(table_neg):
    # tilde_P_j(y^2) at a=-1/2 equals the main even polynomial at y
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(6, p, CFG)
    with working_precision(CFG):
        from hankelpv.recurrence import eval_poly

        for j in (1, 3):
            y = mpf("0.44")
            lhs = eval_tilde_poly(j, y * y, table_neg)
            rhs = eval_poly(2 * j, y, rec).value
            assert abs(lhs - rhs) < mpf(10) ** -60 * max(abs(rhs), mpf(1))


def test_rtilde_positive(table_neg):
    # b/(1-y) moment of a squared polynomial against a positive weight
    for v in table_neg.Rtilde:
        assert v > 0
