"""Auxiliary quantities: algebraic routes vs defining integrals."""

import pytest
from mpmath import mp, mpf

from hankelpv.derivatives import derivative
from hankelpv.identities import verify_scalar_identities
from hankelpv.ladder import (
    ROUTE_IDENTITY,
    ROUTE_QUADRATURE,
    AuxTable,
    aux_R_oracle,
    aux_r,
    aux_oracles,
    aux_r_oracle,
    aux_table,
    beta_aux_terms,
    difference_run,
    eval_ladder,
    ladder_maps,
    ladder_pieces,
    v_prime,
)
from hankelpv.precision import NumericsError, PrecisionConfig, working_precision
from hankelpv.recurrence import eval_poly, hankel_det, recurrence_table
from hankelpv.weights import make_params

from oracles import initial_R1, initial_r1, ladder_oracle_A, ladder_oracle_B

CFG = PrecisionConfig()


def test_r0_is_zero():
    p = make_params(1, "0.5", CFG)
    table = recurrence_table(2, p, CFG)
    assert aux_r(0, table) == 0


def test_r_rejects_negative_index():
    p = make_params(1, "0.5", CFG)
    table = recurrence_table(2, p, CFG)
    with pytest.raises(ValueError):
        aux_r(-1, table)


@pytest.mark.parametrize("n", range(11))
def test_r_vanishes_at_t_zero(n):
    # the defining integral carries a 2t prefactor, so the algebraic
    # route must reproduce 0 at t=0 up to roundoff
    p = make_params("1.3", 0, CFG)
    table = recurrence_table(11, p, CFG)
    with working_precision(CFG):
        assert abs(ladder_maps(table.beta, p)[1][n]) < mpf(10) ** -60


def test_oracles_trivial_cases():
    p = make_params(1, "0.5", CFG)
    assert aux_r_oracle(0, p, CFG) == 0
    p0 = make_params(1, 0, CFG)
    assert aux_r_oracle(3, p0, CFG) == 0
    assert aux_R_oracle(3, p0, CFG) == 0


@pytest.mark.parametrize("alpha,t", [(1, "0.5")])
def test_cross_route_full_range(alpha, t):
    # identity route (moment determinants) vs quadrature route
    # (defining integrals) for every n <= 12
    p = make_params(alpha, t, CFG)
    rec = recurrence_table(13, p, CFG)
    by_identity = aux_table(12, p, CFG, route=ROUTE_IDENTITY, recurrence=rec)
    by_integral = aux_table(12, p, CFG, route=ROUTE_QUADRATURE, recurrence=rec)
    assert len(by_identity.r) == len(by_integral.r) == 13
    assert len(by_identity.R) == len(by_integral.R) == 13
    with working_precision(CFG):
        tol = mpf(10) ** -30
        for n in range(13):
            scale_r = max(abs(by_identity.r[n]), mpf(1))
            scale_R = max(abs(by_identity.R[n]), mpf(1))
            assert abs(by_identity.r[n] - by_integral.r[n]) < tol * scale_r
            assert abs(by_identity.R[n] - by_integral.R[n]) < tol * scale_R


def test_quadrature_route_makes_one_pass(quadrature_passes):
    # every r_n and R_n comes out of one tanh-sinh pass; the single-index
    # oracles are entries of the same batch, bit for bit
    cfg = PrecisionConfig(bits=128, target_digits=15)
    p = make_params(1, "0.5", cfg)
    rec = recurrence_table(5, p, cfg)
    aux = aux_table(4, p, cfg, route=ROUTE_QUADRATURE, recurrence=rec)
    assert quadrature_passes == [9]  # r_1 .. r_4 and R_0 .. R_4
    assert aux_r_oracle(3, p, cfg, rec) == aux.r[3]
    assert aux_R_oracle(4, p, cfg, rec) == aux.R[4]


@pytest.mark.parametrize("alpha,t", [("2.3", "0.05"), ("0.7", 2)])
def test_cross_route_spot_checks(alpha, t):
    p = make_params(alpha, t, CFG)
    rec = recurrence_table(13, p, CFG)
    r_ints, R_ints = aux_oracles(12, p, CFG, rec)
    with working_precision(CFG):
        _, r_algs, R_algs, _ = ladder_maps(rec.beta, p)
        tol = mpf(10) ** -30
        for n in (0, 5, 12):
            r_alg = r_algs[n]
            R_alg = R_algs[n]
            r_int = r_ints[n]
            R_int = R_ints[n]
            assert abs(r_alg - r_int) < tol * max(abs(r_alg), mpf(1))
            assert abs(R_alg - R_int) < tol * max(abs(R_alg), mpf(1))


@pytest.mark.parametrize("alpha,t", [(1, "0.3"), ("0.7", 2), ("2.3", "0.05")])
def test_initial_values_closed_form(alpha, t):
    # r_1 = R_0 and R_1 in terms of Kummer functions, against the
    # determinant-based route
    p = make_params(alpha, t, CFG)
    rec = recurrence_table(3, p, CFG)
    with working_precision(CFG):
        tol = mpf(10) ** -40
        r1_closed = initial_r1(p, CFG)
        R1_closed = initial_R1(p, CFG)
        _, r, big_r, _ = ladder_maps(rec.beta, p)
        assert abs(r[1] - r1_closed) < tol * max(abs(r1_closed), mpf(1))
        assert abs(big_r[0] - r1_closed) < tol * max(abs(r1_closed), mpf(1))
        assert abs(big_r[1] - R1_closed) < tol * max(abs(R1_closed), mpf(1))


def test_initial_r1_matches_defining_integral():
    p = make_params(1, "0.3", CFG)
    with working_precision(CFG):
        closed = initial_r1(p, CFG)
        integral = aux_R_oracle(0, p, CFG)
        assert abs(closed - integral) < mpf(10) ** -30 * max(abs(closed), mpf(1))


@pytest.mark.parametrize("alpha, t", [(1, "0.5"), ("2.5", "3")])
def test_difference_run_matches_the_identity_route(alpha, t):
    # the seed r_1 against its Kummer closed form, the steps against beta
    p = make_params(alpha, t, CFG)
    r, big_r = difference_run(6, p, CFG)
    aux = aux_table(6, p, CFG)
    with working_precision(CFG):
        assert abs(r[1] - initial_r1(p, CFG)) < mpf(10) ** -100
        assert all(abs(r[n] - aux.r[n]) < mpf(10) ** -100 for n in range(6))
        assert all(abs(big_r[n] - aux.R[n]) < mpf(10) ** -100 for n in range(6))


def test_difference_run_needs_positive_t():
    # at t = 0 every r_n vanishes and the step is 0/0
    with pytest.raises(ValueError):
        difference_run(4, make_params(1, 0, CFG), CFG)


def test_difference_run_raises_where_its_step_divides_by_zero():
    # at t = 1e-300 the seed r_1 rounds to 0 at 128 bits, so A_1 + B_1 = 0
    cfg = PrecisionConfig(bits=128, target_digits=15)
    with pytest.raises(NumericsError, match="n=1, t=1.0e-300"):
        difference_run(9, make_params(1, "1e-300", cfg), cfg)


def test_sigma_bookkeeping():
    p = make_params(1, "0.5", CFG)
    aux = aux_table(4, p, CFG)
    assert aux.sigma[0] == 0
    with working_precision(CFG):
        assert aux.sigma[1] == -aux.R[0]
        expect = -(aux.R[0] + aux.R[1] + aux.R[2])
        assert abs(aux.sigma[3] - expect) < mpf(10) ** -70


@pytest.mark.parametrize("n,alpha,t", [(3, 1, "0.5"), (5, "0.7", "0.8")])
def test_sigma_matches_logdet_derivative(n, alpha, t):
    # sigma_n = 2t d/dt ln D_n, the derivative taken numerically across
    # rebuilt moment tables
    p = make_params(alpha, t, CFG)
    aux = aux_table(n, p, CFG)

    def logdet(tv):
        pv = make_params(alpha, tv, CFG)
        return hankel_det(n, pv, CFG)

    with working_precision(CFG):
        val, err = derivative(logdet, mpf(t), 1, CFG)
        target = 2 * mpf(t) * val
        tol = max(10 * err * 2 * mpf(t), mpf(10) ** -30)
        assert abs(aux.sigma[n] - target) < tol


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
@pytest.mark.parametrize("alpha,t", [(1, "0.5"), ("0.7", "0.05")])
def test_beta_recovery_both_expressions(n, alpha, t):
    # beta_n from (R_n, r_n) as the sum of beta_aux_terms, and from
    # (r_n, sigma_n) by the be4 identity row, its only transcription
    p = make_params(alpha, t, CFG)
    rec = recurrence_table(10, p, CFG)
    aux = aux_table(9, p, CFG, recurrence=rec)
    with working_precision(CFG):
        tol = mpf(10) ** -30
        b_aux = sum(beta_aux_terms(n, aux.R[n], aux.r[n], p))
        assert abs(b_aux - rec.beta[n]) < tol * abs(rec.beta[n])
    be4 = next(row for row in verify_scalar_identities(n, p, aux, rec, CFG)
               if (row.identity, row.n) == ("be4", n))
    assert be4.passed and not be4.trivial
    assert be4.residual < tol


def test_v_prime_value():
    p = make_params(2, "0.5", CFG)
    with working_precision(CFG):
        z = mpf(1) / 4
        expect = -2 * mpf("0.5") / z ** 3 + 2 * 2 * z / (1 - z * z)
        assert v_prime(z, p) == expect


@pytest.mark.parametrize("z", [0, 1, -1])
def test_ladder_pole_rejection(z):
    p = make_params(1, "0.5", CFG)
    aux = aux_table(2, p, CFG)
    with pytest.raises(NumericsError, match="pole"):
        eval_ladder(1, z, aux)


def test_ladder_symmetry_in_z():
    # A_n is even and B_n is odd in z
    p = make_params(1, "0.5", CFG)
    aux = aux_table(4, p, CFG)
    with working_precision(CFG):
        for n in (1, 2, 3, 4):
            ap, bp = eval_ladder(n, mpf("0.37"), aux)
            am, bm = eval_ladder(n, mpf("-0.37"), aux)
            assert ap == am
            assert bp == -bm


@pytest.mark.parametrize("n", [2, 3])
def test_ladder_A_against_defining_integral(n):
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(n + 1, p, CFG)
    aux = aux_table(n, p, CFG, recurrence=rec)
    with working_precision(CFG):
        z = mpf("0.37")
        a_param, _ = eval_ladder(n, z, aux)
        a_int = ladder_oracle_A(n, z, p, CFG, rec)
        assert abs(a_param - a_int) < mpf(10) ** -30 * abs(a_param)


@pytest.mark.parametrize("n", [2, 3])
def test_ladder_B_against_defining_integral(n):
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(n + 1, p, CFG)
    aux = aux_table(n, p, CFG, recurrence=rec)
    with working_precision(CFG):
        z = mpf("0.37")
        _, b_param = eval_ladder(n, z, aux)
        b_int = ladder_oracle_B(n, z, p, CFG, rec)
        assert abs(b_param - b_int) < mpf(10) ** -30 * abs(b_param)


def test_ladder_pieces_derivatives():
    # analytic z-derivatives vs numerical differentiation
    p = make_params(1, "0.5", CFG)
    aux = aux_table(3, p, CFG)
    n = 3
    with working_precision(CFG):
        z = mpf("0.37")
        pieces = ladder_pieces(n, z, aux.R[n], aux.r[n], p)

        def a_of(zz):
            return ladder_pieces(n, zz, aux.R[n], aux.r[n], p)["A"]

        def b_of(zz):
            return ladder_pieces(n, zz, aux.R[n], aux.r[n], p)["B"]

        a1, a1_err = derivative(a_of, z, 1, CFG)
        b1, b1_err = derivative(b_of, z, 1, CFG)
        assert abs(pieces["A1"] - a1) < max(10 * a1_err, mpf(10) ** -35)
        assert abs(pieces["B1"] - b1) < max(10 * b1_err, mpf(10) ** -35)


@pytest.mark.parametrize("z", ["0.2", "0.37", "0.8"])
def test_lowering_relation(z):
    # P_n' + B_n P_n = beta_n A_n P_{n-1} pointwise
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(9, p, CFG)
    aux = aux_table(8, p, CFG, recurrence=rec)
    with working_precision(CFG):
        zv = mpf(z)
        tol = mpf(10) ** -30
        for n in range(1, 9):
            a_val, b_val = eval_ladder(n, zv, aux)
            pn = eval_poly(n, zv, rec)
            pm = eval_poly(n - 1, zv, rec)
            lhs1 = pn.d1
            lhs2 = b_val * pn.value
            rhs = rec.beta[n] * a_val * pm.value
            scale = max(abs(lhs1), abs(lhs2), abs(rhs), mpf(1))
            assert abs(lhs1 + lhs2 - rhs) < tol * scale


@pytest.mark.parametrize("z", ["0.2", "0.37", "0.8"])
def test_raising_relation(z):
    # P_{n-1}' - (B_n + v') P_{n-1} = -A_{n-1} P_n pointwise
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(9, p, CFG)
    aux = aux_table(8, p, CFG, recurrence=rec)
    with working_precision(CFG):
        zv = mpf(z)
        tol = mpf(10) ** -30
        for n in range(1, 9):
            _, b_val = eval_ladder(n, zv, aux)
            a_prev, _ = eval_ladder(n - 1, zv, aux)
            pn = eval_poly(n, zv, rec)
            pm = eval_poly(n - 1, zv, rec)
            lhs1 = pm.d1
            lhs2 = (b_val + v_prime(zv, p)) * pm.value
            rhs = -a_prev * pn.value
            scale = max(abs(lhs1), abs(lhs2), abs(rhs), mpf(1))
            assert abs(lhs1 - lhs2 - rhs) < tol * scale


def test_aux_table_determinism():
    p = make_params("1.7", "0.9", CFG)
    one = aux_table(6, p, CFG)
    two = aux_table(6, p, CFG)
    assert one.r == two.r
    assert one.R == two.R
    assert one.sigma == two.sigma


def test_aux_table_rejects_unknown_route():
    p = make_params(1, "0.5", CFG)
    with pytest.raises(ValueError):
        aux_table(2, p, CFG, route="hybrid")
