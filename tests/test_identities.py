"""Identity residual suite: structure, thresholds, precision scaling."""

import pytest
from mpmath import mp, mpf

from hankelpv.identities import (
    DEFAULT_Z_POINTS,
    IDENTITY_IDS,
    run_identity_suite,
    sign_monitor,
    verify_difference_equations,
    verify_differential,
    verify_integral_representation,
    verify_linear_ode_Pn,
    verify_scalar_identities,
)
from hankelpv.ladder import ROUTE_QUADRATURE, aux_table, initial_R1, initial_r1
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.recurrence import recurrence_table
from hankelpv.weights import make_params

CFG = PrecisionConfig()
CFG_LO = PrecisionConfig(bits=256, target_digits=30)


def test_identity_id_enumeration():
    assert len(IDENTITY_IDS) == 27
    assert len(set(IDENTITY_IDS)) == 27


def test_residual_threshold_values():
    with working_precision(CFG):
        assert CFG.residual_threshold() == mpf(10) ** -30
    with working_precision(CFG_LO):
        assert CFG_LO.residual_threshold() == mpf(10) ** -15


@pytest.fixture(scope="module")
def suite_default():
    p = make_params(1, "0.5", CFG)
    return run_identity_suite(6, p, CFG)


def test_suite_covers_every_id(suite_default):
    rows, _ = suite_default
    assert {row.identity for row in rows} == set(IDENTITY_IDS)


def test_suite_all_rows_pass(suite_default):
    rows, _ = suite_default
    failing = [(r.identity, r.n) for r in rows if not r.passed]
    assert failing == []


def test_suite_no_sign_violations(suite_default):
    _, signs = suite_default
    assert signs == []


def test_suite_expected_trivial_rows(suite_default):
    rows, _ = suite_default
    trivial = {(r.identity, r.n) for r in rows if r.trivial}
    # n=0 degenerations: r_0 = beta_0 = p(0,t) = 0
    assert ("s2p1", 0) in trivial
    assert ("linear-ode-Pn", 0) in trivial
    assert ("pnt", 0) in trivial
    for key in trivial:
        assert key[1] == 0
    for row in rows:
        if row.trivial:
            assert row.residual == 0
            assert row.passed


def test_suite_sorted_and_branch_tags(suite_default):
    rows, _ = suite_default
    keys = [(r.identity, r.n) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        if row.identity in ("Rn-diff", "ode2", "sode") and not row.trivial:
            assert row.branch in ("+", "-", "none")


def test_pv_row_present_at_n2(suite_default):
    rows, _ = suite_default
    row = next(r for r in rows if r.identity == "pv" and r.n == 2)
    assert row.passed and not row.trivial


def test_suite_small_subgrid_high_precision():
    p = make_params("0.7", "0.05", CFG)
    rows, signs = run_identity_suite(4, p, CFG)
    assert signs == []
    with working_precision(CFG):
        for row in rows:
            assert row.passed, (row.identity, row.n, mp.nstr(row.residual, 5))
            if not row.trivial:
                assert row.residual <= mpf(10) ** -30


def test_residuals_shrink_with_precision():
    # genuine identities keep shrinking when both the precision and the
    # certified-digit target double; a wrong equation would plateau
    lo = run_identity_suite(3, make_params(1, "0.5", CFG_LO), CFG_LO)[0]
    hi = run_identity_suite(3, make_params(1, "0.5", CFG), CFG)[0]
    lo_map = {(r.identity, r.n): r for r in lo}
    checked = 0
    with working_precision(CFG):
        for row in hi:
            mate = lo_map[(row.identity, row.n)]
            if row.trivial or mate.residual == 0:
                continue
            assert row.residual <= mate.residual * mpf(10) ** -10, (
                row.identity,
                row.n,
                mp.nstr(mate.residual, 5),
                mp.nstr(row.residual, 5),
            )
            checked += 1
    assert checked > 30


def test_sd_initial_conditions_from_closed_forms():
    # sigma_1 = -R_0 and sigma_2 = -(R_0 + R_1) with the Kummer-form
    # right-hand sides
    p = make_params(1, "0.3", CFG)
    rec = recurrence_table(4, p, CFG)
    aux = aux_table(3, p, CFG, route=ROUTE_QUADRATURE, recurrence=rec)
    with working_precision(CFG):
        r0 = initial_r1(p, CFG)
        r1 = initial_R1(p, CFG)
        tol = mpf(10) ** -30
        assert abs(aux.sigma[1] + r0) < tol * abs(r0)
        assert abs(aux.sigma[2] + r0 + r1) < tol * abs(r0 + r1)


def test_corrupted_value_is_detected():
    # guard against a vacuous suite: a perturbed R_3 must fail rows
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(6, p, CFG)
    aux = aux_table(5, p, CFG, recurrence=rec)
    with working_precision(CFG):
        aux.R[3] = aux.R[3] * (1 + mpf(10) ** -10)
    rows = verify_scalar_identities(4, p, aux, rec, CFG)
    failing = {r.identity for r in rows if not r.passed}
    assert "s1" in failing
    rows = verify_difference_equations(4, p, aux, CFG)
    assert any(not r.passed for r in rows)


def test_integral_representation_direct():
    p = make_params(1, "0.5", CFG)
    row = verify_integral_representation(2, p, "0.5", steps=96, config=CFG)
    with working_precision(CFG):
        assert row.residual < mpf(10) ** -20
    assert row.passed


def test_integral_representation_relaxed_case():
    p = make_params("2.3", 1, CFG)
    row = verify_integral_representation(6, p, 1, steps=72, config=CFG)
    with working_precision(CFG):
        assert row.residual < mpf(10) ** -15


def test_integral_representation_zero_endpoint():
    p = make_params(1, 0, CFG)
    row = verify_integral_representation(2, p, 0, config=CFG)
    assert row.trivial and row.residual == 0


def test_sode_branch_constant_between_root_collisions():
    # the two quadratic roots for r_n collide where r_n = -(-1)^n t
    # (near t=0.456 for n=2, alpha=1); the recorded branch is constant on
    # either side of a collision and may flip across one
    def branch_at(t):
        p = make_params(1, t, CFG)
        rows = verify_differential([2], p, CFG)
        return next(r.branch for r in rows if r.identity == "sode")

    left = [branch_at(t) for t in ("0.3", "0.35", "0.4")]
    right = [branch_at(t) for t in ("0.5", "0.55", "0.6")]
    assert left == ["-"] * 3
    assert right == ["+"] * 3


def test_linear_ode_high_n_point():
    p = make_params("0.7", "0.05", CFG)
    rec = recurrence_table(5, p, CFG)
    aux = aux_table(4, p, CFG, recurrence=rec)
    row = verify_linear_ode_Pn(4, ("0.8",), p, aux, rec, CFG)
    assert row.passed and not row.trivial


def test_sign_monitor_reports_not_raises():
    p = make_params(1, "0.5", CFG)
    rec = recurrence_table(4, p, CFG)
    aux = aux_table(3, p, CFG, recurrence=rec)
    assert sign_monitor(aux) == []
    with working_precision(CFG):
        aux.R[2] = -aux.R[2]
    assert sign_monitor(aux) == [2]
    p0 = make_params(1, 0, CFG)
    rec0 = recurrence_table(3, p0, CFG)
    aux0 = aux_table(2, p0, CFG, recurrence=rec0)
    assert sign_monitor(aux0) == []


def test_suite_determinism():
    p = make_params(1, "0.5", CFG)
    one, _ = run_identity_suite(3, p, CFG)
    two, _ = run_identity_suite(3, p, CFG)
    assert [(r.identity, r.n, r.residual, r.branch) for r in one] == [
        (r.identity, r.n, r.residual, r.branch) for r in two
    ]
