"""Identity residual suite: structure, thresholds, precision scaling."""

import pytest
from mpmath import mp, mpf

from hankelpv import identities
from hankelpv.identities import (
    DEFAULT_Z_POINTS,
    run_identity_suite,
    sign_monitor,
    verify_difference_equations,
    verify_differential,
    verify_integral_representation,
    verify_linear_ode_Pn,
    verify_scalar_identities,
)
from hankelpv.ladder import ROUTE_QUADRATURE, aux_table
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import ConvergenceError
from hankelpv.recurrence import recurrence_table
from hankelpv.report import normalize, worst_sample
from hankelpv.weights import make_params

from oracles import initial_R1, initial_r1

CFG = PrecisionConfig()
CFG_LO = PrecisionConfig(bits=256, target_digits=30)

IDENTITY_IDS = (
    "s1",
    "s21",
    "s22",
    "s2",
    "s2p1",
    "s2p2",
    "s2p3",
    "imp",
    "be3",
    "be4",
    "rn-diff",
    "Rn-diff",
    "ricca1",
    "ricca2",
    "ode",
    "pv",
    "ode2",
    "eq1",
    "eq2",
    "pnt",
    "sode",
    "sd",
    "sr",
    "integral-rep",
    "linear-ode-Pn",
    "lowering",
    "raising",
)


def test_identity_id_enumeration():
    assert len(IDENTITY_IDS) == 27
    assert len(set(IDENTITY_IDS)) == 27


def test_residual_threshold_values():
    with working_precision(CFG):
        assert CFG.residual_threshold() == mpf(10) ** -30
    with working_precision(CFG_LO):
        assert CFG_LO.residual_threshold() == mpf(10) ** -15


def test_normalize_two_relations_share_one_scale():
    with working_precision(CFG):
        scale, residual = normalize([mpf(3), mpf(-2), mpf(-1)], [mpf(3), mpf(-4), mpf(0.5)])
        assert (scale, residual) == (4, mpf(0.5) / 4)


def test_normalize_floor():
    with working_precision(CFG):
        assert normalize([mpf(2), mpf(-2)], floor=1) == (2, 0)
        assert normalize([mpf(0.25), mpf(-0.125)], floor=1) == (1, mpf(0.125))
        # both sides vanishing exactly still makes a checked row at the floor
        assert normalize([mpf(0), mpf(0)], floor=1) == (1, 0)


def test_normalize_without_terms_is_trivial():
    with working_precision(CFG):
        assert normalize() == (0, None)
        assert normalize([mpf(0), mpf(0)], [mpf(0)]) == (0, None)


def test_worst_sample_keeps_the_first_on_a_tie():
    samples = [(mpf(2), mpf(0.5)), (mpf(0), None), (mpf(3), mpf(0.5)), (mpf(1), mpf(0.25))]
    assert worst_sample(samples) == (2, mpf(0.5))
    assert worst_sample([(mpf(2), mpf(0)), (mpf(3), mpf(0))]) == (2, 0)


def test_worst_sample_of_trivial_samples_is_trivial():
    assert worst_sample([(mpf(0), None), (mpf(0), None)]) == (0, None)
    assert worst_sample([]) == (0, None)


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
    row = verify_integral_representation(2, p, CFG)
    with working_precision(CFG):
        assert row.residual < mpf(10) ** -20
    assert row.passed


def test_integral_representation_relaxed_case():
    p = make_params("2.3", 1, CFG)
    row = verify_integral_representation(6, p, CFG)
    with working_precision(CFG):
        assert row.residual < mpf(10) ** -15
    assert row.passed


def test_integral_representation_resolves_a_steep_R_n():
    # a fixed node count once under-resolved R_n here: residual 2.7e-14
    row = verify_integral_representation(3, make_params("2.5", 3, CFG_LO), CFG_LO)
    assert row.passed
    assert row.residual < CFG_LO.residual_threshold()


@pytest.mark.parametrize("m", [2, 16, 64])
def test_clenshaw_curtis_rule_is_exact_to_degree_m(m):
    with working_precision(CFG_LO):
        nodes, weights = identities._cc_rule(m)
        assert len(nodes) == len(weights) == m + 1
        assert abs(mp.fsum(weights) - 2) < mpf(10) ** -70
        for k in range(m + 1):
            exact = mpf(2) / (k + 1) if k % 2 == 0 else 0
            assert abs(mp.fsum(w * x ** k for w, x in zip(weights, nodes)) - exact) \
                < mpf(10) ** -70


def test_integral_representation_samples_each_node_once(monkeypatch):
    # one jets pass per node gives R_n and R_n'; no table is built beside it
    calls = {"t_jets": 0, "recurrence_table": 0, "aux_table": 0, "hankel_det": 0}
    for name in calls:
        original = getattr(identities, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(identities, name, counted)
    row = verify_integral_representation(2, make_params(1, "0.5", CFG_LO), CFG_LO)
    m = int(row.detail.split(";m=")[1].split(";")[0])
    assert m >= identities.CC_START
    assert calls == {"t_jets": m + 1, "recurrence_table": 0, "aux_table": 0, "hankel_det": 2}


def test_integral_representation_fails_loudly_past_the_node_cap(monkeypatch):
    # this row needs m = 128 at 256 bits
    monkeypatch.setattr(identities, "CC_MAX_NODES", identities.CC_START)
    with pytest.raises(ConvergenceError, match="Clenshaw-Curtis"):
        verify_integral_representation(3, make_params("2.5", 3, CFG_LO), CFG_LO)


def test_integral_representation_zero_endpoint():
    p = make_params(1, 0, CFG)
    row = verify_integral_representation(2, p, CFG)
    assert row.trivial and row.residual == 0


@pytest.mark.parametrize("alpha, t, n_top, config", [
    (1, "0.5", 3, CFG), ("2.5", 3, 3, CFG), ("0.7", "0.05", 3, CFG),
    # 128 bits run out on the order-60 table: both routes rebuild at 256
    (1, "0.5", 59, PrecisionConfig(bits=128, target_digits=20)),
])
def test_differential_values_are_the_tables_bit_for_bit(alpha, t, n_top, config):
    p = make_params(alpha, t, config)
    der = identities._ladder_t_derivatives(n_top, p, config, 2)
    rec = recurrence_table(n_top + 1, p, config)
    aux = aux_table(n_top, p, config)
    assert rec.config.bits == (256 if n_top == 59 else config.bits)
    assert der["beta"][0] == rec.beta
    assert der["r"][0][: n_top + 1] == aux.r
    assert der["R"][0] == aux.R
    assert der["sigma"][0] == aux.sigma


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
