"""Double-scaling layer and the Taylor flows: series tables, flows, scans, experiments."""

from fractions import Fraction
from math import lcm

import pytest
from mpmath import mp, mpf

from hankelpv import flows, ladder, scans
from hankelpv.scans import double_scaling_scan, dyson_constant_experiment
from hankelpv.series import (
    c_constant,
    dyson_reference,
    g_large_coefficients,
    g_small_coefficients,
    log_ratio_small_coefficients,
    series_eval,
    series_expansion,
)
from hankelpv.choices import FIXED_KINDS, SERIES_KINDS
from hankelpv.cli import target_digits_for_bits
from hankelpv.flows import continue_pv, solve_piii_prime
from hankelpv.identities import _ladder_t_derivatives
from hankelpv.ladder import aux_table
from hankelpv.ode import JetDefectError, binary_point
from hankelpv.precision import NumericsError, PrecisionConfig, working_precision
from hankelpv.series import g_large_series, g_small_series, log_ratio_small_series
from hankelpv.special import UnsupportedArgumentError
from hankelpv.weights import make_params
import oracles
from oracles import chebyshev_scan_value

CFG = PrecisionConfig()
LO = PrecisionConfig(bits=256, target_digits=30)
HALF = Fraction(1, 2)


# --- reference coefficients ---------------------------------------------------
#
# The printed Coulomb-fluid coefficients (Chen & Its, J. Approx. Theory 162
# (2010) 270-297) as (exponent, coefficient) pairs: closed forms in a for the
# four parametric families and the six fixed tables at a = +-1/2.  The package
# generates every table from the exact recurrences; these are independent
# references for them.

FIXED_REFERENCE = {
    "g1-small": ((1, -4), (2, Fraction(32, 3)), (3, Fraction(-256, 15)),
                 (4, Fraction(8192, 315)), (5, Fraction(-311296, 8505)),
                 (6, Fraction(7733248, 155925))),
    "g2-small": ((1, 4), (2, Fraction(32, 3)), (3, Fraction(256, 15)),
                 (4, Fraction(8192, 315)), (5, Fraction(311296, 8505)),
                 (6, Fraction(7733248, 155925))),
    "g1-large": ((Fraction(2, 3), 2), (Fraction(1, 3), Fraction(1, 3)),
                 (Fraction(-1, 3), Fraction(1, 108)), (Fraction(-2, 3), Fraction(-1, 648)),
                 (-1, Fraction(1, 324)), (Fraction(-4, 3), Fraction(-7, 5832))),
    "g2-large": ((Fraction(2, 3), 2), (Fraction(1, 3), Fraction(-1, 3)),
                 (Fraction(-1, 3), Fraction(-1, 108)), (Fraction(-2, 3), Fraction(-1, 648)),
                 (-1, Fraction(-1, 324)), (Fraction(-4, 3), Fraction(-7, 5832))),
    "delta-small": ((2, Fraction(-4, 3)), (4, Fraction(-256, 315)),
                    (6, Fraction(-966656, 1403325))),
    "delta-large": ((Fraction(2, 3), Fraction(-9, 4)), (Fraction(-2, 3), Fraction(1, 576)),
                    (Fraction(-4, 3), Fraction(7, 20736))),
}


def g_small_reference(a):
    a2 = a * a
    return (
        (1, Fraction(1, 2) / a),
        (2, Fraction(-1, 2) / (a2 * (a2 - 1))),
        (3, Fraction(3, 2) / (a ** 3 * (a2 - 1) * (a2 - 4))),
        (4, 3 * (3 - 2 * a2) / (a ** 4 * (a2 - 1) ** 2 * (a2 - 4) * (a2 - 9))),
        (5, Fraction(5, 2) * (11 * a2 - 36)
            / (a ** 5 * (a2 - 1) ** 2 * (a2 - 4) * (a2 - 9) * (a2 - 16))),
        (6, Fraction(-3, 2)
            * (91 * a2 ** 3 - 1115 * a2 ** 2 + 4219 * a2 - 3600)
            / (a ** 6 * (a2 - 1) ** 3 * (a2 - 4) ** 2 * (a2 - 9)
               * (a2 - 16) * (a2 - 25))))


def g_large_reference(a):
    a2 = a * a
    return (
        (Fraction(2, 3), Fraction(1, 2)),
        (Fraction(1, 3), -a / 6),
        (Fraction(-1, 3), a * (a2 - 1) / 162),
        (Fraction(-2, 3), a2 * (a2 - 1) / 486),
        (-1, a * (a2 - 1) / 486),
        (Fraction(-4, 3), -a2 * (a2 - 1) * (2 * a2 - 11) / 6561))


def delta_ab_small_reference(a):
    a2 = a * a
    return (
        (1, Fraction(-1, 2) / a),
        (2, Fraction(1, 8) / (a2 * (a2 - 1))),
        (3, Fraction(-1, 6) / (a ** 3 * (a2 - 1) * (a2 - 4))),
        (4, Fraction(3, 16) * (2 * a2 - 3)
            / (a ** 4 * (a2 - 1) ** 2 * (a2 - 4) * (a2 - 9))),
        (5, Fraction(-1, 10) * (11 * a2 - 36)
            / (a ** 5 * (a2 - 1) ** 2 * (a2 - 4) * (a2 - 9) * (a2 - 16))),
        (6, Fraction(1, 24)
            * (91 * a2 ** 3 - 1115 * a2 ** 2 + 4219 * a2 - 3600)
            / (a ** 6 * (a2 - 1) ** 3 * (a2 - 4) ** 2 * (a2 - 9)
               * (a2 - 16) * (a2 - 25))))


def delta_ab_large_reference(a):
    a2 = a * a
    return (
        (Fraction(2, 3), Fraction(-9, 8)),
        (Fraction(1, 3), 3 * a / 2),
        (Fraction(-1, 3), -a * (a2 - 1) / 18),
        (Fraction(-2, 3), -a2 * (a2 - 1) / 216),
        (-1, -a * (a2 - 1) / 486),
        (Fraction(-4, 3), a2 * (a2 - 1) * (2 * a2 - 11) / 11664),
        (Fraction(-5, 3), a * (a2 - 1) * (a2 ** 2 - a2 - 15) / 21870))


PARAMETRIC_REFERENCE = {
    "g-small": g_small_reference,
    "g-large": g_large_reference,
    "delta-ab-small": delta_ab_small_reference,
    "delta-ab-large": delta_ab_large_reference,
}

A_GRID = (HALF, -HALF, Fraction(1, 3), Fraction(3, 2), Fraction(3, 10), Fraction(5, 2),
          Fraction(-7, 3), Fraction(101, 7), Fraction(-11, 2), Fraction(0), Fraction(1),
          Fraction(-1), Fraction(2), Fraction(7))


# --- series tables: exact rational structure ----------------------------------


def test_every_kind_constructible():
    for kind in FIXED_KINDS:
        exp = series_expansion(kind)
        assert exp.kind == kind
        assert len(exp.terms) >= 3
    for kind in ("g-small", "g-large", "delta-ab-small", "delta-ab-large"):
        assert series_expansion(kind, a=HALF).a == HALF


def test_kind_validation():
    with pytest.raises(ValueError):
        series_expansion("g3-small")
    with pytest.raises(ValueError):
        series_expansion("g-small")
    with pytest.raises(ValueError):
        series_expansion("g1-small", a=HALF)
    with pytest.raises(ValueError):
        series_expansion("g-small", a=2)
    with pytest.raises(ValueError):
        series_expansion("delta-ab-small", a=-1)


def test_small_kind_signs():
    # the even-index family alternates, the odd-index family is positive
    g1 = [c for _, c in series_expansion("g1-small").terms]
    g2 = [c for _, c in series_expansion("g2-small").terms]
    assert [c < 0 for c in g1] == [True, False, True, False, True, False]
    assert all(c > 0 for c in g2)
    assert [abs(c) for c in g1] == [abs(c) for c in g2]


def test_large_kind_duality():
    # sign flips exactly on the s^{1/3}, s^{-1/3}, s^{-1} terms
    g1 = dict(series_expansion("g1-large").terms)
    g2 = dict(series_expansion("g2-large").terms)
    flipped = {Fraction(1, 3), Fraction(-1, 3), Fraction(-1)}
    for e, c in g1.items():
        assert g2[e] == (-c if e in flipped else c)


@pytest.mark.parametrize(
    "whole,param,a",
    [
        ("g1-small", "g-small", Fraction(-1, 2)),
        ("g2-small", "g-small", HALF),
        ("g1-large", "g-large", Fraction(-1, 2)),
        ("g2-large", "g-large", HALF),
    ],
)
def test_fixed_tables_are_scaled_parametric_tables(whole, param, a):
    fixed = dict(FIXED_REFERENCE[whole])
    scaled = {e: 4 * c for e, c in PARAMETRIC_REFERENCE[param](a) if c != 0}
    assert fixed == scaled


def test_delta_small_assembles_from_parametric_pair():
    plus = dict(delta_ab_small_reference(HALF))
    minus = dict(delta_ab_small_reference(-HALF))
    total = {e: plus[e] + minus[e] for e in plus if plus[e] + minus[e] != 0}
    assert total == dict(FIXED_REFERENCE["delta-small"])
    assert total[Fraction(6)] == Fraction(-966656, 1403325)


def test_delta_large_assembles_from_parametric_pair():
    plus = series_expansion("delta-ab-large", a=HALF)
    minus = series_expansion("delta-ab-large", a=-HALF)
    combined = {}
    for e, c in delta_ab_large_reference(HALF) + delta_ab_large_reference(-HALF):
        combined[e] = combined.get(e, Fraction(0)) + c
    kept = {e: c for e, c in combined.items() if c != 0}
    assert kept == dict(FIXED_REFERENCE["delta-large"])
    # odd powers of s^{1/3} cancel in the pair
    for e in (Fraction(1, 3), Fraction(-1, 3), Fraction(-1), Fraction(-5, 3)):
        assert combined[e] == 0
    log_sum = plus.log_coefficient + minus.log_coefficient
    assert log_sum == series_expansion("delta-large").log_coefficient == Fraction(-1, 36)


def test_generated_tables_equal_the_references():
    # tuple for tuple, explicit zeros included; the resonant integer a of
    # the small-s families is rejected
    for kind, terms in FIXED_REFERENCE.items():
        assert series_expansion(kind).terms == terms, kind
    for kind, reference in PARAMETRIC_REFERENCE.items():
        for a in A_GRID:
            if kind.endswith("-small") and a.denominator == 1:
                with pytest.raises(ValueError):
                    series_expansion(kind, a=a)
                continue
            assert series_expansion(kind, a=a).terms == reference(a), (kind, a)


def test_series_eval_frozen_values():
    # exact rational sums of the tabulated terms, frozen at 40 digits
    with working_precision(CFG):
        got = series_eval("g1-small", "0.1", CFG)
        assert abs(got.value - mpf("-0.3081157844177221954999732777510555288333")) < mpf(10) ** -35
        assert got.in_regime
        got2 = series_eval("g1-small", "0.2", CFG)
        assert abs(got2.value - mpf("-0.4767948564673186895409117631339853562076")) < mpf(10) ** -35
        got3 = series_eval("delta-small", "0.1", CFG)
        assert abs(got3.value - mpf("-0.0134152920071971923823775675627527479379")) < mpf(10) ** -35


def test_series_eval_zero_is_zero():
    val = series_eval("g1-small", 0, CFG)
    assert val.value == 0
    assert val.truncation == 0
    assert val.in_regime


def test_dyson_reference_value():
    with working_precision(CFG):
        assert abs(dyson_reference(CFG) - mpf("-0.4385011660")) < mpf(10) ** -9


def test_dyson_reference_equals_barnes_sum():
    # two routes to the same constant: the zeta side against the
    # Barnes-anchored c(1/2) + c(-1/2) sum
    with working_precision(CFG):
        total = c_constant(HALF, CFG) + c_constant(-HALF, CFG)
        assert abs(total - dyson_reference(CFG)) < mpf(10) ** -58


def test_delta_large_constant_term():
    exp = series_expansion("delta-large")
    assert exp.has_constant
    with working_precision(CFG):
        assert exp.constant_value(CFG) == dyson_reference(CFG)
        with_c = exp.eval(10, CFG)
        without = exp.eval(10, CFG, include_constant=False)
        assert abs((with_c - without) - dyson_reference(CFG)) < mpf(10) ** -55


def test_delta_ab_large_constant_off_grid():
    exp = series_expansion("delta-ab-large", a=Fraction(1, 3))
    with working_precision(CFG):
        exp.eval(10, CFG, include_constant=False)
        with pytest.raises(UnsupportedArgumentError):
            exp.eval(10, CFG)


def test_regime_heuristic_flips():
    small = series_expansion("g1-small")
    assert small.in_regime("0.1", CFG)
    assert not small.in_regime(5, CFG)
    large = series_expansion("g1-large")
    assert large.in_regime(1000, CFG)
    assert not large.in_regime("0.5", CFG)


def test_domain_checks():
    with pytest.raises(ValueError):
        series_eval("g1-small", -1, CFG)
    with pytest.raises(ValueError):
        series_eval("g1-large", 0, CFG)
    with pytest.raises(ValueError):
        series_eval("delta-large", "-2", CFG)


def test_truncation_estimator_tracks_power():
    exp = series_expansion("g1-small")
    with working_precision(CFG):
        at1 = exp.truncation_estimator("0.1", CFG)
        at2 = exp.truncation_estimator("0.2", CFG)
        # next exponent is 7, so doubling s scales the estimate by 2^7
        assert abs(at2 / at1 - 128) < mpf("1e-20")


def test_series_kind_listing():
    assert set(FIXED_KINDS) <= set(SERIES_KINDS)
    assert "delta-ab-large" in SERIES_KINDS


# --- extended seed coefficients -----------------------------------------------


def test_small_recurrence_reproduces_tabulated_terms():
    for a in (HALF, -HALF, Fraction(3, 2), Fraction(1, 3)):
        got = g_small_coefficients(a, 8)
        for i, (e, c) in enumerate(g_small_reference(a)):
            assert e == i + 1
            assert got[i] == c


def three_sum_small_coefficients(a, order):
    """c_1..c_order with the s^2 g g'', s^2 g'^2 and s g g' products summed
    one by one, the form the package folds into one weighted sum."""
    c = [Fraction(0)] * (order + 1)
    c[1] = 1 / (2 * a)
    g2 = [Fraction(0)] * (order + 1)
    for p in range(3, order + 2):
        q = p - 1
        g2[q] = sum(c[i] * c[q - i] for i in range(1, q))
        pair_a = sum(c[m] * (p - m) * (p - m - 1) * c[p - m] for m in range(1, p))
        pair_b = sum(m * (p - m) * c[m] * c[p - m] for m in range(1, p))
        pair_c = sum((p - m) * c[m] * c[p - m] for m in range(1, p))
        triple = sum(c[m] * g2[p - m] for m in range(1, p - 1))
        rest = 4 * pair_a - 4 * pair_b + 4 * pair_c - 8 * triple
        c[p - 1] = -rest / (4 * c[1] * (p - 2) ** 2 - 2 * a)
    return tuple(c[1:])


@pytest.mark.parametrize("a", [HALF, -HALF, Fraction(3, 7)])
def test_small_recurrence_equals_the_three_sum_form(a):
    assert g_small_coefficients(a, 64) == three_sum_small_coefficients(a, 64)


def three_sum_large_coefficients(a, order):
    """d_0..d_order with the s^2 g g'', s^2 g'^2 and s g g' products summed
    one by one and g^2 summed in full, the form the package folds."""
    d = [Fraction(0)] * (order + 1)
    d[0] = Fraction(1, 2)
    d[1] = -a / 6
    g2 = [Fraction(0)] * (order + 1)
    g2[0] = d[0] * d[0]
    g2[1] = 2 * d[0] * d[1]
    for q in range(0, order - 1):
        slot = q + 2
        partial = sum(d[i] * d[slot - i] for i in range(slot + 1))
        pair_a = sum(d[i] * d[q - i] * (2 - (q - i)) * (-1 - (q - i)) for i in range(q + 1))
        pair_b = sum(d[i] * d[q - i] * (2 - i) * (2 - (q - i)) for i in range(q + 1))
        pair_c = sum(d[i] * d[q - i] * (2 - (q - i)) for i in range(q + 1))
        triple = partial * d[0] + sum(d[m] * g2[slot - m] for m in range(1, slot + 1))
        d[slot] = (Fraction(4, 9) * (pair_a - pair_b) + Fraction(4, 3) * pair_c
                   - 8 * triple - 2 * a * d[q + 1]) / 6
        g2[slot] = sum(d[i] * d[slot - i] for i in range(slot + 1))
    return tuple(d)


@pytest.mark.parametrize("a", [HALF, -HALF, Fraction(3, 7)])
def test_large_recurrence_equals_the_three_sum_form(a):
    assert g_large_coefficients(a, 72) == three_sum_large_coefficients(a, 72)


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(7, 10), Fraction(-5, 2),
                               Fraction(3, 2)])
def test_series_numerators_share_one_least_denominator(a):
    # the recurrences run on integer numerators over one denominator, which
    # grows only by the factors a new coefficient brings
    small, large = g_small_series(a, 64), g_large_series(a, 40)
    for series in (small, large, log_ratio_small_series(a, 64)):
        denominator = series.denominator
        assert tuple(Fraction(n, denominator) for n in series.numerators) == series.fractions
    for series in (small, large):
        assert series.denominator == lcm(*(c.denominator for c in series.fractions))
    assert small.fractions == three_sum_small_coefficients(a, 64)
    assert large.fractions == three_sum_large_coefficients(a, 40)


def test_small_recurrence_rejects_integer_a():
    with pytest.raises(ValueError):
        g_small_coefficients(Fraction(2), 8)


def test_small_recurrence_parity():
    plus = g_small_coefficients(HALF, 20)
    minus = g_small_coefficients(-HALF, 20)
    for m, (cp, cm) in enumerate(zip(plus, minus), start=1):
        assert cm == (cp if m % 2 == 0 else -cp)


def test_large_recurrence_reproduces_tabulated_terms():
    for a in (HALF, -HALF, Fraction(3, 2)):
        d = g_large_coefficients(a, 10)
        got = {Fraction(2 - k, 3): dk for k, dk in enumerate(d[:8]) if dk != 0}
        expect = {e: c for e, c in g_large_reference(a) if c != 0}
        for e, c in expect.items():
            assert got[e] == c
        assert d[2] == 0


def test_large_recurrence_next_term_closes_the_loop():
    # the s^{-5/3} coefficient of g follows from the tabulated log-ratio
    # terms through d/ds(s L') = -g/s, which maps an s^{-5/3} log term
    # with coefficient p to a g term with coefficient -(25/9) p; the
    # recurrence must reproduce that exactly
    for a in (HALF, -HALF, Fraction(3, 2)):
        p = a * (a * a - 1) * (a ** 4 - a * a - 15) / 21870
        assert g_large_coefficients(a, 8)[7] == -Fraction(25, 9) * p


def test_large_recurrence_leading_solution_is_exact_at_a_zero():
    # g = s^{2/3}/2 solves the evolution exactly when a = 0
    d = g_large_coefficients(Fraction(0), 12)
    assert d[0] == Fraction(1, 2)
    assert all(dk == 0 for dk in d[1:])


def test_log_ratio_coefficients_match_tabulated_terms():
    # lambda_m = -c_m/m^2 must land on the delta-ab-small table
    for a in (HALF, -HALF, Fraction(1, 3)):
        lam = log_ratio_small_coefficients(a, 8)
        for i, (e, c) in enumerate(delta_ab_small_reference(a)):
            assert lam[i] == c


def test_large_coefficients_grow_factorially():
    # the descending expansion is asymptotic; consumers must truncate
    d = g_large_coefficients(HALF, 40)
    assert abs(d[40]) > abs(d[20]) > abs(d[10])


# --- scaled flow for g(s, a) ---------------------------------------------------


def test_flow_small_seed_tracks_series():
    traj = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-7")
    assert not traj.halted
    with working_precision(LO):
        ref = series_eval("g-small", "0.25", LO, a=HALF)
        assert traj.reached == mpf("0.25")
        got = traj.endpoint[1]
        # frozen from the order-56 exact-rational Taylor sum at s = 1/4
        assert abs(got - mpf("0.52215902024942062066529546906978918953")) < mpf(10) ** -18
        # the short tabulated series differs by its own truncation
        assert abs(got - ref.value) < ref.truncation


def test_flow_linear_start():
    # g(s) = s/(2a) + O(s^2), checked at s = 1e-6
    traj = solve_piii_prime(HALF, "1e-6", LO, tolerance="1e-7")
    assert not traj.halted
    with working_precision(LO):
        assert abs(traj.endpoint[1] - mpf("1e-6")) < mpf(10) ** -11


def test_flow_self_convergence():
    one = solve_piii_prime(HALF, "0.5", LO, tolerance="1e-7")
    two = solve_piii_prime(HALF, "0.5", LO, tolerance="5e-8")
    assert not one.halted and not two.halted
    with working_precision(LO):
        assert abs(one.endpoint[1] - two.endpoint[1]) < mpf(10) ** -25


def test_flow_halts_at_movable_pole():
    traj = solve_piii_prime(HALF, 2, LO, tolerance="1e-6")
    assert traj.halted
    assert "guard" in traj.halt_reason
    with working_precision(LO):
        assert mpf("0.85") < traj.reached < mpf("0.92")
        assert traj.samples[-1][1] > mpf(10) ** 6


def test_flow_halts_at_movable_zero():
    # the negative-parameter branch runs into g = 0, where the 1/(4g)
    # term is singular
    traj = solve_piii_prime(-HALF, 2, LO, tolerance="1e-6")
    assert traj.halted
    with working_precision(LO):
        assert mpf("0.85") < traj.reached < mpf("0.92")
        assert abs(traj.samples[-1][1]) < mpf(10) ** -10


def test_flow_explicit_seed():
    base = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-7")
    s0, g0, gp0 = base.endpoint
    cont = solve_piii_prime(HALF, "0.5", LO, s0=s0, y0=(g0, gp0), tolerance="1e-7")
    direct = solve_piii_prime(HALF, "0.5", LO, tolerance="1e-7")
    with working_precision(LO):
        assert abs(cont.endpoint[1] - direct.endpoint[1]) < mpf(10) ** -20


def test_flow_argument_validation():
    with pytest.raises(ValueError):
        solve_piii_prime(HALF, 0, LO)
    with pytest.raises(ValueError):
        solve_piii_prime(Fraction(3), 1, LO)
    # an explicit start needs its point and both values
    for s0, y0 in [(None, ("0.1", "1")), ("0.5", ("0.1", None)), ("0.5", (None, "1"))]:
        with pytest.raises(ValueError, match="explicit start"):
            solve_piii_prime(HALF, 1, LO, s0=s0, y0=y0)
    # either start at or below the singular point s = 0
    for s0 in ("0", "-0.01"):
        for y0 in (None, ("0.1", "1")):
            with pytest.raises(ValueError, match="s0 must be positive"):
                solve_piii_prime(HALF, "0.05", LO, s0=s0, y0=y0)


def test_given_seed_point_must_meet_the_seed_budget():
    # the searched start meets tolerance^4 * max(1, |g0|); a given s0 is
    # held to the same budget rather than moved
    searched = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-7")
    s0 = searched.samples[0][0]
    assert solve_piii_prime(HALF, "0.25", LO, s0=s0, tolerance="1e-7").samples == searched.samples
    with pytest.raises(NumericsError, match="small-series seed at s0=0.8 has a tail of"):
        solve_piii_prime(HALF, "0.25", LO, s0="0.8", tolerance="1e-7")


def test_flow_checkpoints_do_not_multiply_the_work(taylor_steps):
    # the 17 sample points that `hankelpv solve-p3 --s 0.1` asks for are
    # read off the Taylor polynomials of the steps that cover them
    config = PrecisionConfig(bits=320, target_digits=target_digits_for_bits(320))
    free = solve_piii_prime(HALF, "0.1", config)
    free_steps = list(taylor_steps)
    taylor_steps.clear()
    sampled = solve_piii_prime(HALF, "0.1", config, samples=17)
    assert not free.halted and not sampled.halted
    # the rows are the grid, from the same seeded start, and no step end
    assert len(sampled.samples) == 17 > len(free.samples) == 2
    assert sampled.samples[0] == free.samples[0]
    assert taylor_steps == free_steps
    assert sampled.steps == free.steps == len(free_steps)


def test_flow_determinism():
    one = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-6")
    two = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-6")
    assert one.endpoint == two.endpoint


# each flow's jet against its right-hand side, at points off the seeded paths:
# (rhs, jet, x, y)
JETS = {
    "piii-plus": (flows._piii_rhs(mpf(1) / 2), flows._piii_jet(mpf(1) / 2),
                  "0.3", ("0.25", "0.9")),
    "piii-minus": (flows._piii_rhs(-mpf(1) / 2), flows._piii_jet(-mpf(1) / 2),
                   "1.2", ("-0.4", "0.3")),
    "pv-even": (flows._pv_rhs(2, mpf(1)), flows._pv_jet(2, mpf(1)),
                "0.2", ("1.1", "5")),
    "pv-odd": (flows._pv_rhs(3, mpf(5) / 2), flows._pv_jet(3, mpf(5) / 2),
               "0.6", ("0.8", "-1.2")),
    "coupled": (flows._coupled_rhs(mpf(1) / 2), flows._coupled_jet(mpf(1) / 2),
                "0.4", ("0.3", "0.8", "-0.2", "0.1")),
}


def unscaled(rows, scale):
    """The Taylor coefficients a_k of fixed-point jet rows at this scale."""
    point = binary_point()
    return [[mpf((c, -point - scale * k)) for k, c in enumerate(row)] for row in rows]


@pytest.mark.parametrize("name", list(JETS))
def test_each_jet_encodes_its_rhs(name):
    # a slip in clearing a denominator shows here even where an endpoint
    # check would absorb it
    rhs, jet, x, y = JETS[name]
    with working_precision(LO):
        x, y = mpf(x), [mpf(v) for v in y]
        rows = unscaled(jet(x, y, 40, -2), -2)
        assert [row[0] for row in rows] == y
        f = rhs(x, y)
        assert abs(2 * rows[0][2] - f[1]) <= mpf(10) ** -70 * (1 + abs(f[1]))
        # the derivative polynomial half a step on, where the order-40
        # truncation sits below the rounding
        tau = mpf(10) ** -3 / 2
        moved = [mp.polyval(row[::-1], tau) for row in rows]
        slopes = [mp.polyval([k * a for k, a in enumerate(row)][:0:-1], tau) for row in rows]
        for slope, want in zip(slopes, rhs(x + tau, moved)):
            assert abs(slope - want) <= mpf(10) ** -60 * (1 + abs(want))


# (n, or None for the PIII' jet; alpha or a; x; y; scale): the table seeds
# of two benchmark PV flows and of n = 5, small-s series seeds of g at
# a = +-1/2, and two wide-radius points, the PV seed at t = 40 (radius
# about 42) and the large-s leading terms of g at s = 1000 (about 600),
# where a binary point left at scale 0 rounds the tail away
JET_CASES = {
    "pv-n2": (2, "1", "0.1", ("1.02631932097375773737974", "6.301814055587270953375929"), -3),
    "pv-n3": (3, "2.5", "0.5", ("2.867773740290597707832141", "4.102382102115979357669186"), 0),
    "pv-n5": (5, "0.7", "2", ("7.713367078617130095422015", "2.872252802628995741347583"), 2),
    "pv-wide": (2, "1", "40", ("87.11710402282096966179664", "2.017917270131460667531149"), 6),
    "piii-plus": (None, "0.5", "0.0625",
                  ("0.07406707133866433236076934", "1.390459105586131955055067"), 0),
    "piii-minus": (None, "-0.5", "0.05",
                   ("-0.04382870948578805205336848", "-0.7623469036132143387274904"), 0),
    "piii-wide": (None, "0.5", "1000", ("49.58333333333333333333333",
                                        "0.03316666666666666666666667"), 10),
}


def _jet_and_reference(n, a):
    a = mpf(a)
    if n is None:
        return (flows._piii_jet(a),
                lambda x, y, order: oracles.piii_series(a, x, y, order))
    return flows._pv_jet(n, a), lambda x, y, order: oracles.pv_series(n, a, x, y, order)


def _worst_relative_error(rows, reference):
    return max(abs(a - b) / abs(b) for row, want in zip(rows, reference)
               for a, b in zip(row, want) if b)


@pytest.mark.parametrize("order", [8, 48, 110])
@pytest.mark.parametrize("name", list(JET_CASES))
def test_jets_match_the_mpf_reference(name, order):
    # every coefficient within 2^-bits relative of the mpf recurrence run at
    # 1024 bits, wherever the mpf recurrence at the solver's working
    # precision holds that too; the PIII' recurrences near s = 0 amplify
    # rounding about 12-fold per order, and there the fixed-point jet may
    # lose no more than twice what the mpf one loses
    n, a, x, y, scale = JET_CASES[name]
    bits = 256
    with working_precision(bits, extra_bits=64):
        x, y = mpf(x), [mpf(v) for v in y]
        jet, reference = _jet_and_reference(n, a)
        rows = unscaled(jet(x, y, order, scale), scale)
        floating = reference(x, y, order)
    with working_precision(1024):
        exact = reference(x, y, order)
        for row, want, also in zip(rows, exact, floating):
            for k, (got, b, c) in enumerate(zip(row, want, also)):
                allowed = max(mpf(2) ** -bits, 2 * abs(c - b) / abs(b))
                assert abs(got - b) <= allowed * abs(b), (name, order, k)
        if name.endswith("-wide") and order >= 48:
            with working_precision(bits, extra_bits=64):
                flat = unscaled(jet(x, y, order, 0), 0)
            assert _worst_relative_error(flat, exact) > mpf(2) ** -bits


@pytest.mark.parametrize("flow", ["pv", "piii"])
def test_a_perturbed_jet_coefficient_is_a_jet_defect(monkeypatch, flow):
    # the defect check still reads the fixed-point rows: one coefficient
    # moved by 2^-40 of the unit fails the step that uses it
    def bumped(make):
        def factory(*args):
            jet = make(*args)

            def perturbed(x, y, order, scale):
                rows = jet(x, y, order, scale)
                rows[0][5] += 1 << (binary_point() - 40)
                return rows

            return perturbed

        return factory

    name = "_pv_jet" if flow == "pv" else "_piii_jet"
    monkeypatch.setattr(flows, name, bumped(getattr(flows, name)))
    with pytest.raises(JetDefectError):
        if flow == "pv":
            continue_pv(2, make_params(1, "0.1", LO), "0.1", "0.3", LO)
        else:
            solve_piii_prime(HALF, "0.25", LO)


# --- finite-n evolution ---------------------------------------------------------


def test_pv_endpoint_matches_direct_tables():
    params = make_params(1, "0.1", LO)
    traj = continue_pv(2, params, "0.1", 1, LO, tolerance="1e-6")
    assert not traj.halted
    with working_precision(LO):
        assert traj.endpoint_gap < mpf(10) ** -20


@pytest.mark.parametrize("alpha, t, n", [(1, "0.5", 2), ("2.5", 3, 3), ("0.7", "0.05", 5)])
def test_pv_rhs_solves_for_the_moment_second_derivative(alpha, t, n):
    # R and R' from the tables, R'' exactly from the moments' t-jets: the
    # flow's rhs must solve the cleared equation for the same R''
    params = make_params(alpha, t, LO)
    big_r = aux_table(n, params, LO).R[n]
    der = _ladder_t_derivatives(n, params, LO, 2)["R"]
    with working_precision(LO):
        got = flows._pv_rhs(n, params.alpha)(params.t, [big_r, der[1][n]])[1]
        assert abs(got - der[2][n]) <= mpf(10) ** -60 * abs(der[2][n])


def test_pv_trivial_span():
    params = make_params(1, "0.3", LO)
    traj = continue_pv(3, params, "0.3", "0.3", LO)
    assert len(traj.samples) == 1
    assert traj.endpoint_gap == 0
    assert not traj.halted
    assert traj.steps == traj.order == 0


def test_pv_halts_at_the_divergence_cap(monkeypatch):
    # a seed slope of 1e9 drives the flow into the cap the g flows share;
    # without it the flow ran on until its step size underflowed
    seed = flows._seed_aux
    monkeypatch.setattr(flows, "_seed_aux",
                        lambda n, alpha, t, config: (seed(n, alpha, t, config)[0], mpf(10) ** 9))
    config = PrecisionConfig(bits=128, target_digits=15)
    traj = continue_pv(2, make_params(1, "0.1", config), "0.1", "0.3", config,
                       tolerance="1e-3")
    assert traj.halted
    assert "guard" in traj.halt_reason


def test_pv_downward_span():
    params = make_params(1, "0.8", LO)
    traj = continue_pv(1, params, "0.8", "0.4", LO, tolerance="1e-6")
    assert not traj.halted
    with working_precision(LO):
        assert traj.endpoint_gap < mpf(10) ** -20


def test_pv_validation():
    params = make_params(1, "0.1", LO)
    with pytest.raises(ValueError):
        continue_pv(-1, params, "0.1", 1, LO)
    with pytest.raises(ValueError):
        continue_pv(2, params, 0, 1, LO)
    with pytest.raises(ValueError):
        continue_pv(2, params, "0.1", "-1", LO)


# --- double-scaling scans --------------------------------------------------------


def test_scan_raw_vanishes_at_s_zero():
    res = double_scaling_scan(0, (2, 4), 1, "g1", LO)
    with working_precision(LO):
        assert all(abs(v) < mpf(10) ** -25 for v in res.raw)


def test_scan_results_never_share_their_lists():
    first, second = (double_scaling_scan(0, (2, 4), 1, "g1", LO) for _ in range(2))
    assert first.flags is not second.flags and first.configs is not second.configs
    # flags and configs are required: no default list is shared
    with pytest.raises(TypeError):
        scans.ScanResult(*first[:-2])


def test_scan_g1_mechanics():
    res = double_scaling_scan("0.1", (4, 8, 16), 1, "g1", LO)
    assert res.mode == "g1"
    assert res.errors == [None, None, None]
    assert res.model in ("1/n", "1/n^2")
    assert res.reference_kind == "g1-small"
    assert res.error_bar is not None
    with working_precision(LO):
        # frozen from the verified finite-n pipeline
        assert abs(res.raw[0] - mpf("0.61643279674753910674820260385237")) < mpf(10) ** -25
        assert abs(res.extrapolated - mpf("0.5988")) < mpf("5e-4")


def test_scan_delta_modes_share_a_limit():
    even = double_scaling_scan("0.1", (4, 8, 16), 1, "delta1", LO)
    odd = double_scaling_scan("0.1", (4, 8, 16), 1, "delta2", LO)
    assert even.reference_kind == odd.reference_kind == "delta-small"
    with working_precision(LO):
        assert abs(even.extrapolated - odd.extrapolated) < mpf("0.01")


def test_scan_sigma_mode_has_no_reference():
    res = double_scaling_scan("0.05", (4, 8), 1, "sigma-n4", LO)
    assert res.reference is None
    assert res.agreement_digits is None
    with pytest.raises(ValueError):
        double_scaling_scan("0.05", (4, 8), 1, "sigma-n4", LO,
                            reference_kind="g1-small")


def test_scan_reference_override():
    res = double_scaling_scan("0.1", (4, 8), 1, "delta1", LO,
                              reference_kind="delta-large")
    assert res.reference_kind == "delta-large"
    assert "reference-out-of-regime" in res.flags
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (4, 8), 1, "delta1", LO,
                            reference_kind="g2-small")


def test_scan_validation():
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (), 1, "g1", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (8, 4), 1, "g1", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (4, scans.N_CAP + 1), 1, "g1", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (4, scans.N_CAP_EXTENDED + 1), 1, "g1", LO,
                            allow_large_n=True)
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (4, 8), 1, "sigma-n2", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("-0.1", (4, 8), 1, "g1", LO)


def test_scan_determinism():
    one = double_scaling_scan("0.1", (4, 8), 1, "g2", LO)
    two = double_scaling_scan("0.1", (4, 8), 1, "g2", LO)
    assert one.raw == two.raw
    assert one.extrapolated == two.extrapolated


CROSS_ROUTE_N = (1, 5, 64)


def _moment_route_digits(mode, s):
    """Digits of each scan value against the moment route at 4x the bits."""
    res = double_scaling_scan(s, CROSS_ROUTE_N, 1, mode, LO, allow_large_n=True)
    hi = LO.with_bits(4 * LO.bits)
    digits = []
    for n, value in zip(CROSS_ROUTE_N, res.raw):
        reference = chebyshev_scan_value(mode, s, n, 1, hi)
        with working_precision(hi):
            digits.append(-mp.log10(abs(value - reference) / abs(reference)))
    return digits


@pytest.mark.parametrize("s", ["0.5", "20"])
@pytest.mark.parametrize("mode", scans.SCAN_MODES)
def test_scan_values_match_the_moment_route(mode, s):
    assert min(_moment_route_digits(mode, s)) >= LO.target_digits


@pytest.mark.parametrize("mode", scans.SCAN_MODES)
def test_moment_route_detects_a_corrupted_difference_relation(monkeypatch, mode):
    # both runs of a point share the corrupted relation, so its own
    # certificate passes; only the moment route can see the change
    original = ladder.rn_diff_coefficients

    def corrupted(*args):
        a_n, b_n = original(*args)
        return [a_n * (1 + mpf("1e-6")), b_n]

    monkeypatch.setattr(ladder, "rn_diff_coefficients", corrupted)
    assert min(_moment_route_digits(mode, "0.5")) < 10


def test_scan_certifies_every_point_to_n_1024():
    n_list = (16, 32, 64, 128, 256, 512, 1024)
    res = double_scaling_scan("0.1", n_list, 1, "g1", LO, allow_large_n=True)
    assert res.errors == [None] * len(n_list)
    assert res.configs == [LO] * len(n_list)


def test_scan_point_whose_runs_disagree_is_an_error(monkeypatch):
    # a value that moves by 2^-(bits/8) holds 5 digits at 128 bits and 10
    # at 256: short of 15 at the point's bits and again at doubled bits
    def drifting(mode, n, params, config):
        return 1 + mpf(2) ** (-config.bits // 8)

    monkeypatch.setattr(scans, "_scan_value", drifting)
    cfg = PrecisionConfig(bits=128, target_digits=15)
    res = double_scaling_scan("0.1", (4, 8), 1, "g1", cfg)
    assert res.raw == [None, None]
    assert all("runs at 256 and 320 bits agree to" in error for error in res.errors)
    assert "point-errors" in res.flags


# --- the constant-term experiment ---------------------------------------------


def test_dyson_exact_ingredients():
    exp = dyson_constant_experiment(1, "0.05", 4, (4, 8), LO, route="scan")
    assert exp.cancellation_ok
    with working_precision(LO):
        assert abs(exp.exact_constant_sum - exp.reference) < mpf(10) ** -28
    assert exp.scan is not None
    assert exp.scan.reference_kind == "delta-large"
    assert exp.constant_estimate is not None


def test_dyson_ode_route_halts_at_the_pole():
    exp = dyson_constant_experiment(1, "0.05", 4, (4, 8), LO, route="ode",
                                    tolerance="1e-6")
    assert exp.ode_halted
    assert exp.ode_constant is None
    assert "ode-route-halted" in exp.flags
    with working_precision(LO):
        assert exp.ode_reached < mpf("0.9")


def test_dyson_auto_falls_back_to_scan():
    exp = dyson_constant_experiment(1, "0.05", 4, (4, 8, 16), LO, route="auto",
                                    tolerance="1e-6")
    assert exp.ode_halted
    assert exp.scan_constant is not None
    assert exp.constant_estimate == exp.scan_constant


def test_dyson_validation():
    with pytest.raises(ValueError):
        dyson_constant_experiment(1, 4, "0.05", (4, 8), LO)
    with pytest.raises(ValueError):
        dyson_constant_experiment(1, "0.05", 4, (4, 8), LO, route="series")
