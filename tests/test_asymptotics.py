"""Double-scaling layer: series tables, scaled flows, scans, experiments."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from hankelpv import asymptotics
from hankelpv.asymptotics import (
    FIXED_KINDS,
    ORDER_SMALL_SEED,
    SEED_EXPLICIT,
    SEED_LARGE_SERIES,
    SEED_SMALL_SERIES,
    SERIES_KINDS,
    c_constant,
    continue_pv,
    double_scaling_scan,
    dyson_constant_experiment,
    dyson_reference,
    g_large_coefficients,
    g_small_coefficients,
    log_ratio_small_coefficients,
    pv_residual_rows,
    series_eval,
    series_expansion,
    sigma_form_residual,
    solve_piii_prime,
)
from hankelpv.cli import _grid, target_digits_for_bits
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.special import UnsupportedArgumentError
from hankelpv.weights import make_params

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
    traj = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-7", seed_order=40,
                            sample_points=["0.25"])
    assert not traj.halted
    with working_precision(LO):
        ref = series_eval("g-small", "0.25", LO, a=HALF)
        got = traj.value_at(mpf("0.25"))
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
    one = solve_piii_prime(HALF, "0.5", LO, tolerance="1e-7", seed_order=40)
    two = solve_piii_prime(HALF, "0.5", LO, tolerance="5e-8", seed_order=40)
    assert not one.halted and not two.halted
    with working_precision(LO):
        assert abs(one.endpoint[1] - two.endpoint[1]) < mpf(10) ** -25


def test_flow_halts_at_movable_pole():
    traj = solve_piii_prime(HALF, 2, LO, tolerance="1e-6", seed_order=40)
    assert traj.halted
    assert "guard" in traj.halt_reason
    with working_precision(LO):
        assert mpf("0.85") < traj.reached < mpf("0.92")
        assert traj.samples[-1][1] > mpf(10) ** 6


def test_flow_halts_at_movable_zero():
    # the negative-parameter branch runs into g = 0, where the 1/(4g)
    # term is singular
    traj = solve_piii_prime(-HALF, 2, LO, tolerance="1e-6", seed_order=40)
    assert traj.halted
    with working_precision(LO):
        assert mpf("0.85") < traj.reached < mpf("0.92")
        assert abs(traj.samples[-1][1]) < mpf(10) ** -10


def test_flow_large_seed_downward():
    traj = solve_piii_prime(HALF, 50, LO, seed=SEED_LARGE_SERIES, tolerance="1e-7")
    assert not traj.halted
    assert traj.s0 == 100
    with working_precision(LO):
        ref = series_eval("g-large", 50, LO, a=HALF)
        assert abs(traj.endpoint[1] - ref.value) < ref.truncation


def test_flow_explicit_seed():
    base = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-7", seed_order=40)
    s0, g0, gp0 = base.endpoint
    cont = solve_piii_prime(HALF, "0.5", LO, seed=SEED_EXPLICIT, s0=s0,
                            y0=(g0, gp0), tolerance="1e-7")
    direct = solve_piii_prime(HALF, "0.5", LO, tolerance="1e-7", seed_order=40)
    with working_precision(LO):
        assert abs(cont.endpoint[1] - direct.endpoint[1]) < mpf(10) ** -20


def test_flow_argument_validation():
    with pytest.raises(ValueError):
        solve_piii_prime(HALF, 0, LO)
    with pytest.raises(ValueError):
        solve_piii_prime(HALF, 1, LO, seed="bootstrap")
    with pytest.raises(ValueError):
        solve_piii_prime(HALF, 1, LO, seed=SEED_EXPLICIT, s0="0.5")
    with pytest.raises(ValueError):
        solve_piii_prime(Fraction(3), 1, LO)


def test_flow_value_at_unknown_point():
    traj = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-6", seed_order=40)
    with pytest.raises(ValueError):
        traj.value_at(mpf("0.123456"))


def test_flow_checkpoints_do_not_multiply_the_work(taylor_steps):
    # the 17 sample points that `hankelpv solve-p3 --s 0.1` asks for are
    # read off the Taylor polynomials of the steps that cover them
    config = PrecisionConfig(bits=320, target_digits=target_digits_for_bits(320))
    points = _grid("0.05", "0.1", 17, config)[1:]
    free = solve_piii_prime(HALF, "0.1", config)
    free_steps = list(taylor_steps)
    taylor_steps.clear()
    sampled = solve_piii_prime(HALF, "0.1", config, sample_points=points)
    assert not free.halted and not sampled.halted
    assert len(sampled.samples) > len(points)
    assert taylor_steps == free_steps
    assert sampled.steps == free.steps == len(free_steps)


def test_flow_determinism():
    one = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-6", seed_order=40)
    two = solve_piii_prime(HALF, "0.25", LO, tolerance="1e-6", seed_order=40)
    assert one.endpoint == two.endpoint


# each flow's jet against its right-hand side, at points off the seeded paths:
# (rhs, jet, x, y)
JETS = {
    "piii-plus": (asymptotics._piii_rhs(mpf(1) / 2), asymptotics._piii_jet(mpf(1) / 2),
                  "0.3", ("0.25", "0.9")),
    "piii-minus": (asymptotics._piii_rhs(-mpf(1) / 2), asymptotics._piii_jet(-mpf(1) / 2),
                   "1.2", ("-0.4", "0.3")),
    "pv-even": (asymptotics._pv_rhs(2, mpf(1)), asymptotics._pv_jet(2, mpf(1)),
                "0.2", ("1.1", "5")),
    "pv-odd": (asymptotics._pv_rhs(3, mpf(5) / 2), asymptotics._pv_jet(3, mpf(5) / 2),
               "0.6", ("0.8", "-1.2")),
    "coupled": (asymptotics._coupled_rhs(mpf(1) / 2), asymptotics._coupled_jet(mpf(1) / 2),
                "0.4", ("0.3", "0.8", "-0.2", "0.1")),
}


@pytest.mark.parametrize("name", list(JETS))
def test_each_jet_encodes_its_rhs(name):
    # a slip in clearing a denominator shows here even where an endpoint
    # check would absorb it
    rhs, jet, x, y = JETS[name]
    with working_precision(LO):
        x, y = mpf(x), [mpf(v) for v in y]
        rows = jet(x, y, 40)
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


# --- finite-n evolution ---------------------------------------------------------


def test_pv_endpoint_matches_direct_tables():
    params = make_params(1, "0.1", LO)
    traj = continue_pv(2, params, "0.1", 1, LO, tolerance="1e-6")
    assert not traj.halted
    with working_precision(LO):
        assert traj.endpoint_gap < mpf(10) ** -20


def test_pv_residual_rows_pass():
    params = make_params(1, "0.1", LO)
    traj = continue_pv(2, params, "0.1", 1, LO, tolerance="1e-6")
    rows = pv_residual_rows(traj, LO, max_rows=9)
    assert 2 <= len(rows) <= 9
    assert all(r.identity == "pv-path" for r in rows)
    assert all(r.passed for r in rows)
    assert rows[0].t == traj.t0
    assert rows[-1].t == traj.t_end


def test_pv_trivial_span():
    params = make_params(1, "0.3", LO)
    traj = continue_pv(3, params, "0.3", "0.3", LO)
    assert len(traj.samples) == 1
    assert traj.endpoint_gap == 0
    assert not traj.halted


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
        double_scaling_scan("0.1", (4, 96), 1, "g1", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("0.1", (4, 8), 1, "sigma-n2", LO)
    with pytest.raises(ValueError):
        double_scaling_scan("-0.1", (4, 8), 1, "g1", LO)


def test_scan_determinism():
    one = double_scaling_scan("0.1", (4, 8), 1, "g2", LO)
    two = double_scaling_scan("0.1", (4, 8), 1, "g2", LO)
    assert one.raw == two.raw
    assert one.extrapolated == two.extrapolated


# --- the scaled second-order form ------------------------------------------------


def test_sigma_form_constant_sampler_is_trivial():
    rows = sigma_form_residual(lambda s: mpf(3), ["0.1", "0.5"], LO)
    assert all(r.trivial and r.passed for r in rows)
    assert all(r.identity == "sf" for r in rows)


def test_sigma_form_square_root_family_satisfies_it():
    # sigma = C sqrt(s) zeroes the form identically for every C
    for c in ("1", "-0.7"):
        rows = sigma_form_residual(lambda s, c=mpf(c): c * s ** mpf("0.5"),
                                   ["0.1", "0.4"], LO)
        assert all(r.passed and not r.trivial for r in rows)


def test_sigma_form_flags_non_solution():
    rows = sigma_form_residual(lambda s: s * s, ["0.5"], LO)
    assert not rows[0].passed
    with working_precision(LO):
        assert rows[0].residual > mpf("0.1")


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
