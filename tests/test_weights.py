"""Weight evaluation and moments: parity, closed form vs quadrature, guards."""

import pytest
from mpmath import mp, mpf

from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import clamped_exp, integrate_even
from hankelpv.weights import (
    CLOSED_FORM,
    QUADRATURE,
    MomentTable,
    WeightParams,
    make_params,
    moment_closed,
    moment_entry,
    moment_quadrature,
    negative_moments,
    weight_value,
)

CFG = PrecisionConfig()


def close(value, expected, tol):
    with working_precision(CFG, extra_bits=64):
        return abs(mpf(value) - mpf(expected)) < mpf(tol)


def test_params_validation():
    make_params(1, 0, CFG)
    make_params("0.7", "2", CFG)
    with pytest.raises(ValueError):
        make_params(0, 1, CFG)
    with pytest.raises(ValueError):
        make_params(-1, 1, CFG)
    with pytest.raises(ValueError):
        make_params(1, -1, CFG)


def test_weight_value_pointwise():
    with working_precision(CFG):
        p = make_params(1, 0, CFG)
        assert weight_value(mpf(1) / 2, p) == mpf(3) / 4
        assert weight_value(mpf(0), p) == 1
        assert weight_value(mpf(1), p) == 0
        assert weight_value(mpf(-1), p) == 0
        q = make_params(1, "0.5", CFG)
        assert weight_value(mpf(0), q) == 0
        x = mpf(3) / 10
        assert weight_value(-x, q) == weight_value(x, q)
        expected = (1 - x * x) * mp.exp(-mpf(1) / 2 / (x * x))
        assert close(weight_value(x, q), expected, mpf(10) ** -140)


def test_odd_moments_vanish_exactly():
    p = make_params("0.7", "0.5", CFG)
    for j in (1, 3, 7, 15):
        assert moment_closed(j, p, CFG) == 0
        assert moment_quadrature(j, p, CFG) == 0


@pytest.mark.parametrize(
    "alpha,j,expected",
    [
        (1, 0, "4/3"),
        (2, 0, "16/15"),
        (1, 2, "4/15"),
    ],
)
def test_unperturbed_moments_exact(alpha, j, expected):
    # t=0 reduces to polynomial integrals with rational values
    p = make_params(alpha, 0, CFG)
    with working_precision(CFG):
        num, den = expected.split("/")
        assert close(moment_closed(j, p, CFG), mpf(num) / mpf(den), mpf(10) ** -140)


@pytest.mark.parametrize("alpha", ["0.7", "1", "2.3"])
@pytest.mark.parametrize("j", [0, 2, 8, 14, 20])
def test_unperturbed_moments_beta_reduction(alpha, j):
    # x -> sqrt(u) turns the t=0 moment into a Beta integral
    p = make_params(alpha, 0, CFG)
    with working_precision(CFG):
        expected = mp.beta((mpf(j) + 1) / 2, p.alpha + 1)
        assert close(moment_closed(j, p, CFG), expected, mpf(10) ** -140)


@pytest.mark.parametrize("alpha", ["0.7", "2.3"])
@pytest.mark.parametrize("t", ["0.05", "2"])
@pytest.mark.parametrize("j", [0, 2, 10, 20])
def test_closed_matches_quadrature(alpha, t, j):
    p = make_params(alpha, t, CFG)
    with working_precision(CFG):
        a = moment_closed(j, p, CFG)
        b = moment_quadrature(j, p, CFG)
        assert abs(a - b) <= abs(a) * mpf(10) ** -30


@pytest.mark.parametrize("t", ["0.001", "0.5", "3"])
def test_negative_moments_match_quadrature(t):
    # the Pearson relation run downward against the defining integral
    p = make_params("1.5", t, CFG)
    low = negative_moments(MomentTable.build(p, 2, CFG), -4)
    assert sorted(low) == [-4, -2]
    with working_precision(CFG):
        for j, value in low.items():
            q = moment_quadrature(j, p, CFG)
            assert abs(value - q) <= abs(q) * mpf(10) ** -30


def test_negative_moments_need_positive_t():
    p = make_params(1, 0, CFG)
    with pytest.raises(ValueError):
        negative_moments(MomentTable.build(p, 2, CFG), -2)


def test_cancellation_escalation_stays_closed_form():
    # at t=100 the two terms cancel ~51 digits, past the target/2 guard;
    # one doubling recovers the value without leaving the closed form
    p = make_params(1, 100, CFG)
    value, source = moment_entry(0, p, CFG)
    assert source == CLOSED_FORM
    with working_precision(CFG):
        q = moment_quadrature(0, p, CFG)
        assert abs(value - q) <= abs(value) * mpf(10) ** -30
        assert close(mp.log(value), mpf("-109.2587"), mpf("0.001"))


def test_cancellation_fallback_marks_quadrature():
    # at t=600 the difference is pure noise even after doubling once
    p = make_params(1, 600, CFG)
    value, source = moment_entry(0, p, CFG)
    assert source == QUADRATURE
    assert value > 0
    with working_precision(CFG):
        expected_log = mpf("-612.802154760317842149860789624")
        assert close(mp.log(value), expected_log, mpf(10) ** -25)


def test_moment_table_parity_and_positivity():
    p = make_params("2.3", "0.5", CFG)
    table = MomentTable.build(p, 12, CFG)
    assert table.mu[0] > 0
    for j in range(0, 13, 2):
        assert table.provenance[j] == CLOSED_FORM
    for j in range(1, 13, 2):
        assert table.mu[j] == 0
    with working_precision(CFG):
        # even moments of an even positive weight are positive and decreasing
        for j in range(0, 11, 2):
            assert table.mu[j] > table.mu[j + 2] > 0


def test_moment_table_extension_consistent():
    p = make_params(1, "0.05", CFG)
    table = MomentTable.build(p, 4, CFG)
    table.extend(10)
    fresh = MomentTable.build(p, 10, CFG)
    assert len(table.mu) == len(fresh.mu) == 11
    assert table.mu == fresh.mu


def test_moment_determinism():
    p = make_params("0.7", "0.5", CFG)
    a, _ = moment_entry(6, p, CFG)
    b, _ = moment_entry(6, p, CFG)
    assert a == b


def test_quadrature_weight_cross_check():
    # independent path: raw integrand assembled inline, not via weight_value
    p = make_params(1, "0.5", CFG)
    with working_precision(CFG):
        t = mpf(1) / 2

        def f(x):
            return (1 - x * x) * clamped_exp(-t / (x * x))

        direct = integrate_even(f, CFG)
        assert abs(direct - moment_closed(0, p, CFG)) < mpf(10) ** -55
