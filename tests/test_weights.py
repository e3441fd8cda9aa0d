"""Weight evaluation and moments: parity, the table route vs quadrature, accuracy."""

import pytest
from mpmath import mp, mpf

from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import clamped_exp, integrate_even
from hankelpv.special import exp_beta_moment
from hankelpv.weights import (
    CLOSED_FORM,
    PEARSON,
    MomentTable,
    make_params,
    moment_entry,
    moment_quadrature,
    negative_moments,
    weight_value,
)

CFG = PrecisionConfig()


def moment(j, p):
    return moment_entry(j, p, CFG)[0]


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
        assert moment(j, p) == 0
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
        assert close(moment(j, p), mpf(num) / mpf(den), mpf(10) ** -140)


@pytest.mark.parametrize("alpha", ["0.7", "1", "2.3"])
@pytest.mark.parametrize("j", [0, 2, 8, 14, 20])
def test_unperturbed_moments_beta_reduction(alpha, j):
    # x -> sqrt(u) turns the t=0 moment into a Beta integral
    p = make_params(alpha, 0, CFG)
    with working_precision(CFG):
        expected = mp.beta((mpf(j) + 1) / 2, p.alpha + 1)
        assert close(moment(j, p), expected, mpf(10) ** -140)


@pytest.mark.parametrize("alpha", ["0.7", "2.3"])
@pytest.mark.parametrize("t", ["0.05", "2"])
@pytest.mark.parametrize("j", [0, 2, 10, 20])
def test_closed_matches_quadrature(alpha, t, j):
    p = make_params(alpha, t, CFG)
    with working_precision(CFG):
        a = moment(j, p)
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


def test_large_t_moment_matches_quadrature():
    # at t=100 mu_0 sits at the foot of a 100-step downward Pearson run
    p = make_params(1, 100, CFG)
    value, source = moment_entry(0, p, CFG)
    assert source == PEARSON
    with working_precision(CFG):
        q = moment_quadrature(0, p, CFG)
        assert abs(value - q) <= abs(value) * mpf(10) ** -30
        assert close(mp.log(value), mpf("-109.2587"), mpf("0.001"))


def test_very_large_t_moment_matches_recorded_log():
    p = make_params(1, 600, CFG)
    value, source = moment_entry(0, p, CFG)
    assert source == PEARSON
    assert value > 0
    with working_precision(CFG):
        expected_log = mpf("-612.802154760317842149860789624")
        assert close(mp.log(value), expected_log, mpf(10) ** -25)


def test_large_t_table_builds_at_low_bits():
    # at t = 1300 the anchors cancel about 3800 bits, past hypercomb's
    # default precision cap at 128 bits
    cfg = PrecisionConfig(bits=128, target_digits=15)
    ref = cfg.with_bits(512)
    table = MomentTable.build(make_params(1, 1300, cfg), 8, cfg)
    exact = MomentTable.build(make_params(1, 1300, ref), 8, ref)
    with working_precision(ref):
        tol = mpf(2) ** (7 - cfg.bits)
        for j in range(0, 9, 2):
            assert abs(table.mu[j] - exact.mu[j]) <= tol * exact.mu[j], j


def test_moment_table_parity_and_positivity():
    p = make_params("2.3", "0.5", CFG)
    table = MomentTable.build(p, 12, CFG)
    assert table.mu[0] > 0
    # k0 = floor(0.5) = 0: the anchors are mu_0 and mu_2
    assert table.provenance[0] == table.provenance[2] == CLOSED_FORM
    for j in range(4, 13, 2):
        assert table.provenance[j] == PEARSON
    for j in range(1, 13, 2):
        assert table.mu[j] == 0
        assert table.provenance[j] == CLOSED_FORM
    with working_precision(CFG):
        # even moments of an even positive weight are positive and decreasing
        for j in range(0, 11, 2):
            assert table.mu[j] > table.mu[j + 2] > 0


def test_moment_table_extension_consistent():
    # the anchors sit at k0 = floor(t) whatever the size: at t = 20 build(4)
    # already ran the relation down from mu_40, mu_42, and extend(60) runs up
    for alpha, t, j_small, j_big in ((1, "0.05", 4, 10), ("2.5", "20", 4, 60)):
        p = make_params(alpha, t, CFG)
        table = MomentTable.build(p, j_small, CFG)
        before = list(table.mu)
        table.extend(j_big)
        fresh = MomentTable.build(p, j_big, CFG)
        assert len(table.mu) == len(fresh.mu) == j_big + 1
        assert table.mu[:j_small + 1] == before
        assert table.mu == fresh.mu
        assert table.provenance == fresh.provenance
    assert [j for j in range(0, 61, 2) if fresh.provenance[j] == CLOSED_FORM] == [40, 42]


ALPHAS = ("0.01", "1", "2.5", "10")
GRID_T = ("0", "1e-30", "1e-6", "0.5", "3", "20", "60", "200")
J_TOP = 258


@pytest.mark.parametrize("alpha", ALPHAS)
def test_tables_hold_their_bits(alpha):
    # Every entry up to J_TOP at 128, 256 and 512 bits is within 2^(7-bits)
    # relative of the table at 3x the bits, whose anchors are the U form
    # at 3x the bits: a recurrence run in an unstable direction loses
    # bits at every precision and shows here. That the 3x table is the U
    # form at every order is test_tables_are_the_u_form_at_every_order.
    for t in GRID_T:
        for bits in (128, 256, 512):
            cfg = PrecisionConfig(bits=bits, target_digits=15)
            ref = cfg.with_bits(3 * bits)
            table = MomentTable.build(make_params(alpha, t, cfg), J_TOP, cfg)
            exact = MomentTable.build(make_params(alpha, t, ref), J_TOP, ref)
            with working_precision(ref):
                tol = mpf(2) ** (7 - bits)
                for j in range(0, J_TOP + 1, 2):
                    assert abs(table.mu[j] - exact.mu[j]) <= tol * exact.mu[j], (t, bits, j)


@pytest.mark.parametrize("alpha,t", [("10", "0"), ("0.01", "1e-30"), ("0.01", "1e-6"),
                                     ("1", "0.5"), ("10", "3"), ("2.5", "20"), ("1", "60")])
def test_tables_are_the_u_form_at_every_order(alpha, t):
    # the Pearson run against the one-term U form evaluated entry by entry
    cfg = PrecisionConfig(bits=384, target_digits=15)
    p = make_params(alpha, t, cfg)
    table = MomentTable.build(p, J_TOP, cfg)
    with working_precision(cfg):
        tol = mpf(2) ** (7 - cfg.bits)
        for j in range(0, J_TOP + 1, 2):
            closed = exp_beta_moment(j // 2 - mpf(1) / 2, p.alpha, p.t, cfg)
            assert abs(table.mu[j] - closed) <= tol * closed, j


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
            return (1 - x * x) * clamped_exp(-t / (x * x), -t)

        direct = integrate_even(f, CFG)
        assert abs(direct - moment(0, p)) < mpf(10) ** -55
