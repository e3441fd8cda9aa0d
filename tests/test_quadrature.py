"""Double-exponential quadrature: classical integrals, endpoints, both maps, caching,
and the oracles built on it over the (alpha, t) domain the CLI accepts."""

import pytest
from mpmath import mp, mpf

from hankelpv import quadrature
from hankelpv.bridge import make_tilde_params, tilde_moments, verify_parity_splitting
from hankelpv.ladder import ROUTE_IDENTITY, ROUTE_QUADRATURE, aux_table
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import (
    ConvergenceError,
    clamped_exp,
    integrate,
    integrate_even,
    integrate_unit,
    integrate_unit_vector,
)
from hankelpv.recurrence import recurrence_table
from hankelpv.special import exp_beta_moment
from hankelpv.weights import MomentTable, make_params, weight_value

CFG = PrecisionConfig()


def close(a, b, digits):
    with working_precision(CFG.doubled()):
        return abs(mpf(a) - mpf(b)) <= mpf(10) ** (-digits) * max(1, abs(mpf(b)))


def test_constant_on_unit_interval():
    assert close(integrate_unit(lambda y: mpf(1), CFG), 1, CFG.target_digits)


def test_polynomial_weight_integral():
    # integral of (1-x^2) over [-1,1] equals 4/3, via both code paths
    with working_precision(CFG):
        expect = mpf(4) / 3
    got_affine = integrate(lambda x: 1 - x * x, (-1, 1), CFG)
    got_folded = integrate_even(lambda x: 1 - x * x, CFG)
    assert close(got_affine, expect, CFG.target_digits - 2)
    assert close(got_folded, expect, CFG.target_digits - 2)


def test_scalar_entries_are_one_mapped_pass():
    def f(x):
        return x * x

    assert integrate_even(f, CFG) == mp.ldexp(integrate_unit(f, CFG), 1)
    assert close(integrate(f, (-1, 2), CFG), 3, CFG.target_digits - 2)


def test_beta_endpoint_singularities():
    # integral over (0,1) of y^(-1/2) (1-y)^(-1/2) dy = pi
    def f(y):
        return 1 / mp.sqrt(y * (1 - y))

    with working_precision(CFG):
        assert close(integrate_unit(f, CFG), mp.pi, CFG.target_digits - 2)


def test_essential_singularity_against_mpmath():
    # integral over [-1,1] of (1-x^2) e^{-t/x^2}, t = 1/2
    with working_precision(CFG, extra_bits=64):
        t = mpf(1) / 2

        def f(x):
            return (1 - x * x) * clamped_exp(-t / (x * x), -t)

        ours = integrate_even(f, CFG, target_digits=40)
        theirs = mp.quad(lambda x: (1 - x * x) * mp.exp(-t / (x * x)), [-1, 0, 1])
    assert close(ours, theirs, 38)


def test_incomplete_gamma_tail_with_clamp():
    # integral over (0,1) of y^(-3/2) e^{-t/y} dy = sqrt(t) Gamma(-1/2, t) / ... ;
    # substitute u = 1/y: integral_1^inf u^(-1/2) e^{-tu} du
    with working_precision(CFG, extra_bits=64):
        t = mpf(2)

        def f(y):
            return y ** mpf(-1.5) * clamped_exp(-t / y, -t)

        ours = integrate_unit(f, CFG, target_digits=40)
        theirs = mp.quad(lambda u: u ** mpf(-0.5) * mp.exp(-t * u), [1, mp.inf])
    assert close(ours, theirs, 38)


def test_clamped_exp_underflow_is_exact_zero():
    with working_precision(CFG):
        assert clamped_exp(-10**6, 0) == 0
        assert clamped_exp(mpf(-1), 0) == mp.exp(-1)


def test_vector_integrand_matches_scalars():
    vals = integrate_unit_vector(lambda y, _omy: [mpf(1), y, y * y], 3, CFG)
    assert close(vals[0], 1, 55)
    with working_precision(CFG):
        assert close(vals[1], mpf(1) / 2, 55)
        assert close(vals[2], mpf(1) / 3, 55)


def _components_and_one_component_passes(t):
    with working_precision(CFG):
        t = mpf(t)
    fs = (lambda y, omy: y ** 5 * clamped_exp(-t / y, -t),
          lambda y, omy: mp.sqrt(y * omy) * clamped_exp(-t / y, -t),
          lambda y, omy: clamped_exp(-(t + mpf(1) / 50) / y, -t - mpf(1) / 50) / y ** 2)
    half = mpf(1) / 2
    vals = integrate_unit_vector(lambda y, omy: [f(y, omy) for f in fs], len(fs), CFG, t=t,
                                 exponent=half)
    return vals, [integrate_unit_vector(lambda y, omy, f=f: [f(y, omy)], 1, CFG, t=t,
                                        exponent=half)[0] for f in fs]


def test_vector_components_equal_scalar_passes():
    # each component stops at its own level, so batching changes no bit
    vals, alone = _components_and_one_component_passes(0)
    assert vals == alone


def test_z_map_components_equal_one_component_passes():
    vals, alone = _components_and_one_component_passes("0.02")
    assert vals == alone


def test_unit_pairs_keep_the_distance_to_one():
    # every point comes with its distance to 1 at full relative precision,
    # also where the point itself rounds onto 1
    points = []
    for t in (0, mpf(1) / 2):

        def f(y, omy):
            points.append((y, omy))
            return [mp.sqrt(omy) * clamped_exp(-t / y, -t)]

        points.clear()
        integrate_unit_vector(f, 1, CFG, t=t, exponent=mpf(1) / 2)
        with working_precision(CFG, extra_bits=quadrature.GUARD_BITS):
            assert all(0 < omy <= 1 and abs((1 - y) - omy) <= mp.eps for y, omy in points)
            assert any(y == 1 for y, _ in points)


def test_jump_discontinuity_raises_convergence_error():
    def f(y):
        return mpf(1) if y > 1 / mp.pi else mpf(0)

    with pytest.raises(ConvergenceError) as excinfo:
        integrate_unit(f, CFG)
    assert excinfo.value.last_two is not None


def test_determinism_and_node_cache_reuse():
    def f(y):
        return mp.sqrt(y)

    first = integrate_unit(f, CFG)
    cache_size = len(quadrature._NODE_CACHE)
    second = integrate_unit(f, CFG)
    assert first == second
    assert len(quadrature._NODE_CACHE) == cache_size


T_GRID = ("1e-6", "1e-3", "0.5", "2", "50")


@pytest.mark.parametrize("t", T_GRID)
def test_z_map_tilde_moments_match_the_closed_form(t):
    # x^a (1-x)^b e^(-t/x), p = 1, orders down to -3 as the jmo rows take them
    tp = make_tilde_params("-0.5", "0.7", t, CFG)
    values = tilde_moments(-3, 4, tp, CFG)
    with working_precision(CFG):
        for j, value in zip(range(-3, 5), values):
            closed = exp_beta_moment(j + tp.a, tp.b, tp.t, CFG)
            assert abs(value - closed) <= mpf(10) ** -CFG.target_digits * closed


@pytest.mark.parametrize("t", T_GRID)
def test_z_map_main_moments_match_the_table(t):
    # (1-x^2)^alpha e^(-t/x^2), p = 2, folded onto (0, 1)
    params = make_params("0.3", t, CFG)
    table = MomentTable.build(params, 6, CFG)

    def f(y, omy):
        w = weight_value(y, params, omy)
        return [w * y**j for j in (0, 2, 4, 6)]

    values = integrate_unit_vector(f, 4, CFG, t=params.t, p=2, exponent=params.alpha)
    with working_precision(CFG):
        for j, value in zip((0, 2, 4, 6), values):
            assert abs(2 * value - table[j]) <= mpf(10) ** -CFG.target_digits * table[j]


def test_z_map_window_too_narrow_raises(monkeypatch):
    # a window whose ends still carry the integrand cannot converge to the
    # integral, however fine the levels
    monkeypatch.setattr(quadrature, "_z_window", lambda *args: (-1, 1))
    tp = make_tilde_params("-0.5", "1", "0.5", CFG)
    with pytest.raises(ConvergenceError, match="window is too narrow") as excinfo:
        tilde_moments(0, 2, tp, CFG)
    assert excinfo.value.last_two is not None


@pytest.mark.parametrize("exponent", ["-0.95", "0", "2.5"])
def test_z_map_spike_at_one(exponent):
    # (1-x)^e e^(-t/x) is a closed-form moment; the window end at x = 1 is
    # sized from e, and the integrand reads 1 - x from the node
    with working_precision(CFG):
        e, t = mpf(exponent), mpf(1) / 2

    def f(y, omy):
        return [omy**e * clamped_exp(-t / y, -t)]

    [value] = integrate_unit_vector(f, 1, CFG, t=t, exponent=e)
    with working_precision(CFG):
        closed = exp_beta_moment(0, e, t, CFG)
        assert abs(value - closed) <= mpf(10) ** -CFG.target_digits * closed


@pytest.mark.parametrize("exponent", ["-0.95", "-0.8", "0", "2.5"])
def test_tanh_sinh_spike_at_one(exponent):
    # at t = 0 the window is sized from the exponent at x = 1 too: a
    # (1-x)^e spike, e < 0, needs 1/(e+1) times the window of e >= 0
    with working_precision(CFG):
        e = mpf(exponent)

    [value] = integrate_unit_vector(lambda y, omy: [omy**e], 1, CFG, exponent=e)
    with working_precision(CFG):
        closed = 1 / (e + 1)
        assert abs(value - closed) <= mpf(10) ** -CFG.target_digits * closed


def _z_ks(level, k_lo, k_hi):
    # the u-grid indices of the z-map nodes new at `level`, as _z_level_nodes lists them
    steps = 2**level
    return range(k_lo, k_hi + 1) if level == 0 else range(k_lo * steps + 1, k_hi * steps, 2)


@pytest.mark.parametrize("p", [1, 2])
def test_z_map_nodes_do_not_depend_on_the_fill_order(monkeypatch, p):
    # a node's e^-u is a product of exponentials cached per precision, so its
    # bits depend on (prec, p, level, k) alone: filling the cache through a
    # narrow window, finest level first, gives the same nodes
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    ascending = [quadrature._z_level_nodes(320, p, level, -5, 6) for level in range(6)]
    monkeypatch.setattr(quadrature, "_NODE_CACHE", {})
    for level in reversed(range(6)):
        quadrature._z_level_nodes(320, p, level, 1, 3)
    assert [quadrature._z_level_nodes(320, p, level, -5, 6) for level in range(6)] == ascending


@pytest.mark.parametrize("prec", [192, 320, 576])
@pytest.mark.parametrize("p", [1, 2])
def test_z_map_nodes_match_the_direct_formula(prec, p):
    # z = exp(u - e^-u) evaluated directly, 64 bits wider; 1 - x = 1 - (1+z)^(-1/p)
    # through expm1 and log1p, so it keeps its relative precision as z -> 0
    k_lo, k_hi = quadrature._z_window(prec, 0.5, 0)
    for level in range(8):
        nodes = quadrature._z_level_nodes(prec, p, level, k_lo, k_hi)
        with working_precision(prec + 64):
            tol = mpf(2) ** (16 - prec)
            for k, (w, ((x, omx),)) in zip(_z_ks(level, k_lo, k_hi), nodes, strict=True):
                u = mp.ldexp(k, -level)
                eu = mp.exp(-u)
                z = mp.exp(u - eu)
                omx_direct = -mp.expm1(-mp.log1p(z) / p)
                x_direct = 1 - omx_direct
                w_direct = x_direct ** (p + 1) * z * (1 + eu) / p
                for got, direct in ((x, x_direct), (omx, omx_direct), (w, w_direct)):
                    assert abs(got - direct) <= tol * direct, (level, k)


def test_clamped_exp_cuts_relative_to_the_peak():
    # e^(-t/x) at large t lies far below the absolute dynamic range, but
    # only a factor e^(-t/x + t) below the integrand's peak e^(-t)
    with working_precision(CFG):
        t = mpf(1000)
        assert clamped_exp(-t / mpf("0.999"), -t) == mp.exp(-t / mpf("0.999"))
        assert clamped_exp(-t / mpf("0.001"), -t) == 0


@pytest.mark.parametrize("t", [0, "0.5"])
def test_all_zero_component_is_a_convergence_error(t):
    # a component that is exactly 0 at every node has not been seen by the
    # pass, so 0 is no converged value
    with working_precision(CFG):
        t = mpf(t)

    def f(y, omy):
        return [omy * mp.exp(-t / y), mpf(0)]

    with pytest.raises(ConvergenceError, match="component 1 is exactly 0"):
        integrate_unit_vector(f, 2, CFG, t=t)


@pytest.mark.parametrize("t", [0, "1e-6", "0.5", 50, 200])
@pytest.mark.parametrize("alpha", ["0.05", "0.2", "1", "2.5"])
def test_quadrature_routes_over_the_cli_domain(alpha, t):
    # the defining integrals of r_n, R_n and sigma_n agree with the identity
    # route to target digits, and every parity row, whose auxiliary side is
    # quadrature end to end, passes
    cfg = PrecisionConfig(bits=128, target_digits=15)
    p = make_params(alpha, t, cfg)
    rec = recurrence_table(4, p, cfg)
    by_identity = aux_table(3, p, cfg, route=ROUTE_IDENTITY, recurrence=rec)
    by_integral = aux_table(3, p, cfg, route=ROUTE_QUADRATURE, recurrence=rec)
    with working_precision(cfg):
        tol = mpf(10) ** -cfg.target_digits
        for name in ("r", "R", "sigma"):
            for ident, integral in zip(getattr(by_identity, name), getattr(by_integral, name)):
                assert abs(ident - integral) <= tol * max(abs(ident), 1), (name, ident, integral)
    rows = verify_parity_splitting(1, p, cfg)
    assert len(rows) == 24
    assert [(r.identity, r.n) for r in rows if not r.passed] == []
