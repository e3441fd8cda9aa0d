"""tanh-sinh quadrature: classical integrals, endpoint behavior, caching."""

import pytest
from mpmath import mp, mpf

from hankelpv import quadrature
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import (
    ConvergenceError,
    clamped_exp,
    integrate,
    integrate_even,
    integrate_unit,
    integrate_unit_vector,
)

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
            return (1 - x * x) * clamped_exp(-t / (x * x))

        ours = integrate_even(f, CFG, target_digits=40)
        theirs = mp.quad(lambda x: (1 - x * x) * mp.exp(-t / (x * x)), [-1, 0, 1])
    assert close(ours, theirs, 38)


def test_incomplete_gamma_tail_with_clamp():
    # integral over (0,1) of y^(-3/2) e^{-t/y} dy = sqrt(t) Gamma(-1/2, t) / ... ;
    # substitute u = 1/y: integral_1^inf u^(-1/2) e^{-tu} du
    with working_precision(CFG, extra_bits=64):
        t = mpf(2)

        def f(y):
            return y ** mpf(-1.5) * clamped_exp(-t / y)

        ours = integrate_unit(f, CFG, target_digits=40)
        theirs = mp.quad(lambda u: u ** mpf(-0.5) * mp.exp(-t * u), [1, mp.inf])
    assert close(ours, theirs, 38)


def test_clamped_exp_underflow_is_exact_zero():
    with working_precision(CFG):
        assert clamped_exp(-10**6) == 0
        assert clamped_exp(mpf(-1)) == mp.exp(-1)


def test_vector_integrand_matches_scalars():
    vals = integrate_unit_vector(lambda y: [mpf(1), y, y * y], 3, CFG)
    assert close(vals[0], 1, 55)
    with working_precision(CFG):
        assert close(vals[1], mpf(1) / 2, 55)
        assert close(vals[2], mpf(1) / 3, 55)


def test_vector_components_equal_scalar_passes():
    # each component stops at its own level, so batching changes no bit
    fs = (lambda y: y ** 5, mp.sqrt, lambda y: clamped_exp(-1 / (50 * y)) / y ** 2)
    vals = integrate_unit_vector(lambda y: [f(y) for f in fs], len(fs), CFG)
    assert vals == [integrate_unit(f, CFG) for f in fs]


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
