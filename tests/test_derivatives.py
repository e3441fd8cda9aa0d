"""Finite differences: exactness, error-estimate honesty, instability."""

import pytest
from mpmath import mp, mpf

from hankelpv.derivatives import InstabilityError, derivative, derivative_bundle
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.quadrature import integrate_unit

CFG = PrecisionConfig()


def test_first_derivative_of_square():
    value, err = derivative(lambda x: x * x, 3, 1, CFG)
    with working_precision(CFG):
        assert abs(value - 6) <= err
        assert abs(value - 6) < mpf(10) ** -100


def test_second_derivative_of_cube():
    value, err = derivative(lambda x: x**3, 2, 2, CFG)
    with working_precision(CFG):
        assert abs(value - 12) <= err
        assert abs(value - 12) < mpf(10) ** -80


@pytest.mark.parametrize("degree", [3, 5, 8, 10])
def test_error_estimate_bounds_true_error_on_polynomials(degree):
    with working_precision(CFG):
        x0 = mpf(7) / 10

        def f(x):
            return sum(x**k for k in range(degree + 1))

        d1_true = sum(k * x0 ** (k - 1) for k in range(1, degree + 1))
        d2_true = sum(k * (k - 1) * x0 ** (k - 2) for k in range(2, degree + 1))
        bundle = derivative_bundle(f, x0, CFG)
        v1, e1 = bundle[1]
        v2, e2 = bundle[2]
        assert abs(v1 - d1_true) <= e1
        assert abs(v2 - d2_true) <= e2


def test_transcendental_first_derivative():
    with working_precision(CFG):
        x0 = mpf(1) / 2
        value, err = derivative(mp.sin, x0, 1, CFG)
        assert abs(value - mp.cos(x0)) < mpf(10) ** -90
        assert abs(value - mp.cos(x0)) <= err


def test_derivative_of_quadrature_backed_function():
    # F(t) = integral over (0,1) of e^(-t y) dy = (1 - e^-t)/t
    def F(t):
        return integrate_unit(lambda y: mp.exp(-t * y), CFG, target_digits=50)

    with working_precision(CFG):
        t0 = mpf(3) / 10
        value, err = derivative(F, t0, 1, CFG)
        exact = (mp.exp(-t0) * (t0 + 1) - 1) / t0**2
        assert abs(value - exact) < mpf(10) ** -40


def test_step_function_raises_instability():
    with working_precision(CFG):
        h0 = mpf(2) ** (-(CFG.bits // 4))
        kink = mpf(35) / 100 * h0

        def f(x):
            return mpf(1) if x > kink else mpf(-1)

        with pytest.raises(InstabilityError):
            derivative(f, 0, 1, CFG)

