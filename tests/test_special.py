"""Special-function wrappers against classical values and cross-oracles."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf

from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.special import (
    PoleError,
    UnsupportedArgumentError,
    gamma,
    kummer_phi,
    log_barnes_g,
    zeta_prime_minus_one,
)

CFG = PrecisionConfig()


def close(a, b, digits):
    with working_precision(CFG.doubled()):
        return abs(mpf(a) - mpf(b)) <= mpf(10) ** (-digits) * max(1, abs(mpf(b)))


class TestGamma:
    def test_classical_values(self):
        assert gamma(1, CFG) == 1
        assert gamma(5, CFG) == 24
        with working_precision(CFG):
            assert close(gamma(mpf(1) / 2, CFG), mp.sqrt(mp.pi), CFG.target_digits - 1)

    @pytest.mark.parametrize("x", [0, -1, -7])
    def test_poles_rejected(self, x):
        with pytest.raises(PoleError):
            gamma(x, CFG)


class TestKummerPhi:
    def test_z_zero_gives_one(self):
        assert kummer_phi(0.3, 1.7, 0, CFG) == 1

    def test_a_equals_b_gives_exp(self):
        with working_precision(CFG):
            assert close(kummer_phi(1, 1, mpf(3) / 2, CFG), mp.exp(mpf(3) / 2), 58)

    @pytest.mark.parametrize("t", ["0.05", "0.5", "2"])
    def test_terminating_a_minus_one(self, t):
        with working_precision(CFG):
            tv = mpf(t)
            assert close(kummer_phi(-1, mpf(1) / 2, -tv, CFG), 1 + 2 * tv, 58)

    def test_terminating_series_with_negative_integer_b(self):
        # a = -2 terminates before (b)_k = 0 at k = 5
        exact = Fraction(1)
        num, den, zp = Fraction(1), Fraction(1), Fraction(1)
        a, b, z = Fraction(-2), Fraction(-5), Fraction(13, 10)
        from math import factorial

        for k in range(1, 3):
            num *= a + k - 1
            den *= b + k - 1
            zp *= z
            exact += num * zp / (den * factorial(k))
        with working_precision(CFG):
            got = kummer_phi(mpf(-2), mpf(-5), mpf(13) / 10, CFG)
            assert close(got, mpf(exact.numerator) / exact.denominator, 58)

    def test_parameter_pole_rejected(self):
        with pytest.raises(PoleError):
            kummer_phi(0.3, -2, 1.0, CFG)
        with pytest.raises(PoleError):
            kummer_phi(-5, -2, 1.0, CFG)  # b cuts the series before a does

    @pytest.mark.parametrize("alpha", ["0.7", "1", "2.3"])
    @pytest.mark.parametrize("t", ["0.05", "0.5", "2"])
    def test_negative_z_values_stable_under_doubling(self, alpha, t):
        # the alternating regime the moment formula exercises
        with working_precision(CFG.doubled()):
            a = -mpf(1) / 2 - mpf(alpha)
            v_lo = kummer_phi(a, mpf(1) / 2, -mpf(t), CFG)
            v_hi = kummer_phi(a, mpf(1) / 2, -mpf(t), CFG.doubled())
            assert close(v_lo, v_hi, CFG.target_digits - 1)


class TestBarnesG:
    def test_anchor_values(self):
        assert log_barnes_g(1, CFG) == 0
        assert log_barnes_g(3, CFG) == 0
        with working_precision(CFG):
            assert close(log_barnes_g(4, CFG), mp.log(2), 58)

    def test_recurrence_step(self):
        # ln G(x+1) - ln G(x) = ln Gamma(x)
        with working_precision(CFG):
            for x in (mpf(1) / 2, mpf(5) / 2, mpf(7)):
                lhs = log_barnes_g(x + 1, CFG) - log_barnes_g(x, CFG)
                assert close(lhs, mp.loggamma(x), 55)

    def test_half_integer_against_mpmath_barnesg(self):
        with working_precision(CFG):
            ours = log_barnes_g(mpf(1) / 2, CFG)
            theirs = mp.log(mp.barnesg(mpf(1) / 2))
            assert close(ours, theirs, 50)

    @pytest.mark.parametrize("x", [0, -1, "0.3", 1.25])
    def test_unsupported_arguments(self, x):
        with pytest.raises(UnsupportedArgumentError):
            log_barnes_g(x, CFG)


class TestZetaPrime:
    def test_frozen_digits(self):
        # leading digits of zeta'(-1) and ln A (parsed inside close at full bits)
        assert close(zeta_prime_minus_one(CFG), "-0.165421143700450929213919660242780642764", 38)
        with working_precision(CFG):
            ln_a = mpf(1) / 12 - zeta_prime_minus_one(CFG)
        assert close(ln_a, "0.2487544770337842625472529935761139760974", 38)

    def test_against_mpmath_zeta_derivative(self):
        with working_precision(CFG):
            theirs = mp.zeta(-1, derivative=1)
            assert close(zeta_prime_minus_one(CFG), theirs, CFG.target_digits - 2)

    def test_full_target_digits_at_512_bits(self):
        config = PrecisionConfig(bits=512, target_digits=140)
        with working_precision(1024):
            theirs = mp.zeta(-1, derivative=1)
            ours = zeta_prime_minus_one(config)
            assert abs(ours - theirs) <= mpf(10) ** -140 * abs(theirs)

    def test_assembled_constant(self):
        # ln2/12 + 3 zeta'(-1), the constant appearing in the large-s regime
        with working_precision(CFG):
            value = mp.log(2) / 12 + 3 * zeta_prime_minus_one(CFG)
            assert close(value, "-0.4385011660546906785236563039401605476191", 38)
