"""Precision policy behavior: validation, thresholds, determinism."""

import pytest
from mpmath import mp, mpf

from hankelpv import precision
from hankelpv.precision import PrecisionConfig, working_precision


def test_default_config_is_valid():
    cfg = PrecisionConfig()
    assert cfg.bits == 512
    assert cfg.target_digits == 60
    assert cfg.residual_scale == 0.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bits": 64},
        {"bits": 127},
        {"target_digits": 0},
        {"bits": 128, "target_digits": 40},  # capacity of 128 bits is 28
        {"residual_scale": 0.0},
        {"residual_scale": 1.5},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        PrecisionConfig(**kwargs)


def test_residual_threshold_default_is_1e30():
    cfg = PrecisionConfig()
    with working_precision(cfg):
        assert cfg.residual_threshold() == mpf(10) ** -30


def test_with_bits_clamps_target_digits():
    cfg = PrecisionConfig(bits=512, target_digits=140)
    narrower = cfg.with_bits(256)
    assert narrower.bits == 256
    assert narrower.target_digits == precision.digits_capacity(256)
    assert cfg.doubled().bits == 1024


def test_working_precision_restores_global_state():
    saved = mp.prec
    with working_precision(PrecisionConfig(bits=320)):
        assert mp.prec == 320
    assert mp.prec == saved


def test_to_mpf_parses_decimal_strings_at_full_precision():
    cfg = PrecisionConfig()
    x = precision.to_mpf("0.1", cfg)
    with working_precision(cfg):
        # 512-bit parse differs from a double round-trip beyond 53 bits
        assert abs(x - mpf(1) / 10) < mpf(2) ** -500
        assert abs(mpf(0.1) - mpf(1) / 10) > mpf(2) ** -60


def test_stabilized_returns_stable_value_and_respects_cap():
    cfg = PrecisionConfig(bits=128, target_digits=20)

    def good(bits):
        with working_precision(bits):
            return mp.exp(1)

    val = precision.stabilized(good, cfg)
    with working_precision(cfg):
        assert abs(val - mp.e) < mpf(10) ** -19

    calls = []

    def jittery(bits):
        # changes with every precision level: never stabilizes
        calls.append(bits)
        with working_precision(bits):
            return mpf(2) ** (-len(calls))

    with pytest.raises(precision.EscalationError) as excinfo:
        precision.stabilized(jittery, cfg)
    assert excinfo.value.last_two is not None
    assert max(calls) <= precision.ESCALATION_CAP * cfg.bits


def test_exact_zero_is_stable():
    cfg = PrecisionConfig(bits=128, target_digits=20)
    assert precision.stabilized(lambda bits: mpf(0), cfg) == 0
