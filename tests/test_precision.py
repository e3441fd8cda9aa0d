"""Precision policy behavior: validation, thresholds, determinism."""

import pytest
from mpmath import mp, mpf

from hankelpv import precision
from hankelpv.precision import PrecisionConfig, working_precision


def test_default_config_is_valid():
    cfg = PrecisionConfig()
    assert cfg.bits == 512
    assert cfg.target_digits == 60


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bits": 64},
        {"bits": 127},
        {"target_digits": 0},
        {"bits": 128, "target_digits": 40},  # capacity of 128 bits is 28
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


def test_derived_configs_are_checked_on_construction():
    cfg = PrecisionConfig(bits=128, target_digits=20)
    assert type(cfg.with_bits(256)) is type(cfg.doubled()) is PrecisionConfig
    assert cfg.doubled() == cfg.with_bits(256) == PrecisionConfig(bits=256, target_digits=20)
    with pytest.raises(ValueError):
        cfg.with_bits(64)


def test_equal_configs_compare_and_hash_equal():
    cfg = PrecisionConfig(bits=256, target_digits=30)
    assert cfg == PrecisionConfig(256, 30) and hash(cfg) == hash(PrecisionConfig(256, 30))
    assert cfg != PrecisionConfig(bits=256, target_digits=31)
    assert repr(cfg) == "PrecisionConfig(bits=256, target_digits=30)"


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


@pytest.mark.parametrize("fail_at, bits", [((), 128), ((128,), 256)],
                         ids=["first-run", "retry"])
def test_escalated_retries_once_at_doubled_bits(fail_at, bits):
    cfg = PrecisionConfig(bits=128, target_digits=20)
    calls = []

    def work(config):
        calls.append(config.bits)
        if config.bits in fail_at:
            raise precision.NumericsError("precision ran out")
        return config.bits

    assert precision.escalated(work, cfg) == (bits, cfg.with_bits(bits))
    assert calls == [*fail_at, bits]


@pytest.mark.parametrize("error, calls", [
    (precision.NumericsError, [128, 256]),
    (ValueError, [128]),
], ids=["second-failure", "value-error"])
def test_escalated_propagates(error, calls):
    # a second NumericsError is not retried, a ValueError not even once
    seen = []

    def work(config):
        seen.append(config.bits)
        raise error("no value")

    with pytest.raises(error):
        precision.escalated(work, PrecisionConfig(bits=128, target_digits=20))
    assert seen == calls


def test_stabilized_returns_stable_value_and_respects_cap():
    # the cap is one escalation: a pair at the config's bits, one at doubled bits
    cfg = PrecisionConfig(bits=128, target_digits=20)
    calls = []

    def good(config):
        calls.append(config.bits)
        with working_precision(config):
            return mp.exp(1)

    val, used = precision.stabilized(good, cfg)
    assert used == cfg and calls == [128, 192]
    with working_precision(cfg):
        assert abs(val - mp.e) < mpf(10) ** -19

    calls.clear()

    def jittery(config):
        # changes with every run: never stabilizes
        calls.append(config.bits)
        with working_precision(config):
            return mpf(2) ** (-len(calls))

    with pytest.raises(precision.EscalationError) as excinfo:
        precision.stabilized(jittery, cfg)
    assert calls == [128, 192, 256, 320]
    assert excinfo.value.last_two == (mpf(2) ** -3, mpf(2) ** -4)
    assert "runs at 256 and 320 bits agree to" in str(excinfo.value)


def test_exact_zero_is_stable():
    cfg = PrecisionConfig(bits=128, target_digits=20)
    assert precision.stabilized(lambda config: mpf(0), cfg) == (0, cfg)
