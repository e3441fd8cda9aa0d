"""Precision policy shared by every numeric routine in the package.

All arithmetic goes through mpmath's global real context, but only inside
the `working_precision` context manager, which pins the binary precision
and restores it afterwards. A `PrecisionConfig` bundles the two knobs
that matter: working bits and the decimal digits the caller wants
certified. An identity residual passes below 10^(-RESIDUAL_SCALE *
target_digits).
Given identical inputs and an identical config, every routine in this
package is bit-for-bit deterministic: node orderings, sums and step
sequences are all fixed.
The one escalation policy lives here: `escalated` reruns a failed
computation once at doubled bits, and `stabilized` certifies a value by a
second run at SECOND_RUN_BITS more bits, escalating through it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import NamedTuple

from mpmath import mp, mpf

ENV_BITS = "HANKELPV_BITS"

MIN_BITS = 128
DEFAULT_BITS = 512
DEFAULT_TARGET_DIGITS = 60
# fraction of target_digits used as the identity residual threshold
RESIDUAL_SCALE = 0.5

# Decimal digits reserved as guard when converting bits -> digits capacity.
GUARD_DIGITS = 10

# A value is certified by a second run at this many more bits.
SECOND_RUN_BITS = 64


class NumericsError(Exception):
    """Base class for numeric diagnostics raised by this package."""


class EscalationError(NumericsError):
    """Two runs of a value disagree, at its bits and again at doubled bits."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


def digits_capacity(bits: int) -> int:
    """Decimal digits certifiable at `bits` binary digits, minus guard."""
    return int(bits * math.log10(2.0)) - GUARD_DIGITS


class _Precision(NamedTuple):
    bits: int
    target_digits: int


class PrecisionConfig(_Precision):
    """Working precision and tolerance policy.

    bits: binary working precision (>= 128).
    target_digits: decimal digits the caller wants certified; must leave
        guard room, i.e. target_digits <= bits*log10(2) - 10.
    A named tuple whose checks run in __new__ on this subclass: a NamedTuple
    body may not override __new__.
    """

    __slots__ = ()

    def __new__(cls, bits: int = DEFAULT_BITS, target_digits: int = DEFAULT_TARGET_DIGITS):
        if bits < MIN_BITS:
            raise ValueError(f"bits must be >= {MIN_BITS}, got {bits}")
        if target_digits < 1:
            raise ValueError("target_digits must be positive")
        if target_digits > digits_capacity(bits):
            raise ValueError(
                f"target_digits={target_digits} exceeds capacity "
                f"{digits_capacity(bits)} of {bits} bits"
            )
        return super().__new__(cls, bits, target_digits)

    def with_bits(self, bits: int) -> "PrecisionConfig":
        """Same policy at a different working precision.

        target_digits is clamped into the new capacity so that doubling
        or halving bits always yields a valid config.
        """
        return PrecisionConfig(
            bits=bits,
            target_digits=min(self.target_digits, digits_capacity(bits)),
        )

    def doubled(self) -> "PrecisionConfig":
        return self.with_bits(2 * self.bits)

    def residual_threshold(self) -> mpf:
        """10**(-RESIDUAL_SCALE*target_digits), evaluated at working bits."""
        with working_precision(self):
            return mpf(10) ** (-mpf(RESIDUAL_SCALE) * self.target_digits)


@contextmanager
def working_precision(config, extra_bits: int = 0):
    """Pin mp.prec to the config's bits (+ extra), restoring on exit.

    Accepts either a PrecisionConfig or a raw bit count.
    """
    bits = config.bits if isinstance(config, PrecisionConfig) else int(config)
    saved = mp.prec
    mp.prec = bits + extra_bits
    try:
        yield mp
    finally:
        mp.prec = saved


def to_mpf(value, config: PrecisionConfig) -> mpf:
    """Parse a number at full working precision.

    Strings are parsed directly by mpmath (no intermediate float), so
    decimal command-line inputs keep every digit the working precision
    can hold.
    """
    with working_precision(config):
        return mpf(value)


def escalated(work, config: PrecisionConfig):
    """(work(config), config), or on NumericsError one retry at doubled bits,
    whose failure propagates."""
    try:
        return work(config), config
    except NumericsError:
        doubled = config.doubled()
        return work(doubled), doubled


def stabilized(evaluate, config: PrecisionConfig, agree_digits: int | None = None):
    """(evaluate(cfg), cfg), kept when a second run at SECOND_RUN_BITS more
    bits agrees to `agree_digits` (default target_digits) significant digits,
    at cfg = config or, through `escalated`, config doubled; a second
    disagreement raises EscalationError carrying the last two values."""
    digits = config.target_digits if agree_digits is None else agree_digits

    def pair(cfg):
        value = evaluate(cfg)
        check = evaluate(cfg.with_bits(cfg.bits + SECOND_RUN_BITS))
        with working_precision(cfg):
            gap = abs(value - check)
            if gap <= abs(check) * mpf(10) ** -digits:
                return value
            held = -mp.log10(gap / abs(check)) if check else 0
        raise EscalationError(
            f"runs at {cfg.bits} and {cfg.bits + SECOND_RUN_BITS} bits agree to "
            f"{mp.nstr(held, 3)} of {digits} digits", last_two=(value, check))

    return escalated(pair, config)
