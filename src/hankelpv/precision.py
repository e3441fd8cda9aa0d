"""Precision policy shared by every numeric routine in the package.

All arithmetic goes through mpmath's global real context, but only inside
the `working_precision` context manager, which pins the binary precision
and restores it afterwards. A `PrecisionConfig` bundles the three knobs
that matter: working bits, the decimal digits the caller wants certified,
and the fraction of those digits used as an identity-residual threshold.
Given identical inputs and an identical config, every routine in this
package is bit-for-bit deterministic: node orderings, summation orders and
step sequences are all fixed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from mpmath import mp, mpf

ENV_BITS = "HANKELPV_BITS"

MIN_BITS = 128
DEFAULT_BITS = 512
DEFAULT_TARGET_DIGITS = 60
DEFAULT_RESIDUAL_SCALE = 0.5

# Decimal digits reserved as guard when converting bits -> digits capacity.
GUARD_DIGITS = 10

# Automatic precision escalation never exceeds this multiple of the
# starting bits (applies to Kummer summation and similar stabilizers).
ESCALATION_CAP = 8


class NumericsError(Exception):
    """Base class for numeric diagnostics raised by this package."""


class EscalationError(NumericsError):
    """Precision escalation hit its cap without the value stabilizing."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


def digits_capacity(bits: int) -> int:
    """Decimal digits certifiable at `bits` binary digits, minus guard."""
    return int(bits * math.log10(2.0)) - GUARD_DIGITS


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision and tolerance policy.

    bits: binary working precision (>= 128).
    target_digits: decimal digits the caller wants certified; must leave
        guard room, i.e. target_digits <= bits*log10(2) - 10.
    residual_scale: fraction of target_digits used as the identity
        residual threshold 10**(-residual_scale*target_digits).
    """

    bits: int = DEFAULT_BITS
    target_digits: int = DEFAULT_TARGET_DIGITS
    residual_scale: float = DEFAULT_RESIDUAL_SCALE

    def __post_init__(self):
        if self.bits < MIN_BITS:
            raise ValueError(f"bits must be >= {MIN_BITS}, got {self.bits}")
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        if self.target_digits > digits_capacity(self.bits):
            raise ValueError(
                f"target_digits={self.target_digits} exceeds capacity "
                f"{digits_capacity(self.bits)} of {self.bits} bits"
            )
        if not (0.0 < self.residual_scale <= 1.0):
            raise ValueError("residual_scale must lie in (0, 1]")

    def with_bits(self, bits: int) -> "PrecisionConfig":
        """Same policy at a different working precision.

        target_digits is clamped into the new capacity so that doubling
        or halving bits always yields a valid config.
        """
        return PrecisionConfig(
            bits=bits,
            target_digits=min(self.target_digits, digits_capacity(bits)),
            residual_scale=self.residual_scale,
        )

    def doubled(self) -> "PrecisionConfig":
        return self.with_bits(2 * self.bits)

    def residual_threshold(self) -> mpf:
        """10**(-residual_scale*target_digits), evaluated at working bits."""
        with working_precision(self):
            return mpf(10) ** (-mpf(self.residual_scale) * self.target_digits)


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


def stabilized(evaluate, config: PrecisionConfig, agree_digits: int | None = None):
    """Evaluate `evaluate(bits)` at escalating precision until stable.

    Runs the callable at bits, 2*bits, ... and returns the first value that
    agrees with its predecessor to `agree_digits` significant digits
    (default: config.target_digits). Raises EscalationError, carrying the
    last two values, if the cap (ESCALATION_CAP * bits) is exceeded.
    """
    digits = config.target_digits if agree_digits is None else agree_digits
    bits = config.bits
    previous = None
    while bits <= ESCALATION_CAP * config.bits:
        current = evaluate(bits)
        if previous is not None:
            with working_precision(bits):
                scale = max(abs(current), abs(previous))
                # exact zeros (e.g. odd moments) are stable by definition
                if scale == 0 or abs(current - previous) <= scale * mpf(10) ** (-digits):
                    return current
        previous = current
        bits *= 2
    raise EscalationError(
        f"value failed to stabilize to {digits} digits within "
        f"{ESCALATION_CAP}x precision escalation",
        last_two=(previous, current),
    )
