"""Richardson-extrapolated central finite differences.

First and second derivatives only.

The step starts at h0 ~ 2^(-bits/4) scaled by |x| and halves through 4
Richardson levels. Both central stencils have pure h^2 error expansions,
so a Neville table in h^2 applies. The returned error estimate is the
last diagonal difference plus a roundoff floor for the cancellation in
the stencil numerator; on polynomial inputs it bounds the true error.

The callable f is evaluated at full caller precision; routines needing
extra certified digits should hand in an f built at elevated precision.
When f itself carries evaluation noise well above roundoff (quadrature
output, factorizations rebuilt at each point) the default step amplifies
that noise by 1/h or 1/h^2; such callers should pass an explicit h0 near
noise**(1/10) so the truncation and noise contributions balance.
"""

from __future__ import annotations

from mpmath import mpf

from .precision import NumericsError, PrecisionConfig, working_precision

RICHARDSON_LEVELS = 4


class InstabilityError(NumericsError):
    """Richardson levels diverged instead of converging."""

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


def _neville_h2(samples):
    """Neville extrapolation assuming an error series in h^2, h halving."""
    table = [list(samples)]
    for j in range(1, len(samples)):
        factor = mpf(4) ** j
        row = []
        for i in range(len(samples) - j):
            row.append((factor * table[j - 1][i + 1] - table[j - 1][i]) / (factor - 1))
        table.append(row)
    return table


def _extrapolate(samples, floor):
    table = _neville_h2(samples)
    diagonal = [table[j][0] for j in range(len(samples))]
    diffs = [abs(diagonal[j] - diagonal[j - 1]) for j in range(1, len(diagonal))]
    value = diagonal[-1]
    error = diffs[-1] + floor
    # levels "converged" only if the estimate certifies at least some digits;
    # an estimate at the scale of the value itself means the table is noise
    if error > max(abs(value), 64 * floor):
        raise InstabilityError(
            "Richardson levels diverged; no digits certified (stencil may "
            "straddle a non-smooth point)",
            table=diagonal,
        )
    return value, error


def derivative(f, x, order: int, config: PrecisionConfig, h0=None):
    """(d^order f / dx^order)(x) with an error estimate.

    Returns (value, error_estimate). order must be 1 or 2.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    bundle = derivative_bundle(f, x, config, orders=(order,), h0=h0)
    return bundle[order]


def _base_step(xv, config: PrecisionConfig, h0):
    base = mpf(h0) if h0 is not None else mpf(2) ** (-(config.bits // 4))
    return base * max(1, abs(xv))


def derivative_bundle(f, x, config: PrecisionConfig, orders=(1, 2), h0=None):
    """Shared-stencil first and second derivatives at x.

    Returns a dict with key 0 mapping to f(x) and each requested order
    mapping to (value, error_estimate). The 9 stencil evaluations are
    shared between the two orders. h0 overrides the initial step before
    the |x| scaling.
    """
    with working_precision(config):
        xv = mpf(x)
        steps = [_base_step(xv, config, h0) * mpf(2) ** (-i) for i in range(RICHARDSON_LEVELS)]
        fp = [f(xv + h) for h in steps]
        fm = [f(xv - h) for h in steps]
        f0 = f(xv)
        magnitude = max([abs(v) for v in fp + fm + [f0]] + [mpf(0)])
        out = {0: f0}
        if 1 in orders:
            d1 = [(fp[i] - fm[i]) / (2 * steps[i]) for i in range(len(steps))]
            floor1 = magnitude * mpf(2) ** (-config.bits + 4) / steps[-1]
            out[1] = _extrapolate(d1, floor1)
        if 2 in orders:
            d2 = [(fp[i] - 2 * f0 + fm[i]) / steps[i] ** 2 for i in range(len(steps))]
            floor2 = magnitude * mpf(2) ** (-config.bits + 4) / steps[-1] ** 2
            out[2] = _extrapolate(d2, floor2)
        return out

