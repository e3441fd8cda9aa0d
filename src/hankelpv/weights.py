"""Singularly perturbed Jacobi weight and its moments.

The weight is w(x,t) = (1-x^2)^alpha * exp(-t/x^2) on [-1,1] with alpha > 0
and t >= 0.  It is even, so odd moments vanish identically and even moments
admit a two-term confluent-hypergeometric closed form:

    mu_j(t) = (-1)^(j/2) * pi * ( Gamma(1+alpha) Phi(-(j+1)/2-alpha, (1-j)/2; -t)
                                  / (Gamma((1-j)/2) Gamma((j+3)/2+alpha))
                                - t^((j+1)/2) Phi(-alpha, (j+3)/2; -t)
                                  / Gamma((j+3)/2) ).

The two terms approach each other as t grows (the moment itself decays like
exp(-t)), so the evaluation carries a cancellation guard: if more than
target_digits/2 digits cancel, the precision is doubled once; if even the
doubled capacity cannot certify target_digits of the difference, the moment
is recomputed by quadrature at the doubled precision and marked as such.
"""

from dataclasses import dataclass

from mpmath import mp, mpf

from .precision import (
    NumericsError,
    PrecisionConfig,
    digits_capacity,
    to_mpf,
    working_precision,
)
from .quadrature import clamped_exp, integrate_even
from .special import gamma, kummer_phi

CLOSED_FORM = "closed-form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class WeightParams:
    """Weight parameters, stored as exact mpf values."""

    alpha: mpf
    t: mpf


def make_params(alpha, t, config: PrecisionConfig) -> WeightParams:
    alpha = to_mpf(alpha, config)
    t = to_mpf(t, config)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    return WeightParams(alpha=alpha, t=t)


def weight_value(x, params: WeightParams) -> mpf:
    """w(x,t) at ambient precision (safe inside quadrature integrands)."""
    x = mpf(x)
    if x == 0:
        return mpf(1) if params.t == 0 else mpf(0)
    base = 1 - x * x
    if base <= 0:
        return mpf(0)
    value = base ** params.alpha
    if params.t == 0:
        return value
    return value * clamped_exp(-params.t / (x * x))


def _even_closed_parts(j: int, params: WeightParams, config: PrecisionConfig):
    """Signed terms of the closed form plus their cancellation data."""
    with working_precision(config):
        a = params.alpha
        t = params.t
        jm = mpf(j)
        term1 = (
            gamma(1 + a, config)
            * kummer_phi(-(jm + 1) / 2 - a, (1 - jm) / 2, -t, config)
            / (gamma((1 - jm) / 2, config) * gamma((jm + 3) / 2 + a, config))
        )
        term2 = -(t ** ((jm + 1) / 2)) * kummer_phi(
            -a, (jm + 3) / 2, -t, config
        ) / gamma((jm + 3) / 2, config)
        total = term1 + term2
        sign = -1 if (j // 2) % 2 else 1
        value = sign * mp.pi * total
        return value, abs(total), max(abs(term1), abs(term2))


def moment_entry(j: int, params: WeightParams, config: PrecisionConfig):
    """Moment mu_j(t) together with its provenance mark."""
    if j < 0:
        raise ValueError("moment index must be non-negative")
    if j % 2 == 1:
        return mpf(0), CLOSED_FORM
    value, diff, scale = _even_closed_parts(j, params, config)
    with working_precision(config):
        guard = mpf(10) ** (-mpf(config.target_digits) / 2)
        if scale == 0 or diff >= scale * guard:
            return value, CLOSED_FORM
    doubled = config.doubled()
    value, diff, scale = _even_closed_parts(j, params, doubled)
    with working_precision(doubled):
        if diff > 0 and scale > 0:
            lost = mp.log10(scale / diff)
            if digits_capacity(doubled.bits) - lost >= config.target_digits:
                return value, CLOSED_FORM
    return moment_quadrature(j, params, doubled), QUADRATURE


def moment_closed(j: int, params: WeightParams, config: PrecisionConfig) -> mpf:
    value, _ = moment_entry(j, params, config)
    return value


def moment_quadrature(
    j: int, params: WeightParams, config: PrecisionConfig, target_digits=None
) -> mpf:
    """Oracle route: tanh-sinh integration of x^j w(x,t) over [-1,1]."""
    if j % 2 == 1:
        return mpf(0)
    with working_precision(config):

        def f(x):
            return x ** j * weight_value(x, params)

        return integrate_even(f, config, target_digits)


class MomentTable:
    """Moments mu_0..mu_j_max with per-entry provenance; lazily extendable."""

    def __init__(self, params: WeightParams, config: PrecisionConfig, mu, provenance):
        self.params = params
        self.config = config
        self.mu = mu
        self.provenance = provenance

    @classmethod
    def build(cls, params: WeightParams, j_max: int, config: PrecisionConfig):
        table = cls(params, config, [], [])
        table.extend(j_max)
        if not table.mu[0] > 0:
            raise NumericsError("mu_0 must be positive for a valid weight")
        return table

    def extend(self, j_max: int) -> None:
        for j in range(len(self.mu), j_max + 1):
            value, source = moment_entry(j, self.params, self.config)
            self.mu.append(value)
            self.provenance.append(source)

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, j: int) -> mpf:
        if j >= len(self.mu):
            self.extend(j)
        return self.mu[j]


def negative_moments(table: MomentTable, j_min: int) -> dict:
    """{j: mu_j} for the even orders j_min <= j <= -2, finite only for t > 0.

    Integrating d/dx [x^(2m+1) (1-x^2) w] over [-1,1] gives the Pearson
    relation 2t mu_{2m-2} = (2t-2m-1) mu_{2m} + (2m+3+2 alpha) mu_{2m+2},
    run here downward from the table's mu_0 and mu_2.
    """
    params = table.params
    if not params.t > 0:
        raise ValueError("moments of negative order need t > 0")
    t, a = params.t, params.alpha
    with working_precision(table.config):
        mu = {0: table[0], 2: table[2]}
        for m in range(0, j_min // 2, -1):
            mu[2 * m - 2] = ((2 * t - 2 * m - 1) * mu[2 * m]
                             + (2 * m + 3 + 2 * a) * mu[2 * m + 2]) / (2 * t)
        return {j: mu[j] for j in range(j_min, 0, 2)}
