"""Singularly perturbed Jacobi weight and its moments.

The weight is w(x,t) = (1-x^2)^alpha * exp(-t/x^2) on [-1,1] with alpha > 0
and t >= 0. It is even, so odd moments vanish identically. Substituting
y = x^2 turns an even moment into an integral of `special.exp_beta_moment`:

    mu_{2k}(t) = Gamma(1+alpha) e^(-t) U(1+alpha, 1/2-k, t),

the Beta integral B(k+1/2, 1+alpha) at t = 0. Integrating
d/dx [x^(2m+1) (1-x^2) w] over [-1,1] gives the Pearson relation

    2t mu_{2m-2} = (2t-2m-1) mu_{2m} + (2m+3+2 alpha) mu_{2m+2}.

As a recurrence in k, its second solution changes against the moments by
about -2t/(2k+3+2 alpha) per step up, so the relation is stable run
downward below k ~ t and upward above it (Gautschi, SIAM Review 9 (1967)
24-82). A table takes the anchors mu_{2k0}, mu_{2k0+2}, k0 = floor(t),
from the U form and runs the relation down to mu_0 and up to any j_max;
`negative_moments` continues the downward run below mu_0. An extended
table holds the same bits as one built at its final size.

Provenance tags: the anchors and the odd zeros are `closed-form`, every
other entry of a table is `pearson`. `quadrature` names the oracle route
`moment_quadrature` (tanh-sinh on x^j w), which no table uses.
"""

from dataclasses import dataclass

from mpmath import mpf

from .precision import NumericsError, PrecisionConfig, to_mpf, working_precision
from .quadrature import clamped_exp, integrate_even
from .special import exp_beta_moment

CLOSED_FORM = "closed-form"
PEARSON = "pearson"
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


def _pearson_step(m: int, mid, outer, params: WeightParams, downward: bool) -> mpf:
    """mu_{2m-2} (downward) or mu_{2m+2} (upward) by the Pearson relation.

    mid is mu_{2m}; outer is mu_{2m+2} going down and mu_{2m-2} going up.
    """
    t, a = params.t, params.alpha
    if downward:
        return ((2 * t - 2 * m - 1) * mid + (2 * m + 3 + 2 * a) * outer) / (2 * t)
    return (2 * t * outer - (2 * t - 2 * m - 1) * mid) / (2 * m + 3 + 2 * a)


def moment_entry(j: int, params: WeightParams, config: PrecisionConfig):
    """Moment mu_j(t) together with its provenance tag, read off a table."""
    if j < 0:
        raise ValueError("moment index must be non-negative")
    table = MomentTable.build(params, j, config)
    return table.mu[j], table.provenance[j]


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
    """Moments mu_0..mu_j_max with per-entry provenance; extendable.

    The even moments are one Pearson run from the anchors at k0 = floor(t),
    so `_even` (mu_{2k} for every k reached) can run past j_max.
    """

    def __init__(self, params: WeightParams, config: PrecisionConfig):
        self.params = params
        self.config = config
        self.mu = []
        self.provenance = []
        self._k0 = int(params.t)
        with working_precision(config):
            even = [exp_beta_moment(k - mpf(1) / 2, params.alpha, params.t, config)
                    for k in (self._k0 + 1, self._k0)]
            for m in range(self._k0, 0, -1):
                even.append(_pearson_step(m, even[-1], even[-2], params, downward=True))
        self._even = even[::-1]

    @classmethod
    def build(cls, params: WeightParams, j_max: int, config: PrecisionConfig):
        table = cls(params, config)
        table.extend(j_max)
        if not table.mu[0] > 0:
            raise NumericsError("mu_0 must be positive for a valid weight")
        return table

    def extend(self, j_max: int) -> None:
        even = self._even
        with working_precision(self.config):
            while 2 * len(even) - 2 < j_max:
                m = len(even) - 1
                even.append(_pearson_step(m, even[m], even[m - 1], self.params,
                                          downward=False))
        for j in range(len(self.mu), j_max + 1):
            k = j // 2
            self.mu.append(mpf(0) if j % 2 else even[k])
            closed = j % 2 == 1 or k in (self._k0, self._k0 + 1)
            self.provenance.append(CLOSED_FORM if closed else PEARSON)

    def __len__(self) -> int:
        return len(self.mu)

    def __getitem__(self, j: int) -> mpf:
        if j >= len(self.mu):
            self.extend(j)
        return self.mu[j]


def negative_moments(table: MomentTable, j_min: int) -> dict:
    """{j: mu_j} for the even orders j_min <= j <= -2, finite only for t > 0.

    The table's downward Pearson run, continued below its mu_0 and mu_2.
    """
    params = table.params
    if not params.t > 0:
        raise ValueError("moments of negative order need t > 0")
    with working_precision(table.config):
        mu = {0: table[0], 2: table[2]}
        for m in range(0, j_min // 2, -1):
            mu[2 * m - 2] = _pearson_step(m, mu[2 * m], mu[2 * m + 2], params, downward=True)
        return {j: mu[j] for j in range(j_min, 0, 2)}
