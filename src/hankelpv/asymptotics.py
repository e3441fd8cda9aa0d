"""Double-scaling layer: reference series, finite-n scans, and the Dyson experiment.

The series tables are the exact rational recurrences of series.py for the
small-s and large-s expansions of the scaled quantities, truncated after
six or seven terms, evaluated together with a first-omitted-term
truncation estimate.  They are the references the scans and the Dyson
experiment compare against; the flows (flows.py) start from the small-s
series run much further, never from these tables.  The scan driver
measures the double-scaling limits directly: raw finite-n values along the
prescribed (n, t) trajectories, Richardson extrapolation in 1/n with a
dual-model error bar, and comparison against the series references.  The
Dyson experiment carries the log-ratio along the g flow of flows.py, the
runner's third flow, or reads it off a delta scan.

Each raw value comes from ladder.difference_run, the forward run of the
paper's second-order difference equation for r_n seeded by the two moment
anchors: O(n) steps per point, where a Chebyshev table from 2n moments
costs O(n^2) and loses about 0.75 digits per degree.  The g modes read R_n
from the run and sigma-n4 sums it; the delta modes take beta_k(t) from
ladder.beta_aux_terms and normalise by the closed-form t = 0 Jacobi data
(recurrence.log_det_ratio).  The run's digits fall with s, not with n.
Every point is certified by precision.stabilized: a second run at 64
more bits from its own anchors, and one escalation to doubled bits before
it fails. At s = 0 every value is an exact zero, and no run is made.

The two scaling regimes are distinct and never mixed: the g/delta scans
hold s = 2n^2 t fixed, the sigma scan holds s = n^4 t fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .choices import SCAN_MODES, SERIES_KINDS
from .flows import (ORDER_SMALL_SEED, _flow_tolerance, _fr, _piii_rhs, _piii_series, _run_flow,
                    _small_seed_point)
# not called here: the benchmark's tracer (perfbench/tracer.py) wraps them as
# spans of this layer
from .flows import continue_pv, solve_piii_prime  # noqa: F401
from .ladder import beta_aux_terms, difference_run
from .ode import binary_point, shifted, to_fixed
from .precision import NumericsError, PrecisionConfig, stabilized, to_mpf, working_precision
from .recurrence import log_det_ratio
from .series import (_as_fraction, _poly_seed, g_large_coefficients, g_small_coefficients,
                     g_small_series, log_ratio_small_coefficients, log_ratio_small_series)
from .special import log_barnes_g, zeta_prime_minus_one
from .weights import MomentTable, WeightParams, make_params

SMALL = "small-s"
LARGE = "large-s"

N_CAP = 1024
N_CAP_EXTENDED = 4096

# Unknown-next-coefficient allowance: the tabulated families show
# consecutive-coefficient magnitude ratios jumping by up to ~2.4 after a
# dip, so the reported truncation bound carries a factor-4 cushion on top
# of the geometric ratio extrapolation.  The regime heuristic compares
# like-for-like magnitudes and therefore omits the cushion.
ESTIMATOR_SAFETY = 4

_FR0 = Fraction(0)


def dyson_reference(config: PrecisionConfig) -> mpf:
    """ln(2)/12 + 3 zeta'(-1), the constant in the large-s delta expansion."""
    with working_precision(config):
        return mp.log(2) / 12 + 3 * zeta_prime_minus_one(config)


def c_constant(a, config: PrecisionConfig) -> mpf:
    """c(a) = ln G(a+1) - (a/2) ln(2 pi); Barnes grid only."""
    fr = _as_fraction(a)
    with working_precision(config):
        av = _fr(fr)
        return log_barnes_g(av + 1, config) - av / 2 * mp.log(2 * mp.pi)


@dataclass(frozen=True)
class SeriesExpansion:
    """A truncated expansion with exact rational terms.

    `terms` holds (exponent, coefficient) pairs in decreasing significance
    for the stated regime, so the final entry is the least significant
    retained term.  `log_coefficient` multiplies ln(s) and `has_constant`
    marks an s-independent additive constant (evaluated on demand, since
    it is transcendental).  `next_exponent` is the exponent of the first
    dropped term.
    """

    kind: str
    validity: str
    terms: tuple
    next_exponent: Fraction
    log_coefficient: Fraction = _FR0
    has_constant: bool = False
    a: Optional[Fraction] = None

    def constant_value(self, config: PrecisionConfig) -> mpf:
        if not self.has_constant:
            return mpf(0)
        if self.kind == "delta-large":
            return dyson_reference(config)
        return c_constant(self.a, config)

    def _point(self, s, config: PrecisionConfig) -> mpf:
        """s at the ambient precision, checked against the regime."""
        sv = mpf(to_mpf(s, config))
        if self.validity == SMALL:
            if sv < 0:
                raise ValueError(f"{self.kind} needs s >= 0, got {sv}")
        elif sv <= 0:
            raise ValueError(f"{self.kind} needs s > 0, got {sv}")
        return sv

    def _tail(self, sv: mpf):
        """|last kept term| at sv > 0, and |first dropped term| estimated as the
        last coefficient, grown by its ratio to the one before, at next_exponent."""
        nz = [(e, c) for e, c in self.terms if c != 0]
        if not nz:
            raise ValueError(f"{self.kind} has no nonzero terms")
        e_last, c_last = nz[-1]
        c_prev = nz[-2][1] if len(nz) > 1 else c_last
        last = abs(_fr(c_last))
        growth = max(mpf(1), last / abs(_fr(c_prev)))
        return last * sv ** _fr(e_last), growth * last * sv ** _fr(self.next_exponent)

    def eval(self, s, config: PrecisionConfig, include_constant: bool = True) -> mpf:
        with working_precision(config):
            sv = self._point(s, config)
            total = mpf(0)
            for exponent, coefficient in self.terms:
                if coefficient == 0:
                    continue
                total += _fr(coefficient) * sv ** _fr(exponent)
            if self.log_coefficient != 0:
                total += _fr(self.log_coefficient) * mp.log(sv)
            if include_constant and self.has_constant:
                total += self.constant_value(config)
            return total

    def truncation_estimator(self, s, config: PrecisionConfig) -> mpf:
        """Bound proxy for the first omitted term at s."""
        with working_precision(config):
            sv = self._point(s, config)
            return ESTIMATOR_SAFETY * self._tail(sv)[1] if sv else mpf(0)

    def in_regime(self, s, config: PrecisionConfig) -> bool:
        """Heuristic: estimated first omitted term below the last kept one.
        A small-s table is in regime at s = 0."""
        with working_precision(config):
            sv = self._point(s, config)
            if sv == 0:
                return True
            last, dropped = self._tail(sv)
            return dropped < last


def _ascending(coefficients) -> tuple:
    """Taylor coefficients c_1, c_2, ... as (m, c_m) terms on s^m."""
    return tuple((Fraction(m), c) for m, c in enumerate(coefficients, start=1))


def _descending(coefficients) -> tuple:
    """d_0, d_1, ... as ((2-k)/3, d_k) terms; the s^0 slot d_2 vanishes for
    every a and is left out."""
    assert coefficients[2] == 0
    return tuple((Fraction(2 - k, 3), dk) for k, dk in enumerate(coefficients) if k != 2)


# Every parametric table is an exact recurrence truncated.  On the large-s
# side d/ds(s L') = -g/s maps a g term d s^e onto the log-ratio term
# -d/e^2 s^e; the log coefficient and the Barnes constant are not fixed by
# the g recurrence.
_FAMILIES = {
    "g-small": lambda a: _ascending(g_small_coefficients(a, 6)),
    "g-large": lambda a: _descending(g_large_coefficients(a, 6)),
    "delta-ab-small": lambda a: _ascending(log_ratio_small_coefficients(a, 6)),
    "delta-ab-large": lambda a: tuple((e, -d / e ** 2) for e, d in
                                      _descending(g_large_coefficients(a, 7))),
}

_PLUS, _MINUS = (Fraction(1, 2),), (Fraction(-1, 2),)

# kind: (validity, family, a values summed (None: the caller's a), factor,
# exponent of the first dropped term).  The fixed kinds are the families at
# a = +-1/2: g1 and g2 are 4 g(s, a) at a = -1/2 and +1/2, and delta sums
# the two log-ratio branches, dropping the odd powers that cancel.
# The next exponent is not derived: at a in {0, +-1} the recurrence's next
# term vanishes, which would move the truncation estimate there.
_SPECS = {
    "g1-small": (SMALL, "g-small", _MINUS, 4, Fraction(7)),
    "g2-small": (SMALL, "g-small", _PLUS, 4, Fraction(7)),
    "g1-large": (LARGE, "g-large", _MINUS, 4, Fraction(-5, 3)),
    "g2-large": (LARGE, "g-large", _PLUS, 4, Fraction(-5, 3)),
    "delta-small": (SMALL, "delta-ab-small", _PLUS + _MINUS, 1, Fraction(8)),
    "delta-large": (LARGE, "delta-ab-large", _PLUS + _MINUS, 1, Fraction(-2)),
    "g-small": (SMALL, "g-small", None, 1, Fraction(7)),
    "g-large": (LARGE, "g-large", None, 1, Fraction(-5, 3)),
    "delta-ab-small": (SMALL, "delta-ab-small", None, 1, Fraction(7)),
    "delta-ab-large": (LARGE, "delta-ab-large", None, 1, Fraction(-2)),
}

def series_expansion(kind: str, a=None) -> SeriesExpansion:
    """Expansion table for `kind`; parametric kinds need the exact a."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}")
    validity, family, a_values, factor, next_exponent = _SPECS[kind]
    if a_values is None:
        if a is None:
            raise ValueError(f"{kind} requires the parameter a")
        fr = _as_fraction(a)
    else:
        if a is not None:
            raise ValueError(f"{kind} does not take a parameter")
        fr = None
    values = a_values or (fr,)
    summed: dict = {}
    for value in values:
        for e, c in _FAMILIES[family](value):
            summed[e] = summed.get(e, _FR0) + factor * c
    # a parametric table keeps its explicit zeros, a fixed one drops them
    terms = tuple((e, c) for e, c in summed.items() if fr is not None or c != 0)
    has_log = family == "delta-ab-large"
    log_coefficient = sum((1 - 6 * v * v) / Fraction(36) for v in values) if has_log else _FR0
    return SeriesExpansion(kind, validity, terms, next_exponent,
                           log_coefficient=log_coefficient, has_constant=has_log, a=fr)


@dataclass(frozen=True)
class SeriesValue:
    kind: str
    s: mpf
    value: mpf
    truncation: mpf
    in_regime: bool
    a: Optional[Fraction] = None


def series_eval(kind: str, s, config: PrecisionConfig, a=None) -> SeriesValue:
    """Truncated series value with its truncation estimate and regime flag."""
    exp = series_expansion(kind, a=a)
    with working_precision(config):
        sv = to_mpf(s, config)
        return SeriesValue(
            kind=kind,
            s=sv,
            value=exp.eval(sv, config),
            truncation=exp.truncation_estimator(sv, config),
            in_regime=exp.in_regime(sv, config),
            a=exp.a,
        )


# --- double-scaling scans -----------------------------------------------------


@dataclass
class ScanResult:
    """Raw finite-n values, extrapolation, and series comparison."""

    mode: str
    s: mpf
    alpha: mpf
    n_list: tuple
    raw: list
    errors: list
    extrapolated: Optional[mpf]
    model: Optional[str]
    error_bar: Optional[mpf]
    reference: Optional[mpf]
    reference_kind: Optional[str]
    agreement_digits: Optional[mpf]
    flags: list = field(default_factory=list)
    # the config each point was certified at: more bits than asked is an escalation
    configs: list = field(default_factory=list)


def _neville_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x=0; returns the diagonal."""
    work = list(ys)
    diag = [work[0]]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            work[i] = (xs[i - k] * work[i] - xs[i] * work[i - 1]) \
                / (xs[i - k] - xs[i])
        diag.append(work[k])
    return diag


def _scan_value(mode: str, n: int, params: WeightParams, config: PrecisionConfig):
    """The mode's finite-n value at params.t > 0, from one difference run."""
    with working_precision(config):
        if mode in ("g1", "g2"):
            index = 2 * n if mode == "g1" else 2 * n + 1
            return n * difference_run(index + 1, params, config)[1][index]
        if mode == "sigma-n4":
            return -mp.fsum(difference_run(n, params, config)[1])
        size = 2 * n if mode == "delta1" else 2 * n + 1
        moments = MomentTable.build(params, 2, config)
        r, big_r = difference_run(size, params, config, moments)
        beta = [mpf(0)] + [sum(beta_aux_terms(k, big_r[k], r[k], params))
                           for k in range(1, size)]
        return log_det_ratio(moments[0], beta, params.alpha, config)


def _scan_raw(mode: str, s: mpf, n: int, alpha: mpf, config: PrecisionConfig):
    """The mode's finite-n value, certified by precision.stabilized, and the
    config it was certified at; raises NumericsError if the two runs
    disagree at doubled bits too. At s = 0 every r_n and R_n vanishes, and
    so does every mode."""
    with working_precision(config):
        if mode == "sigma-n4":
            t = s / mpf(n) ** 4
        else:
            t = s / (2 * mpf(n) ** 2)
        if t == 0:
            return mpf(0), config
        params = make_params(alpha, t, config)
    return stabilized(lambda cfg: _scan_value(mode, n, params, cfg), config)


_REFERENCE_KINDS = {
    "g1": ("g1-small", "g1-large"),
    "g2": ("g2-small", "g2-large"),
    "delta1": ("delta-small", "delta-large"),
    "delta2": ("delta-small", "delta-large"),
}


def _pick_reference(mode: str, s: mpf, config: PrecisionConfig,
                    reference_kind: Optional[str]):
    if mode not in _REFERENCE_KINDS:
        if reference_kind is not None:
            raise ValueError(f"mode {mode!r} takes no series reference")
        return None, None, []
    small_kind, large_kind = _REFERENCE_KINDS[mode]
    if reference_kind is not None:
        if reference_kind not in (small_kind, large_kind):
            raise ValueError(
                f"reference for {mode!r} must be {small_kind} or {large_kind}")
        sv = series_eval(reference_kind, s, config)
        flags = [] if sv.in_regime else ["reference-out-of-regime"]
        return sv.value, reference_kind, flags
    small = series_eval(small_kind, s, config)
    if s == 0 or small.in_regime:
        return small.value, small_kind, []
    large = series_eval(large_kind, s, config)
    if large.in_regime:
        return large.value, large_kind, []
    pick = small if small.truncation <= large.truncation else large
    return pick.value, pick.kind, ["reference-out-of-regime"]


def double_scaling_scan(
    s,
    n_list: Sequence[int],
    alpha,
    mode: str,
    config: PrecisionConfig,
    allow_large_n: bool = False,
    reference_kind: Optional[str] = None,
) -> ScanResult:
    """Finite-n approach to a scaled limit along the mode's trajectory.

    g/delta modes hold s = 2n^2 t fixed; sigma-n4 holds s = n^4 t fixed.
    Each raw value is one forward run of the difference equation for r_n
    (module docstring), O(n) per point, so n runs to N_CAP, or to
    N_CAP_EXTENDED with allow_large_n. precision.stabilized certifies each
    value by a second run at 64 more bits, escalating once to doubled bits;
    `configs` records the config of each. At s = 0 every value is zero.
    The delta modes are ln D_N(t) - ln D_N(0), normalised by the closed
    form of the Jacobi weight at t = 0 (recurrence.log_det_ratio).
    Extrapolation runs two Richardson models (corrections in powers of 1/n
    and of 1/n^2); the reported value comes from the model whose final
    correction is smaller and the spread between models feeds the error
    bar.  Per-point numeric failures, a point that fails its second run at
    doubled bits included, are recorded, not raised.
    """
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if not n_list:
        raise ValueError("n_list must be non-empty")
    n_list = tuple(int(n) for n in n_list)
    if any(n < 1 for n in n_list):
        raise ValueError("scan indices must be positive")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    cap = N_CAP_EXTENDED if allow_large_n else N_CAP
    if n_list[-1] > cap:
        raise ValueError(
            f"n={n_list[-1]} beyond cap {cap}; pass allow_large_n for up to "
            f"{N_CAP_EXTENDED}")
    with working_precision(config):
        s_val = to_mpf(s, config)
        if s_val < 0:
            raise ValueError("s must be non-negative")
        alpha_val = to_mpf(alpha, config)
        # a mismatched reference is rejected before any table is built
        reference, ref_kind, ref_flags = _pick_reference(
            mode, s_val, config, reference_kind)

        raw, errors, configs = [], [], []
        for n in n_list:
            try:
                value, used = _scan_raw(mode, s_val, n, alpha_val, config)
                error = None
            except NumericsError as exc:
                value, used, error = None, config, str(exc)
            raw.append(value)
            errors.append(error)
            configs.append(used)

        flags = []
        if any(errors):
            flags.append("point-errors")
        good = [(n, v) for n, v in zip(n_list, raw) if v is not None]
        extrapolated = model = error_bar = None
        if len(good) >= 2:
            xs1 = [mpf(1) / n for n, _ in good]
            xs2 = [mpf(1) / (mpf(n) * n) for n, _ in good]
            ys = [v for _, v in good]
            diag1 = _neville_zero(xs1, ys)
            diag2 = _neville_zero(xs2, ys)
            step1 = abs(diag1[-1] - diag1[-2])
            step2 = abs(diag2[-1] - diag2[-2])
            if step1 <= step2:
                extrapolated, model, step = diag1[-1], "1/n", step1
            else:
                extrapolated, model, step = diag2[-1], "1/n^2", step2
            error_bar = abs(diag1[-1] - diag2[-1]) + step
        else:
            flags.append("extrapolation-unavailable")

        flags.extend(ref_flags)

        agreement = None
        if reference is not None and extrapolated is not None:
            diff = abs(extrapolated - reference)
            scale = max(abs(reference), mpf(10) ** (-config.target_digits))
            if diff <= mpf(10) ** (-config.target_digits):
                agreement = mpf(config.target_digits)
            else:
                agreement = min(-mp.log10(diff / scale),
                                mpf(config.target_digits))
            gaps = [abs(v - reference) for _, v in good]
            if any(b > a for a, b in zip(gaps, gaps[1:])):
                flags.append("non-monotone-approach")
    return ScanResult(
        mode=mode, s=s_val, alpha=alpha_val, n_list=n_list, raw=raw,
        errors=errors, extrapolated=extrapolated, model=model, error_bar=error_bar,
        reference=reference, reference_kind=ref_kind,
        agreement_digits=agreement, flags=flags, configs=configs,
    )


# --- the constant-term experiment ---------------------------------------------


@dataclass
class DysonExperiment:
    """Every measurable piece of the large-s constant-term estimate."""

    alpha: mpf
    s_lo: mpf
    s_hi: mpf
    n_list: tuple
    route: str
    ode_constant: Optional[mpf]
    ode_halted: bool
    ode_reached: Optional[mpf]
    scan_constant: Optional[mpf]
    scan: Optional[ScanResult]
    constant_estimate: Optional[mpf]
    exact_constant_sum: mpf
    reference: mpf
    cancellation_ok: bool
    flags: list = field(default_factory=list)


def _odd_terms_cancel() -> bool:
    """Exact-rational check that the a = +-1/2 product drops odd terms."""
    plus = dict(series_expansion("delta-ab-large", a=Fraction(1, 2)).terms)
    minus = dict(series_expansion("delta-ab-large", a=Fraction(-1, 2)).terms)
    odd = (Fraction(1, 3), Fraction(-1, 3), Fraction(-1), Fraction(-5, 3))
    return all(plus[e] + minus[e] == 0 for e in odd)


def _coupled_jet(a_val: mpf) -> Callable:
    """The PIII' jet with s H' = -g and s L' = H, order by order: on the
    scaled rows the order-m terms of (s0 + H sigma) dF/dsigma = H rhs give
    (m+1) F_(m+1) = H (rhs_m - m F_m) / s0."""

    def jet(s, y, order, scale):
        f = binary_point()
        g, v = _piii_series(a_val, s, y, order, scale)
        s0 = to_fixed(s, f)
        big_h, big_l = [to_fixed(y[2], f)], [to_fixed(y[3], f)]
        dh = dl = 0
        for m in range(order):
            dh = shifted((-g[m] - dh) << f, scale) // s0
            dl = shifted((big_h[m] - dl) << f, scale) // s0
            big_h.append(dh // (m + 1))
            big_l.append(dl // (m + 1))
        return [g, v, big_h, big_l]

    return jet


def _coupled_rhs(a_val: mpf) -> Callable:
    """(g, g', H, L) flow: the inner pair is the g equation, and
    d/ds(s L') = -g/s closes the log-ratio, the same map that builds the
    log-ratio tables from the g coefficients term by term."""
    base = _piii_rhs(a_val)

    def rhs(s, y):
        g, gp, slope, _ = y
        inner = base(s, [g, gp])
        return [inner[0], inner[1], -g / s, slope / s]

    return rhs


def dyson_constant_experiment(
    alpha,
    s_lo,
    s_hi,
    n_list: Sequence[int],
    config: PrecisionConfig,
    route: str = "auto",
    tolerance=None,
) -> DysonExperiment:
    """Estimate the constant term of the large-s delta expansion.

    The flow route anchors ln Delta(s, a, alpha) for a = +-1/2 via the
    small-s series at s_lo, halved until the tails of the g and log-ratio
    series meet the flow's budget, carries it to s_hi with the coupled g
    flow, sums the two branches, and subtracts the non-constant large-s
    terms.  The scan route reads ln Delta_1(s_hi) off the finite-n
    extrapolation instead.  `route` picks "ode", "scan", or "auto" (flow
    first, scan as fallback when the flow halts).  Every exact ingredient -
    the Barnes constant sum and the odd-term cancellation - is computed
    regardless.
    """
    if route not in ("auto", "ode", "scan"):
        raise ValueError(f"unknown route {route!r}")
    n_list = tuple(int(n) for n in n_list)
    with working_precision(config):
        alpha_val = to_mpf(alpha, config)
        s_lo_val = to_mpf(s_lo, config)
        s_hi_val = to_mpf(s_hi, config)
        if not 0 < s_lo_val < s_hi_val:
            raise ValueError("need 0 < s_lo < s_hi")
        tol = _flow_tolerance(tolerance, config)

        exact_sum = (c_constant(Fraction(1, 2), config)
                     + c_constant(Fraction(-1, 2), config))
        reference = dyson_reference(config)
        cancellation = _odd_terms_cancel()

        flags = []
        large = series_expansion("delta-large")
        if not large.in_regime(s_hi_val, config):
            flags.append("s_hi-outside-large-regime")
        tail = large.eval(s_hi_val, config, include_constant=False)

        ode_constant = None
        ode_halted = False
        ode_reached = None
        if route in ("auto", "ode"):
            flows = []
            for fr in (Fraction(1, 2), Fraction(-1, 2)):
                dser = series_expansion("delta-ab-small", a=fr)
                if not dser.in_regime(s_lo_val, config):
                    flags.append(f"s_lo-outside-small-regime(a={fr})")
                series = g_small_series(fr, ORDER_SMALL_SEED)
                lam = log_ratio_small_series(fr, ORDER_SMALL_SEED)
                s0 = _small_seed_point([series, lam], s_lo_val, tol)
                gv, gd = _poly_seed(series, s0)
                lv, ld = _poly_seed(lam, s0)
                start = [gv, gd, s0 * ld, lv]
                flows.append(_run_flow(_coupled_rhs(_fr(fr)), _coupled_jet(_fr(fr)),
                                       lambda y: [y[0]], s0, start, s_hi_val, tol, config))
                if flows[-1].halted:
                    ode_halted = True
                    flags.append("ode-route-halted")
                    break
            else:
                # the rows are (s, g, g', H, L): the branches' log-ratios are L
                ode_constant = flows[0].endpoint[4] + flows[1].endpoint[4] - tail
            ode_reached = min(flow.reached for flow in flows)

        scan_constant = None
        scan_result = None
        if route == "scan" or (route == "auto" and ode_constant is None):
            scan_result = double_scaling_scan(
                s_hi_val, n_list, alpha_val, "delta1", config,
                reference_kind="delta-large")
            if scan_result.extrapolated is not None:
                scan_constant = scan_result.extrapolated - tail

        constant = ode_constant if ode_constant is not None else scan_constant
    return DysonExperiment(
        alpha=alpha_val, s_lo=s_lo_val, s_hi=s_hi_val, n_list=n_list,
        route=route, ode_constant=ode_constant, ode_halted=ode_halted, ode_reached=ode_reached,
        scan_constant=scan_constant, scan=scan_result,
        constant_estimate=constant, exact_constant_sum=exact_sum,
        reference=reference, cancellation_ok=cancellation, flags=flags,
    )
