"""Double-scaling scans and the Dyson constant-term experiment.

The scans measure the double-scaling limits directly: raw finite-n
values along the prescribed (n, t) trajectories, Richardson extrapolation
in 1/n with a dual-model error bar, and comparison against the series
tables (series.py).  The Dyson experiment carries the log-ratio along the
coupled g flow of flows.py, loaded only when that flow runs, or reads it
off a delta scan.

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

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from mpmath import mp, mpf

from .choices import SCAN_MODES
from .ladder import beta_aux_terms, difference_run
from .precision import NumericsError, PrecisionConfig, stabilized, to_mpf, working_precision
from .recurrence import log_det_ratio
from .series import c_constant, dyson_reference, series_eval, series_expansion
from .weights import MomentTable, WeightParams, make_params

N_CAP = 1024
N_CAP_EXTENDED = 4096

_HALVES = (Fraction(1, 2), Fraction(-1, 2))


def _checked_n_list(n_list: Sequence[int], allow_large_n: bool = False) -> tuple:
    """n_list as ints, which must be non-empty, positive, strictly increasing
    and at most N_CAP, or N_CAP_EXTENDED with allow_large_n."""
    if not n_list:
        raise ValueError("n_list must be non-empty")
    n_list = tuple(int(n) for n in n_list)
    if any(n < 1 for n in n_list):
        raise ValueError("scan indices must be positive")
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    cap = N_CAP_EXTENDED if allow_large_n else N_CAP
    if n_list[-1] > cap:
        raise ValueError(f"n={n_list[-1]} beyond cap {cap}; pass allow_large_n for up to "
                         f"{N_CAP_EXTENDED}")
    return n_list


class ScanResult(NamedTuple):
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
    flags: list
    # the config each point was certified at: more bits than asked is an escalation
    configs: list


def _neville_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x=0; returns the diagonal."""
    work = list(ys)
    diag = [work[0]]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            work[i] = (xs[i - k] * work[i] - xs[i] * work[i - 1]) / (xs[i - k] - xs[i])
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
        t = s / mpf(n) ** 4 if mode == "sigma-n4" else s / (2 * mpf(n) ** 2)
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


def _pick_reference(mode: str, s: mpf, config: PrecisionConfig, reference_kind: Optional[str]):
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

    Each raw value is one certified difference run (module docstring), so
    n runs to N_CAP, or to N_CAP_EXTENDED with allow_large_n; `configs`
    records the config each was certified at.  The delta modes are
    ln D_N(t) - ln D_N(0).  Extrapolation runs two Richardson models
    (corrections in powers of 1/n and of 1/n^2); the reported value comes
    from the model whose final correction is smaller and the spread
    between models feeds the error bar.  Numeric failures, a point whose
    runs disagree at doubled bits included, are recorded, not raised.
    """
    n_list = _checked_n_list(n_list, allow_large_n)
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
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


class DysonExperiment(NamedTuple):
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
    flags: list


def _odd_terms_cancel() -> bool:
    """Exact-rational check that the a = +-1/2 product drops odd terms."""
    plus, minus = (dict(series_expansion("delta-ab-large", a=fr).terms) for fr in _HALVES)
    odd = (Fraction(1, 3), Fraction(-1, 3), Fraction(-1), Fraction(-5, 3))
    return all(plus[e] + minus[e] == 0 for e in odd)


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
    regardless.  n_list is checked as the scan checks it, whatever the route.
    """
    n_list = _checked_n_list(n_list)
    if route not in ("auto", "ode", "scan"):
        raise ValueError(f"unknown route {route!r}")
    with working_precision(config):
        alpha_val = to_mpf(alpha, config)
        s_lo_val = to_mpf(s_lo, config)
        s_hi_val = to_mpf(s_hi, config)
        if not 0 < s_lo_val < s_hi_val:
            raise ValueError("need 0 < s_lo < s_hi")

        exact_sum = c_constant(_HALVES[0], config) + c_constant(_HALVES[1], config)
        reference = dyson_reference(config)
        cancellation = _odd_terms_cancel()

        flags = []
        large = series_expansion("delta-large")
        if not large.in_regime(s_hi_val, config):
            flags.append("s_hi-outside-large-regime")
        tail = large.eval(s_hi_val, config, include_constant=False)

        ode_constant = ode_reached = None
        ode_halted = False
        if route in ("auto", "ode"):
            from .flows import flow_tolerance, log_ratio_flows

            flows = log_ratio_flows(_HALVES, s_lo_val, s_hi_val,
                                    flow_tolerance(tolerance, config), config)
            for fr, _ in zip(_HALVES, flows):
                if not series_expansion("delta-ab-small", a=fr).in_regime(s_lo_val, config):
                    flags.append(f"s_lo-outside-small-regime(a={fr})")
            ode_halted = flows[-1].halted
            if ode_halted:
                flags.append("ode-route-halted")
            else:
                # the rows are (s, g, g', H, L): the branches' log-ratios are L
                ode_constant = flows[0].endpoint[4] + flows[1].endpoint[4] - tail
            ode_reached = min(flow.reached for flow in flows)

        scan_constant = scan_result = None
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
