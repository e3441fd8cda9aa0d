"""Outside-in tracer for one benchmark job: no line under src/ changes.

`install()` wraps the public functions of each hankelpv layer. Callers bind
names at import time (`from .quadrature import integrate_even`), so every
module-level binding of a wrapped function, in every loaded hankelpv
module, is replaced. Each wrapper is a span of its layer; a layer's
`self_s` is its spans' time minus the time of wrapped spans nested inside
them, so work done by unwrapped helpers and callbacks (integrands, stencil
functions, ODE right-hand sides) counts for the nearest wrapped caller.
Counters are taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

LAYERS = ("quadrature", "derivatives", "ladder", "identities", "bridge", "recurrence",
          "weights", "special", "precision", "ode", "asymptotics", "report")

COUNTS = (
    "quadrature.integrals", "quadrature.integrand_calls", "quadrature.failures",
    "derivatives.bundles", "derivatives.stencil_evals", "derivatives.failures",
    "ladder.aux_tables", "ladder.oracle_integrals",
    "identities.rows", "bridge.rows", "bridge.tilde_tables",
    "recurrence.tables", "recurrence.pivots", "recurrence.escalations",
    "recurrence.hankel_dets",
    "weights.moments", "weights.table_builds", "weights.quadrature_fallbacks",
    "special.kummer_calls", "precision.stabilized_evals", "precision.escalations",
    "ode.solves", "ode.steps", "ode.rhs_calls", "ode.halts",
    "asymptotics.scan_points", "asymptotics.series_evals",
)


class Tracer:
    def __init__(self):
        self.counts = Counter({key: 0 for key in COUNTS})
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self._open = []  # one [span name, nested span time] per open span

    def span(self, name, fn, hook=None):
        """fn wrapped as a span named `<layer>.<function>`; hook(fn, ...) may count."""
        layer = name.split(".")[0]
        opened = self._open

        def wrapper(*args, **kwargs):
            opened.append([name, 0.0])
            start = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[layer] += elapsed - opened.pop()[1]
                if opened:
                    opened[-1][1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        """fn that adds one to counts[key] per call."""
        counts = self.counts

        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    def caller(self):
        """Name of the span that called the running one (hooks run inside their span)."""
        return self._open[-2][0] if len(self._open) > 1 else None

    def fail_once(self, key, exc):
        """Count a failure once, however many wrapped spans it unwinds."""
        if not getattr(exc, "_perfbench_counted", False):
            exc._perfbench_counted = True
            self.counts[key] += 1

    def report(self):
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}


def _rebind(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "hankelpv" or name.startswith("hankelpv."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every traced function of the already imported hankelpv package."""
    from hankelpv import (asymptotics, bridge, derivatives, identities, ladder, ode,
                          precision, quadrature, recurrence, report, special, weights)

    tr = Tracer()
    c = tr.counts

    def integral(fn, f, *args, **kwargs):
        c["quadrature.integrals"] += 1
        if tr.caller() in ("ladder.aux_r_oracle", "ladder.aux_R_oracle"):
            c["ladder.oracle_integrals"] += 1
        try:
            return fn(tr.counted("quadrature.integrand_calls", f), *args, **kwargs)
        except quadrature.ConvergenceError as exc:
            tr.fail_once("quadrature.failures", exc)
            raise

    def bundle(fn, f, *args, **kwargs):
        c["derivatives.bundles"] += 1
        try:
            return fn(tr.counted("derivatives.stencil_evals", f), *args, **kwargs)
        except derivatives.InstabilityError as exc:
            tr.fail_once("derivatives.failures", exc)
            raise

    def counting(key, size=lambda result: 1):
        def hook(fn, *args, **kwargs):
            result = fn(*args, **kwargs)
            c[key] += size(result)
            return result
        return hook

    def rec_table(fn, n_max, params, config, moments=None):
        table = fn(n_max, params, config, moments)
        c["recurrence.tables"] += 1
        if table.config.bits > config.bits:
            c["recurrence.escalations"] += 1
        return table

    # hankel_det returns no config: its retry shows as a moment table built
    # at more bits than the determinant asked for
    det_bits = []

    def hankel_det(fn, n, params, config, moments=None):
        c["recurrence.hankel_dets"] += 1
        det_bits.append(config.bits)
        try:
            return fn(n, params, config, moments)
        finally:
            det_bits.pop()

    def table_build(fn, params, j_max, config):
        c["weights.table_builds"] += 1
        if tr.caller() == "recurrence.hankel_det" and config.bits > det_bits[-1]:
            c["recurrence.escalations"] += 1
        return fn(params, j_max, config)

    def moment_entry(fn, j, params, config):
        value, route = fn(j, params, config)
        c["weights.moments"] += 1
        if route == weights.QUADRATURE:
            c["weights.quadrature_fallbacks"] += 1
        return value, route

    def cholesky(rows):
        try:
            lower = plain_cholesky(rows)
        except recurrence.PivotError as exc:
            c["recurrence.pivots"] += (exc.index or 0) + 1
            raise
        c["recurrence.pivots"] += len(rows)
        return lower

    def stabilized(fn, evaluate, config, agree_digits=None):
        calls = tr.counted("precision.stabilized_evals", evaluate)
        before = c["precision.stabilized_evals"]
        try:
            return fn(calls, config, agree_digits)
        finally:
            c["precision.escalations"] += max(0, c["precision.stabilized_evals"] - before - 2)

    def solve_ode(fn, problem, config, sample_points=None):
        c["ode.solves"] += 1
        problem = dataclasses.replace(problem, rhs=tr.counted("ode.rhs_calls", problem.rhs))
        try:
            samples = fn(problem, config, sample_points)
        except ode.OdeHalt as halt:
            c["ode.halts"] += 1
            c["ode.steps"] += len(halt.samples) - 1
            raise
        c["ode.steps"] += len(samples) - 1
        return samples

    plain_cholesky = recurrence._cholesky
    spans = {
        quadrature: {name: integral for name in
                     ("integrate", "integrate_unit", "integrate_even", "integrate_unit_vector")},
        derivatives: {"derivative": None, "derivative_bundle": bundle},
        ladder: {"aux_table": counting("ladder.aux_tables"),
                 "aux_r_oracle": None, "aux_R_oracle": None},
        identities: {
            "run_identity_suite": None,
            "verify_scalar_identities": counting("identities.rows", len),
            "verify_difference_equations": counting("identities.rows", len),
            "verify_differential": counting("identities.rows", len),
            "verify_ladder_relations": counting("identities.rows", len),
            "verify_linear_ode_Pn": counting("identities.rows"),
            "verify_integral_representation": counting("identities.rows"),
        },
        bridge: {"verify_parity_splitting": counting("bridge.rows", len),
                 "verify_jmo_sigma_form": counting("bridge.rows", len),
                 "tilde_moments_and_table": counting("bridge.tilde_tables")},
        recurrence: {"recurrence_table": rec_table, "hankel_det": hankel_det,
                     "hankel_det_t0": None},
        weights: {"moment_entry": moment_entry, "moment_quadrature": None},
        special: {"kummer_phi": counting("special.kummer_calls"), "gamma": None,
                  "log_gamma": None, "log_barnes_g": None, "zeta_prime_minus_one": None},
        precision: {"stabilized": stabilized},
        ode: {"solve_ode": solve_ode},
        asymptotics: {
            "double_scaling_scan": counting(
                "asymptotics.scan_points", lambda result: len(result.n_list)),
            "series_eval": counting("asymptotics.series_evals"),
            "solve_piii_prime": None, "continue_pv": None,
            "dyson_constant_experiment": None,
            "g_small_coefficients": None, "g_large_coefficients": None,
        },
        report: {name: None for name in vars(report)
                 if name == "render" or name.endswith("_records")},
    }
    for module, hooks in spans.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for name, hook in hooks.items():
            original = getattr(module, name)
            _rebind(original, tr.span(f"{layer}.{name}", original, hook))

    # Cholesky pivots are counted, not timed: bridge factors its own tables too
    _rebind(plain_cholesky, cholesky)

    build = weights.MomentTable.build
    weights.MomentTable.build = staticmethod(tr.span("weights.table_build", build, table_build))
    return tr
