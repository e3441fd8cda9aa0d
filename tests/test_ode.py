"""ODE integrator: classical solutions, tolerance response, guards."""

import pytest
from mpmath import mp, mpf

from hankelpv import ode
from hankelpv.ode import (
    OdeProblem,
    SingularityHalt,
    StepUnderflowHalt,
    _scaled_jet,
    binary_point,
    solve_ode,
    to_fixed,
)
from hankelpv.precision import PrecisionConfig, working_precision
from hankelpv.recurrence import cauchy

CFG = PrecisionConfig()


def endpoint(samples):
    return samples[-1]


def fixed_rows(rows, scale):
    """Taylor coefficients a_k as the integrator's rows: a_k 2^(scale k) at
    the binary point."""
    point = binary_point()
    return [[to_fixed(mp.ldexp(a, scale * k), point) for k, a in enumerate(row)]
            for row in rows]


def jet_of(coefficient):
    """Jet of y' = f(x, y) from coefficient(x0, rows, k), the order-k Taylor
    coefficients of f given the rows through order k: a_(k+1) = f_k/(k+1)."""

    def jet(x, y, order, scale):
        rows = [[mpf(v)] for v in y]
        for k in range(order):
            for row, f in zip(rows, coefficient(x, rows, k)):
                row.append(f / (k + 1))
        return fixed_rows(rows, scale)

    return jet


def times_trig(fn):
    """Jet of y' = fn(x) y, with fn(x0 + tau) = sum_k fn(x0 + k pi/2) tau^k/k!."""

    def jet(x, y, order, scale):
        f = [fn(x + k * mp.pi / 2) / mp.factorial(k) for k in range(order)]
        a = [mpf(y[0])]
        for k in range(order):
            a.append(cauchy(f, a, k) / (k + 1))
        return fixed_rows([a], scale)

    return jet


GROWTH = jet_of(lambda x, r, k: [r[0][k]])  # y' = y
GAUSSIAN = jet_of(lambda x, r, k: [-2 * cauchy([x, 1], r[0], k)])  # y' = -2xy
OSCILLATOR = jet_of(lambda x, r, k: [r[1][k], -r[0][k]])  # y'' = -y
SQUARE = jet_of(lambda x, r, k: [cauchy(r[0], r[0], k)])  # y' = y^2


def test_exponential_growth():
    problem = OdeProblem(
        rhs=lambda x, y: [y[0]],
        jet=GROWTH,
        x0=0,
        y0=[1],
        x_end=1,
        tolerance=mpf(10) ** -12,
    )
    samples = solve_ode(problem, CFG)
    x, y = endpoint(samples)
    with working_precision(CFG):
        assert x == 1
        assert abs(y[0] - mp.e) < mpf(10) ** -40


def test_gaussian_decay():
    problem = OdeProblem(
        rhs=lambda x, y: [-2 * x * y[0]],
        jet=GAUSSIAN,
        x0=0,
        y0=[1],
        x_end=2,
        tolerance=mpf(10) ** -12,
    )
    x, y = endpoint(solve_ode(problem, CFG))
    with working_precision(CFG):
        assert abs(y[0] - mp.exp(-4)) < mpf(10) ** -40


def test_halving_tolerance_improves_error_10x():
    def run(tol):
        problem = OdeProblem(
            rhs=lambda x, y: [y[0] * mp.cos(x)],
            jet=times_trig(mp.cos),
            x0=0,
            y0=[1],
            x_end=3,
            tolerance=tol,
        )
        x, y = endpoint(solve_ode(problem, CFG))
        with working_precision(CFG):
            return abs(y[0] - mp.exp(mp.sin(mpf(3))))

    with working_precision(CFG):
        coarse = run(mpf(10) ** -6)
        fine = run(mpf(10) ** -6 / 2)
        assert coarse > 0
        assert fine <= coarse / 10


SMOOTH_PROBLEMS = {
    # name: (rhs, jet, y0, x_end, exact y[0](x_end))
    "y cos x": (lambda x, y: [y[0] * mp.cos(x)], times_trig(mp.cos), [1], 3,
                lambda: mp.exp(mp.sin(3))),
    "y": (lambda x, y: [y[0]], GROWTH, [1], 1, lambda: mp.e),
    "-2xy": (lambda x, y: [-2 * x * y[0]], GAUSSIAN, [1], 2, lambda: mp.exp(-4)),
    "oscillator": (lambda x, y: [y[1], -y[0]], OSCILLATOR, [0, 1], 6, lambda: mp.sin(6)),
}


@pytest.mark.parametrize("tolerance", ["1e-4", "1e-5", "1e-6", "1e-7"])
@pytest.mark.parametrize("name", list(SMOOTH_PROBLEMS))
def test_error_falls_with_the_tolerance(name, tolerance):
    # runs of a handful of high-order steps, where one step can set the
    # global error: it must still fall on every halving of the tolerance,
    # and by the budget's 10^4 within a factor 10 over a decade
    rhs, jet, y0, x_end, exact = SMOOTH_PROBLEMS[name]

    def error(tol):
        problem = OdeProblem(
            rhs=rhs, jet=jet, x0=0, y0=y0, x_end=x_end, tolerance=tol
        )
        x, y = endpoint(solve_ode(problem, CFG))
        with working_precision(CFG):
            return abs(y[0] - exact())

    with working_precision(CFG):
        tol = mpf(tolerance)
        coarse, halved, tenth = error(tol), error(tol / 2), error(tol / 10)
        assert coarse > 0
        assert halved < coarse
        assert tenth <= coarse / 1000


def test_backward_integration():
    problem = OdeProblem(
        rhs=lambda x, y: [y[0]],
        jet=GROWTH,
        x0=1,
        y0=[mp.e],
        x_end=0,
        tolerance=mpf(10) ** -12,
    )
    x, y = endpoint(solve_ode(problem, CFG))
    with working_precision(CFG):
        assert x == 0
        assert abs(y[0] - 1) < mpf(10) ** -40


def test_dense_output_hits_requested_points():
    problem = OdeProblem(
        rhs=lambda x, y: [y[1], -y[0]],  # harmonic oscillator
        jet=OSCILLATOR,
        x0=0,
        y0=[0, 1],
        x_end=2,
        tolerance=mpf(10) ** -12,
    )
    with working_precision(CFG):
        wanted = [mpf(1) / 2, mpf(1), mpf(3) / 2]
    samples = solve_ode(problem, CFG, sample_points=wanted)
    xs = [s[0] for s in samples]
    with working_precision(CFG):
        for p in wanted:
            assert p in xs
        lookup = dict((s[0], s[1]) for s in samples)
        for p in wanted:
            assert abs(lookup[p][0] - mp.sin(p)) < mpf(10) ** -35


def test_checkpoint_one_ulp_past_the_first_step():
    # y = x^2 has a jet that vanishes past order 2, so the one step spans the
    # whole range and the checkpoint, one ulp past 1/16, is read off its
    # polynomial
    problem = OdeProblem(
        rhs=lambda x, y: [2 * x],
        jet=jet_of(lambda x, r, k: [2 * [x, 1, 0][min(k, 2)]]),
        x0=0,
        y0=[0],
        x_end=1,
        tolerance=mpf(10) ** -12,
    )
    with working_precision(CFG):
        point = (1 + mp.eps) / 16  # one ulp above 1/16
        assert point > mpf(1) / 16
    samples = solve_ode(problem, CFG, sample_points=[point])
    xs = [s[0] for s in samples]
    assert point in xs and xs[-1] == 1
    lookup = dict((s[0], s[1]) for s in samples)
    with working_precision(CFG):
        assert abs(lookup[point][0] - point**2) < mpf(10) ** -40


def test_singularity_guard_halts_with_partial_trajectory():
    # y' = y^2 blows up at x = 1 from y(0) = 1
    problem = OdeProblem(
        rhs=lambda x, y: [y[0] ** 2],
        jet=SQUARE,
        x0=0,
        y0=[1],
        x_end=2,
        tolerance=mpf(10) ** -3,
        singularity_guard=lambda x, y: abs(y[0]) > 10**3,
    )
    with pytest.raises(SingularityHalt) as excinfo:
        solve_ode(problem, CFG)
    halt = excinfo.value
    with working_precision(CFG):
        assert abs(halt.x - 1) < mpf(1) / 100
        assert len(halt.samples) > 2


def test_unguarded_blowup_halts_on_step_budget(monkeypatch):
    monkeypatch.setattr(ode, "DEFAULT_MAX_STEPS", 400)
    problem = OdeProblem(
        rhs=lambda x, y: [y[0] ** 2],
        jet=SQUARE,
        x0=0,
        y0=[1],
        x_end=2,
        tolerance=mpf(10) ** -3,
    )
    with pytest.raises((StepUnderflowHalt, SingularityHalt)):
        solve_ode(problem, CFG)


def test_deterministic_step_sequence():
    def make():
        return OdeProblem(
            rhs=lambda x, y: [mp.sin(x) * y[0]],
            jet=times_trig(mp.sin),
            x0=0,
            y0=[1],
            x_end=1,
            tolerance=mpf(10) ** -10,
        )

    a = solve_ode(make(), CFG)
    b = solve_ode(make(), CFG)
    assert [s[0] for s in a] == [s[0] for s in b]
    assert [s[1][0] for s in a] == [s[1][0] for s in b]


def test_tolerance_validation():
    problem = OdeProblem(
        rhs=lambda x, y: [y[0]], jet=GROWTH, x0=0, y0=[1], x_end=1,
        tolerance=mpf(10) ** -200,
    )
    with pytest.raises(ValueError):
        solve_ode(problem, CFG)


def _recording(jet, scales):
    def recorded(x, y, order, scale):
        scales.append(scale)
        return jet(x, y, order, scale)

    return recorded


def test_a_jet_scaled_below_its_step_is_taken_again():
    # at 2^-20 the step estimate of y' = y, about 0.09, is 16 binary orders
    # out: the jet is taken again at the estimate's power of two, where it stays
    scales = []
    with working_precision(CFG, extra_bits=64):
        budget, point = mpf(10) ** -48, binary_point()
        rows, h, scale = _scaled_jet(_recording(GROWTH, scales), mpf(0), [mpf(1)], 24,
                                     budget, -20, mpf(1), point)
        assert scales == [-20, mp.mag(h)] and scale == mp.mag(h)
        assert rows == GROWTH(mpf(0), [mpf(1)], 26, scale)
        assert mpf(1) / 16 < h < mpf(1) / 8


def test_a_vanishing_tail_is_read_at_the_scale_of_the_span():
    # y' = 1: the tail is 0 at any scale, so the jet is taken again at the
    # scale of the span left, where 0 means below 2^-F on all of it
    scales = []
    line = jet_of(lambda x, r, k: [1 if k == 0 else 0])
    with working_precision(CFG, extra_bits=64):
        point = binary_point()
        rows, h, scale = _scaled_jet(_recording(line, scales), mpf(0), [mpf(0)], 8,
                                     mpf(10) ** -48, -20, mpf(6), point)
    assert (scales, h, scale) == ([-20, 3], None, 3)
    assert rows == [[0, 1 << (point + 3)] + [0] * 9]
