"""ODE integrator: classical solutions, tolerance response, guards."""

import pytest
from mpmath import mp, mpf

from hankelpv import ode
from hankelpv.ode import (
    OdeProblem,
    SingularityHalt,
    StepUnderflowHalt,
    solve_ode,
)
from hankelpv.precision import PrecisionConfig, working_precision

CFG = PrecisionConfig()


def endpoint(samples):
    return samples[-1]


def test_exponential_growth():
    problem = OdeProblem(
        dimension=1,
        rhs=lambda x, y: [y[0]],
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
        dimension=1,
        rhs=lambda x, y: [-2 * x * y[0]],
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
            dimension=1,
            rhs=lambda x, y: [y[0] * mp.cos(x)],
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
    # name: (rhs, y0, x_end, exact y[0](x_end))
    "y cos x": (lambda x, y: [y[0] * mp.cos(x)], [1], 3, lambda: mp.exp(mp.sin(3))),
    "y": (lambda x, y: [y[0]], [1], 1, lambda: mp.e),
    "-2xy": (lambda x, y: [-2 * x * y[0]], [1], 2, lambda: mp.exp(-4)),
    "oscillator": (lambda x, y: [y[1], -y[0]], [0, 1], 6, lambda: mp.sin(6)),
}


@pytest.mark.parametrize("tolerance", ["1e-4", "1e-5", "1e-6", "1e-7"])
@pytest.mark.parametrize("name", list(SMOOTH_PROBLEMS))
def test_error_falls_with_the_tolerance(name, tolerance):
    # runs of a handful of high-order steps, where one step can set the
    # global error: it must still fall on every halving of the tolerance,
    # and by the budget's 10^4 within a factor 10 over a decade
    rhs, y0, x_end, exact = SMOOTH_PROBLEMS[name]

    def error(tol):
        problem = OdeProblem(
            dimension=len(y0), rhs=rhs, x0=0, y0=y0, x_end=x_end, tolerance=tol
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
        dimension=1,
        rhs=lambda x, y: [y[0]],
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
        dimension=2,
        rhs=lambda x, y: [y[1], -y[0]],  # harmonic oscillator
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
    # y = x^2 is exact for the midpoint rule, so the first step, a sixteenth
    # of the span, is accepted and ends one ulp short of the checkpoint
    problem = OdeProblem(
        dimension=1,
        rhs=lambda x, y: [2 * x],
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


def test_order_stays_within_the_substep_sequence(monkeypatch):
    # a short substep sequence puts the highest column within reach of a
    # smooth run that wants ever higher order
    sequence = (2, 4, 6, 8, 10, 12, 14)
    top = len(sequence) - 2
    monkeypatch.setattr(ode, "SUBSTEP_SEQUENCE", sequence)
    monkeypatch.setattr(
        ode, "COLUMN_COST", tuple(1 + sum(sequence[: j + 1]) for j in range(len(sequence)))
    )
    columns = []
    extrapolate = ode._extrapolate

    def recorded(rhs, x, y, f0, Hs, column, unit):
        columns.append(column)
        return extrapolate(rhs, x, y, f0, Hs, column, unit)

    monkeypatch.setattr(ode, "_extrapolate", recorded)
    problem = OdeProblem(
        dimension=1,
        rhs=lambda x, y: [y[0]],
        x0=0,
        y0=[1],
        x_end=4,
        tolerance=mpf(10) ** -12,
    )
    x, y = endpoint(solve_ode(problem, CFG))
    assert max(columns) == top
    with working_precision(CFG):
        assert x == 4
        assert abs(y[0] - mp.exp(4)) < mpf(10) ** -40


def test_singularity_guard_halts_with_partial_trajectory():
    # y' = y^2 blows up at x = 1 from y(0) = 1
    problem = OdeProblem(
        dimension=1,
        rhs=lambda x, y: [y[0] ** 2],
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


def test_unguarded_blowup_halts_on_step_budget():
    problem = OdeProblem(
        dimension=1,
        rhs=lambda x, y: [y[0] ** 2],
        x0=0,
        y0=[1],
        x_end=2,
        tolerance=mpf(10) ** -3,
        max_steps=400,
    )
    with pytest.raises((StepUnderflowHalt, SingularityHalt)):
        solve_ode(problem, CFG)


def test_deterministic_step_sequence():
    def make():
        return OdeProblem(
            dimension=1,
            rhs=lambda x, y: [mp.sin(x) * y[0]],
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
        dimension=1, rhs=lambda x, y: [y[0]], x0=0, y0=[1], x_end=1,
        tolerance=mpf(10) ** -200,
    )
    with pytest.raises(ValueError):
        solve_ode(problem, CFG)
