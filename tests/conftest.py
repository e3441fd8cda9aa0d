"""Shared fixtures."""

import dataclasses

import pytest

from hankelpv import flows, ode, quadrature


@pytest.fixture
def quadrature_passes(monkeypatch):
    """Sizes of the quadrature passes made during the test, in call order.

    Every integrate* entry point runs through quadrature._level_loop, on
    either node map, so this counts each pass whichever entry point and
    map made it.
    """
    sizes = []
    driver = quadrature._level_loop

    def counted(f, size, *args):
        sizes.append(size)
        return driver(f, size, *args)

    monkeypatch.setattr(quadrature, "_level_loop", counted)
    return sizes


@pytest.fixture
def integrand_calls(monkeypatch):
    """Integrand calls of each quadrature pass made during the test, in call order."""
    calls = []
    driver = quadrature._level_loop

    def counted(f, size, *args):
        calls.append(0)

        def g(*point):
            calls[-1] += 1
            return f(*point)

        return driver(g, size, *args)

    monkeypatch.setattr(quadrature, "_level_loop", counted)
    return calls


@pytest.fixture
def taylor_steps(monkeypatch):
    """Abscissae of the jets taken by every ode.solve_ode run in the test.

    The integrator takes one jet per step, unless the step estimate outgrows
    the jet's scale (ode._scaled_jet), which no flow these tests count does,
    and a step it has sized is never retried, so on a run that finishes the
    length is the accepted step count. The flows bind solve_ode by name in
    hankelpv.flows, so that binding is wrapped too.
    """
    points = []
    solve = ode.solve_ode

    def counted(problem, *args, **kwargs):
        jet = problem.jet

        def recorded(x, y, order, scale):
            points.append(x)
            return jet(x, y, order, scale)

        return solve(dataclasses.replace(problem, jet=recorded), *args, **kwargs)

    monkeypatch.setattr(ode, "solve_ode", counted)
    monkeypatch.setattr(flows, "solve_ode", counted)
    return points
