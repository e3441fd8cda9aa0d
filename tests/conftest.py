"""Shared fixtures."""

import dataclasses

import pytest

from hankelpv import asymptotics, ode, quadrature


@pytest.fixture
def quadrature_passes(monkeypatch):
    """Sizes of the tanh-sinh passes made during the test, in call order.

    Every integrate* entry point runs through quadrature._tanh_sinh, so
    this counts each pass whichever entry point made it.
    """
    sizes = []
    driver = quadrature._tanh_sinh

    def counted(f, size, *args):
        sizes.append(size)
        return driver(f, size, *args)

    monkeypatch.setattr(quadrature, "_tanh_sinh", counted)
    return sizes


@pytest.fixture
def taylor_steps(monkeypatch):
    """Abscissae of the jets taken by every ode.solve_ode run in the test.

    The integrator takes one jet per step, and a step it has sized is never
    retried, so on a run that finishes the length is the accepted step
    count. The flows bind solve_ode by name in hankelpv.asymptotics, so that
    binding is wrapped too.
    """
    points = []
    solve = ode.solve_ode

    def counted(problem, *args, **kwargs):
        jet = problem.jet

        def recorded(x, y, order):
            points.append(x)
            return jet(x, y, order)

        return solve(dataclasses.replace(problem, jet=recorded), *args, **kwargs)

    monkeypatch.setattr(ode, "solve_ode", counted)
    monkeypatch.setattr(asymptotics, "solve_ode", counted)
    return points
