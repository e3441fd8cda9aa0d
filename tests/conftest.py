"""Shared fixtures."""

import pytest

from hankelpv import ode, quadrature


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
def midpoint_substeps(monkeypatch):
    """Substep counts of the GBS midpoint passes made during the test.

    Every pass of ode.solve_ode runs through ode._midpoint_pass and calls
    the right-hand side once per substep, so the sum is the ODE work.
    """
    counts = []
    midpoint = ode._midpoint_pass

    def counted(*args):
        counts.append(args[-1])  # the substep count n
        return midpoint(*args)

    monkeypatch.setattr(ode, "_midpoint_pass", counted)
    return counts
