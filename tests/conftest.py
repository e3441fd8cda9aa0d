"""Shared fixtures."""

import pytest

from hankelpv import quadrature


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
