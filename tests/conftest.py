"""Fixtures that record the LAPACK Hermitian drivers a computation calls."""

import numpy as np
import pytest


def _solver_shapes(monkeypatch, name: str) -> list:
    """Shapes of the matrices passed to np.linalg.<name>, in call order."""
    shapes = []

    def recorded(a, *args, _solver=getattr(np.linalg, name), **kw):
        shapes.append(np.shape(a))
        return _solver(a, *args, **kw)

    monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


@pytest.fixture
def eigh_shapes(monkeypatch):
    return _solver_shapes(monkeypatch, "eigh")


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    return _solver_shapes(monkeypatch, "eigvalsh")
