import sys

import numpy as np
import pytest

from gapcert import spectral


def patch_solver(monkeypatch, replacement):
    """Rebind :func:`gapcert.spectral.lapack_pairs`, the one per-point solve,
    to ``replacement`` in every gapcert module that looks it up, so that it
    replaces every solve: the sweep's grid points and everything that goes
    through :func:`gapcert.spectral.low_spectrum`."""
    solve = spectral.lapack_pairs
    for name, module in list(sys.modules.items()):
        if name.startswith("gapcert") and getattr(module, "lapack_pairs", None) is solve:
            monkeypatch.setattr(module, "lapack_pairs", replacement)


@pytest.fixture
def solve_log(monkeypatch):
    """The ``m`` of every :func:`gapcert.spectral.lapack_pairs` call, in order,
    whichever gapcert module makes it."""
    log = []
    solve = spectral.lapack_pairs

    def counting(h, m):
        log.append(m)
        return solve(h, m)

    patch_solver(monkeypatch, counting)
    return log


@pytest.fixture
def complex_solves(monkeypatch):
    """Whether each :func:`gapcert.spectral.lapack_pairs` call, in order, was
    given a complex array, whichever gapcert module makes it."""
    log = []
    solve = spectral.lapack_pairs

    def recording(h, m):
        log.append(np.iscomplexobj(h))
        return solve(h, m)

    patch_solver(monkeypatch, recording)
    return log
