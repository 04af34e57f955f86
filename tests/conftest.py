import numpy as np
import pytest

from gapcert import spectral


def patch_solver(monkeypatch, replacement):
    """Rebind :func:`gapcert.spectral.lapack_pairs`, the one per-point solve,
    to ``replacement``.  Only :mod:`gapcert.spectral` looks it up
    (``test_spectral`` checks this), so it replaces every solve: each point
    of :func:`gapcert.spectral.pencil_pairs` (the sweep's grid and
    refinement, the proof chain's Perron pairs and mirror levels) and
    everything that goes through :func:`gapcert.spectral.low_spectrum`."""
    monkeypatch.setattr(spectral, "lapack_pairs", replacement)


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
