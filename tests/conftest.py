import sys

import pytest

from gapcert import spectral


@pytest.fixture
def solve_log(monkeypatch):
    """The ``m`` of every :func:`gapcert.spectral.low_spectrum` call, in order,
    whichever gapcert module makes it."""
    log = []
    solve = spectral.low_spectrum

    def counting(h, m):
        log.append(m)
        return solve(h, m)

    for name, module in list(sys.modules.items()):
        if name.startswith("gapcert") and getattr(module, "low_spectrum", None) is solve:
            monkeypatch.setattr(module, "low_spectrum", counting)
    return log
