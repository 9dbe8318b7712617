import re

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """(solver, dimension, dtype) of every np.linalg.eigvalsh / eigh and every
    scipy.linalg.eigvalsh_tridiagonal / eigh_tridiagonal call; a tridiagonal
    solver reports its diagonal's length and dtype."""
    import scipy.linalg

    calls = []
    for mod, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                      (scipy.linalg, "eigvalsh_tridiagonal"), (scipy.linalg, "eigh_tridiagonal")):
        orig = getattr(mod, name)

        def spy(h, *args, _name=name, _orig=orig, **kwargs):
            calls.append((_name, h.shape[0], h.dtype))
            return _orig(h, *args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    return calls


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, after the test run."""
    status = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", rep.nodeid)
            if m:
                status[int(m.group(1))] = "PASS" if outcome == "passed" else "FAIL"
    if status:
        terminalreporter.write_sep("-", "acceptance criteria")
        for k in sorted(status):
            terminalreporter.write_line(f"ACCEPTANCE {k}: {status[k]}")
