import re

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """(solver, dimension, dtype) of every np.linalg.eigvalsh / eigh and every
    scipy.linalg.eigvalsh_tridiagonal call; the tridiagonal solver reports
    its diagonal's length and dtype."""
    import scipy.linalg

    calls = []
    for mod, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                      (scipy.linalg, "eigvalsh_tridiagonal")):
        orig = getattr(mod, name)

        def spy(h, *args, _name=name, _orig=orig, **kwargs):
            calls.append((_name, h.shape[0], h.dtype))
            return _orig(h, *args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.fixture
def wrong_sterf(monkeypatch):
    """wrong_sterf(kind) patches scipy.linalg.eigvalsh_tridiagonal so that
    its first call returns a wrong spectrum: its eigenvalue of index 3
    moved up by 1e-3 ("shift"), replaced by its upper neighbour
    ("duplicate") or by NaN ("nan")."""
    import scipy.linalg

    orig = scipy.linalg.eigvalsh_tridiagonal

    def patch(kind):
        calls = []

        def wrong(*args, **kwargs):
            vals = orig(*args, **kwargs)
            if not calls:
                vals[3] = {"shift": vals[3] + 1e-3, "duplicate": vals[4], "nan": np.nan}[kind]
            calls.append(vals.size)
            return vals

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", wrong)
        return calls

    return patch


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
