import re

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """(solver, dimension, dtype) of every np.linalg.eigvalsh / eigh and every
    folner_lab.spectral._sterf call, reported as "sterf" with its
    diagonal's length and dtype."""
    from folner_lab import spectral

    calls = []
    for mod, name, label in ((np.linalg, "eigvalsh", "eigvalsh"), (np.linalg, "eigh", "eigh"),
                             (spectral, "_sterf", "sterf")):
        orig = getattr(mod, name)

        def spy(h, *args, _label=label, _orig=orig, **kwargs):
            calls.append((_label, h.shape[0], h.dtype))
            return _orig(h, *args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.fixture
def wrong_sterf(monkeypatch):
    """wrong_sterf(kind) patches folner_lab.spectral._sterf so that its
    first call returns a wrong spectrum: its eigenvalue of index 3 moved up
    by 1e-3 ("shift"), replaced by its upper neighbour ("duplicate") or by
    NaN ("nan")."""
    from folner_lab import spectral

    orig = spectral._sterf

    def patch(kind):
        calls = []

        def wrong(*args, **kwargs):
            vals = orig(*args, **kwargs)
            if not calls:
                vals[3] = {"shift": vals[3] + 1e-3, "duplicate": vals[4], "nan": np.nan}[kind]
            calls.append(vals.size)
            return vals

        monkeypatch.setattr(spectral, "_sterf", wrong)
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
