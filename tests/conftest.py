import re

import numpy as np
import pytest


@pytest.fixture
def eig_calls(monkeypatch):
    """(solver, dimension, dtype) of every np.linalg.eigvalsh / eigh and every
    folner_lab.spectral._sterf call, reported as "sterf" with its
    diagonal's length and dtype, and of each half that the closed form
    folner_lab.spectral._cosine_halves solves, reported as "cosine" with
    the half's order and its eigenvalues' dtype."""
    from folner_lab import spectral

    calls = []
    for mod, name, label in ((np.linalg, "eigvalsh", "eigvalsh"), (np.linalg, "eigh", "eigh"),
                             (spectral, "_sterf", "sterf")):
        orig = getattr(mod, name)

        def spy(h, *args, _label=label, _orig=orig, **kwargs):
            calls.append((_label, h.shape[0], h.dtype))
            return _orig(h, *args, **kwargs)

        monkeypatch.setattr(mod, name, spy)
    cosine = spectral._cosine_halves

    def spy_cosine(*args):
        halves = cosine(*args)
        calls.extend(("cosine", v.size, v.dtype) for v in halves)
        return halves

    monkeypatch.setattr(spectral, "_cosine_halves", spy_cosine)
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


@pytest.fixture
def wrong_cosine(monkeypatch):
    """wrong_cosine(kind, half=0) patches folner_lab.spectral._cosine_halves
    so that its first call returns a wrong spectrum for one half, 0 the
    symmetric one and 1 the antisymmetric one: its eigenvalue of index 3
    moved up by 1e-3 ("shift"), replaced by its upper neighbour
    ("duplicate") or by NaN ("nan"), or missing, those above it moved down
    one place and the top one repeated ("missing")."""
    from folner_lab import spectral

    orig = spectral._cosine_halves

    def patch(kind, half=0):
        calls = []

        def wrong(*args):
            halves = orig(*args)
            if not calls:
                vals = halves[half]
                if kind == "missing":
                    halves[half] = np.append(np.delete(vals, 3), vals[-1])
                else:
                    vals[3] = {"shift": vals[3] + 1e-3, "duplicate": vals[4], "nan": np.nan}[kind]
            calls.append(halves)
            return halves

        monkeypatch.setattr(spectral, "_cosine_halves", wrong)
        return calls

    return patch


@pytest.fixture
def valley(monkeypatch):
    """Adds the palindromic diagonal 0.01 min(p, d - 1 - p) to the storage
    of every compression that folner_lab.spectral reads, p the position in
    a window of order d, and raises its scale to match.  A bandwidth-1
    Toeplitz window stays tridiagonal and persymmetric but is no longer
    Toeplitz, so that it reaches LAPACK sterf's halves, not the closed
    form, from the command line too."""
    from folner_lab import spectral

    orig = spectral._hermitian_compression

    def with_valley(op, proj, herm_tol):
        h, scale = orig(op, proj, herm_tol)
        p = np.arange(proj.rank)
        h = {**h, 0: h.get(0, 0.0) + 0.01 * np.minimum(p, proj.rank - 1 - p)}
        return h, max(scale, float(np.max(np.abs(h[0]))))

    monkeypatch.setattr(spectral, "_hermitian_compression", with_valley)


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
