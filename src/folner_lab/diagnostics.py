"""Commutator-norm diagnostics: Schatten ratios and the quasidiagonality gap.

The central quantity is ||A P - P A||_p / ||P||_p for coordinate
projections P, with ||P||_1 = rank and ||P||_2 = sqrt(rank).  Commutators
are formed from the exact entries that couple P to the padded index window
around it, so they coincide with the infinite-dimensional commutator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import report_csv, report_json
from .operators import OperatorSpec, _check_lattice, dense_entries, exact_entries
from .operators import intersect_runs, pad_runs, run_indices, subtract_runs, widen_runs

INF = math.inf


def _trim(m: np.ndarray) -> np.ndarray:
    """Drop all-zero rows and columns; singular values are unchanged."""
    rows = np.any(m != 0, axis=1)
    cols = np.any(m != 0, axis=0)
    if not rows.any():
        return np.zeros((1, 1), dtype=m.dtype)
    return m[np.ix_(rows, cols)]


def _singular_values(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(_trim(m), compute_uv=False)


def schatten_norm(m: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}.

    p=2 is the entrywise Hilbert-Schmidt sum; p=1 and p=inf go through
    singular values of the (zero-trimmed) matrix.
    """
    m = np.asarray(m)
    if p == 2:
        return float(np.linalg.norm(m))
    if p in (1, INF, "inf"):
        sv = _singular_values(m)
        return float(sv.sum() if p == 1 else sv[0])
    raise ValueError(f"unsupported Schatten exponent {p!r}")


def _proj_norm(rank: int, p) -> float:
    if p == 1:
        return float(rank)
    if p == 2:
        return math.sqrt(rank)
    raise ValueError(f"ratio exponent must be 1 or 2, got {p!r}")


def _corner_blocks(op: OperatorSpec, proj):
    """Blocks B1 = (1-P) A P and B2 = P A (1-P), cut down to the rows and
    columns that hold entries, all of them near the boundary of P.

    With respect to the in/out index splitting, [P, A] = B2 - B1 placed on
    the two anti-diagonal blocks, so every Schatten norm of the commutator
    is recovered from (B1, B2) alone.

    Both index sets come from P's runs, with no array of P's size: `out` is
    the pad of the runs minus P (the margins of each padded run, the short
    gaps inside one, and a dense support), and `near` is the part of P
    within reach of `out`, the reach being the widest offset (a dense leaf
    reaches across its support).  A polynomial is evaluated on the pad of
    `near` only, which holds every index of `out` that `near` couples to,
    so a window costs O(runs * bandwidth^2), plus the square of a dense
    support, whatever its rank.
    """
    _check_lattice(op, proj)
    runs = proj.runs
    out = subtract_runs(pad_runs(op, runs), runs)
    reach = max(map(abs, op.offsets), default=0)
    near = intersect_runs(runs, widen_runs(out, reach))
    out, near = run_indices(out), run_indices(near)
    src = exact_entries(op, near)
    return dense_entries(src, out, near), dense_entries(src, near, out)


def _window_norms(op: OperatorSpec, proj) -> dict:
    """The Schatten norms of one window's commutator: the corner blocks are
    built once and each goes through one SVD.  Returns {"comm": {p: norm},
    "off": {p: norm}} for p in {1, 2} (the commutator and its off-corner
    part (1 - P) A P) and "gap", the commutator's operator norm."""
    b1, b2 = _corner_blocks(op, proj)
    sv1, sv2 = _singular_values(b1), _singular_values(b2)
    hs1, hs2 = float(np.linalg.norm(b1)), float(np.linalg.norm(b2))
    return {
        "comm": {1: float(sv1.sum()) + float(sv2.sum()), 2: math.hypot(hs1, hs2)},
        "off": {1: float(sv1.sum()), 2: hs1},
        "gap": max(float(sv1[0]), float(sv2[0])),
    }


def folner_ratio(op: OperatorSpec, proj, p: int = 2) -> float:
    """||[P, A]||_p / ||P||_p on the padded window."""
    _proj_norm(1, p)
    return _window_norms(op, proj)["comm"][p] / _proj_norm(proj.rank, p)


def off_corner_ratio(op: OperatorSpec, proj, p: int = 2) -> float:
    """||(1 - P) A P||_p / ||P||_p on the padded window."""
    _proj_norm(1, p)
    return _window_norms(op, proj)["off"][p] / _proj_norm(proj.rank, p)


def qd_gap(op: OperatorSpec, proj) -> float:
    """Operator norm of the padded commutator (quasidiagonality defect)."""
    return _window_norms(op, proj)["gap"]


@dataclass
class FolnerReport:
    """Grid of ratios per (label, n, p) plus fitted log-log decay slopes."""

    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)  # (label, p) -> float or None

    COLUMNS = ("label", "n", "d_n", "p", "ratio", "off_corner", "qd_gap")

    def to_json(self) -> str:
        slopes = {f"{lab}|p={p}": s for (lab, p), s in sorted(self.slopes.items())}
        return report_json({"rows": self.rows, "slopes": slopes})

    def to_csv(self) -> str:
        return report_csv(self.rows, self.COLUMNS)


def fit_decay_slope(d_list, ratios):
    """Least-squares slope of log ratio against log dimension, skipping zeros.

    Returns None when fewer than two nonzero points remain.
    """
    xs, ys = [], []
    for d, r in zip(d_list, ratios):
        if r > 0:
            xs.append(math.log(d))
            ys.append(math.log(r))
    if len(xs) < 2:
        return None
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def folner_profile(ops, seq, p_list=(1, 2)) -> FolnerReport:
    """Evaluate the full (operator, n, p) ratio grid for a projection sequence.

    `ops` is a list of (label, OperatorSpec) pairs; each grid point reads
    one `_window_norms`.
    """
    ops = list(ops)
    if not ops or not seq.projections:
        raise ValueError("need at least one operator and one projection")
    for p in p_list:
        _proj_norm(1, p)  # validate exponents up front

    rows = []
    for label, op in ops:
        for n, proj in seq:
            norms = _window_norms(op, proj)
            for p in p_list:
                den = _proj_norm(proj.rank, p)
                rows.append(
                    {
                        "label": label,
                        "n": n,
                        "d_n": proj.rank,
                        "p": p,
                        "ratio": norms["comm"][p] / den,
                        "off_corner": norms["off"][p] / den,
                        "qd_gap": norms["gap"],
                    }
                )
    rows.sort(key=lambda r: (r["label"], r["n"], r["p"]))

    report = FolnerReport(rows=rows)
    for label, _ in ops:
        for p in p_list:
            pts = [r for r in rows if r["label"] == label and r["p"] == p]
            report.slopes[(label, p)] = fit_decay_slope(
                [r["d_n"] for r in pts], [r["ratio"] for r in pts]
            )
    return report
