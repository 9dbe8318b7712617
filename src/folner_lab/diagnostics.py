"""Commutator-norm diagnostics: Schatten ratios and the quasidiagonality gap.

The central quantity is ||A P - P A||_p / ||P||_p for coordinate
projections P, with ||P||_1 = rank and ||P||_2 = sqrt(rank).  Commutators
are formed from the exact entries that couple P to the padded index window
around it, so they coincide with the infinite-dimensional commutator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import report_csv
from .operators import OperatorSpec, dense_entries, exact_entries, pad_indices
from .operators import padded_compression, tensor_pair

INF = math.inf


def _trim(m: np.ndarray) -> np.ndarray:
    """Drop all-zero rows and columns; singular values are unchanged."""
    rows = np.any(m != 0, axis=1)
    cols = np.any(m != 0, axis=0)
    if not rows.any():
        return np.zeros((1, 1), dtype=m.dtype)
    return m[np.ix_(rows, cols)]


def schatten_norm(m: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}.

    p=2 is the entrywise Hilbert-Schmidt sum; p=1 and p=inf go through
    singular values of the (zero-trimmed) matrix.
    """
    m = np.asarray(m)
    if p == 2:
        return float(np.linalg.norm(m))
    if p in (1, INF, "inf"):
        sv = np.linalg.svd(_trim(m), compute_uv=False)
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
    """
    if tensor_pair(op, proj):
        a, inside = padded_compression(op, proj)
        return a[np.ix_(~inside, inside)], a[np.ix_(inside, ~inside)]
    idx = proj.index_array()
    pad = pad_indices(op, idx)
    out = pad[~np.isin(pad, idx)]
    src = exact_entries(op, idx)
    reach = max(map(abs, src.offsets), default=0)
    near = idx[np.isin(idx, (out[:, None] + np.arange(-reach, reach + 1)).ravel())]
    return dense_entries(src, out, near), dense_entries(src, near, out)


def _comm_schatten(b1: np.ndarray, b2: np.ndarray, p) -> float:
    if p == 2:
        return math.hypot(float(np.linalg.norm(b1)), float(np.linalg.norm(b2)))
    if p == 1:
        return schatten_norm(b1, 1) + schatten_norm(b2, 1)
    if p in (INF, "inf"):
        return max(schatten_norm(b1, INF), schatten_norm(b2, INF))
    raise ValueError(f"unsupported Schatten exponent {p!r}")


def folner_ratio(op: OperatorSpec, proj, p: int = 2) -> float:
    """||[P, A]||_p / ||P||_p on the padded window."""
    _proj_norm(1, p)
    b1, b2 = _corner_blocks(op, proj)
    return _comm_schatten(b1, b2, p) / _proj_norm(proj.rank, p)


def off_corner_ratio(op: OperatorSpec, proj, p: int = 2) -> float:
    """||(1 - P) A P||_p / ||P||_p on the padded window."""
    _proj_norm(1, p)
    b1, _ = _corner_blocks(op, proj)
    return schatten_norm(b1, p) / _proj_norm(proj.rank, p)


def qd_gap(op: OperatorSpec, proj) -> float:
    """Operator norm of the padded commutator (quasidiagonality defect)."""
    b1, b2 = _corner_blocks(op, proj)
    return _comm_schatten(b1, b2, INF)


@dataclass
class FolnerReport:
    """Grid of ratios per (label, n, p) plus fitted log-log decay slopes."""

    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)  # (label, p) -> float or None

    COLUMNS = ("label", "n", "d_n", "p", "ratio", "off_corner", "qd_gap")

    def to_json(self) -> str:
        slopes = {f"{lab}|p={p}": s for (lab, p), s in sorted(self.slopes.items())}
        return json.dumps({"rows": self.rows, "slopes": slopes}, indent=2, sort_keys=True)

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

    `ops` is a list of (label, OperatorSpec) pairs.  Per grid point the
    corner blocks are built once and reused for every norm.
    """
    ops = list(ops)
    if not ops or not seq.projections:
        raise ValueError("need at least one operator and one projection")
    for p in p_list:
        _proj_norm(1, p)  # validate exponents up front

    rows = []
    for label, op in ops:
        for n, proj in seq:
            b1, b2 = _corner_blocks(op, proj)
            gap = _comm_schatten(b1, b2, INF)
            for p in p_list:
                den = _proj_norm(proj.rank, p)
                rows.append(
                    {
                        "label": label,
                        "n": n,
                        "d_n": proj.rank,
                        "p": p,
                        "ratio": _comm_schatten(b1, b2, p) / den,
                        "off_corner": schatten_norm(b1, p) / den,
                        "qd_gap": gap,
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
