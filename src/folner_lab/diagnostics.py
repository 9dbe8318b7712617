"""Commutator-norm diagnostics: Schatten ratios and the quasidiagonality gap.

The central quantity is ||A P - P A||_p / ||P||_p for coordinate
projections P, with ||P||_1 = rank and ||P||_2 = sqrt(rank).  Commutators
are formed from the exact entries that couple P to the padded index window
around it, so they coincide with the infinite-dimensional commutator.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import check_footprint, report_csv, report_json
from .operators import OperatorSpec, _check_lattice, exact_entries
from .operators import intersect_runs, pad_runs, run_indices, subtract_runs, widen_runs

INF = math.inf


def schatten_norm(m: np.ndarray, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}, straight from numpy: p=2 is the
    entrywise Hilbert-Schmidt sum, p=1 the nuclear norm and p=inf the
    largest singular value.  An empty matrix has norm 0.0.
    """
    m = np.asarray(m)
    if p == 2:
        return float(np.linalg.norm(m))
    if p not in (1, INF, "inf"):
        raise ValueError(f"unsupported Schatten exponent {p!r}")
    return float(np.linalg.norm(m, "nuc" if p == 1 else 2)) if m.size else 0.0


def _proj_norm(rank: int, p) -> float:
    if p == 1:
        return float(rank)
    if p == 2:
        return math.sqrt(rank)
    raise ValueError(f"ratio exponent must be 1 or 2, got {p!r}")


# Bytes per entry of one window's corner blocks while they are built and
# reduced: the int64 index differences, their sort order and sorted copy,
# the two complex blocks and the temporaries of the wrap test and the
# Frobenius norms.  tracemalloc read a peak of 50 on one 300 x 300 window.
_ENTRY_BYTES = 64

# Bytes of the stacks of one chunk of same-shape windows, counted at
# `_ENTRY_BYTES` an entry; a window larger than this is a chunk alone.  On
# 400 windows of 144 x 13 entries (a bandwidth-12 band), a grid took 0.36 to
# 0.45 s with 256 KiB chunks, 0.14 to 0.18 s with 1 to 128 MiB, and peaked
# 6 MiB with 4 MiB chunks (one BLAS thread).
_STACK_BYTES = 1 << 22

# Never an offset, nor the negative of one: a banded offset lies within the
# bandwidth that widens a pad inside int64, and a dense one within the
# dense support.
_NO_OFFSET = np.iinfo(np.int64).min


def _index_sets(op: OperatorSpec, proj):
    """The runs (out, near) of one window: `out` is the pad of P's runs
    minus P (the margins of each padded run, the short gaps inside one, and
    a dense support), and `near` the part of P within reach of `out`, the
    reach being the widest offset (a dense leaf reaches across its support).
    Built from P's runs, with no array of P's size."""
    _check_lattice(op, proj)
    runs = proj.runs
    out = subtract_runs(pad_runs(op, runs), runs)
    reach = max(map(abs, op.offsets), default=0)
    return out, intersect_runs(runs, widen_runs(out, reach))


def _stacked_blocks(src, out: np.ndarray, near: np.ndarray):
    """Corner blocks B1 = (1-P) A P, shape (G, m, q), and B2 = P A (1-P),
    shape (G, q, m), of G windows with out indices `out` (G, m) and near
    indices `near` (G, q), from the entries `src` (see `exact_entries`).

    The differences near - out are sorted once: the entries of B1 at a
    difference k lie on offset k of their out row, those of B2 on offset -k
    of their near row, so each offset that occurs is one slice of the sort
    and one `diagonal` call.  A difference that wraps in int64 matches no
    offset."""
    g, m = out.shape
    q = near.shape[1]
    o, n = out[:, :, None], near[:, None, :]
    diff = n - o
    diff[((n ^ o) & (n ^ diff)) < 0] = _NO_OFFSET
    diff = diff.ravel()
    order = np.argsort(diff, kind="stable")
    diff = diff[order]
    ks = np.array(src.offsets, dtype=np.int64)

    def slices(sign):
        # (k, positions of the difference sign * k) for each k that occurs
        los = np.searchsorted(diff, sign * ks, "left").tolist()
        his = np.searchsorted(diff, sign * ks, "right").tolist()
        return ((k, order[lo:hi]) for k, lo, hi in zip(src.offsets, los, his) if lo < hi)

    b1 = np.zeros(g * m * q, dtype=complex)
    for k, pos in slices(1):
        b1[pos] = src.diagonal(k, out.ravel()[pos // q])
    b2 = np.zeros(g * m * q, dtype=complex)
    for k, pos in slices(-1):
        oi = pos // q  # flat positions in out and in near
        ni = oi // m * q + pos % q
        b2[ni * m + oi % m] = src.diagonal(k, near.ravel()[ni])
    return b1.reshape(g, m, q), b2.reshape(g, q, m)


def _stacked_norms(block: np.ndarray):
    """(sum, largest) of the singular values and Frobenius norm of each
    block of a stack, as lists; an empty block has singular values [0]."""
    g = block.shape[0]
    if not block.size:
        return [0.0] * g, [0.0] * g, [0.0] * g
    sv = np.linalg.svd(block, compute_uv=False)
    hs = np.linalg.norm(block, axis=(1, 2))
    return sv.sum(axis=1).tolist(), sv[:, 0].tolist(), hs.tolist()


def _grid_norms(op: OperatorSpec, projs) -> list:
    """The Schatten norms of the commutator [P, A] for each window P of
    `projs`, as dicts {"comm": {p: norm}, "off": {p: norm}, "gap": norm}
    for p in {1, 2}: the commutator, its off-corner part (1 - P) A P, and
    the commutator's operator norm.

    With respect to the in/out index splitting, [P, A] = B2 - B1 placed on
    the two anti-diagonal blocks, so every Schatten norm of the commutator
    comes from the corner blocks B1 = (1-P) A P and B2 = P A (1-P), cut
    down to the `out` and `near` indices of `_index_sets`.  The entries are
    evaluated once, on the union of every window's `near`: its pad holds
    the pad of each window's `near`, which holds every index of that
    window's `out` that its `near` couples to, and a padded run evaluates
    exactly as if alone (see `Section`).  Windows with
    blocks of one shape are stacked, in chunks of at most `_STACK_BYTES`,
    and each chunk takes one SVD per block.  A window costs
    O(runs * bandwidth^2), plus the square of a dense support, whatever its
    rank.
    """
    sets = [_index_sets(op, proj) for proj in projs]
    union = widen_runs(sorted(r for _, near in sets for r in near), 0)
    src = exact_entries(op, union)
    outs = [run_indices(out) for out, _ in sets]
    nears = [run_indices(near) for _, near in sets]
    shapes = {}
    for w, (out, near) in enumerate(zip(outs, nears)):
        shapes.setdefault((out.size, near.size), []).append(w)
    m, q = max(shapes, key=lambda shape: shape[0] * shape[1])
    check_footprint(_ENTRY_BYTES * m * q, f"the corner blocks of a window ({m} x {q} entries)")
    norms = [None] * len(sets)
    for (m, q), members in shapes.items():
        step = max(1, _STACK_BYTES // (_ENTRY_BYTES * max(1, m * q)))
        for at in range(0, len(members), step):
            chunk = members[at:at + step]
            b1, b2 = _stacked_blocks(src, np.stack([outs[w] for w in chunk]),
                                     np.stack([nears[w] for w in chunk]))
            for w, tr1, top1, hs1, tr2, top2, hs2 in zip(
                    chunk, *_stacked_norms(b1), *_stacked_norms(b2)):
                norms[w] = {"comm": {1: tr1 + tr2, 2: math.hypot(hs1, hs2)},
                            "off": {1: tr1, 2: hs1}, "gap": max(top1, top2)}
    return norms


def folner_ratio(op: OperatorSpec, proj, p: int = 2) -> float:
    """||[P, A]||_p / ||P||_p on the padded window."""
    _proj_norm(1, p)
    return _grid_norms(op, [proj])[0]["comm"][p] / _proj_norm(proj.rank, p)


def qd_gap(op: OperatorSpec, proj) -> float:
    """Operator norm of the padded commutator (quasidiagonality defect)."""
    return _grid_norms(op, [proj])[0]["gap"]


class FolnerReport:
    """Grid of ratios per (label, n, p) plus fitted log-log decay slopes,
    `slopes` mapping (label, p) to a float or None.  The slopes are fitted
    on first read: a CSV report, which does not print them, fits none."""

    __slots__ = ("rows", "_slopes")

    COLUMNS = ("label", "n", "d_n", "p", "ratio", "off_corner", "qd_gap")

    def __init__(self, rows: list):
        self.rows, self._slopes = rows, None

    @property
    def slopes(self) -> dict:
        if self._slopes is None:
            pts = {}
            for r in self.rows:
                pts.setdefault((r["label"], r["p"]), []).append(r)
            self._slopes = {key: fit_decay_slope([r["d_n"] for r in rs], [r["ratio"] for r in rs])
                            for key, rs in pts.items()}
        return self._slopes

    def payload(self) -> dict:
        slopes = {f"{lab}|p={p}": s for (lab, p), s in sorted(self.slopes.items())}
        return {"rows": self.rows, "slopes": slopes}

    def to_json(self) -> str:
        return report_json(self.payload())

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

    `ops` is a list of (label, OperatorSpec) pairs; each operator's windows
    take one `_grid_norms`.
    """
    ops = list(ops)
    if not ops or not seq.projections:
        raise ValueError("need at least one operator and one projection")
    for p in p_list:
        _proj_norm(1, p)  # validate exponents up front

    rows = []
    for label, op in ops:
        for (n, proj), norms in zip(seq, _grid_norms(op, seq.projections)):
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
    return FolnerReport(rows)
