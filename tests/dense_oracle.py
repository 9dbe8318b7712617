"""Dense brute-force reference for the banded finite-section path.

Entries come straight from each leaf's formula as full matrices, polynomials
are multiplied as dense matrices on a padded window, and commutator blocks
are cut out of the padded matrix.  Cubic in the window size; tests only.
"""
import numpy as np

from folner_lab.operators import (
    N0, AdjE, AlmostMathieu, Band, Dense, OperatorSpec, Poly, ProdE, ScaleE, Shift, SumE,
    Toeplitz,
)


def _match(rows, cols, k):
    """Positions (ri, ci) with rows[ri] == cols[ci] + k."""
    _, ri, ci = np.intersect1d(rows, cols + k, assume_unique=True, return_indices=True)
    return ri, ci


def leaf_entries(op, rows, cols) -> np.ndarray:
    """Matrix of <e_r, T e_c> for a leaf spec."""
    out = np.zeros((rows.size, cols.size), dtype=complex)
    if isinstance(op, Dense):
        d = op.matrix.shape[0]
        rm = (rows >= 0) & (rows < d)
        cm = (cols >= 0) & (cols < d)
        out[np.ix_(rm, cm)] = op.matrix[np.ix_(rows[rm], cols[cm])]
    elif isinstance(op, Toeplitz):
        for k, a in op.coeffs:
            ri, ci = _match(rows, cols, k)
            out[ri, ci] = a
    elif isinstance(op, Shift):
        ri, ci = _match(rows, cols, 1)
        out[ri, ci] = op.weight(cols[ci]) if callable(op.weight) else op.weight
    elif isinstance(op, AlmostMathieu):
        return leaf_entries(op.as_band(), rows, cols)
    elif isinstance(op, Band):
        for off, fn in op.diagonals:
            ri, ci = _match(rows, cols, -off)  # entry (i, j) nonzero when j - i == off
            vals = fn(rows[ri]) if callable(fn) else np.full(ri.size, complex(fn))
            out[ri, ci] = vals
    else:
        raise TypeError(f"no entry formula for {type(op).__name__}")
    return out


def _width(node) -> int:
    """How far entries reach through banded hops (dense leaves reach via support)."""
    if isinstance(node, Dense):
        return 0
    if isinstance(node, (Toeplitz, Band)):
        return node.bandwidth
    if isinstance(node, (Shift, AlmostMathieu)):
        return 1
    if isinstance(node, Poly):
        return _width(node.expr)
    if isinstance(node, SumE):
        return max(_width(p) for p in node.parts)
    if isinstance(node, ProdE):
        return sum(_width(p) for p in node.parts)
    return _width(node.child)


def _supports(node):
    if isinstance(node, Dense):
        yield node.matrix.shape[0]
    elif isinstance(node, Poly):
        yield from _supports(node.expr)
    elif isinstance(node, (SumE, ProdE)):
        for p in node.parts:
            yield from _supports(p)
    elif isinstance(node, (AdjE, ScaleE)):
        yield from _supports(node.child)


def padded(op, idx) -> np.ndarray:
    """idx and the dense supports, widened by the banded reach."""
    support = max(_supports(op), default=0)
    base = np.unique(np.concatenate([idx, np.arange(support, dtype=np.int64)]))
    bw = _width(op)
    base = np.unique(base[:, None] + np.arange(-bw, bw + 1)[None, :])
    return base[base >= 0] if op.lattice == N0 else base


def _eval(node, idx) -> np.ndarray:
    if isinstance(node, OperatorSpec):
        return leaf_entries(node, idx, idx)
    if isinstance(node, SumE):
        return sum(_eval(p, idx) for p in node.parts)
    if isinstance(node, ProdE):
        acc = _eval(node.parts[0], idx)
        for p in node.parts[1:]:
            acc = acc @ _eval(p, idx)
        return acc
    if isinstance(node, AdjE):
        return _eval(node.child, idx).conj().T
    return node.scalar * _eval(node.child, idx)


def exact(op, idx) -> np.ndarray:
    """Entries of the infinite operator on idx x idx: evaluated on the padded
    window and cut back."""
    if not isinstance(op, Poly):
        return leaf_entries(op, idx, idx)
    big = padded(op, idx)
    pos = np.searchsorted(big, idx)
    return _eval(op.expr, big)[np.ix_(pos, pos)]


def padded_matrix(op, idx):
    """(A on the padded window, boolean marker of idx inside it)."""
    big = padded(op, idx)
    return exact(op, big), np.isin(big, idx)


def corner_blocks(op, idx):
    """(1 - P) A P and P A (1 - P) cut from the padded matrix."""
    a, inside = padded_matrix(op, idx)
    return a[np.ix_(~inside, inside)], a[np.ix_(inside, ~inside)]


def tensor_lhs(a, idx_a, b, idx_b) -> float:
    """|(1 - P(x)Q)(A(x)B)(P(x)Q)|_2^2 / (rank P rank Q) from the Kronecker
    product of the padded factor columns, with the P(x)Q rows zeroed."""
    ma, in_a = padded_matrix(a, idx_a)
    mb, in_b = padded_matrix(b, idx_b)
    leak = np.kron(ma[:, in_a], mb[:, in_b])
    leak[np.kron(in_a, in_b).astype(bool)] = 0.0
    return float(np.linalg.norm(leak) ** 2) / (idx_a.size * idx_b.size)
