"""Dense brute-force reference for the banded finite-section path.

Entries come straight from each leaf's formula as full matrices, polynomials
are multiplied as dense matrices on a padded window, and commutator blocks
are cut out of the padded matrix.  Cubic in the window size; tests only.

`compress`, `op_adjoint` and `eigenvalues_hermitian` are the reference forms
of a compression, an adjoint spec and a checked dense Hermitian eigensolve
that tests compare the production paths against; `index_runs` is the
reference form of the runs an index set splits into; `sturm_counts` is the
reference form of the Sturm counts that certify a tridiagonal spectrum.
`pushforward`, `StoredGrid`, `evaluate`, `integrate` and `kolmogorov` are
the full-array forms of a pushforward reference, its stored CDF grid, a
test function's values, an integral over the grid and a Kolmogorov
distance against it, which the sorted array the production reference
keeps must reproduce bit for bit.
"""
import numpy as np

from folner_lab.operators import (
    N0, AdjE, AlmostMathieu, Band, Dense, OperatorSpec, Poly, ProdE, ScaleE, Shift, SumE,
    Toeplitz, _as_node, _check_lattice, _positions, _scatter, exact_entries,
)
from folner_lab.spectral import _check_hermitian, _check_residual


def compress(op, proj) -> np.ndarray:
    """Finite section P T P as a rank(P) x rank(P) matrix on the range of P,
    scattered from the production storage by position."""
    _check_lattice(op, proj)
    idx = proj.index_array()
    return _scatter(_positions(exact_entries(op, proj.runs), idx), idx.size)


def index_runs(idx) -> tuple:
    """Maximal contiguous runs (lo, hi) of a sorted index array."""
    idx = np.asarray(idx, dtype=np.int64)
    if not idx.size:
        return ()
    cut = np.flatnonzero(np.diff(idx) != 1)
    los = idx[np.r_[0, cut + 1]].tolist()
    his = idx[np.r_[cut, idx.size - 1]].tolist()
    return tuple(zip(los, his))


def op_adjoint(op) -> OperatorSpec:
    """Spec of the adjoint operator."""
    node = _as_node(op)
    if isinstance(node, AdjE):
        child = node.child
        return child if isinstance(child, OperatorSpec) else Poly(child)
    return Poly(AdjE(node))


def eigenvalues_hermitian(m, herm_tol: float = 1e-10, check_residual: bool = False):
    """Ascending eigenvalues of (M + M^dagger)/2 for a dense matrix M.

    NonHermitianError where max |M - M^dagger| exceeds herm_tol * max(1,
    max |M|); a matrix whose imaginary part is exactly zero is solved in
    real arithmetic; with check_residual, every eigenpair is verified
    against ||M v - lam v|| <= 1e-9 * max(1, max |M|) * sqrt(d), with M v
    formed densely.
    """
    m = np.asarray(m, dtype=complex)
    if not m.imag.any():
        m = m.real
    scale = max(float(np.max(np.abs(m))), 1.0)
    _check_hermitian(float(np.max(np.abs(m - m.conj().T))), scale, herm_tol)
    h = 0.5 * (m + m.conj().T)
    if not check_residual:
        return np.linalg.eigvalsh(h)
    vals, vecs = np.linalg.eigh(h)
    resid = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    _check_residual(float(resid.max()), scale, h.shape[0])
    return vals


def sturm_counts(a, e2, x) -> np.ndarray:
    """#{eigenvalues of T below x} for each shift of x, T the real symmetric
    tridiagonal matrix with diagonal a and squared off-diagonal e2, from the
    negative pivots q_i = a_i - x - e2_(i-1) / q_(i-1) of LDL^T = T - x,
    every pivot of modulus below pivmin replaced by +pivmin as in LAPACK's
    bisection, so that no pivot is zero and every quotient is finite, and an
    eigenvalue equal to a shift is not counted below it."""
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    q, t = np.ones_like(x), np.empty_like(x)
    small = np.empty(x.shape, dtype=bool)
    count = np.zeros(x.shape, dtype=np.intp)
    for ai, ei in zip(a.tolist(), [0.0, *e2.tolist()]):
        np.divide(ei, q, out=t)
        np.subtract(ai, x, out=q)
        q -= t
        np.less(np.abs(q, out=t), pivmin, out=small)
        np.copyto(q, pivmin, where=small)
        count += np.less(q, 0.0, out=small)
    return count


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
        return leaf_entries(Band(1, tuple(op.diags.items())), rows, cols)
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


def pushforward(symbol, grid_size: int) -> "StoredGrid":
    """The pushforward of Haar measure under a real symbol on grid_size
    angles, from every angle and value at once, with its CDF k/N stored."""
    vals = symbol.symbol_values(2.0 * np.pi * np.arange(grid_size) / grid_size)
    assert not np.any(np.abs(vals.imag) > 1e-10 * max(1.0, sum(abs(a) for _, a in symbol.coeffs)))
    return StoredGrid(np.sort(vals.real), np.arange(1, grid_size + 1, dtype=float) / grid_size)


class StoredGrid:
    """A CDF grid (xs, Fs), its CDF read from the stored values."""

    def __init__(self, xs, fs):
        self.xs, self.Fs = xs, fs

    def cdf(self, x):
        pos = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right")
        return np.where(pos > 0, self.Fs[np.minimum(pos, self.xs.size) - 1], 0.0)


def evaluate(f, x) -> np.ndarray:
    """A test function at the points of x: polyval, or the minimum of a hat's
    clipped ramps, each on whole arrays."""
    x = np.asarray(x, dtype=float)
    if f.kind == "poly":
        return np.polynomial.polynomial.polyval(x, f.params)
    left, center, right = f.params
    up = np.clip((x - left) / (center - left), 0.0, 1.0) if center > left else (x >= center) * 1.0
    down = np.clip((right - x) / (right - center), 0.0, 1.0) if right > center else (x <= center) * 1.0
    return np.minimum(up, down)


def integrate(xs, f) -> float:
    """The mean of f over every sample of xs, each of mass 1 / xs.size."""
    return float(np.mean(evaluate(f, xs)))


def kolmogorov(meas, grid: StoredGrid) -> float:
    """sup |F - G| for an empirical measure and a grid, both CDFs at every
    point of the merged grid."""
    xs = np.unique(np.concatenate([meas.atoms, grid.xs]))
    return float(np.max(np.abs(meas.cdf(xs) - grid.cdf(xs))))
