"""Operator specifications on sequence spaces and their finite compressions.

An operator spec is a symbolic description of a bounded operator on
l2(N0), l2(Z), or a tensor product of those.  Leaves give their entries by
diagonals; polynomial combinations are evaluated in diagonal storage on a
padded index window, exactly and in O(d * bandwidth).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import check_footprint

N0 = "n0"
Z = "z"

_LATTICES = (N0, Z)

# Complex arrays of a padded section's size counted against physical memory
# before the section is built: the section, its zero-trimmed copy and the
# workspace of the SVD that takes its operator norm.  hopping (x) hopping at
# n = 2000 (order 2002, 61 MiB a section) peaked 188 MiB, 3.1 sections,
# above its start (one BLAS thread); 4 leaves a section of headroom.
_SECTION_ARRAYS = 4


class LatticeMismatchError(ValueError):
    """Operator and projection (or polynomial operands) live on different lattices."""


class NyquistError(ValueError):
    """Too few symbol samples for the requested coefficient bandwidth."""


# ---------------------------------------------------------------------------
# spec variants


class OperatorSpec:
    """Base class for operator specifications.

    A leaf has A[r, r + k] = diagonal(k, rows) for k in `offsets`, zero
    elsewhere; `bandwidth` bounds banded hops, and a `Dense` leaf instead
    keeps its entries in [0, support) x [0, support).
    """

    lattice: str
    support = 0
    offsets = ()

    def __add__(self, other):
        return op_sum(self, other)

    def __sub__(self, other):
        return op_sum(self, op_scale(-1.0, other))

    def __mul__(self, other):
        if isinstance(other, OperatorSpec):
            return op_prod(self, other)
        return op_scale(other, self)

    def __rmul__(self, scalar):
        return op_scale(scalar, self)


@dataclass(frozen=True)
class Dense(OperatorSpec):
    """Explicit square matrix, acting on the first d basis vectors of l2(N0)."""

    matrix: np.ndarray
    lattice: str = N0
    bandwidth = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"dense spec needs a square matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "support", m.shape[0])
        object.__setattr__(self, "offsets", tuple(range(1 - m.shape[0], m.shape[0])))

    def __hash__(self):
        return hash((self.lattice, self.matrix.shape[0]))

    def __eq__(self, other):
        return (
            isinstance(other, Dense)
            and self.lattice == other.lattice
            and np.array_equal(self.matrix, other.matrix)
        )

    def diagonal(self, k, rows):
        rows = np.asarray(rows)
        out = np.zeros(rows.shape, dtype=complex)
        ok = (rows >= max(0, -k)) & (rows < self.support - max(0, k))
        out[ok] = self.matrix[rows[ok], rows[ok] + k]
        return out


@dataclass(frozen=True)
class Toeplitz(OperatorSpec):
    """Toeplitz operator on l2(N0) with entries a_{i-j} from a finite symbol."""

    coeffs: tuple  # sorted tuple of (k, complex a_k)
    selfadjoint: bool = False
    lattice: str = N0

    def __post_init__(self):
        if isinstance(self.coeffs, dict):
            items = self.coeffs.items()
        else:
            items = self.coeffs
        cs = tuple(sorted((int(k), complex(v)) for k, v in items if v != 0))
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "offsets", tuple(-k for k, _ in cs))
        if self.selfadjoint:
            d = dict(cs)
            for k, v in cs:
                if d.get(-k, 0j) != v.conjugate():
                    raise ValueError(
                        "selfadjoint toeplitz symbol requires a_{-k} == conj(a_k)"
                    )

    @property
    def bandwidth(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=0)

    def diagonal(self, k, rows):
        return np.full(np.shape(rows), dict(self.coeffs)[-k])

    def symbol_values(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate g(theta) = sum_k a_k e^{ik theta}."""
        vals = np.zeros(np.shape(theta), dtype=complex)
        for k, a in self.coeffs:
            vals += a * np.exp(1j * k * np.asarray(theta))
        return vals


def toeplitz_from_samples(values, bandwidth: int, selfadjoint: bool = False) -> Toeplitz:
    """Recover Fourier coefficients |k| <= bandwidth from uniform symbol samples.

    Uses the plain discrete Fourier sum; requires at least 2*bandwidth + 1
    samples (Nyquist bound for the requested band).
    """
    v = np.asarray(values, dtype=complex)
    m = v.size
    if m < 2 * bandwidth + 1:
        raise NyquistError(
            f"{m} samples cannot resolve coefficients up to |k| = {bandwidth}"
        )
    theta = 2.0 * np.pi * np.arange(m) / m
    coeffs = {}
    for k in range(-bandwidth, bandwidth + 1):
        a = np.mean(v * np.exp(-1j * k * theta))
        coeffs[k] = a
    return Toeplitz(coeffs, selfadjoint=selfadjoint)


@dataclass(frozen=True)
class Shift(OperatorSpec):
    """Weighted unilateral shift on l2(N0): S e_i = w(i) e_{i+1}; default w == 1."""

    weight: Callable[[np.ndarray], np.ndarray] | None = None
    lattice: str = N0
    bandwidth = 1
    offsets = (-1,)

    def diagonal(self, k, rows):
        # S[i + 1, i] = w(i): row r holds w(r - 1) on offset -1
        if self.weight is None:
            return np.ones(np.shape(rows), dtype=complex)
        return np.asarray(self.weight(np.asarray(rows) - 1), dtype=complex)


@dataclass(frozen=True)
class Band(OperatorSpec):
    """Band operator on l2(Z): (A psi)(n) = sum_{|j|<=b} d_j(n) psi(n+j).

    Matrix entries: <e_i, A e_j> = d_{j-i}(i).  Diagonal functions may be
    constants or callables (vectorized over integer arrays).
    """

    bandwidth: int
    diagonals: tuple = ()  # tuple of (offset, const-or-callable)
    lattice: str = Z

    def __post_init__(self):
        if isinstance(self.diagonals, dict):
            items = self.diagonals.items()
        else:
            items = self.diagonals
        ds = tuple(sorted(items, key=lambda kv: kv[0]))
        for off, _ in ds:
            if abs(off) > self.bandwidth:
                raise ValueError(f"diagonal offset {off} exceeds bandwidth {self.bandwidth}")
        object.__setattr__(self, "diagonals", ds)
        object.__setattr__(self, "offsets", tuple(off for off, _ in ds))

    def diagonal(self, k, rows):
        fn = dict(self.diagonals)[k]
        if callable(fn):
            return np.asarray(fn(rows), dtype=complex)
        return np.full(np.shape(rows), complex(fn))


@dataclass(frozen=True)
class AlmostMathieu(OperatorSpec):
    """Discrete Schroedinger operator with cosine potential on l2(Z).

    Hopping terms 1 on offsets +-1 and diagonal 2*coupling*cos(2pi(freq*n + phase)).
    """

    coupling: float
    freq: float
    phase: float = 0.0
    lattice: str = Z
    bandwidth = 1
    offsets = (-1, 0, 1)

    def diagonal(self, k, rows):
        return self.as_band().diagonal(k, rows)

    def as_band(self) -> Band:
        lam, alpha, phi = self.coupling, self.freq, self.phase

        def pot(n):
            return 2.0 * lam * np.cos(2.0 * np.pi * (alpha * n + phi)) + 0j

        return Band(1, ((-1, 1.0), (0, pot), (1, 1.0)))


@dataclass(frozen=True)
class Kron(OperatorSpec):
    """Tensor product of two operator specs; compressions factor through np.kron."""

    left: OperatorSpec
    right: OperatorSpec
    lattice: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice", (self.left.lattice, self.right.lattice))


# polynomial expression nodes ------------------------------------------------


@dataclass(frozen=True)
class SumE:
    parts: tuple


@dataclass(frozen=True)
class ProdE:
    parts: tuple


@dataclass(frozen=True)
class AdjE:
    child: object


@dataclass(frozen=True)
class ScaleE:
    scalar: complex
    child: object


@dataclass(frozen=True)
class Poly(OperatorSpec):
    """*-polynomial combination of operator specs sharing one lattice."""

    expr: object
    lattice: str = field(init=False)

    def __post_init__(self):
        lats = {leaf.lattice for leaf in _leaves(self.expr)}
        if len(lats) != 1:
            raise LatticeMismatchError(f"poly spec mixes lattices {sorted(map(str, lats))}")
        object.__setattr__(self, "lattice", lats.pop())

    @property
    def bandwidth(self) -> int:
        return _bandwidth(self.expr)

    @property
    def support(self) -> int:
        return max(leaf.support for leaf in _leaves(self.expr))


def _children(node) -> tuple:
    if isinstance(node, (SumE, ProdE)):
        return node.parts
    if isinstance(node, (AdjE, ScaleE)):
        return (node.child,)
    raise TypeError(f"not a polynomial node: {node!r}")


def _leaves(node):
    if isinstance(node, OperatorSpec):
        yield node
    else:
        for child in _children(node):
            yield from _leaves(child)


def _bandwidth(node) -> int:
    if isinstance(node, OperatorSpec):
        return node.bandwidth
    widths = [_bandwidth(child) for child in _children(node)]
    return sum(widths) if isinstance(node, ProdE) else max(widths)


def _as_node(op):
    if isinstance(op, Poly):
        return op.expr
    if isinstance(op, Kron):
        raise LatticeMismatchError("tensor-product specs cannot appear inside a poly spec")
    if isinstance(op, OperatorSpec):
        return op
    raise TypeError(f"expected an operator spec, got {op!r}")


def op_sum(*ops) -> Poly:
    return Poly(SumE(tuple(_as_node(o) for o in ops)))


def op_prod(*ops) -> Poly:
    return Poly(ProdE(tuple(_as_node(o) for o in ops)))


def op_scale(scalar, op) -> Poly:
    return Poly(ScaleE(complex(scalar), _as_node(op)))


def identity(lattice: str = N0) -> OperatorSpec:
    if lattice == N0:
        return Toeplitz({0: 1.0}, selfadjoint=True)
    if lattice == Z:
        return Band(0, ((0, 1.0),))
    raise LatticeMismatchError(f"unknown lattice {lattice!r}")


# ---------------------------------------------------------------------------
# diagonal storage


@dataclass(frozen=True)
class Section:
    """Diagonal storage over a sorted index set: diags[k][p] = A[pad[p], pad[p] + k],
    zero where pad[p] + k is outside the contiguous run of pad holding pad[p].
    Runs of a padded set lie over twice the bandwidth apart, so no entry
    couples two of them and each run evaluates exactly as if alone."""

    pad: np.ndarray
    diags: dict

    @property
    def offsets(self) -> tuple:
        return tuple(self.diags)

    def diagonal(self, k, rows):
        return self.diags[k][np.searchsorted(self.pad, rows)]


def _storage(node, pad: np.ndarray) -> dict:
    """Diagonal storage of an expression node on pad (see `Section`)."""
    if isinstance(node, OperatorSpec):
        out = {}
        for k in node.offsets:
            # positions p whose column pad[p] + k lies in the run of pad[p]
            a = min(abs(k), pad.size)
            p = np.flatnonzero(pad[a:] - pad[: pad.size - a] == abs(k)) + max(0, -k)
            out[k] = v = np.zeros(pad.size, dtype=complex)
            v[p] = node.diagonal(k, pad[p])
        return out
    parts = [_storage(child, pad) for child in _children(node)]
    if isinstance(node, SumE):
        out = {}
        for part in parts:
            for k, v in part.items():
                out[k] = out[k] + v if k in out else v
        return out
    if isinstance(node, ProdE):
        out = parts[0]
        for part in parts[1:]:
            out = _times(out, part)
        return out
    if isinstance(node, AdjE):  # A*[i, i + k] = conj(A[i + k, i])
        return {-k: np.conj(_shifted(v, -k)) for k, v in parts[0].items()}
    return {k: node.scalar * v for k, v in parts[0].items()}


def _shifted(v: np.ndarray, a: int) -> np.ndarray:
    """w[p] = v[p + a], zero where p + a falls outside v."""
    if a == 0:
        return v
    w = np.zeros_like(v)
    if a > 0:
        w[:-a] = v[a:]
    else:
        w[-a:] = v[:a]
    return w


def _times(x: dict, y: dict) -> dict:
    # (AB)[i, i + a + b] collects A[i, i + a] B[i + a, i + a + b]
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            t = u * _shifted(v, a)
            out[a + b] = out[a + b] + t if a + b in out else t
    return out


def pad_indices(op: OperatorSpec, idx: np.ndarray) -> np.ndarray:
    """idx (and a dense support [0, s)) widened by the bandwidth, as a sorted
    union of contiguous runs: every entry coupling idx is exact on it."""
    idx = np.asarray(idx, dtype=np.int64)
    if op.support:
        idx = np.union1d(idx, np.arange(op.support, dtype=np.int64))
    bw = op.bandwidth
    cut = np.flatnonzero(np.diff(idx) > 2 * bw + 1)
    los = idx[np.r_[0, cut + 1]] - bw
    his = idx[np.r_[cut, idx.size - 1]] + bw
    if op.lattice == N0:
        los = np.maximum(los, 0)
    return np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in zip(los, his)])


def exact_entries(op: OperatorSpec, idx: np.ndarray):
    """The exact entries of a non-tensor op on idx x pad and pad x idx, for
    pad = pad_indices(op, idx), as `offsets` and `diagonal(k, rows)`: a leaf
    answers itself, a polynomial is evaluated once in diagonal storage."""
    if not isinstance(op, Poly):
        return op
    pad = pad_indices(op, idx)
    return Section(pad, _storage(op.expr, pad))


def _match(rows: np.ndarray, cols: np.ndarray, k: int):
    """Positions (ri, ci) with cols[ci] == rows[ri] + k; cols sorted."""
    want = rows + k
    ci = np.minimum(np.searchsorted(cols, want), cols.size - 1)
    ri = np.flatnonzero(cols[ci] == want)
    return ri, ci[ri]


def dense_entries(src, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix of the entries of src (see `exact_entries`) on sorted rows x cols.

    Each offset costs one search of the shorter index array in the longer.
    """
    out = np.zeros((rows.size, cols.size), dtype=complex)
    for k in src.offsets:
        if rows.size <= cols.size:
            ri, ci = _match(rows, cols, k)
        else:
            ci, ri = _match(cols, rows, -k)
        out[ri, ci] = src.diagonal(k, rows[ri])
    return out


# ---------------------------------------------------------------------------
# public operations


def tensor_pair(op: OperatorSpec, proj) -> bool:
    """Whether (op, proj) is a tensor-product pair; raises on mismatches."""
    from .projections import KronProj  # local import to avoid a cycle

    tensor = isinstance(op, Kron)
    if tensor != isinstance(proj, KronProj):
        raise LatticeMismatchError(
            "tensor-product operator requires a tensor-product projection (and vice versa)"
        )
    if not tensor and op.lattice != proj.lattice:
        raise LatticeMismatchError(
            f"operator on {op.lattice!r} vs projection on {proj.lattice!r}"
        )
    return tensor


def compress(op: OperatorSpec, proj) -> np.ndarray:
    """Finite section P T P as a rank(P) x rank(P) matrix on the range of P."""
    if tensor_pair(op, proj):
        return np.kron(compress(op.left, proj.left), compress(op.right, proj.right))
    idx = proj.index_array()
    return dense_entries(exact_entries(op, idx), idx, idx)


def _check_section(order: int):
    check_footprint(_SECTION_ARRAYS * 16 * order * order,
                    f"a padded section of order {order}")


def padded_compression(op: OperatorSpec, proj):
    """Return (A, inside): entries of op on the padded index set and the
    boolean marker of the projection's indices inside it.

    The padded set captures every nonzero entry of A P and P A, so
    commutators and off-corner blocks cut from A by `inside` are exact.
    A section too large for physical memory raises ConfigError before it
    is allocated.
    """
    if tensor_pair(op, proj):
        a, ia = padded_compression(op.left, proj.left)
        b, ib = padded_compression(op.right, proj.right)
        _check_section(a.shape[0] * b.shape[0])
        return np.kron(a, b), np.kron(ia, ib)
    idx = proj.index_array()
    pad = pad_indices(op, idx)
    _check_section(pad.size)
    return dense_entries(exact_entries(op, pad), pad, pad), np.isin(pad, idx)


def diagonal_entries(op: OperatorSpec, proj) -> np.ndarray:
    """Diagonal of the compression: offset 0 of the exact entries on the
    projection's indices."""
    if tensor_pair(op, proj):
        dl = diagonal_entries(op.left, proj.left)
        dr = diagonal_entries(op.right, proj.right)
        return np.outer(dl, dr).ravel()
    idx = proj.index_array()
    src = exact_entries(op, idx)
    if 0 not in src.offsets:
        return np.zeros(idx.size, dtype=complex)
    return src.diagonal(0, idx)


def op_adjoint(op: OperatorSpec) -> OperatorSpec:
    """Spec of the adjoint operator."""
    if isinstance(op, Kron):
        return Kron(op_adjoint(op.left), op_adjoint(op.right))
    node = _as_node(op)
    if isinstance(node, AdjE):
        child = node.child
        return child if isinstance(child, OperatorSpec) else Poly(child)
    return Poly(AdjE(node))


def is_selfadjoint(op: OperatorSpec, proj, tol: float = 1e-12) -> bool:
    m = compress(op, proj)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def build_toeplitz_section(symbol: Toeplitz, n: int) -> np.ndarray:
    """(n+1) x (n+1) finite section with entries a_{i-j}."""
    if n < 0:
        raise ValueError("section order must be nonnegative")
    idx = np.arange(n + 1, dtype=np.int64)
    return dense_entries(symbol, idx, idx)
