"""Operator specifications on sequence spaces and their finite compressions.

An operator spec is a symbolic description of a bounded operator on
l2(N0) or l2(Z), and its structure is data fixed at construction.  A banded
leaf holds one map from each offset to its diagonal function (a constant, a
trigonometric `Wave` or another callable), which gives its entries and the
closed-form traces of constant and `Wave` diagonals; a `Dense` leaf holds its
matrix.  A polynomial combination takes its lattice, bandwidth, offsets and
support from one walk of its expression tree, and is evaluated in diagonal
storage on a padded index window, exactly and in O(d * bandwidth).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._util import ConfigError, check_footprint

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
# trigonometric diagonal functions


def _turns(num: int, den: int) -> float:
    """num/den modulo 1, in [-1/2, 1/2), as the nearest float."""
    num %= den
    return (num - den if 2 * num >= den else num) / den


def _sinpi(num: int, den: int) -> float:
    """sin(pi num/den), its argument reduced exactly into [-1, 1)."""
    return math.sin(2.0 * math.pi * _turns(num, 2 * den))


class Term(tuple):
    """c * exp(2 pi i k (f (n + s) + phase)), or c * cos(2 pi k (f (n + s) + phase))
    with `cos`, as the tuple (c, f, phase, k, s, cos); k and s are integers.

    Like `Wave`, a tuple subclass: a NamedTuple or a frozen dataclass would
    add 0.3 to 1 ms to every import.
    """

    __slots__ = ()

    def __new__(cls, c, f, phase=0.0, k=1, s=0, cos=False):
        return tuple.__new__(cls, (c, f, phase, k, s, cos))

    def __repr__(self):
        return f"Term{tuple.__repr__(self)}"

    def __call__(self, n):
        # the operations of the formula replaced, less a product with 1 and
        # a sum with 0, which change no bit of these values
        c, f, phase, k, s, cos = self
        turns = f * (n + s if s else n) + phase
        v = np.cos(2.0 * np.pi * k * turns) if cos else np.exp(2j * np.pi * k * turns)
        if c != 1:
            v = c * v
        return v + 0j if cos else v

    def run_sum(self, lo: int, hi: int) -> complex:
        """The sum of the term over n = lo..hi in closed form.

        The term is c e^{2 pi i (F n + P)} (or c times its real part) for the
        binary fractions F = k f and P = k (f s + phase).  F is reduced
        modulo 1 to G = g / fd in [-1/2, 1/2), which changes no entry, and
        sum_n e^{2 pi i G n} = e^{i pi G (lo + hi)} sin(pi G d) / sin(pi G)
        for the d = hi - lo + 1 entries.  Every phase is reduced in integers,
        so the sum is as accurate at indices near 2^63 as near 0.
        """
        c, f, phase, k, s, cos = self
        fn, fd = f.as_integer_ratio()
        pn, pd = phase.as_integer_ratio()
        g = k * fn % fd
        if 2 * g >= fd:
            g -= fd
        m = max(fd, pd)
        turns = _turns(k * (fn * s * (2 * m // fd) + pn * (2 * m // pd))
                       + g * (lo + hi) * (m // fd), 2 * m)
        d = hi - lo + 1
        # below |G d| = 2^-30 the ratio of sines is d to within 2^-60
        width = d if abs(g) * d * 2**30 <= fd else _sinpi(g * d, fd) / _sinpi(g, fd)
        angle = 2.0 * math.pi * turns
        if cos:
            return complex(c * (math.cos(angle) * width))
        return c * complex(math.cos(angle), math.sin(angle)) * width


class Wave(tuple):
    """Trigonometric diagonal function, the tuple of its one or more `Term`s:
    n -> their sum.

    Each term evaluates with the formula of the spec it came from, so its
    entries are those of that formula bit for bit; `run_sum` sums a
    contiguous run of entries in closed form, in O(terms) whatever its length.
    """

    __slots__ = ()

    def __repr__(self):
        return f"Wave({tuple.__repr__(self)})"

    def __call__(self, n):
        n = np.asarray(n)
        out = self[0](n)
        for term in self[1:]:
            out += term(n)
        return out

    def run_sum(self, lo: int, hi: int) -> complex:
        return sum((term.run_sum(lo, hi) for term in self), 0j)


# ---------------------------------------------------------------------------
# spec variants


class OperatorSpec:
    """Base class for operator specifications.

    A leaf has A[r, r + k] = diagonal(k, rows) for k in `offsets`, zero
    elsewhere; `bandwidth` bounds banded hops.  A banded leaf builds `diags`
    once, the map from each offset, in `offsets` order, to its diagonal
    function: a constant, a `Wave` or another callable on integer arrays.
    A `Dense` leaf instead keeps its entries in [0, support) x [0, support),
    and it and `Poly` have no `diags`.
    """

    lattice: str
    support = 0
    offsets = ()
    diags = None

    def _set_diags(self, diags: dict):
        object.__setattr__(self, "diags", diags)
        object.__setattr__(self, "offsets", tuple(diags))

    def diagonal(self, k, rows):
        fn = self.diags[k]
        if callable(fn):
            return np.asarray(fn(rows), dtype=complex)
        return np.full(np.shape(rows), complex(fn))

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
        object.__setattr__(self, "bandwidth", max((abs(k) for k, _ in cs), default=0))
        self._set_diags({-k: v for k, v in cs})
        if self.selfadjoint:
            d = dict(cs)
            for k, v in cs:
                if d.get(-k, 0j) != v.conjugate():
                    raise ValueError(
                        "selfadjoint toeplitz symbol requires a_{-k} == conj(a_k)"
                    )

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
    """Weighted unilateral shift on l2(N0): S e_i = w(i) e_{i+1}; the weight
    is a constant or a callable, default w == 1."""

    weight: Callable[[np.ndarray], np.ndarray] | complex = 1.0
    lattice: str = N0
    bandwidth = 1

    def __post_init__(self):
        # S[i + 1, i] = w(i): row r holds w(r - 1) on offset -1
        w = self.weight
        self._set_diags({-1: (lambda rows: w(np.asarray(rows) - 1)) if callable(w) else w})


@dataclass(frozen=True)
class Band(OperatorSpec):
    """Band operator on l2(Z): (A psi)(n) = sum_{|j|<=b} d_j(n) psi(n+j).

    Matrix entries: <e_i, A e_j> = d_{j-i}(i).  Diagonal functions may be
    constants, `Wave`s or other callables (vectorized over integer arrays).
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
        self._set_diags(dict(ds))


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

    def __post_init__(self):
        pot = Wave((Term(2.0 * self.coupling, self.freq, self.phase, cos=True),))
        self._set_diags({-1: 1.0, 0: pot, 1: 1.0})

    def as_band(self) -> Band:
        return Band(1, tuple(self.diags.items()))


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
    """*-polynomial combination of operator specs sharing one lattice; its
    `offsets` are those of the diagonals its diagonal storage keeps."""

    expr: object
    lattice: str = field(init=False)

    def __post_init__(self):
        lats, bandwidth, offsets, support = _structure(self.expr)
        if len(lats) != 1:
            raise LatticeMismatchError(f"poly spec mixes lattices {sorted(map(str, lats))}")
        object.__setattr__(self, "lattice", lats.pop())
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "offsets", tuple(sorted(offsets)))
        object.__setattr__(self, "support", support)


def _structure(node) -> tuple:
    """(lattices, bandwidth, offsets, support) of an expression node, in one
    walk; the offsets are the keys of `_storage(node, pad)`, whatever the pad."""
    if isinstance(node, OperatorSpec):
        return {node.lattice}, node.bandwidth, set(node.offsets), node.support
    if isinstance(node, (AdjE, ScaleE)):
        lats, bandwidth, offsets, support = _structure(node.child)
        if isinstance(node, AdjE):
            offsets = {-k for k in offsets}
        return lats, bandwidth, offsets, support
    if not isinstance(node, (SumE, ProdE)):
        raise TypeError(f"not a polynomial node: {node!r}")
    parts = [_structure(child) for child in node.parts]
    lats, widths, offsets, supports = zip(*parts) if parts else ((),) * 4
    lats, support = set().union(*lats), max(supports, default=0)
    if isinstance(node, SumE):
        return lats, max(widths, default=0), set().union(*offsets), support
    product = {0}
    for part in offsets:
        product = {a + b for a in product for b in part}
    return lats, sum(widths), product, support


def _as_node(op):
    if isinstance(op, Poly):
        return op.expr
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


def _storage(node, pad: np.ndarray, keep=None) -> dict:
    """Diagonal storage of an expression node on pad (see `Section`); with
    `keep`, a set of offsets, only those diagonals.  Sums, adjoints and
    scalars pass `keep` down; a product folds its factors in full, one at a
    time, and forms only the kept diagonals of its last product, in
    `_times`'s order, so each kept diagonal is bit-identical to its full
    evaluation."""
    if isinstance(node, OperatorSpec):
        out = {}
        for k in node.offsets:
            if keep is not None and k not in keep:
                continue
            # positions p whose column pad[p] + k lies in the run of pad[p]
            a = min(abs(k), pad.size)
            p = np.flatnonzero(pad[a:] - pad[: pad.size - a] == abs(k)) + max(0, -k)
            out[k] = v = np.zeros(pad.size, dtype=complex)
            v[p] = node.diagonal(k, pad[p])
        return out
    if isinstance(node, ProdE):
        out = _storage(node.parts[0], pad, keep if len(node.parts) == 1 else None)
        for i, child in enumerate(node.parts[1:], 2):
            last = keep is not None and i == len(node.parts)
            part = _storage(child, pad, {k - a for k in keep for a in out} if last else None)
            out = _times(out, part, keep if last else None)
        return out
    if isinstance(node, SumE):
        out = {}
        for child in node.parts:
            for k, v in _storage(child, pad, keep).items():
                out[k] = out[k] + v if k in out else v
        return out
    if isinstance(node, AdjE):  # A*[i, i + k] = conj(A[i + k, i])
        child = _storage(node.child, pad, None if keep is None else {-k for k in keep})
        return {-k: np.conj(_shifted(v, -k)) for k, v in child.items()}
    return {k: node.scalar * v for k, v in _storage(node.child, pad, keep).items()}


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


def _times(x: dict, y: dict, keep=None) -> dict:
    # (AB)[i, i + a + b] collects A[i, i + a] B[i + a, i + a + b]; with
    # `keep`, only the offsets a + b in it
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            if keep is not None and a + b not in keep:
                continue
            t = u * _shifted(v, a)
            out[a + b] = out[a + b] + t if a + b in out else t
    return out


# ---------------------------------------------------------------------------
# index runs: a sorted index set as sorted, disjoint, inclusive (lo, hi) pairs

_INT64 = np.iinfo(np.int64)


def index_runs(idx) -> tuple:
    """Maximal contiguous runs of a sorted index array."""
    idx = np.asarray(idx, dtype=np.int64)
    if not idx.size:
        return ()
    cut = np.flatnonzero(np.diff(idx) != 1)
    los = idx[np.r_[0, cut + 1]].tolist()
    his = idx[np.r_[cut, idx.size - 1]].tolist()
    return tuple(zip(los, his))


def run_indices(runs) -> np.ndarray:
    """The sorted index array of runs."""
    parts = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in runs]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def widen_runs(runs, r: int) -> list:
    """Runs (sorted by lo) widened by r on each side, joined where they
    overlap or touch."""
    out = []
    for lo, hi in runs:
        if out and lo - r <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(out[-1][1], hi + r))
        else:
            out.append((lo - r, hi + r))
    return out


def intersect_runs(a, b) -> list:
    """Runs of the intersection of two run lists."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract_runs(a, b) -> list:
    """Runs of a minus b."""
    if not a:
        return []
    his = [a[0][0] - 1, *(hi for _, hi in b)]
    los = [*(lo for lo, _ in b), a[-1][1] + 1]
    gaps = [(hi + 1, lo - 1) for hi, lo in zip(his, los) if hi + 1 < lo]
    return intersect_runs(a, gaps)


def pad_runs(op: OperatorSpec, runs) -> list:
    """Runs (and a dense support [0, s)) widened by the bandwidth, the runs
    fewer than 2 * bandwidth + 2 apart joined with the gap between them, and
    clipped at 0 on n0: every entry coupling the runs is exact on the pad
    (see `Section`).  ConfigError where a padded index leaves int64."""
    if op.support:
        runs = sorted([*runs, (0, op.support - 1)])
    pad = widen_runs(runs, op.bandwidth)
    if pad and op.lattice == N0:
        pad[0] = (max(pad[0][0], 0), pad[0][1])
    if pad:
        _check_int64(pad, "padded indices")
    return pad


def _check_int64(runs, what: str):
    """ConfigError where the indices of runs leave int64."""
    if runs[0][0] < _INT64.min or runs[-1][1] > _INT64.max:
        raise ConfigError(
            f"{what} [{runs[0][0]}, {runs[-1][1]}] leave the 64-bit index range"
        )


def pad_indices(op: OperatorSpec, idx: np.ndarray) -> np.ndarray:
    """The index array of `pad_runs` for a sorted index array: O(|idx|)."""
    return run_indices(pad_runs(op, index_runs(idx)))


def exact_entries(op: OperatorSpec, idx: np.ndarray, keep=None):
    """The exact entries of op on idx x pad and pad x idx, for
    pad = pad_indices(op, idx), as `offsets` and `diagonal(k, rows)`: a leaf
    answers itself, a polynomial is evaluated once in diagonal storage,
    after its 16 bytes an offset and padded index are checked against
    physical memory.  With `keep`, a set of offsets, a polynomial forms only
    those diagonals (see `_storage`)."""
    if not isinstance(op, Poly):
        return op
    pad = pad_indices(op, idx)
    check_footprint(16 * pad.size * len(op.offsets),
                    f"the diagonal storage of a polynomial on {pad.size} padded indices")
    return Section(pad, _storage(op.expr, pad, keep))


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


def _check_lattice(op: OperatorSpec, proj):
    """LatticeMismatchError unless op and proj live on the same lattice."""
    if op.lattice != proj.lattice:
        raise LatticeMismatchError(
            f"operator on {op.lattice!r} vs projection on {proj.lattice!r}"
        )


def compress(op: OperatorSpec, proj) -> np.ndarray:
    """Finite section P T P as a rank(P) x rank(P) matrix on the range of P."""
    _check_lattice(op, proj)
    idx = proj.index_array()
    return dense_entries(exact_entries(op, idx), idx, idx)


def padded_compression(op: OperatorSpec, proj):
    """Return (A, inside): entries of op on the padded index set and the
    boolean marker of the projection's indices inside it.

    The padded set captures every nonzero entry of A P and P A, so
    commutators and off-corner blocks cut from A by `inside` are exact.
    A section too large for physical memory raises ConfigError before it
    is allocated.
    """
    _check_lattice(op, proj)
    idx = proj.index_array()
    pad = pad_indices(op, idx)
    check_footprint(_SECTION_ARRAYS * 16 * pad.size**2,
                    f"a padded section of order {pad.size}")
    return dense_entries(exact_entries(op, pad), pad, pad), np.isin(pad, idx)


def diagonal_entries(op: OperatorSpec, proj) -> np.ndarray:
    """Diagonal of the compression: offset 0 of the exact entries on the
    projection's indices."""
    _check_lattice(op, proj)
    idx = proj.index_array()
    src = exact_entries(op, idx, keep={0})
    if 0 not in src.offsets:
        return np.zeros(idx.size, dtype=complex)
    return src.diagonal(0, idx)


def diagonal_sum(op: OperatorSpec, proj):
    """Tr(A P), the sum of the compression's diagonal, in closed form over
    the projection's runs, O(runs x terms), where op is a leaf whose offset-0
    diagonal is a constant or a `Wave`; None for other specs (`Poly`,
    `Dense`) and for other callables.  Raises on lattice mismatches as
    `diagonal_entries` does, and ConfigError where an index leaves int64."""
    _check_lattice(op, proj)
    if op.diags is None:
        return None
    fn = op.diags.get(0, 0j)
    _check_int64(proj.runs, "indices")
    if isinstance(fn, Wave):
        # summed exactly: a gapped set may have thousands of runs
        sums = [fn.run_sum(lo, hi) for lo, hi in proj.runs]
        return complex(math.fsum(z.real for z in sums), math.fsum(z.imag for z in sums))
    if callable(fn):
        return None
    return complex(fn) * proj.rank


def op_adjoint(op: OperatorSpec) -> OperatorSpec:
    """Spec of the adjoint operator."""
    node = _as_node(op)
    if isinstance(node, AdjE):
        child = node.child
        return child if isinstance(child, OperatorSpec) else Poly(child)
    return Poly(AdjE(node))
