"""Operator specifications on sequence spaces and their finite compressions.

An operator spec is a symbolic description of a bounded operator on
l2(N0) or l2(Z), and its structure is data fixed at construction.  A banded
leaf holds one map from each offset to its diagonal function (a constant, a
trigonometric `Wave` or another callable), which gives its entries; a
`Dense` leaf holds its matrix.  A polynomial combination takes its lattice,
bandwidth, offsets and support from one walk of its expression tree, and is
evaluated in diagonal storage on a padded index window, exactly and in
O(d * bandwidth).

Entries are numeric; traces are symbolic.  Every spec without a callable
diagonal is also an `Element`, its `symbol`: the one algebra of banded
operators with trigonometric diagonals, with one product, one adjoint and
one closed-form `run_sum`, whose rotation-algebra case is
`traces.NCPolynomial`, and a `Wave` diagonal is that algebra's terms of
one offset.  `diagonal_sums` reads a grid's traces from the symbol,
evaluating numerically, once per grid, only the one region where a
compression's diagonal is not the symbol's.

Entry points take a projection's runs and pad them as runs; an index array
is formed only where positions are read, after the memory check it feeds.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import add, mul, neg

from ._util import ConfigError, SpecError, check_footprint, lazy_numpy

np = lazy_numpy()

N0 = "n0"
Z = "z"

_LATTICES = (N0, Z)

# Complex arrays of a padded section's size counted against physical memory
# before the section is built: the section and one copy at a time (its PAP
# block, or the matrix the operator-norm SVD works on).  hopping (x) hopping
# at n = 2000 (order 2002, 61 MiB a section) peaked 126 MiB of RSS, 2.1
# sections, and 122 MiB under tracemalloc above its start (one BLAS thread);
# 4 leaves two sections of headroom.
_SECTION_ARRAYS = 4

# Nodes of theta a Toeplitz symbol is evaluated on at once (`symbol_values`).
_SYMBOL_CHUNK = 4096


class LatticeMismatchError(SpecError):
    """Operator and projection (or polynomial operands) live on different lattices."""


class NyquistError(ValueError):
    """Too few symbol samples for the requested coefficient bandwidth."""


# ---------------------------------------------------------------------------
# trigonometric diagonal functions and their symbolic algebra


def _turns(num: int, den: int) -> float:
    """num/den modulo 1, in [-1/2, 1/2), as the nearest float."""
    num %= den
    return (num - den if 2 * num >= den else num) / den


def _sinpi(num: int, den: int) -> float:
    """sin(pi num/den), its argument reduced exactly into [-1, 1), and 0 at -1."""
    angle = 2.0 * math.pi * _turns(num, 2 * den)
    return 0.0 if angle == -math.pi else math.sin(angle)


def _unit(num: int, den: int) -> complex:
    """e^{2 pi i num/den}, its argument reduced exactly into [-pi, pi), and
    -1 at -pi, so that _unit(-num, den) is conj(_unit(num, den)) bit for bit."""
    angle = 2.0 * math.pi * _turns(num, den)
    return -1 + 0j if angle == -math.pi else complex(math.cos(angle), math.sin(angle))


# `_unit` for coefficients: the phases of a power's terms repeat, as
# multiples of alpha, where those of run sums do not
_phase = lru_cache(maxsize=1 << 12)(_unit)


def _phases(g: int, den: int, a: int, n):
    """G (n + a/2) modulo 1, in [-1/2, 1/2), as the nearest floats, for
    G = g/den and the int64 array n (see `Wave`)."""
    r = 1 + a % 2  # G (n + a/2) = g (r n + r a/2) / (r den), in integers
    if r * den > 2**64:
        return r * _turns(g, r * den) * (n + a / 2)
    with np.errstate(over="ignore"):  # the products wrap modulo 2^64 on purpose
        m = n.view(np.uint64)
        if a:
            m = m * np.uint64(r) + np.uint64(r * a // 2 % 2**64)
        t = m * np.uint64(g % 2**64) << np.uint64(65 - (r * den).bit_length())
    return t.view(np.int64) * 2.0**-64


class AlphaMismatchError(ValueError):
    """Elements over different frequencies cannot be combined."""


class Element:
    """A banded operator on l2(Z) with trigonometric diagonals, held
    symbolically: `terms` maps an offset a and an integer vector ks to one
    coefficient c, and row n's entry on offset a sums c e^{2 pi i G (n + a/2)}
    for G = ks . freqs, the phase read at the hop's midpoint.  The
    frequencies are distinct floats, multiples of 1/den, a power of two, so
    the phases a product gains are integers modulo 2 den, reduced exactly,
    and the adjoint, c -> conj(c), is an exact involution.  Terms are keyed
    by ks, not by G modulo 1, so v^k stays apart from 1 at alpha = 0 or 1/2.
    Over one frequency this is the rotation algebra, u^m v^k on offset -m
    with ks = (k,); over several, the crossed product by the shift of the
    characters n -> e^{2 pi i f n}.  Elements combine over one frequency
    set, as those of one spec do; AlphaMismatchError otherwise."""

    __slots__ = ("freqs", "den", "units", "terms")

    def __init__(self, freqs=()):
        """The zero element over freqs."""
        self.freqs, self.terms = tuple(freqs), {}
        ratios = [f.as_integer_ratio() for f in self.freqs]
        self.den = max([d for _, d in ratios], default=1)
        self.units = tuple([num * (self.den // d) for num, d in ratios])  # den times each

    def _new(self, terms) -> "Element":
        """The element over these frequencies summing the terms (key, c)."""
        out = object.__new__(type(self))
        out.freqs, out.den, out.units, out.terms = self.freqs, self.den, self.units, {}
        for key, c in terms:
            out.terms[key] = out.terms.get(key, 0) + c
        if 0 in out.terms.values():  # cancelled terms leave
            out.terms = {key: c for key, c in out.terms.items() if c != 0}
        return out

    def _coerce(self, other) -> "Element":
        if not isinstance(other, Element):
            return self._new([((0, (0,) * len(self.freqs)), complex(other))])
        if other.freqs != self.freqs:
            raise AlphaMismatchError(f"elements over the frequencies {self.freqs} and "
                                     f"{other.freqs} do not combine")
        return other

    def _dot(self, ks) -> int:
        """den times the frequency ks . freqs."""
        return sum(map(mul, ks, self.units))

    def __add__(self, other):
        return self._new([*self.terms.items(), *self._coerce(other).terms.items()])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return self * scalar

    def __mul__(self, other):
        """The one product: (A B)[n, n + a + b] = A[n, n + a] B[n + a, n + a + b].
        Read at the product's midpoint n + (a + b)/2, a term of A of
        frequency G_A and one of B of frequency G_B gain the phase
        e^{i pi (a G_B - b G_A)}."""
        if not isinstance(other, Element):
            return self._new((key, c * other) for key, c in self.terms.items())
        den = 2 * self.den
        right = [(b, ks, self._dot(ks), c) for (b, ks), c in self._coerce(other).terms.items()]
        return self._new(((a + b, tuple(map(add, ks1, ks2))),
                          c1 * c2 * _phase(a * g2 - b * g1, den))
                         for (a, ks1), c1 in self.terms.items() for g1 in [self._dot(ks1)]
                         for b, ks2, g2, c2 in right)

    def adjoint(self) -> "Element":
        """A*[n, n - a] = conj(A[n - a, n]), whose hop has the midpoint of
        A's: offset -a, ks -> -ks and c -> conj(c)."""
        return self._new(((-a, tuple(map(neg, ks))), c.conjugate())
                         for (a, ks), c in self.terms.items())

    def inner(self, other) -> complex:
        """tau(x* y) for x = self, tau the coefficient of ks = 0 on offset 0:
        x* y pairs each offset and ks of x with the same of y, at a phase
        of 1, so it sums conj(X) Y over their coefficients."""
        return sum((c.conjugate() * other.terms[key] for key, c in self.terms.items()
                    if key in other.terms), 0j)

    def run_sum(self, lo: int, hi: int) -> complex:
        """The sum of the offset-0 diagonal over n = lo..hi in closed form,
        O(terms): for G = ks . freqs, reduced modulo 1 to g / den in
        [-1/2, 1/2), sum_n e^{2 pi i G n} = e^{i pi G (lo + hi)} sin(pi G d) /
        sin(pi G) over the d = hi - lo + 1 entries, every phase reduced in
        integers, so as accurate near 2^63 as near 0."""
        den, d, total, widths = self.den, hi - lo + 1, 0j, {}
        for (a, ks), c in self.terms.items():
            if a:
                continue
            g = self._dot(ks) % den
            if 2 * g >= den:
                g -= den
            width = widths.get(-g)  # even in g: a cosine's halves share one
            if width is None:
                # below |G d| = 2^-30 the ratio of sines is d to within 2^-60
                width = widths[g] = (d if abs(g) * d * 2**30 <= den
                                     else _sinpi(g * d, den) / _sinpi(g, den))
            total += c * (_unit(g * (lo + hi), 2 * den) * width)
        return total


class Wave(Element):
    """A trigonometric diagonal function: `Element` terms of one offset a,
    called on int64 rows n for that offset's entries, sum c e^{2 pi i G
    (n + a/2)}.  Each phase is reduced modulo 1 in integers, as the wrapping
    uint64 product g (r n + r a/2) over r den, r = 1 + a mod 2, where
    r den <= 2^64, else as g/(r den) reduced into [-1/2, 1/2), its sign
    kept, times r (n + a/2).  Keys ks and -ks of conjugate coefficients are
    one real cosine 2 Re(c e^{i theta}), so cosine diagonals stay exactly
    real, and those of phase 0 even bit for bit."""

    __slots__ = ()

    def __init__(self, freqs, terms: dict, offset: int = 0):
        """The wave over freqs of the terms {ks: c} on offset `offset`."""
        super().__init__(freqs)
        self.terms = {(offset, ks): c for ks, c in terms.items() if c != 0}

    @classmethod
    def of(cls, freq: float, phase: float = 0.0, c=1.0, cos: bool = False) -> "Wave":
        """n -> c e^{2 pi i (freq n + phase)}, or with cos c cos(2 pi (freq n
        + phase)) as its two halves, the phase folded into c exactly."""
        unit = _phase(*phase.as_integer_ratio())
        if not cos:
            return cls((freq,), {(1,): c * unit})
        return cls((freq,), {(1,): c / 2 * unit, (-1,): c / 2 * unit.conjugate()})

    def _placed(self, off: int, zero: Element):
        """The terms of this wave on offset off over the frequencies of zero,
        one on offset a times e^{i pi G (a - off)}, reduced exactly."""
        at = [zero.freqs.index(f) for f in self.freqs]
        for (a, ks), c in self.terms.items():
            wide = [0] * len(zero.freqs)
            for i, k in zip(at, ks):
                wide[i] = k
            wide = tuple(wide)
            yield (off, wide), (c if a == off
                                else c * _unit(zero._dot(wide) * (a - off), 2 * zero.den))

    def __call__(self, n):
        n = np.asarray(n, dtype=np.int64)
        vals, paired = [], set()
        for (a, ks), c in self.terms.items():
            if (a, ks) in paired:
                continue
            turns = _phases(self._dot(ks), self.den, a, n)
            conj = (a, tuple(map(neg, ks)))
            if conj != (a, ks) and self.terms.get(conj) == c.conjugate():
                paired.add(conj)  # c e^{i theta} + conj(c) e^{-i theta}, exactly real
                theta = 2.0 * np.pi * turns
                v = np.cos(theta)
                v *= 2 * c.real
                if c.imag:
                    v -= 2 * c.imag * np.sin(theta)
                vals.append(v + 0j)
            else:
                v = np.exp(2j * np.pi * turns)
                vals.append(v if c == 1 else c * v)
        return sum(vals[1:], vals[0]) if vals else np.zeros(n.shape, dtype=complex)


# ---------------------------------------------------------------------------
# spec variants


class OperatorSpec:
    """Base class for operator specifications.

    A leaf has A[r, r + k] = diagonal(k, rows) for k in `offsets`, zero
    elsewhere; `bandwidth` bounds banded hops.  A banded leaf builds `diags`
    once, the map from each offset, in `offsets` order, to its diagonal
    function: a constant, a `Wave` or another callable on integer arrays.
    A `Dense` leaf instead keeps its entries in [0, support) x [0, support),
    and it and `Poly` have no `diags`.  Every spec but one with a callable
    diagonal also has a `symbol`, its `Element` on l2(Z).

    Specs are plain classes, which cost nothing at import, and compare by
    identity.
    """

    lattice: str
    support = 0
    offsets = ()
    diags = None

    def _set_diags(self, diags: dict):
        self.diags, self.offsets = diags, tuple(diags)

    def diagonal(self, k, rows):
        fn = self.diags[k]
        if callable(fn):
            return np.asarray(fn(rows), dtype=complex)
        return np.full(np.shape(rows), complex(fn))

    @cached_property
    def symbol(self):
        """The spec as an `Element` on l2(Z), formed once, over the
        frequencies of all its waves, a `Dense` leaf as zero; None where a
        diagonal is another callable."""
        poly = isinstance(self, Poly)
        fns = [fn for leaf in (self.leaves if poly else (self,)) if leaf.diags
               for fn in leaf.diags.values()]
        if any(callable(fn) and not isinstance(fn, Wave) for fn in fns):
            return None
        zero = Element(dict.fromkeys(f for fn in fns if isinstance(fn, Wave) for f in fn.freqs))
        return _symbol(self.expr if poly else self, zero)

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


class Dense(OperatorSpec):
    """Explicit square matrix, acting on the first d basis vectors of l2(N0).

    `Dense(matrix)` holds the complex matrix at once.  The spec loader
    calls `Dense.of_entries` with the entries it checked: the support comes
    from the rows' lengths, and the matrix is formed on the first read of
    `matrix`, so that validating a spec runs no numpy."""

    bandwidth = 0

    def __init__(self, matrix, lattice: str = N0):
        self.matrix = np.asarray(matrix, dtype=complex)
        self._set_support(self.matrix.shape, lattice)

    @classmethod
    def of_entries(cls, entries, shape: tuple, pairs: bool):
        """The Dense of a matrix's entries row by row: an `array` of
        doubles, with `pairs` those of its [re, im] pairs, or a list of
        complex numbers; `shape` is (rows, entries a row)."""
        self = cls.__new__(cls)
        self._set_support(shape, N0)
        self._entries = entries, pairs
        return self

    def _set_support(self, shape: tuple, lattice: str):
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"dense spec needs a square matrix, got shape {shape}")
        self.lattice, self.support = lattice, shape[0]
        self.offsets = tuple(range(1 - shape[0], shape[0]))

    @cached_property
    def matrix(self):
        """The complex matrix of the entries given to `of_entries`, formed
        on first read: doubles cast to complex, or with `pairs` viewed as
        complex, bit for bit the entries' values."""
        entries, pairs = self._entries
        m = np.array(entries)
        if pairs:
            m = m.view(complex)
        return m.astype(complex, copy=False).reshape(self.support, self.support)

    def diagonal(self, k, rows):
        rows = np.asarray(rows)
        out = np.zeros(rows.shape, dtype=complex)
        ok = (rows >= max(0, -k)) & (rows < self.support - max(0, k))
        out[ok] = self.matrix[rows[ok], rows[ok] + k]
        return out


class Toeplitz(OperatorSpec):
    """Toeplitz operator on l2(N0) with entries a_{i-j} from a finite symbol:
    `coeffs`, a map or pairs k -> a_k, kept as the sorted tuple of the
    nonzero (k, complex a_k).  With selfadjoint, a_{-k} == conj(a_k) is
    checked at construction (ValueError where it fails); the flag is not
    kept."""

    def __init__(self, coeffs, selfadjoint: bool = False, lattice: str = N0):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cs = tuple(sorted((int(k), complex(v)) for k, v in items if v != 0))
        self.coeffs, self.lattice = cs, lattice
        self.bandwidth = max((abs(k) for k, _ in cs), default=0)
        self._set_diags({-k: v for k, v in cs})
        if selfadjoint:
            d = dict(cs)
            for k, v in cs:
                if d.get(-k, 0j) != v.conjugate():
                    raise ValueError(
                        "selfadjoint toeplitz symbol requires a_{-k} == conj(a_k)"
                    )

    def symbol_values(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate g(theta) = sum_k a_k e^{ik theta} at the nodes of the 1-d
        theta, term by term in the order of k, a chunk of nodes at a time.
        e^{-ik theta} is the conjugate of e^{ik theta} bit for bit (k theta
        is negated exactly, sin is odd and cos even), so each exponential is
        taken once per |k| and kept for the term of opposite sign, and a_0
        is added as it is: at most bandwidth + 3 complex arrays of a chunk,
        the cast angles of np.multiply(1j * k, at) and the values included."""
        vals = np.zeros(np.shape(theta), dtype=complex)
        keys = {k for k, _ in self.coeffs}
        for lo in range(0, vals.size, _SYMBOL_CHUNK):
            at, out = theta[lo:lo + _SYMBOL_CHUNK], vals[lo:lo + _SYMBOL_CHUNK]
            term, kept = np.empty_like(out), {}
            for k, a in self.coeffs:
                if not k:  # a_0 e^0 is a_0
                    out += a
                    continue
                power = kept.pop(-k, None)
                if power is None:
                    power = np.multiply(1j * k, at)
                    np.exp(power, out=power)
                    if -k in keys:
                        kept[k] = power
                else:
                    np.conjugate(power, out=power)
                # a_k first: numpy may round a scalar times an array apart
                # from an array times a scalar
                out += np.multiply(a, power, out=term)
        return vals


def toeplitz_from_samples(values, bandwidth: int, selfadjoint: bool = False) -> Toeplitz:
    """Recover Fourier coefficients |k| <= bandwidth from uniform symbol samples.

    Uses the plain discrete Fourier sum of the sequence `values`; requires
    at least 2*bandwidth + 1 samples (Nyquist bound for the requested
    band), counted before numpy runs.  A sum that overflows or turns
    invalid raises FloatingPointError, whatever numpy's error state around
    the call: finite samples whose coefficients are not finite make no
    spec.
    """
    m = len(values)
    if m < 2 * bandwidth + 1:
        raise NyquistError(
            f"{m} samples cannot resolve coefficients up to |k| = {bandwidth}"
        )
    v = np.asarray(values, dtype=complex)
    theta = 2.0 * np.pi * np.arange(m) / m
    coeffs = {}
    with np.errstate(over="raise", invalid="raise"):
        for k in range(-bandwidth, bandwidth + 1):
            coeffs[k] = np.mean(v * np.exp(-1j * k * theta))
    return Toeplitz(coeffs, selfadjoint=selfadjoint)


class Shift(OperatorSpec):
    """Weighted unilateral shift on l2(N0): S e_i = w(i) e_{i+1}; the weight
    is a constant or a callable, default w == 1."""

    bandwidth = 1

    def __init__(self, weight=1.0, lattice: str = N0):
        self.weight, self.lattice = weight, lattice
        # S[i + 1, i] = w(i): row r holds w(r - 1) on offset -1
        self._set_diags({-1: (lambda rows: weight(np.asarray(rows) - 1)) if callable(weight)
                         else weight})


class Band(OperatorSpec):
    """Band operator on l2(Z): (A psi)(n) = sum_{|j|<=b} d_j(n) psi(n+j).

    Matrix entries: <e_i, A e_j> = d_{j-i}(i).  `diagonals` maps or pairs
    each offset to its function, kept as the pairs sorted by offset; a
    function may be a constant, a `Wave` or another callable (vectorized
    over integer arrays).  A `Wave` gives its own offset's entries.
    """

    def __init__(self, bandwidth: int, diagonals=(), lattice: str = Z):
        items = diagonals.items() if isinstance(diagonals, dict) else diagonals
        ds = tuple(sorted(items, key=lambda kv: kv[0]))
        for off, _ in ds:
            if abs(off) > bandwidth:
                raise ValueError(f"diagonal offset {off} exceeds bandwidth {bandwidth}")
        self.bandwidth, self.diagonals, self.lattice = bandwidth, ds, lattice
        self._set_diags(dict(ds))


class AlmostMathieu(OperatorSpec):
    """Discrete Schroedinger operator with cosine potential on l2(Z).

    Hopping terms 1 on offsets +-1 and diagonal 2*coupling*cos(2pi(freq*n + phase)).
    """

    bandwidth = 1

    def __init__(self, coupling: float, freq: float, phase: float = 0.0, lattice: str = Z):
        self.coupling, self.freq, self.phase, self.lattice = coupling, freq, phase, lattice
        self._set_diags({-1: 1.0, 0: Wave.of(freq, phase, 2.0 * coupling, cos=True), 1: 1.0})


# polynomial expression nodes ------------------------------------------------


class SumE:
    """The sum of the expression nodes `parts`."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class ProdE:
    """The product of the expression nodes `parts`, left to right."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class AdjE:
    """The adjoint of the expression node `child`."""

    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child


class ScaleE:
    """The expression node `child` times the complex `scalar`."""

    __slots__ = ("scalar", "child")

    def __init__(self, scalar: complex, child):
        self.scalar, self.child = scalar, child


class Poly(OperatorSpec):
    """*-polynomial combination of operator specs sharing one lattice; its
    `offsets` are those of the diagonals its diagonal storage keeps, its
    `leaves` the leaf specs of its expression."""

    def __init__(self, expr):
        leaves, bandwidth, offsets, support = _structure(expr)
        lats = {leaf.lattice for leaf in leaves}
        self.expr, self.leaves = expr, tuple(leaves)
        if len(lats) != 1:
            raise LatticeMismatchError(f"poly spec mixes lattices {sorted(map(str, lats))}")
        self.lattice, self.bandwidth, self.support = lats.pop(), bandwidth, support
        self.offsets = tuple(sorted(offsets))


def _structure(node) -> tuple:
    """(leaves, bandwidth, offsets, support) of an expression node, in one
    walk; the offsets are the keys of `_storage(node, pad)`, whatever the pad."""
    if isinstance(node, OperatorSpec):
        return [node], node.bandwidth, set(node.offsets), node.support
    if isinstance(node, (AdjE, ScaleE)):
        leaves, bandwidth, offsets, support = _structure(node.child)
        if isinstance(node, AdjE):
            offsets = {-k for k in offsets}
        return leaves, bandwidth, offsets, support
    if not isinstance(node, (SumE, ProdE)):
        raise TypeError(f"not a polynomial node: {node!r}")
    if not node.parts:
        raise ValueError(f"a polynomial {'sum' if isinstance(node, SumE) else 'product'} "
                         "needs at least one term")
    leaves, widths, offsets, supports = zip(*(_structure(child) for child in node.parts))
    leaves, support = [leaf for part in leaves for leaf in part], max(supports)
    if isinstance(node, SumE):
        return leaves, max(widths), set().union(*offsets), support
    product = {0}
    for part in offsets:
        product = {a + b for a in product for b in part}
    return leaves, sum(widths), product, support


def _symbol(node, zero: Element) -> Element:
    """The `Element` of an expression node free of callables, over the
    frequencies of zero."""
    if isinstance(node, OperatorSpec):
        return zero._new(term for k, fn in (node.diags or {}).items()
                         for term in (fn._placed(k, zero) if isinstance(fn, Wave)
                                      else [((k, (0,) * len(zero.freqs)), complex(fn))]))
    if isinstance(node, AdjE):
        return _symbol(node.child, zero).adjoint()
    if isinstance(node, ScaleE):
        return node.scalar * _symbol(node.child, zero)
    parts = [_symbol(child, zero) for child in node.parts]
    return sum(parts, zero) if isinstance(node, SumE) else math.prod(parts[1:], start=parts[0])


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


class Section:
    """Diagonal storage over a sorted index set: diags[k][p] = A[pad[p], pad[p] + k],
    zero where pad[p] + k is outside the contiguous run of pad holding pad[p].
    Runs of a padded set lie over twice the bandwidth apart, so no entry
    couples two of them and each run evaluates exactly as if alone."""

    __slots__ = ("pad", "diags")

    def __init__(self, pad: np.ndarray, diags: dict):
        self.pad, self.diags = pad, diags

    @property
    def offsets(self) -> tuple:
        return tuple(self.diags)

    def diagonal(self, k, rows):
        return self.diags[k][np.searchsorted(self.pad, rows)]


def _storage(node, pad: np.ndarray) -> dict:
    """Diagonal storage of an expression node on pad (see `Section`); a
    product folds its factors one at a time."""
    if isinstance(node, OperatorSpec):
        out = {}
        for k in node.offsets:
            # positions p whose column pad[p] + k lies in the run of pad[p]
            a = min(abs(k), pad.size)
            p = np.flatnonzero(pad[a:] - pad[: pad.size - a] == abs(k)) + max(0, -k)
            out[k] = v = np.zeros(pad.size, dtype=complex)
            v[p] = node.diagonal(k, pad[p])
        return out
    if isinstance(node, ProdE):
        out = _storage(node.parts[0], pad)
        for child in node.parts[1:]:
            out = _times(out, _storage(child, pad))
        return out
    if isinstance(node, SumE):
        out = {}
        for child in node.parts:
            for k, v in _storage(child, pad).items():
                out[k] = out[k] + v if k in out else v
        return out
    if isinstance(node, AdjE):
        return _adjoint(_storage(node.child, pad))
    return {k: node.scalar * v for k, v in _storage(node.child, pad).items()}


def _adjoint(diags: dict) -> dict:
    """Diagonal storage of the adjoint: A*[i, i + k] = conj(A[i + k, i])."""
    return {-k: np.conj(_shifted(v, -k)) for k, v in diags.items()}


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


# ---------------------------------------------------------------------------
# index runs: a sorted index set as sorted, disjoint, inclusive (lo, hi) pairs

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def run_indices(runs) -> np.ndarray:
    """The sorted index array of runs."""
    parts = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in runs]
    if len(parts) == 1:
        return parts[0]
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
    if runs[0][0] < _INT64_MIN or runs[-1][1] > _INT64_MAX:
        raise ConfigError(
            f"{what} [{runs[0][0]}, {runs[-1][1]}] leave the 64-bit index range"
        )


def _size(runs) -> int:
    """The number of indices in runs."""
    return sum(hi - lo + 1 for lo, hi in runs)


def exact_entries(op: OperatorSpec, runs):
    """The exact entries of op on runs x pad and pad x runs, for the padded
    runs pad = pad_runs(op, runs), as `offsets` and `diagonal(k, rows)`: a
    leaf answers itself, a polynomial is evaluated once in diagonal storage,
    after its 16 bytes an offset and padded index are checked against
    physical memory."""
    if not isinstance(op, Poly):
        return op
    pad = pad_runs(op, runs)
    size = _size(pad)
    check_footprint(16 * size * len(op.offsets),
                    f"the diagonal storage of a polynomial on {size} padded indices")
    pad = run_indices(pad)
    return Section(pad, _storage(op.expr, pad))


def _match(rows: np.ndarray, cols: np.ndarray, k: int):
    """Positions (ri, ci) with cols[ci] == rows[ri] + k; cols sorted."""
    want = rows + k
    ci = np.minimum(np.searchsorted(cols, want), cols.size - 1)
    ri = np.flatnonzero(cols[ci] == want)
    return ri, ci[ri]


def _positions(src, idx: np.ndarray) -> dict:
    """Diagonal storage of the compression of src (see `exact_entries`) to
    the sorted indices idx, by position: out[j][p] = A[idx[p], idx[p + j]],
    zero where p + j leaves [0, idx.size).  On a window position offsets are
    index offsets; on a gapped index set an index offset k lands on
    position offsets between 0 and k.  An offset of |j| >= idx.size may be
    kept, all zero."""
    out = {}
    for k in src.offsets:
        ri, ci = _match(idx, idx, k)
        vals = src.diagonal(k, idx[ri])
        jumps = ci - ri
        window = (jumps == k).all()  # every index offset k is position offset k
        for j in (k,) if window else np.unique(jumps).tolist():
            at = slice(None) if window else jumps == j
            if j not in out:
                out[j] = np.zeros(idx.size, dtype=complex)
            out[j][ri[at]] = vals[at]
    return out


def _scatter(diags: dict, d: int) -> np.ndarray:
    """The d x d matrix of diagonal storage by position (see `_positions`),
    real when every diagonal is."""
    m = np.zeros((d, d), dtype=np.result_type(float, *diags.values()))
    flat = m.reshape(-1)
    for j, v in diags.items():
        lo, hi = max(0, -j), d - max(0, j)
        if lo < hi:  # m[p, p + j] for p in [lo, hi): one stride-(d + 1) run of flat
            flat[lo * (d + 1) + j::d + 1][:hi - lo] = v[lo:hi]
    return m


# ---------------------------------------------------------------------------
# public operations


def _check_lattice(op: OperatorSpec, proj):
    """LatticeMismatchError unless op and proj live on the same lattice."""
    if op.lattice != proj.lattice:
        raise LatticeMismatchError(
            f"operator on {op.lattice!r} vs projection on {proj.lattice!r}"
        )


def padded_compression(op: OperatorSpec, proj):
    """Return (A, inside): entries of op on the padded index set and the
    boolean marker of the projection's indices inside it.

    The padded set captures every nonzero entry of A P and P A, so
    commutators and off-corner blocks cut from A by `inside` are exact.
    A is scattered from the padded set's storage by position (`_positions`).
    A section too large for physical memory raises ConfigError before it,
    or any index array, is allocated.
    """
    _check_lattice(op, proj)
    pad = pad_runs(op, proj.runs)
    size = _size(pad)
    check_footprint(_SECTION_ARRAYS * 16 * size**2, f"a padded section of order {size}")
    idx = run_indices(pad)
    return _scatter(_positions(exact_entries(op, pad), idx), size), np.isin(idx, proj.index_array())


def diagonal_entries(op: OperatorSpec, runs) -> np.ndarray:
    """Diagonal of the compression to the indices of runs: offset 0 of the
    exact entries on them.  The caller checks the lattice and the footprint
    of the runs' index array."""
    src = exact_entries(op, runs)
    if 0 not in src.offsets:
        return np.zeros(_size(runs), dtype=complex)
    return src.diagonal(0, run_indices(runs))


def diagonal_sums(op: OperatorSpec, projs) -> list:
    """Tr(A P) for each projection P of projs: the sum of the compression's
    diagonal over P's runs, from op's `symbol` in closed form on each run,
    O(runs x terms), outside one numeric region.  The region is where the
    diagonal is not the symbol's: below support + bandwidth on n0 for a
    `Poly`, where truncated products differ from the l2(Z) formula; within
    bandwidth of a `Dense` support; and every index where a diagonal that
    the trace reads is another callable, any of a `Poly`'s or offset 0 of a
    leaf's.  The region is evaluated once, on the union of the projections'
    runs, and each P sums its own slices of it; an empty region evaluates
    nothing.  LatticeMismatchError on a lattice mismatch, ConfigError where
    an index leaves int64 or the region's index array does not fit in
    physical memory, and FloatingPointError where a sum is not finite."""
    for proj in projs:
        _check_lattice(op, proj)
        _check_int64(proj.runs, "indices")
    sym = op.symbol
    if sym is None and op.diags is not None:  # a leaf's trace reads its offset 0 alone
        sym = Band(0, ((0, op.diags.get(0, 0.0)),)).symbol
    union = widen_runs(sorted(run for proj in projs for run in proj.runs), 0)
    bw = op.bandwidth if isinstance(op, Poly) else 0
    lo = 0 if op.lattice == N0 else -bw
    edge = [(lo, op.support + bw - 1)] if op.support or (bw and op.lattice == N0) else []
    region = union if sym is None else edge
    numeric = intersect_runs(union, region)
    size = _size(numeric)
    check_footprint(8 * size, f"the index array of {size} window indices")
    diag = diagonal_entries(op, numeric) if numeric else None
    los, starts = [lo for lo, _ in numeric], [0, *accumulate(hi - lo + 1 for lo, hi in numeric)]
    out = []
    for proj in projs:
        # summed exactly: a gapped set may have thousands of runs
        sums = [sym.run_sum(a, b) for a, b in subtract_runs(proj.runs, region)]
        for a, b in intersect_runs(proj.runs, region):
            j = bisect_right(los, a) - 1
            at = starts[j] + a - los[j]
            sums.append(complex(diag[at:at + b - a + 1].sum()))
        try:
            out.append(complex(math.fsum(z.real for z in sums), math.fsum(z.imag for z in sums)))
        except (OverflowError, ValueError) as exc:  # an exact sum past the float range, or inf - inf
            raise FloatingPointError(
                f"the trace over {proj.rank} indices is not finite: {exc}") from exc
    return out
