"""Independent reference values for the benchmark's correctness checks.

Nothing here imports `folner_lab`: every operator is rebuilt from the JSON
spec documents with the textbook entry formulas, held in diagonal storage
(offset -> vector) on a contiguous index range, and multiplied exactly in
that form.  Spectral references use closed forms (hopping eigenvalues, the
arcsine law, Laurent-polynomial moments) and an exact phase average for the
rotation-algebra trace.
"""
from __future__ import annotations

import math

import numpy as np

N0, Z = "n0", "z"


def _cplx(x) -> complex:
    if isinstance(x, list):
        return complex(x[0], x[1])
    return complex(x)


# ---------------------------------------------------------------------------
# leaf formulas


def lattice_of(doc) -> str:
    kind = doc["kind"]
    if kind in ("band", "almost_mathieu", "ncpoly"):
        return Z
    if kind == "identity":
        return doc.get("lattice", N0)
    if kind == "poly":
        return lattice_of(_first_leaf(doc["expr"]))
    return N0


def _first_leaf(node):
    if "op" in node:
        return node["op"]
    for key in ("sum", "prod"):
        if key in node:
            return _first_leaf(node[key][0])
    return _first_leaf(node.get("adj") or node["of"])


def bandwidth(doc) -> int:
    """Reach of the entries; for a polynomial, the sum over all its leaves."""
    kind = doc["kind"]
    if kind == "toeplitz":
        return max(abs(int(k)) for k in doc["coeffs"])
    if kind in ("shift", "almost_mathieu"):
        return 1
    if kind == "identity":
        return 0
    if kind == "band":
        return int(doc["bandwidth"])
    if kind == "ncpoly":
        return max(abs(t["m"]) for t in doc["terms"])
    if kind == "dense":
        return len(doc["matrix"]) - 1
    if kind == "poly":
        return _node_width(doc["expr"])
    raise ValueError(kind)


def _node_width(node) -> int:
    if "op" in node:
        return bandwidth(node["op"])
    if "sum" in node or "prod" in node:
        return sum(_node_width(p) for p in node.get("sum") or node["prod"])
    return _node_width(node.get("adj") or node["of"])


def _band_fn(fn, i: np.ndarray) -> np.ndarray:
    if not isinstance(fn, dict):
        return np.full(i.shape, _cplx(fn))
    if fn["type"] == "const":
        return np.full(i.shape, _cplx(fn["value"]))
    phase = fn.get("phase", 0.0)
    if fn["type"] == "cos":
        return fn["amp"] * np.cos(2 * np.pi * (fn["freq"] * i + phase)) + 0j
    return np.exp(2j * np.pi * (fn["freq"] * i + phase))


def leaf_diag(doc, off: int, i: np.ndarray, phi: float = 0.0) -> np.ndarray:
    """Entries M[i, i + off] of a leaf operator, for the row indices i."""
    kind = doc["kind"]
    i = np.asarray(i, dtype=np.int64)
    zero = np.zeros(i.shape, dtype=complex)
    if kind == "toeplitz":  # M[i, j] = a_{i - j}
        return zero + _cplx(doc["coeffs"].get(str(-off), 0.0))
    if kind == "shift":  # S e_j = w e_{j+1}
        return zero + (_cplx(doc.get("weight", 1.0)) if off == -1 else 0.0)
    if kind == "identity":
        return zero + (1.0 if off == 0 else 0.0)
    if kind == "band":  # M[i, j] = d_{j - i}(i)
        for item in doc["diagonals"]:
            if item["offset"] == off:
                return _band_fn(item["fn"], i)
        return zero
    if kind == "almost_mathieu":
        if off == 0:
            arg = 2 * np.pi * (doc["freq"] * i + doc.get("phase", 0.0))
            return 2 * doc["coupling"] * np.cos(arg) + 0j
        return zero + (1.0 if abs(off) == 1 else 0.0)
    if kind == "ncpoly":  # u^m v^k e_j = e^{2 pi i k (alpha j + phi)} e_{j+m}
        out = zero
        for t in doc["terms"]:
            if -t["m"] == off:
                j = i + off
                out = out + _cplx(t["coeff"]) * np.exp(
                    2j * np.pi * t["k"] * (doc["alpha"] * j + phi))
        return out
    if kind == "dense":
        m = np.array([[_cplx(x) for x in row] for row in doc["matrix"]])
        j = i + off
        ok = (i >= 0) & (i < m.shape[0]) & (j >= 0) & (j < m.shape[0])
        zero[ok] = m[i[ok], j[ok]]
        return zero
    raise ValueError(f"no leaf formula for {kind!r}")


# ---------------------------------------------------------------------------
# diagonal storage


class Banded:
    """Matrix on indices a .. a+size-1: diags[off][t] = M[a + t, a + t + off]."""

    def __init__(self, a: int, size: int, diags: dict):
        self.a, self.size, self.diags = a, size, diags

    @classmethod
    def leaf(cls, doc, a: int, size: int, phi: float = 0.0) -> "Banded":
        i = np.arange(a, a + size)
        w = bandwidth(doc)
        diags = {}
        for off in range(-w, w + 1):
            v = leaf_diag(doc, off, i, phi)
            inside = (i + off >= a) & (i + off < a + size)
            diags[off] = np.where(inside, v, 0)
        return cls(a, size, diags)

    def _shifted(self, v: np.ndarray, off: int) -> np.ndarray:
        """w[t] = v[t + off], zero outside the range."""
        w = np.zeros_like(v)
        if abs(off) >= self.size:
            return w
        if off >= 0:
            w[: self.size - off] = v[off:]
        else:
            w[-off:] = v[: self.size + off]
        return w

    def __add__(self, other):
        out = dict(self.diags)
        for off, v in other.diags.items():
            out[off] = out[off] + v if off in out else v
        return Banded(self.a, self.size, out)

    def scale(self, c: complex):
        return Banded(self.a, self.size, {o: c * v for o, v in self.diags.items()})

    def adjoint(self):
        return Banded(self.a, self.size,
                      {-o: np.conj(self._shifted(v, -o)) for o, v in self.diags.items()})

    def __matmul__(self, other):
        out = {}
        for o1, v1 in self.diags.items():
            for o2, v2 in other.diags.items():
                term = v1 * self._shifted(v2, o1)
                out[o1 + o2] = out[o1 + o2] + term if o1 + o2 in out else term
        return Banded(self.a, self.size, out)

    def entries(self, rows, cols) -> np.ndarray:
        """Dense block M[rows, cols]."""
        block = np.zeros((len(rows), len(cols)), dtype=complex)
        cpos = {c: k for k, c in enumerate(cols)}
        for off, v in self.diags.items():
            for r_k, r in enumerate(rows):
                c_k = cpos.get(r + off)
                if c_k is not None:
                    block[r_k, c_k] = v[r - self.a]
        return block

    def diagonal(self, lo: int, hi: int) -> np.ndarray:
        v = self.diags.get(0, np.zeros(self.size, dtype=complex))
        return v[lo - self.a: hi - self.a + 1]

    def reach(self) -> int:
        return max((abs(o) for o, v in self.diags.items() if np.any(v != 0)), default=0)


def _eval_node(node, a: int, size: int, phi: float) -> Banded:
    if "op" in node:
        doc = node["op"]
        if doc["kind"] == "poly":
            return _eval_node(doc["expr"], a, size, phi)
        return Banded.leaf(doc, a, size, phi)
    if "sum" in node:
        parts = [_eval_node(p, a, size, phi) for p in node["sum"]]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        return acc
    if "prod" in node:
        parts = [_eval_node(p, a, size, phi) for p in node["prod"]]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc @ p
        return acc
    if "adj" in node:
        return _eval_node(node["adj"], a, size, phi).adjoint()
    return _eval_node(node["of"], a, size, phi).scale(_cplx(node["scale"]))


def window(lattice: str, n: int) -> tuple[int, int]:
    return (0, n) if lattice == N0 else (-n, n)


def around(doc, lo: int, hi: int, phi: float = 0.0) -> Banded:
    """The operator on [lo, hi] padded by twice the summed bandwidths.

    Entries whose row and column lie within one summed bandwidth of
    [lo, hi] equal those of the infinite operator: every product path from
    them stays inside the padded range (or meets the true edge of n0).
    """
    pad = 2 * bandwidth(doc)
    a = lo - pad
    if lattice_of(doc) == N0:
        a = max(a, 0)
    size = hi + pad - a + 1
    if doc["kind"] == "poly":
        return _eval_node(doc["expr"], a, size, phi)
    return Banded.leaf(doc, a, size, phi)


def section(doc, lo: int, hi: int, phi: float = 0.0) -> Banded:
    """The compression P A P itself (no padding), for spectral moments."""
    return Banded.leaf(doc, lo, hi - lo + 1, phi)


# ---------------------------------------------------------------------------
# commutator diagnostics


def _schatten(block: np.ndarray, p) -> float:
    if block.size == 0:
        return 0.0
    if p == 2:
        return float(np.linalg.norm(block))
    sv = np.linalg.svd(block, compute_uv=False)
    return float(sv.sum() if p == 1 else sv.max())


def folner_row(doc, n: int, phi: float = 0.0) -> dict:
    """ratio_p, off_corner_p (p = 1, 2) and qd_gap at the n-th finite section.

    B1 = (1-P) A P and B2 = P A (1-P) are built from the entries within one
    bandwidth of the window's edges; they hold every nonzero of [P, A].
    """
    lat = lattice_of(doc)
    lo, hi = window(lat, n)
    m = around(doc, lo, hi, phi)
    w = max(m.reach(), 1)
    outside = [i for i in range(lo - w, lo) if lat == Z or i >= 0] + list(range(hi + 1, hi + w + 1))
    inside = sorted(set(range(lo, min(hi, lo + w - 1) + 1)) | set(range(max(lo, hi - w + 1), hi + 1)))
    b1, b2 = m.entries(outside, inside), m.entries(inside, outside)
    d = hi - lo + 1
    row = {"d_n": d, "qd_gap": max(_schatten(b1, math.inf), _schatten(b2, math.inf))}
    for p, norm_p in ((1, d), (2, math.sqrt(d))):
        if p == 2:
            comm = math.hypot(_schatten(b1, 2), _schatten(b2, 2))
        else:
            comm = _schatten(b1, 1) + _schatten(b2, 1)
        row[p] = (comm / norm_p, _schatten(b1, p) / norm_p)
    return row


def n0_toeplitz_ratio_p2(coeffs: dict, n: int) -> float:
    """Closed form sqrt(sum_k min(|k|, n+1) |a_k|^2 / (n+1)) on l2(N0)."""
    s = sum(min(abs(int(k)), n + 1) * abs(_cplx(a)) ** 2 for k, a in coeffs.items())
    return math.sqrt(s / (n + 1))


def trace_estimate(doc, n: int, phi: float = 0.0) -> complex:
    lo, hi = window(lattice_of(doc), n)
    if doc["kind"] == "poly":
        return complex(around(doc, lo, hi, phi).diagonal(lo, hi).mean())
    return complex(leaf_diag(doc, 0, np.arange(lo, hi + 1), phi).mean())


# ---------------------------------------------------------------------------
# spectral references


def hopping_eigenvalues(d: int) -> np.ndarray:
    """Eigenvalues 2 cos(k pi / (d + 1)) of the d x d hopping section, ascending."""
    return np.sort(2 * np.cos(np.arange(1, d + 1) * np.pi / (d + 1)))


def hat(x, left: float, center: float, right: float):
    x = np.asarray(x, dtype=float)
    up = np.clip((x - left) / (center - left), 0.0, 1.0)
    down = np.clip((right - x) / (right - center), 0.0, 1.0)
    return np.minimum(up, down)


def hat_family(lo: float, hi: float, count: int) -> dict:
    """name -> (left, center, right), as the CLI names them ('hat@<center:g>')."""
    step = (hi - lo) / (count + 1)
    nodes = [lo + step * i for i in range(count + 2)]
    return {f"hat@{nodes[i + 1]:g}": (nodes[i], nodes[i + 1], nodes[i + 2])
            for i in range(count)}


def arcsine_cdf(x):
    """CDF 1 - arccos(x/2)/pi of the hopping symbol 2 cos(theta)."""
    return 1.0 - np.arccos(np.clip(np.asarray(x, dtype=float) / 2, -1, 1)) / np.pi


def arcsine_hat_integral(left: float, center: float, right: float) -> float:
    """Exact integral of a hat against the arcsine law, from F and G = int x dF."""
    def g(x):
        return -math.sqrt(max(4.0 - x * x, 0.0)) / math.pi

    def f(x):
        return float(arcsine_cdf(x))

    def ramp(a, b, rising):  # integral of the linear piece over [a, b]
        a_c, b_c = max(a, -2.0), min(b, 2.0)
        if b_c <= a_c:
            return 0.0
        lin = g(b_c) - g(a_c)
        mass = f(b_c) - f(a_c)
        if rising:
            return (lin - a * mass) / (b - a)
        return (b * mass - lin) / (b - a)

    return ramp(left, center, True) + ramp(center, right, False)


def kolmogorov_to_cdf(atoms: np.ndarray, cdf) -> float:
    """sup |F_emp - F| for a continuous F; attained at the atoms, both sides."""
    atoms = np.sort(atoms)
    d = atoms.size
    f = cdf(atoms)
    k = np.arange(1, d + 1)
    return float(max(np.max(np.abs(k / d - f)), np.max(np.abs((k - 1) / d - f))))


def symbol_moment(coeffs: dict, k: int) -> float:
    """Constant Fourier coefficient of g^k for g = sum_j a_j e^{ij theta}."""
    w = max(abs(int(j)) for j in coeffs)
    base = np.zeros(2 * w + 1, dtype=complex)
    for j, a in coeffs.items():
        base[int(j) + w] = _cplx(a)
    acc = np.array([1.0 + 0j])
    for _ in range(k):
        acc = np.convolve(acc, base)
    return float(acc[acc.size // 2].real)


def section_moments(doc, lo: int, hi: int, order: int, phi: float = 0.0) -> list:
    """tr(A_n^k) / d for k = 0..order, by exact banded powers of the section."""
    m = section(doc, lo, hi, phi)
    d = hi - lo + 1
    out, power = [1.0], m
    for _ in range(order):
        out.append(float(power.diagonal(lo, hi).sum().real) / d)
        power = power @ m
    return out


def ncpoly_trace_moments(doc, order: int, phases: int = 64) -> list:
    """tau(a^k), k = 0..order, for a self-adjoint rotation-algebra element.

    tau(a^k) = int_0^1 <e_0, A_theta^k e_0> d theta, where A_theta is the
    representation with phase theta; the integrand is a trigonometric
    polynomial of degree <= k * max|k_term|, so a uniform grid of more phases
    than that integrates it exactly.
    """
    w = bandwidth(doc)
    out = [0.0] * (order + 1)
    for j in range(phases):
        m = Banded.leaf(doc, -order * w, 2 * order * w + 1, phi=j / phases)
        power = Banded(m.a, m.size, {0: np.ones(m.size, dtype=complex)})
        for k in range(order + 1):
            out[k] += power.diagonal(0, 0)[0].real / phases
            power = power @ m
    return out


# ---------------------------------------------------------------------------
# tensor bound


def tensor_row(doc_a, doc_b, n: int) -> dict:
    """lhs, middle, rhs of the tensor off-corner bound from the factor sections.

    For windows P, Q and padded factor matrices A, B (all rows reached from the
    window), lhs = (|AP|^2 |BQ|^2 - |PAP|^2 |QBQ|^2) / (rank P rank Q),
    because (1 - P(x)Q)(A(x)B)(P(x)Q) splits into two orthogonal pieces.
    """
    parts = []
    for doc in (doc_a, doc_b):
        lat = lattice_of(doc)
        lo, hi = window(lat, n)
        w = 0 if doc["kind"] == "dense" else bandwidth(doc)
        a = max(lo - w, 0) if lat == N0 else lo - w
        top = hi + w
        if doc["kind"] == "dense":
            top = max(hi, len(doc["matrix"]) - 1)
        mat = Banded.leaf(doc, a, top - a + 1).entries(list(range(a, top + 1)),
                                                       list(range(a, top + 1)))
        cols = slice(lo - a, hi - a + 1)
        ap = float(np.sum(np.abs(mat[:, cols]) ** 2))
        pap = float(np.sum(np.abs(mat[cols, cols]) ** 2))
        parts.append((ap, pap, hi - lo + 1, float(np.linalg.svd(mat, compute_uv=False).max())))
    (ap, pap, rp, na), (bq, qbq, rq, nb) = parts
    off_a, off_b = ap - pap, bq - qbq
    lhs = (ap * bq - pap * qbq) / (rp * rq)
    middle = (off_a / rp) * (bq / rq) + (pap / rp) * (off_b / rq)
    rhs = nb ** 2 * off_a / rp + na ** 2 * off_b / rq
    return {"d_n": rp * rq, "lhs": lhs, "middle": middle, "rhs": rhs}
