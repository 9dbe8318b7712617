"""Eigenvalues of Hermitian compressions, empirical spectral measures,
reference measures, and distances between them."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import check_footprint
from .operators import OperatorSpec, Toeplitz, _match, compress, exact_entries, tensor_pair

# Windows of at least this order whose compression is real and tridiagonal
# are solved from their diagonals by scipy's tridiagonal LAPACK routines.
# Below it a dense solve costs less than importing scipy.linalg (0.26 s):
# at d = 1025 a dense eigh with the residual check takes 0.36 s, the import
# and a stemr solve 0.34 s (one BLAS thread).
TRIDIAGONAL_MIN_DIM = 1000

# Bytes of each temporary of the blocked tridiagonal residual check.
_RESIDUAL_BLOCK_BYTES = 1 << 23


class NonHermitianError(ValueError):
    """Matrix deviates from Hermiticity beyond the allowed tolerance."""


class ResidualError(ArithmeticError):
    """Eigenpair residual exceeded the backward-stability contract."""


class ComplexSymbolError(ValueError):
    """Pushforward reference measures need a real-valued symbol."""


def _check_hermitian(dev: float, scale: float, herm_tol: float):
    if dev > herm_tol * scale:
        raise NonHermitianError(f"Hermiticity defect {dev:.3e} exceeds tolerance")


def _check_residual(resid: float, scale: float, d: int):
    bound = 1e-9 * scale * math.sqrt(d)
    if resid > bound:
        raise ResidualError(f"residual {resid:.3e} breaches contract {bound:.3e}")


def eigenvalues_hermitian(m: np.ndarray, herm_tol: float = 1e-10,
                          check_residual: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    The input is symmetrized as (M + M^dagger)/2 before solving; deviations
    beyond herm_tol (relative to the sup of |entries|) are an error.  A matrix
    whose imaginary part is exactly zero is solved in real arithmetic.  With
    check_residual, every eigenpair is verified against the contract
    ||M v - lam v|| <= 1e-9 * max|M| * sqrt(d).
    """
    m = np.asarray(m, dtype=complex)
    if not m.imag.any():
        m = m.real  # same scale and defect, with no complex temporaries
    scale = max(float(np.max(np.abs(m))), 1.0)
    _check_hermitian(float(np.max(np.abs(m - m.conj().T))), scale, herm_tol)
    h = 0.5 * (m + m.conj().T)
    if not check_residual:
        return np.linalg.eigvalsh(h)
    vals, vecs = np.linalg.eigh(h)
    resid = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    _check_residual(float(resid.max()), scale, h.shape[0])
    return vals


def _tridiagonal(op: OperatorSpec, proj):
    """(diagonal, upper, lower) of the compression by position, with
    upper[j] = A[j, j + 1] and lower[j] = A[j + 1, j], when its entries are
    exactly real and couple only neighbouring indices; None otherwise."""
    idx = proj.index_array()
    src = exact_entries(op, idx)
    if not set(src.offsets) <= {-1, 0, 1}:
        return None
    bands = {k: np.zeros(idx.size - abs(k), dtype=complex) for k in (0, 1, -1)}
    for k in src.offsets:
        ri, ci = _match(idx, idx, k)
        bands[k][np.minimum(ri, ci)] = src.diagonal(k, idx[ri])
    if any(b.imag.any() for b in bands.values()):
        return None
    return tuple(b.real for b in bands.values())


def _tridiagonal_eigenvalues(a, up, lo, herm_tol: float, check_residual: bool):
    """`eigenvalues_hermitian` of the real tridiagonal matrix with diagonal a,
    superdiagonal up and subdiagonal lo, from the diagonals: the same scale,
    defect and residual contract as the dense matrix, bit for bit."""
    scale = max(float(np.max(np.abs(np.concatenate([a, up, lo])))), 1.0)
    _check_hermitian(float(np.max(np.abs(up - lo), initial=0.0)), scale, herm_tol)
    e = 0.5 * (up + lo)
    import scipy.linalg  # 0.26 s and 27 MB, paid only by large windows

    if not check_residual:
        return scipy.linalg.eigvalsh_tridiagonal(a, e, lapack_driver="sterf")
    vals, vecs = scipy.linalg.eigh_tridiagonal(a, e, lapack_driver="stemr")
    step = max(1, _RESIDUAL_BLOCK_BYTES // (8 * a.size))
    worst = []
    for j in range(0, a.size, step):
        v = vecs[:, j:j + step]
        r = a[:, None] * v - v * vals[None, j:j + step]
        r[:-1] += e[:, None] * v[1:]
        r[1:] += e[:, None] * v[:-1]
        worst.append(np.linalg.norm(r, axis=0).max())
    _check_residual(float(np.max(worst)), scale, a.size)
    return vals


def check_solve_footprint(d: int, tridiagonal: bool, check_residual: bool):
    """ConfigError, before anything is allocated, when the d x d arrays of
    a solve exceed physical memory: the float64 eigenvectors on the
    tridiagonal path; the complex compression, its symmetrization and, with
    check_residual, the eigenvectors on the dense path."""
    if tridiagonal:
        need = 8 * d * d if check_residual else 0
    else:
        need = 16 * d * d * (3 if check_residual else 2)
    check_footprint(need, f"the eigensolve of a window of dimension {d}")


def compression_eigenvalues(op: OperatorSpec, proj, herm_tol: float = 1e-10,
                            check_residual: bool = False) -> np.ndarray:
    """Ascending eigenvalues of the compression of op to the range of proj,
    under the checks and contract of `eigenvalues_hermitian`.

    A window of order at least TRIDIAGONAL_MIN_DIM whose compression is
    exactly real and tridiagonal is solved from its diagonals (LAPACK sterf,
    or stemr with eigenvectors under check_residual); every other
    compression is formed densely.  A solve too large for physical memory
    raises ConfigError before it allocates.
    """
    d = proj.rank
    bands = None
    if d >= TRIDIAGONAL_MIN_DIM and not tensor_pair(op, proj):
        bands = _tridiagonal(op, proj)
    check_solve_footprint(d, bands is not None, check_residual)
    if bands is None:
        return eigenvalues_hermitian(compress(op, proj), herm_tol=herm_tol,
                                     check_residual=check_residual)
    return _tridiagonal_eigenvalues(*bands, herm_tol, check_residual)


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Continuous test function from the declared family.

    kind 'poly': coefficients c_0..c_K of sum c_k x^k.
    kind 'hat': piecewise-linear bump rising from `left` to 1 at `center`
    and back to 0 at `right`.
    """

    def __init__(self, kind, params, name):
        if kind not in ("poly", "hat"):
            raise ValueError(f"test function outside family grammar: {kind!r}")
        self.kind = kind
        self.params = params
        self.name = name

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(x, self.params)
        left, center, right = self.params
        up = np.clip((x - left) / (center - left), 0.0, 1.0) if center > left else (x >= center) * 1.0
        down = np.clip((right - x) / (right - center), 0.0, 1.0) if right > center else (x <= center) * 1.0
        return np.minimum(up, down)

    def __repr__(self):
        return f"TestFunction({self.name})"


def monomial(k: int) -> TestFunction:
    coeffs = [0.0] * k + [1.0]
    return TestFunction("poly", np.asarray(coeffs, dtype=float), f"x^{k}")


def hat(left: float, center: float, right: float) -> TestFunction:
    if not left <= center <= right:
        raise ValueError("hat nodes must be ordered")
    return TestFunction("hat", (float(left), float(center), float(right)), f"hat@{center:g}")


# ---------------------------------------------------------------------------
# measures


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely supported probability measure: eigenvalue atoms, weight 1/d each."""

    atoms: np.ndarray
    dim: int

    def __post_init__(self):
        a = np.sort(np.asarray(self.atoms, dtype=float))
        if a.size != self.dim or self.dim < 1:
            raise ValueError("atom count must equal the compression dimension")
        object.__setattr__(self, "atoms", a)

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right") / self.dim

    def moment(self, k: int) -> float:
        return float(np.mean(self.atoms**k))

    def to_json(self) -> str:
        return json.dumps({"atoms": self.atoms.tolist(), "dim": self.dim})


@dataclass(frozen=True)
class ReferenceMeasure:
    """Limit spectral measure, as a sampled CDF grid and/or a moment list."""

    xs: np.ndarray | None = None
    Fs: np.ndarray | None = None
    moments: tuple | None = None

    def __post_init__(self):
        if self.xs is not None:
            xs = np.asarray(self.xs, dtype=float)
            fs = np.asarray(self.Fs, dtype=float)
            if xs.shape != fs.shape or xs.ndim != 1 or xs.size == 0:
                raise ValueError("CDF grid must be two equal-length 1-d arrays")
            if np.any(np.diff(xs) < 0) or np.any(np.diff(fs) < -1e-15):
                raise ValueError("CDF grid must be nondecreasing")
            if fs[0] < -1e-15 or fs[-1] > 1 + 1e-15:
                raise ValueError("CDF values must lie in [0, 1]")
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "Fs", fs)
        if self.moments is not None:
            object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
        if self.xs is None and self.moments is None:
            raise ValueError("reference measure needs a CDF grid or moments")

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.searchsorted(self.xs, x, side="right")
        out = np.where(pos > 0, self.Fs[np.minimum(pos, self.xs.size) - 1], 0.0)
        return out

    def to_json(self) -> str:
        payload = {}
        if self.xs is not None:
            payload["cdf_grid"] = {"x": self.xs.tolist(), "F": self.Fs.tolist()}
        if self.moments is not None:
            payload["moments"] = list(self.moments)
        return json.dumps(payload)


def empirical_measure(op: OperatorSpec, proj, herm_tol: float = 1e-10) -> EmpiricalMeasure:
    """mu_T^n from the eigenvalues of the compression; errors on non-Hermitian input."""
    return EmpiricalMeasure(compression_eigenvalues(op, proj, herm_tol=herm_tol), proj.rank)


def counting(meas: EmpiricalMeasure, interval):
    """Eigenvalue count (multiplicities counted) on [a, b), and its fraction."""
    a, b = interval
    if b < a:
        raise ValueError("interval must satisfy a <= b")
    lo = np.searchsorted(meas.atoms, a, side="left")
    hi = np.searchsorted(meas.atoms, b, side="left")
    count = int(hi - lo)
    return count, count / meas.dim


def integrate(meas, f: TestFunction) -> float:
    """Integral of a declared test function against a measure.

    Empirical: plain atom average.  Reference with a CDF grid:
    Riemann-Stieltjes sum over the grid.  Moments-only references support
    polynomial f up to the stored moment order.
    """
    if not isinstance(f, TestFunction):
        raise ValueError("integrand must come from the test-function family")
    if isinstance(meas, EmpiricalMeasure):
        return float(np.mean(f(meas.atoms)))
    if isinstance(meas, ReferenceMeasure):
        if meas.xs is not None:
            w = np.diff(meas.Fs, prepend=0.0)
            return float(np.sum(f(meas.xs) * w))
        if f.kind != "poly":
            raise ValueError("moments-only reference measures integrate polynomials only")
        coeffs = f.params
        if len(coeffs) > len(meas.moments):
            raise ValueError(
                f"need moments up to order {len(coeffs) - 1}, have {len(meas.moments) - 1}"
            )
        return float(sum(c * m for c, m in zip(coeffs, meas.moments)))
    raise TypeError(f"not a measure: {meas!r}")


def reference_pushforward(symbol: Toeplitz, grid_size: int = 1 << 16) -> ReferenceMeasure:
    """Pushforward of normalized Haar measure on the circle under the symbol.

    F(x) is the fraction of uniformly sampled angles with g(theta) <= x,
    computed by sampling and sorting.
    """
    theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
    vals = symbol.symbol_values(theta)
    if np.max(np.abs(vals.imag)) > 1e-10:
        raise ComplexSymbolError("pushforward requires a real-valued symbol")
    xs = np.sort(vals.real)
    fs = np.arange(1, grid_size + 1, dtype=float) / grid_size
    return ReferenceMeasure(xs=xs, Fs=fs)


def kolmogorov_distance(a, b) -> float:
    """sup |F_a - F_b| over the real line.

    Both CDFs are right-continuous steps that jump only on the merged grid, so
    the sup is attained there (a left limit is the previous grid value, or 0).
    """
    grids = []
    for m in (a, b):
        if isinstance(m, EmpiricalMeasure):
            grids.append(m.atoms)
        elif isinstance(m, ReferenceMeasure):
            if m.xs is None:
                raise ValueError("Kolmogorov distance needs CDF data, not bare moments")
            grids.append(m.xs)
        else:
            raise TypeError(f"not a measure: {m!r}")
    xs = np.unique(np.concatenate(grids))
    return float(np.max(np.abs(a.cdf(xs) - b.cdf(xs))))
