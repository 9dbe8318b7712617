"""Eigenvalues and moments of Hermitian compressions, empirical spectral
measures, reference measures, and distances between them.  A compression
is read once, in checked diagonal storage (`_hermitian_compression`), and
then raised to powers or solved: folded into real halves, or one real
matrix, where it is persymmetric (`_fold`), and as tridiagonal or dense
matrices."""
from __future__ import annotations

import functools
import math
import os
import sys

import numpy as np

from ._util import ResidualError, SpecError, check_footprint
from .operators import (
    _SYMBOL_CHUNK,
    OperatorSpec,
    Toeplitz,
    _adjoint,
    _check_lattice,
    _positions,
    _scatter,
    _times,
    exact_entries,
)

# Windows of at least this order whose compression is tridiagonal, real or
# complex, are solved for eigenvalues only, as two tridiagonal halves where
# the compression is persymmetric: in closed form where it is a section of
# a bandwidth-1 Toeplitz operator (`_cosine_halves`), which loads no LAPACK,
# and otherwise by LAPACK sterf from scipy's compiled wrapper, which the
# first sterf solve of a process loads alone (`_flapack`, 3.5-5.3 ms and
# 2.4 MB of peak RSS after numpy, in fresh processes), without scipy's
# start-up or the scipy.linalg package (0.33 s and 29 MB).  Hopping's
# halves at d = 2049 take 0.1 ms in closed form against 34 ms by sterf, and
# 18 ms against 47 ms with the Sturm certificate, which then dominates
# (fastest of seven, one BLAS thread, 2 shared vCPUs).  At d = 1025,
# certified, in a fresh process, the load and the sterf solve take
# 0.03-0.06 s, a dense eigh with the residual check 0.21-0.30 s unfolded
# and 0.08-0.11 s as two folded halves (hopping and a ramp on it), so the
# tridiagonal path pays below this order too; moving the threshold changes
# which solver's eigenvalues, and so which ties, the goldens see.
TRIDIAGONAL_MIN_DIM = 1000

# Bytes of each temporary of the blocked residual check from storage, about
# a quarter of a core's L2 cache, and the number of such temporaries alive
# at once: the unfolded vectors, their residuals, one diagonal's product
# and the squared moduli.
_RESIDUAL_BLOCK_BYTES = 1 << 18
_RESIDUAL_BLOCKS = 4

# Bytes a position of a tridiagonal solve (see `check_solve_footprint`):
# tracemalloc put the peak of a certified solve at 97-235 bytes a position
# on bandwidth-1 Toeplitz, Band, Poly and almost-Mathieu windows.
_TRIDIAGONAL_BYTES = 256

_ROOT2, _ROOT_HALF = math.sqrt(2.0), math.sqrt(0.5)
_TINY = np.finfo(float).tiny


class NonHermitianError(SpecError):
    """Matrix deviates from Hermiticity beyond the allowed tolerance."""


class ComplexSymbolError(SpecError):
    """Pushforward reference measures need a real-valued symbol."""


def _check_hermitian(dev: float, scale: float, herm_tol: float):
    if dev > herm_tol * scale:
        raise NonHermitianError(f"Hermiticity defect {dev:.3e} exceeds tolerance")


def _check_residual(resid: float, scale: float, d: int):
    bound = 1e-9 * scale * math.sqrt(d)
    if not resid <= bound:  # a NaN residual fails too
        raise ResidualError(f"residual {resid:.3e} breaches contract {bound:.3e}")


def _hermitian_part(op: OperatorSpec, proj):
    """(H, scale, defect) for the compression M of op to the range of proj,
    held in diagonal storage by position (see `_positions`), in float64 when
    every entry is exactly real: H = (M + M^dagger)/2, scale = max(1, max
    |entry of M|) and defect = max |M - M^dagger|, each bit for bit as on
    the dense matrix M."""
    _check_lattice(op, proj)
    idx = proj.index_array()
    diags = _positions(exact_entries(op, proj.runs), idx)
    if not any(v.imag.any() for v in diags.values()):
        diags = {j: v.real for j, v in diags.items()}
    scale = max([1.0, *(float(np.max(np.abs(v))) for v in diags.values())])
    adj = _adjoint(diags)
    keys = sorted(set(diags) | set(adj))
    # |M[p, q] - conj(M[q, p])| is symmetric in (p, q): offsets j >= 0 see it all
    dev = max([0.0, *(float(np.max(np.abs(diags.get(j, 0.0) - adj.get(j, 0.0))))
                      for j in keys if j >= 0)])
    return {j: 0.5 * (diags.get(j, 0.0) + adj.get(j, 0.0)) for j in keys}, scale, dev


def _hermitian_compression(op: OperatorSpec, proj, herm_tol: float):
    """(H, scale) of `_hermitian_part`, after the Hermiticity check:
    NonHermitianError where defect > herm_tol * scale."""
    h, scale, dev = _hermitian_part(op, proj)
    _check_hermitian(dev, scale, herm_tol)
    return h, scale


def _eigh(m: np.ndarray, vectors: bool):
    """(eigenvalues, eigenvectors or None) of the dense Hermitian matrix m."""
    return np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper, scipy.linalg._flapack, without the
    scipy.linalg package around it (0.33 s and 29 MB after numpy) and
    without scipy's own start-up (`import scipy`, 14 ms and 1.3 MB): the
    module already in sys.modules is reused, or scipy's directory is found
    by importlib.util.find_spec, which runs no scipy/__init__, and the
    extension file under its linalg/ is loaded on its own (3.5-5.3 ms and
    2.4 MB of peak RSS in fresh processes), and kept by this function.  On
    Windows scipy is imported first, since its start-up adds the directory
    of the wrapper's DLLs.  ModuleNotFoundError, naming scipy, where scipy
    is not installed.
    Loading a single-phase extension module like this one registers it in
    sys.modules, and the import system binds a package's attribute only to
    a submodule it loads itself, so a wrapper loaded here is taken back out:
    a later `import scipy.linalg` then loads it again, binds `_flapack` and
    finds the same functions, which the interpreter keeps once per process.
    Only `_sterf` calls this, for tridiagonal windows that are not
    Toeplitz sections; a process whose tridiagonal windows are all solved
    in closed form (`_cosine_halves`) never loads the wrapper."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        import importlib.machinery
        import importlib.util

        if os.name == "nt":
            import scipy

            root = scipy.__path__[0]
        else:
            found = importlib.util.find_spec("scipy")
            if found is None:
                raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
            root = found.submodule_search_locations[0]
        where = f"{root}/linalg"
        spec = importlib.machinery.FileFinder(
            where, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            raise ModuleNotFoundError(f"no {name} extension under {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules.pop(name, None)
    return module


def _sterf(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric tridiagonal matrix of
    order at least 2 (the wrapper refuses order 1) with diagonal a and
    off-diagonal e: LAPACK dsterf on copies of a and e, no eigenvectors, bit
    for bit as scipy.linalg.eigvalsh_tridiagonal(a, e, lapack_driver="sterf").
    LinAlgError for a non-finite entry, which sterf need not survive, or
    where sterf fails (info != 0)."""
    if not (np.isfinite(a).all() and np.isfinite(e).all()):
        raise np.linalg.LinAlgError("non-finite entry in a tridiagonal matrix for sterf")
    vals, info = _flapack().dsterf(a, e)
    if info:
        raise np.linalg.LinAlgError(f"sterf did not converge (LAPACK info={info})")
    return vals


def _stored(j: int, d: int) -> slice:
    """The positions p of diagonal j of a storage of order d with p + j in
    [0, d): the entries of the matrix that diagonal holds."""
    lo = max(0, -j)
    return slice(lo, max(lo, d - max(0, j)))


def _palindromic(h: dict, d: int) -> bool:
    """Whether every diagonal of the storage h of a Hermitian H of order d
    reads the same backwards, exactly: then J H J = H^T = conj(H) for the
    exchange matrix J, and H is persymmetric."""
    return all(np.array_equal(w, w[::-1]) for w in (v[_stored(j, d)] for j, v in h.items()))


def _fold(h: dict, d: int) -> list:
    """(part, real symmetric matrix) of each solve of the persymmetric H of
    storage h and order d = 2m + r.  On the orthonormal basis of symmetric
    vectors (e_i + e_(d-1-i))/sqrt(2) for i < m, then e_m when d is odd,
    then antisymmetric vectors (e_i - e_(d-1-i))/sqrt(2), H is
    [[S, iK], [-iK^T, T]] with S, T and K real, of orders m + r, m and
    (m + r) x m.  With H = R + iI, J R J = R and J I J = -I, so that
    S = B + C and T = B - C on the leading blocks of R, K = B - C on those
    of I, for B = H[i, k] and C = H[i, d - 1 - k], i, k < m; only the
    couplings of e_m to the others carry a factor sqrt(2), and an exact
    spectrum stays exact.  Real H gives the halves S ("sym") and T
    ("anti"), complex H the one matrix [[S, K], [K^T, T]] = D* [[S, iK],
    [-iK^T, T]] D of order d for D = diag(1, -i) ("complex").  That
    matrix is formed in place, with no other array of its size: B and C
    are scattered into the blocks of S, K, T and K^T, and S = B + C waits
    in K^T's block until T = B - C has read B."""
    m, top = d // 2, d - d // 2
    if any(np.iscomplexobj(v) for v in h.values()):
        f = np.zeros((d, d))
        s, k, kt, t = f[:top, :top], f[:top, top:], f[top:, :top], f[top:, top:]
        for j, v in h.items():
            p = np.arange(top)[_stored(j, top)]  # H[p, p + j] in B
            s[p, p + j] = v.real[p]
            p = p[p + j < m]
            k[p, p + j] = v.imag[p]
            # H[i, i + j] lands on C[i, d - 1 - i - j], held in T's and K^T's blocks
            rows = np.arange(max(0, top - j), min(m, d - j))
            t[rows, d - 1 - j - rows] = v.real[rows]
            kt[rows, d - 1 - j - rows] = v.imag[rows]
        k[:m] -= kt[:, :m]
        np.add(s[:m, :m], t, out=kt[:, :m])
        np.subtract(s[:m, :m], t, out=t)
        s[:m, :m] = kt[:, :m]
        if d % 2:
            s[m, :m] *= _ROOT2
            s[:m, m] *= _ROOT2
            k[m] *= _ROOT2
        kt[...] = k.T
        return [("complex", f)]
    s = _scatter({j: v[:top] for j, v in h.items()}, top)  # B = H[:top, :top]
    c = np.zeros((m, m))
    for j, v in h.items():  # H[i, i + j] lands on C[i, d - 1 - i - j]
        rows = np.arange(max(0, top - j), min(m, d - j))
        c[rows, d - 1 - j - rows] = v[rows]
    t = s[:m, :m] - c
    s[:m, :m] += c  # S is formed in B
    if d % 2:
        s[m, :m] *= _ROOT2
        s[:m, m] *= _ROOT2
    return [("sym", s), ("anti", t)] if m else [("sym", s)]


def _tridiagonal_halves(a: np.ndarray, e: np.ndarray) -> list:
    """(diagonal, off-diagonal) of S and T (see `_fold`) for the real
    persymmetric tridiagonal H of diagonal a and off-diagonal e."""
    d = a.size
    m, top = d // 2, d - d // 2
    sa, ta, se = a[:top].copy(), a[:m].copy(), e[:top - 1].copy()
    if d % 2:
        se[m - 1] *= _ROOT2
    else:
        sa[m - 1] += e[m - 1]
        ta[m - 1] -= e[m - 1]
    return [(sa, se), (ta, e[:m - 1])]


def _cosine_halves(a: float, e: float, d: int) -> list:
    """Ascending eigenvalues of the halves S and T (see `_tridiagonal_halves`)
    of the real tridiagonal Toeplitz matrix of order d >= 2 with diagonal a
    and off-diagonal e >= 0, in closed form: a + 2 e cos(k pi / (d + 1)),
    k = 1..d, of eigenvector sin(j k pi / (d + 1)), j = 1..d, symmetric for
    odd k, which are S's, and antisymmetric for even k, which are T's
    (Boettcher & Silbermann, Introduction to Large Truncated Toeplitz
    Matrices, 1999)."""
    return [np.sort(a + 2.0 * e * np.cos(np.pi * np.arange(k, d + 1, 2) / (d + 1)))
            for k in (1, 2)]


def _unfold(w: np.ndarray, d: int, part: str, out: np.ndarray) -> np.ndarray:
    """Columns w of the coordinates of one solve (see `_fold`) as vectors
    of order d, written into out: the solve of all of H ("whole"), of S or
    T ("sym", "anti"), or of complex H, whose coordinates (x, y) are
    x + (-i)y on the basis of `_fold`."""
    if part == "whole":
        out[...] = w
        return out
    m, top = d // 2, d - d // 2
    lead, tail = out[:m], out[top:]
    if part == "complex":  # tail is conj(lead) backwards
        np.multiply(w[:m], _ROOT_HALF, out=lead.real)
        np.multiply(w[top:], -_ROOT_HALF, out=lead.imag)
        np.conjugate(lead[::-1], out=tail)
    else:  # tail is +-lead backwards
        np.multiply(w[:m], _ROOT_HALF, out=lead)
        np.multiply(lead[::-1], 1.0 if part == "sym" else -1.0, out=tail)
    if d % 2:
        out[m] = 0.0 if part == "anti" else w[m]
    return out


def _residual_columns(d: int, pairs: int) -> int:
    """Columns of one block of the residual of `pairs` eigenpairs of order d:
    as many as _RESIDUAL_BLOCK_BYTES of complex entries hold, at least one."""
    return max(1, min(pairs, _RESIDUAL_BLOCK_BYTES // (16 * d)))


def _check_storage_residual(h: dict, d: int, scale: float, vals, vecs, part: str):
    """ResidualError unless ||H v - lam v|| <= 1e-9 * scale * sqrt(d) for
    every eigenpair of one solve, H v formed from the storage h of order d
    in column blocks (`_residual_columns`), each block of vectors unfolded
    (`_unfold`) alone, into _RESIDUAL_BLOCKS buffers that every block and
    diagonal reuses."""
    step = _residual_columns(d, vals.size)
    dtype = np.result_type(vecs, *h.values())
    v, r, prod = (np.empty((d, step), dtype) for _ in range(3))
    sq = np.empty((d, step))
    worst = []
    for j0 in range(0, vals.size, step):
        n = min(step, vals.size - j0)
        vb, rb, pb, sb = v[:, :n], r[:, :n], prod[:, :n], sq[:, :n]
        _unfold(vecs[:, j0:j0 + n], d, part, out=vb)
        np.multiply(vb, -vals[None, j0:j0 + n], out=rb)
        for j, hj in h.items():
            at = _stored(j, d)
            np.multiply(hj[at, None], vb[at.start + j:at.stop + j], out=pb[at])
            rb[at] += pb[at]
        if np.iscomplexobj(rb):  # |r|^2 = Re(conj(r) r), as np.linalg.norm forms it
            np.multiply(rb.real, rb.real, out=sb)
            sb += np.multiply(rb.imag, rb.imag, out=pb.real)
        else:
            np.multiply(rb, rb, out=sb)
        worst.append(np.add.reduce(sb, axis=0).max())
    _check_residual(math.sqrt(np.max(worst, initial=0.0)), scale, d)


def _sturm_counts(a: np.ndarray, e2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{eigenvalues of T below x} for each shift of x, T the real symmetric
    tridiagonal matrix with diagonal a and squared off-diagonal e2, by
    Sylvester's inertia: the negative pivots of the LDL^T factorisation
    q_i = a_i - x - e2_(i-1) / q_(i-1) of T - x.  One pass over the rows,
    each vectorised over the shifts in five ufunc calls.

    LAPACK's bisection replaces a pivot of modulus below pivmin by one of
    modulus pivmin, so that every quotient is finite.  Here IEEE arithmetic
    carries a zero or tiny pivot instead, as LAPACK's dlaneg does (Demmel &
    Li, IEEE Trans. Comput. 43, 1994; Marques, Riedy & Voemel, SIAM J. Sci.
    Comput. 28, 2006).  A zero pivot is +0, never -0 (a + 0.0 holds no -0,
    and a difference is -0 only as -0 - +0), so it is not counted, and
    e2_i / +0 = +inf makes the next pivot -inf, which is: the pair counts
    one negative pivot, as with +pivmin in its place, wherever e2_i / pivmin
    exceeds |a_(i+1) - x|, and the pivot after the pair differs from the
    substitution's by about e2_(i+1) pivmin / e2_i, below an ulp of
    a_(i+2) - x unless that is itself near pivmin.  Only where the
    factorisation decouples, at the last row and at a row whose e2_i is
    zero, does no next pivot carry the sign; there a pivot below pivmin in
    modulus is still replaced by +pivmin, which also keeps 0 / 0 from
    arising, and an eigenvalue equal to a shift is not counted below it.
    So the counts are those of the substitution (the reference
    tests/dense_oracle.py::sturm_counts) wherever the operands keep clear
    of the underflow threshold.  Near it, at a shift within a few pivmin of
    a run of diagonal entries or with e2 subnormal, the two may differ by
    eigenvalues within a few pivmin, or an ulp of T's scale, of the shift:
    far inside the tolerance of `_check_sturm`, whose scaling keeps T's
    entries near 1."""
    pivmin = _TINY * max(1.0, float(e2.max(initial=0.0)))
    q, t = np.ones_like(x), np.empty_like(x)
    neg = np.empty(x.shape, dtype=bool)
    count = np.zeros(x.shape, dtype=np.intp)
    ends = (np.append(e2, 0.0) == 0.0).tolist()  # the rows where the factorisation decouples
    with np.errstate(divide="ignore", over="ignore"):
        for ai, ei, end in zip((a + 0.0).tolist(), [0.0, *e2.tolist()], ends):
            np.divide(ei, q, out=t)
            np.subtract(ai, x, out=q)
            q -= t
            if end:
                np.copyto(q, pivmin, where=np.abs(q) < pivmin)
            count += np.less(q, 0.0, out=neg)
    return count


def _check_sturm(solves: list, scale: float, d: int):
    """ResidualError unless each solve ((a, e), vals) of a window of order
    d has its ascending vals, index by index, within tol = 1e-9 * scale *
    sqrt(d) of the eigenvalues mu of the tridiagonal T of diagonal a and
    off-diagonal e: #{mu < vals_i - tol} <= i and #{mu < vals_i + tol} >=
    i + 1 for every i, which is mu_i in [vals_i - tol, vals_i + tol).

    The counts run on T scaled by a power of two near 1 / scale, which is
    exact and keeps e2 and every shift far from overflow.  A count in
    floating point is the exact count of a matrix within a few ulps of T:
    each pivot carries three roundings, which are moved onto e2_(i-1) as a
    relative change of a few eps, with the sign of every pivot unchanged
    (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995), and a zero or tiny
    pivot moves a diagonal entry by a few pivmin at most (`_sturm_counts`).
    By Weyl's inequality that matrix's eigenvalues lie within about
    6 eps * scale, 1.3e-15 * scale, of mu, under a millionth of tol.  A NaN
    eigenvalue gives NaN pivots, which count as no eigenvalue below it, and
    fails.

    The two halves of a persymmetric window (`_tridiagonal_halves`) are
    certified each on its own, at the window's tol.  They differ from the
    halves of the exact similarity of the gauge by one rounding in two
    entries, of at most 2 scale each, which moves their eigenvalues by a
    few eps * scale (Weyl's inequality again).  And sorting moves no list
    farther from another, index by index, than the two lists are apart, so
    the merge of two sorted lists, each within tol of its half's spectrum
    index by index, is within tol of the window's spectrum index by index.
    A failure names the index of the eigenvalue in the window's sorted
    list, and the counts on its half."""
    tol = 1e-9 * scale * math.sqrt(d)
    s = math.ldexp(1.0, -math.frexp(scale)[1])
    start = 0
    for (a, e), vals in solves:
        n = a.size
        counts = _sturm_counts(a * s, np.square(e * s),
                               np.concatenate([vals - tol, vals + tol]) * s)
        i = np.arange(n)
        bad = np.flatnonzero((counts[:n] > i) | (counts[n:] <= i))
        if bad.size:
            i = int(bad[0])
            where, k = "", i
            if len(solves) > 1:
                # the index in the window's sorted list, ties in half order
                order = np.argsort(np.concatenate([v for _, v in solves]), kind="stable")
                where = f" on its half, of order {n},"
                k = int(np.flatnonzero(order == start + i)[0])
            raise ResidualError(
                f"eigenvalue {k} of {d}, {vals[i]:.6g}, breaches contract {tol:.3e}: Sturm "
                f"counts{where} {counts[i]} below it - tol and {counts[n + i]} below it + tol, "
                f"want <= {i} and >= {i + 1}")
        start += n


def check_solve_footprint(d: int, tridiagonal: bool, check_residual: bool, fold=None):
    """ConfigError, before anything is allocated, when the arrays of the
    solve of a window of dimension d = 2m + r exceed physical memory.
    A tridiagonal solve counts _TRIDIAGONAL_BYTES a position: H's three
    stored diagonals, its gauge, the halves and their eigenvalues and, with
    check_residual, the certificate's shifts, pivots and counts
    (`_check_sturm`).  A dense solve counts its largest arrays alive at
    once.  Unfolded, complex d x d arrays: the matrix, LAPACK's working
    copy and, with check_residual, the eigenvectors.  fold="halves" (real
    persymmetric H, see `_fold`), four float64 arrays of order m + r: the
    blocks B and C and the half T while folding, S formed in B, or S, T
    and LAPACK's working copy while solving, and H's storage; with
    check_residual five: S, T, LAPACK's working copy and both halves'
    eigenvectors.  fold="complex", float64 arrays of order d: the folded
    matrix, formed in place, LAPACK's working copy and, with
    check_residual, the eigenvectors.  With check_residual a dense solve
    computes eigenvectors, by LAPACK syevd or heevd, whose workspace of
    about 2 n^2 entries for a solve of order n (n^2 complex and 2 n^2 real
    ones for heevd) is allocated outside tracemalloc's view: two more
    arrays of the solve's order and type, one half at a time.  It also
    counts _RESIDUAL_BLOCKS temporaries of one block of the residual from
    storage (`_check_storage_residual`), complex, of d rows and
    _RESIDUAL_BLOCK_BYTES // (16 d) columns, at least one and at most d."""
    if tridiagonal:
        check_footprint(_TRIDIAGONAL_BYTES * d, f"the eigensolve of a window of dimension {d}")
        return
    if fold == "halves":
        order, size, arrays = d - d // 2, 8, (7 if check_residual else 4)
    else:
        order, size, arrays = d, (8 if fold == "complex" else 16), (5 if check_residual else 2)
    need = size * order * order * arrays
    if check_residual:
        need += _RESIDUAL_BLOCKS * 16 * d * _residual_columns(d, d)
    check_footprint(need, f"the eigensolve of a window of dimension {d}")


def _tridiagonal_eigenvalues(h: dict, d: int, scale: float, check_residual: bool):
    """Ascending eigenvalues of the Hermitian tridiagonal H of storage h and
    order d, from the real T = D* H D of diagonal a = Re h_0 and
    off-diagonal |h_1| for a diagonal unitary D, which is never formed.
    Where every entry of a is the same finite number, exactly, and so is
    every entry of |h_1| (a section of a bandwidth-1 Toeplitz operator),
    T is persymmetric and its two halves (`_tridiagonal_halves`) are
    solved in closed form (`_cosine_halves`); otherwise sterf runs on T,
    or on its two halves where a and |h_1| are palindromes.  With
    check_residual, each solve is certified by Sturm counts on the matrix
    it solved (`_check_sturm`), the closed form's halves as sterf's."""
    check_solve_footprint(d, tridiagonal=True, check_residual=check_residual)
    zero = np.zeros(d)
    a, e = h.get(0, zero).real, np.abs(h.get(1, zero)[:-1])
    if all(np.isfinite(v[0]) and (v == v[0]).all() for v in (a, e)):
        halves = _tridiagonal_halves(a, e)
        solves = list(zip(halves, _cosine_halves(float(a[0]), float(e[0]), d)))
    else:
        parts = _tridiagonal_halves(a, e) if _palindromic({0: a, 1: e}, d) else [(a, e)]
        solves = [(ae, _sterf(*ae)) for ae in parts]
    if check_residual:
        _check_sturm(solves, scale, d)
    vals = [v for _, v in solves]
    return vals[0] if len(vals) == 1 else np.sort(np.concatenate(vals))


def compression_eigenvalues(op: OperatorSpec, proj, herm_tol: float = 1e-10,
                            check_residual: bool = False) -> np.ndarray:
    """Ascending eigenvalues of H = (M + M^dagger)/2 for M the compression
    of op to the range of proj.  NonHermitianError where max |M - M^dagger|
    exceeds herm_tol * max(1, max |entry of M|).  With check_residual,
    each eigenvalue lam_i is held to tol = 1e-9 * that scale * sqrt(d), and
    ResidualError raised where it is not: a dense solve checks every
    eigenpair against ||H v - lam v|| <= tol, a tridiagonal one every
    index, |lam_i - mu_i| <= tol for the i-th eigenvalue mu_i of H, by
    Sturm counts, which a duplicated or a missing eigenvalue fails too.

    The compression is built and checked once, in diagonal storage by
    position (`_hermitian_compression`).  A window of order at least
    TRIDIAGONAL_MIN_DIM whose H is tridiagonal, real or complex, is
    solved for eigenvalues only (`_tridiagonal_eigenvalues`) from the real
    T of diagonal Re h_0 and off-diagonal |h_1|, which is unitarily
    similar to H: in closed form, a + 2e cos(k pi / (d + 1)), where T has
    one diagonal entry a and one off-diagonal entry e, else by LAPACK
    sterf; as two halves where T is persymmetric, and certified by Sturm
    counts on T or on each half, in O(d) memory.
    Otherwise, where every stored diagonal of H is a palindrome, H is
    persymmetric and is folded (`_fold`): real H splits into two real
    halves of orders ceil(d/2) and floor(d/2), complex H becomes one real
    symmetric matrix of order d, each solved densely in real arithmetic;
    every other H is scattered into one dense matrix.  The residuals of a
    dense solve are formed from the storage of H itself, in column blocks.
    A solve too large for physical memory raises ConfigError before its
    arrays are allocated.
    """
    h, scale = _hermitian_compression(op, proj, herm_tol)
    d = proj.rank
    if d >= TRIDIAGONAL_MIN_DIM and set(h) <= {-1, 0, 1}:
        return _tridiagonal_eigenvalues(h, d, scale, check_residual)
    real = not any(np.iscomplexobj(v) for v in h.values())
    fold = ("halves" if real else "complex") if _palindromic(h, d) else None
    check_solve_footprint(d, tridiagonal=False, check_residual=check_residual, fold=fold)
    solves = [(part, _eigh(m, check_residual))
              for part, m in (_fold(h, d) if fold else [("whole", _scatter(h, d))])]
    if check_residual:
        for part, (vals, vecs) in solves:
            _check_storage_residual(h, d, scale, vals, vecs, part)
    vals = [ev for _, (ev, _) in solves]
    return vals[0] if len(vals) == 1 else np.sort(np.concatenate(vals))


def power_traces(h, order: int, times, inner, trace) -> list:
    """tr(h^1) .. tr(h^order) of a self-adjoint h from half powers:
    tr(h^2j) = <h^j, h^j> and tr(h^(2j+1)) = <h^j, h^(j+1)> for `inner`
    <x, y> = tr(x* y), each power up to h^ceil(order/2) one `times`."""
    traces, low, high = [trace(h)], None, h  # h^j and h^(j + 1), from j = 0
    for k in range(2, order + 1):
        if k % 2:
            low, high = high, times(high, h)
        traces.append(inner(low, high) if k % 2 else inner(high, high))
    return traces[:order]


def compression_moments(op: OperatorSpec, proj, order: int,
                        herm_tol: float = 1e-10) -> np.ndarray:
    """tr(H^k) / rank for k = 0..order, H = (M + M^dagger)/2 for M the
    compression of op to the range of proj, with no eigensolve.

    H comes from `_hermitian_compression`: NonHermitianError where
    max |M - M^dagger| exceeds herm_tol * max(1, max |entry of M|).  The
    moments come from `power_traces` under the Frobenius inner product,
    each further power one `_times`, so the cost is O(d * order^2 * bw^2)
    for index bandwidth bw.  The storage is checked against physical memory
    before it is built.
    """
    d = proj.rank
    width = min(max((abs(k) for k in op.offsets), default=0), d - 1)
    # every power up to H^ceil(order/2) of 2 width + 1 diagonals at once,
    # and the three temporaries of one product
    half = max(1, (order + 1) // 2)
    check_footprint(16 * d * ((2 * half + 1) * (2 * width + 1) + 3),
                    f"the moment storage of a window of dimension {d}")
    h, _ = _hermitian_compression(op, proj, herm_tol)
    traces = power_traces(h, order, _times,
                          lambda x, y: sum(np.vdot(v, y[j]) for j, v in x.items() if j in y),
                          lambda x: np.sum(x[0]) if 0 in x else 0.0)
    return np.array([1.0] + [float(np.real(tr)) / d for tr in traces])


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

    def __call__(self, x, out=None):
        """f at the points of x, written into out (float64, of x's shape;
        a new array by default, a numpy float for a scalar x).  A polynomial is polyval's Horner scheme,
        c_K + x * 0 then c_k + y * x, in place; a hat is min(up, down), its
        rising and falling ramps clipped to [0, 1], up written into out and
        down formed a chunk of points at a time."""
        x = np.asarray(x, dtype=float)
        res = np.empty(x.shape) if out is None else out
        if self.kind == "poly":
            c = self.params
            np.multiply(x, 0.0, out=res)
            np.add(c[-1], res, out=res)
            for ck in c[-2::-1]:
                np.multiply(res, x, out=res)
                np.add(ck, res, out=res)
        else:
            left, center, right = self.params
            if center > left:
                np.subtract(x, left, out=res)
                np.divide(res, center - left, out=res)
                np.clip(res, 0.0, 1.0, out=res)
            else:
                np.greater_equal(x, center, out=res)
            flat, vals = x.reshape(-1), res.reshape(-1)
            step = max(1, min(flat.size, _SYMBOL_CHUNK))
            scratch = np.empty(step)
            for lo in range(0, flat.size, step):
                at, up = flat[lo:lo + step], vals[lo:lo + step]
                down = scratch[:at.size]
                if right > center:
                    np.subtract(right, at, out=down)
                    np.divide(down, right - center, out=down)
                    np.clip(down, 0.0, 1.0, out=down)
                else:
                    np.less_equal(at, center, out=down)
                np.minimum(up, down, out=up)
        # a scalar x gives a numpy float, as polyval and np.minimum do
        return res[()] if out is None and x.ndim == 0 else res

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


class EmpiricalMeasure:
    """Finitely supported probability measure: eigenvalue atoms, weight 1/d
    each.  A NaN or an infinite atom is a ValueError."""

    __slots__ = ("atoms", "dim")

    def __init__(self, atoms, dim: int):
        a = np.sort(np.asarray(atoms, dtype=float))
        if a.size != dim or dim < 1:
            raise ValueError("atom count must equal the compression dimension")
        if not (math.isfinite(a[0]) and math.isfinite(a[-1])):  # NaN sorts last
            raise ValueError("atoms must be finite")
        self.atoms, self.dim = a, dim

    def cdf(self, x) -> np.ndarray:
        return _sample_cdf(self.atoms, x)


class ReferenceMeasure:
    """Limit spectral measure, as N sorted samples of mass 1/N each and/or a
    moment list.  Unsorted samples, and a NaN or an infinite one, are a
    ValueError."""

    __slots__ = ("xs", "moments")

    def __init__(self, xs=None, *, moments=None):
        self.xs, self.moments = None, None
        if xs is not None:
            xs = np.asarray(xs, dtype=float)
            if xs.ndim != 1 or xs.size == 0:
                raise ValueError("samples must be a nonempty 1-d array")
            # a NaN compares false with its neighbours, and sorted finite
            # ends bound every other sample
            if not (np.all(xs[1:] >= xs[:-1]) and math.isfinite(xs[0])
                    and math.isfinite(xs[-1])):
                raise ValueError("samples must be sorted and finite")
            self.xs = xs
        if moments is not None:
            self.moments = tuple(float(m) for m in moments)
        if xs is None and moments is None:
            raise ValueError("reference measure needs samples or moments")

    def cdf(self, x) -> np.ndarray:
        return _sample_cdf(_grid(self), x)


def _sample_cdf(samples: np.ndarray, x) -> np.ndarray:
    """The CDF at x of the measure of mass 1/N at each of N sorted samples."""
    return np.searchsorted(samples, np.asarray(x, dtype=float), side="right") / samples.size


def empirical_measure(op: OperatorSpec, proj, herm_tol: float = 1e-10) -> EmpiricalMeasure:
    """mu_T^n from the eigenvalues of the compression; errors on non-Hermitian input."""
    return EmpiricalMeasure(compression_eigenvalues(op, proj, herm_tol=herm_tol), proj.rank)


def integrate(meas, f: TestFunction) -> float:
    """Integral of a declared test function against a measure.

    Against N sorted samples of mass 1/N each, the atoms of an empirical
    measure or the nodes of a reference, it is the mean of f over the
    samples: f is written into one zero buffer of a value a sample, a hat
    only on the samples of its support [left, right], and the buffer is
    averaged, bit for bit np.mean of f at every sample.  Moments-only
    references support polynomial f up to the stored moment order.
    """
    if not isinstance(f, TestFunction):
        raise ValueError("integrand must come from the test-function family")
    if isinstance(meas, ReferenceMeasure) and meas.xs is None:
        if f.kind != "poly":
            raise ValueError("moments-only reference measures integrate polynomials only")
        coeffs = f.params
        if len(coeffs) > len(meas.moments):
            raise ValueError(
                f"need moments up to order {len(coeffs) - 1}, have {len(meas.moments) - 1}"
            )
        return float(sum(c * m for c, m in zip(coeffs, meas.moments)))
    xs = _grid(meas)
    lo, hi = 0, xs.size
    if f.kind == "hat":
        lo, hi = np.searchsorted(xs, f.params[0]), np.searchsorted(xs, f.params[2], "right")
    vals = np.zeros(xs.size)
    f(xs[lo:hi], out=vals[lo:hi])
    return float(np.mean(vals))


def check_pushforward_footprint(symbol: Toeplitz, grid_size: int):
    """ConfigError, before anything is allocated, when the pushforward
    reference of symbol on grid_size nodes (`reference_pushforward`) and
    its integrals exceed physical memory."""
    # 16 bytes a node: the sorted values, kept, and one integrand buffer of
    # as many values (`integrate`); sorting and checking the order of the
    # values peaks at 9.  A chunk of nodes adds bandwidth + 5 complex
    # temporaries: its angles, the moduli of its imaginary parts, and the
    # values, term, exponentials and cast angles of `Toeplitz.symbol_values`,
    # whose peak tracemalloc put at bandwidth + 4.5 (bandwidths 1, 2 and 6)
    chunk = min(grid_size, _SYMBOL_CHUNK)
    check_footprint(16 * grid_size + 16 * (symbol.bandwidth + 5) * chunk,
                    f"the pushforward reference of {grid_size} nodes")


def reference_pushforward(symbol: Toeplitz, grid_size: int = 1 << 16) -> ReferenceMeasure:
    """Pushforward of normalized Haar measure on the circle under the symbol.

    F(x) is the fraction of the grid_size uniformly sampled angles with
    g(theta) <= x, computed by sampling and sorting: the symbol is
    evaluated a chunk of angles at a time, each chunk's imaginary part
    checked against 1e-10 * max(1, sum |a_k|) (ComplexSymbolError beyond
    it), and the real parts are sorted in place in the one array of
    grid_size values that the measure keeps.  The memory guard
    (`check_pushforward_footprint`) runs first.
    """
    check_pushforward_footprint(symbol, grid_size)
    chunk = min(grid_size, _SYMBOL_CHUNK)
    bound = 1e-10 * max(1.0, sum(abs(a) for _, a in symbol.coeffs))
    xs = np.empty(grid_size)
    for lo in range(0, grid_size, chunk):
        hi = min(lo + chunk, grid_size)
        vals = symbol.symbol_values(2.0 * np.pi * np.arange(lo, hi) / grid_size)
        if np.max(np.abs(vals.imag)) > bound:
            raise ComplexSymbolError("pushforward requires a real-valued symbol")
        xs[lo:hi] = vals.real
    xs.sort()
    return ReferenceMeasure(xs=xs)


def _grid(m) -> np.ndarray:
    """The sorted samples of a measure, where its CDF steps."""
    if isinstance(m, EmpiricalMeasure):
        return m.atoms
    if isinstance(m, ReferenceMeasure):
        if m.xs is None:
            raise ValueError("a moments-only reference measure has no samples, "
                             "which its CDF and the Kolmogorov distance need")
        return m.xs
    raise TypeError(f"not a measure: {m!r}")


def kolmogorov_distance(a, b) -> float:
    """sup |F_a - F_b| over the real line.

    Both CDFs are nondecreasing right-continuous steps that jump only on the
    merged grid, and between two points of the smaller grid its CDF is
    constant and the other's monotone.  So the sup is attained at a point of
    the smaller grid, at its predecessor in the larger grid, or at an end of
    the larger grid: the merged grid's value, bit for bit, in O(d log N) for
    grids of d <= N points.
    """
    ga, gb = _grid(a), _grid(b)
    small, large = (ga, gb) if ga.size <= gb.size else (gb, ga)
    pred = large[np.searchsorted(large, small, side="left") - 1]
    xs = np.concatenate([small, pred, large[[0, -1]]])
    return float(np.max(np.abs(a.cdf(xs) - b.cdf(xs))))
