"""Randomized property suites, each over hundreds of seeded instances."""
import cmath
import math

import numpy as np
import pytest

import dense_oracle
import folner_lab as fl
from folner_lab.operators import AdjE, _as_node

N_CASES = 500


def random_projection_mask(rng, d):
    size = int(rng.integers(1, d))
    idx = np.sort(rng.choice(d, size=size, replace=False))
    mask = np.zeros(d)
    mask[idx] = 1.0
    return idx, mask


def test_commutator_pythagoras():
    # ||[P,A]||_2^2 == ||(1-P)AP||_2^2 + ||PA(1-P)||_2^2, against a dense
    # SVD-free oracle built straight from the matrices
    rng = np.random.default_rng(2024)
    for _ in range(N_CASES):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        idx, mask = random_projection_mask(rng, d)
        pm = np.diag(mask)
        comm = pm @ m - m @ pm
        lhs = np.linalg.norm(comm, "fro") ** 2
        b1 = (np.eye(d) - pm) @ m @ pm
        b2 = pm @ m @ (np.eye(d) - pm)
        rhs = np.linalg.norm(b1, "fro") ** 2 + np.linalg.norm(b2, "fro") ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        # and the packaged ratio agrees with the oracle
        proj = fl.IndexSet(fl.N0, tuple(int(i) for i in idx))
        got = fl.folner_ratio(fl.Dense(m), proj, p=2)
        assert got == pytest.approx(math.sqrt(lhs) / math.sqrt(idx.size), rel=1e-11)


def test_commutator_leibniz_bound():
    # ||[P, AB]|| <= ||A|| ||[P,B]|| + ||[P,A]|| ||B|| in operator norm
    rng = np.random.default_rng(7)
    for _ in range(N_CASES):
        d = int(rng.integers(2, 8))
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        _, mask = random_projection_mask(rng, d)
        pm = np.diag(mask)

        def comm(x):
            return pm @ x - x @ pm

        lhs = fl.schatten_norm(comm(a @ b), math.inf)
        bound = (
            fl.schatten_norm(a, math.inf) * fl.schatten_norm(comm(b), math.inf)
            + fl.schatten_norm(comm(a), math.inf) * fl.schatten_norm(b, math.inf)
        )
        assert lhs <= bound + 1e-10


def test_schatten_norm_chain():
    # ||X||_inf <= ||X||_2 <= ||X||_1, with equality only spot-checked
    rng = np.random.default_rng(31)
    for _ in range(N_CASES):
        d1, d2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        m = rng.standard_normal((d1, d2)) + 1j * rng.standard_normal((d1, d2))
        n_inf = fl.schatten_norm(m, math.inf)
        n_2 = fl.schatten_norm(m, 2)
        n_1 = fl.schatten_norm(m, 1)
        assert n_inf <= n_2 + 1e-10
        assert n_2 <= n_1 + 1e-10
        r = min(d1, d2)
        assert n_1 <= math.sqrt(r) * n_2 + 1e-10  # Cauchy-Schwarz on singular values


def test_empirical_moments_match_trace_powers():
    # integral of x^k against the empirical measure equals the normalized
    # trace of the k-th power of the compression
    rng = np.random.default_rng(555)
    for _ in range(N_CASES):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m + m.conj().T
        op = fl.Dense(m)
        proj = fl.Window(fl.N0, 0, d - 1)
        meas = fl.empirical_measure(op, proj)
        k = int(rng.integers(1, 7))
        emp = fl.integrate(meas, fl.monomial(k))
        tr = np.trace(np.linalg.matrix_power(m, k)).real / d
        assert emp == pytest.approx(tr, rel=1e-8, abs=1e-8)


def test_nc_algebra_axioms():
    # traciality, positivity, and the involution anti-homomorphism, all on
    # random rotation-algebra polynomials
    rng = np.random.default_rng(77)
    alpha = (math.sqrt(5.0) - 1.0) / 2.0

    def rand_poly():
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            m, k = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            terms.setdefault((m, k), {})[int(rng.integers(-1, 2))] = complex(
                rng.standard_normal(), rng.standard_normal()
            )
        return fl.NCPolynomial(alpha, terms)

    for _ in range(N_CASES):
        a, b = rand_poly(), rand_poly()
        # tau(ab) = tau(ba)
        assert fl.canonical_trace(fl.nc_multiply(a, b)) == pytest.approx(
            fl.canonical_trace(fl.nc_multiply(b, a)), abs=1e-10
        )
        # tau(a* a) >= 0 and real
        t = fl.canonical_trace(fl.nc_multiply(fl.nc_adjoint(a), a))
        assert abs(t.imag) < 1e-10
        assert t.real >= -1e-12
        # (ab)* = b* a*
        lhs = fl.nc_adjoint(fl.nc_multiply(a, b))
        rhs = fl.nc_multiply(fl.nc_adjoint(b), fl.nc_adjoint(a))
        for mk in set(lhs.monomials()) | set(rhs.monomials()):
            assert cmath.isclose(
                lhs.coefficient(*mk), rhs.coefficient(*mk), rel_tol=1e-9, abs_tol=1e-10
            )


def _random_leaf(rng, lattice):
    def c():
        return complex(rng.standard_normal(), rng.standard_normal())

    kind = rng.integers(5)
    if kind == 0:
        ks = rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 4)), replace=False)
        return fl.Toeplitz({int(k): c() for k in ks}, lattice=lattice)
    if kind == 1:
        a, b, f = c(), c(), float(rng.uniform(0.1, 2.0))
        return fl.Shift(weight=lambda i: a + b * np.sin(f * np.asarray(i)), lattice=lattice)
    if kind == 2:
        bw = int(rng.integers(0, 3))
        diags = []
        for off in rng.choice(np.arange(-bw, bw + 1), size=int(rng.integers(1, 2 * bw + 2)),
                              replace=False):
            a, f = c(), float(rng.uniform(0.1, 2.0))
            if rng.random() < 0.7:
                diags.append((int(off), lambda n, a=a, f=f: a * np.exp(1j * f * np.asarray(n))))
            else:
                diags.append((int(off), a))
        return fl.Band(bw, tuple(diags), lattice=lattice)
    if kind == 3:
        return fl.AlmostMathieu(float(rng.uniform(0.2, 2.0)), float(rng.random()),
                                float(rng.random()), lattice=lattice)
    s = int(rng.integers(1, 5))
    return fl.Dense(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)), lattice=lattice)


def _random_poly(rng, lattice, depth=3):
    """A random *-polynomial tree of the given depth over random leaves."""
    if depth == 0 or rng.random() < 0.2:
        return _random_leaf(rng, lattice)
    parts = [_random_poly(rng, lattice, depth - 1) for _ in range(rng.integers(1, 4))]
    kind = rng.integers(4)
    if kind == 0:
        return fl.op_sum(*parts)
    if kind == 1:
        return fl.op_prod(*parts)
    if kind == 2:
        return fl.Poly(AdjE(_as_node(parts[0])))
    return fl.op_scale(complex(rng.standard_normal(), rng.standard_normal()), parts[0])


def _random_projection(rng, lattice):
    """A window or a gapped index set; on n0 a third of them start at 0."""
    lo = int(rng.integers(-12, 12))
    if lattice == fl.N0:
        lo = 0 if rng.random() < 1 / 3 else abs(lo)
    hi = lo + int(rng.integers(0, 14))
    if rng.random() < 0.5:
        return fl.Window(lattice, lo, hi)
    span = np.arange(lo, hi + 12)
    keep = np.sort(rng.choice(span, size=int(rng.integers(1, span.size)), replace=False))
    return fl.IndexSet(lattice, tuple(int(i) for i in keep))


def test_banded_path_matches_dense_oracle():
    # compressions, commutator ratios, the quasidiagonality gap and traces
    # from diagonal storage against dense products on the padded window
    rng = np.random.default_rng(4242)
    for _ in range(N_CASES):
        lattice = fl.N0 if rng.random() < 0.5 else fl.Z
        op = _random_poly(rng, lattice)
        proj = _random_projection(rng, lattice)
        idx = proj.index_array()
        pad_matrix, _ = dense_oracle.padded_matrix(op, idx)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(pad_matrix), initial=0.0)))

        want = dense_oracle.exact(op, idx)
        assert np.max(np.abs(fl.compress(op, proj) - want)) <= tol
        assert abs(fl.trace_estimate(op, proj) - np.trace(want) / idx.size) <= tol

        b1, b2 = dense_oracle.corner_blocks(op, idx)
        sv1 = np.linalg.svd(b1, compute_uv=False) if b1.size else np.zeros(1)
        sv2 = np.linalg.svd(b2, compute_uv=False) if b2.size else np.zeros(1)
        hs1, hs2 = np.linalg.norm(b1), np.linalg.norm(b2)
        r = idx.size
        assert abs(fl.folner_ratio(op, proj, 2) - math.hypot(hs1, hs2) / math.sqrt(r)) <= tol
        assert abs(fl.folner_ratio(op, proj, 1) - (sv1.sum() + sv2.sum()) / r) <= tol
        assert abs(fl.off_corner_ratio(op, proj, 2) - hs1 / math.sqrt(r)) <= tol
        assert abs(fl.off_corner_ratio(op, proj, 1) - sv1.sum() / r) <= tol
        assert abs(fl.qd_gap(op, proj) - max(sv1.max(), sv2.max())) <= tol


def _forbid_kron(*args, **kwargs):
    raise AssertionError("np.kron called")


def test_tensor_lhs_matches_brute_force(monkeypatch):
    # the closed-form lhs from the factor sections against the norm of the
    # Kronecker leak, with np.kron unavailable to the closed form
    rng = np.random.default_rng(9090)
    for _ in range(200):
        factors = []
        for _ in range(2):
            lattice = fl.N0 if rng.random() < 0.5 else fl.Z
            small_tree = rng.random() < 0.4
            op = _random_poly(rng, lattice, depth=2) if small_tree else _random_leaf(rng, lattice)
            factors.append((op, _random_projection(rng, lattice)))
        (a, p), (b, q) = factors
        want = dense_oracle.tensor_lhs(a, p.index_array(), b, q.index_array())
        with monkeypatch.context() as m:
            m.setattr(np, "kron", _forbid_kron)
            got = fl.tensor_bound_check(a, p, b, q).lhs
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_tensor_shift_pair_without_kron(monkeypatch):
    # a padded product of order 302^2, far past what a dense Kronecker
    # product could hold; one column leaks per factor
    monkeypatch.setattr(np, "kron", _forbid_kron)
    s = fl.Shift()
    p = fl.finite_section(fl.N0, 300)
    rec = fl.tensor_bound_check(s, p, s, p)
    r = 301
    assert rec.lhs == pytest.approx((2 * r - 1) / r**2, rel=1e-12)
    assert rec.rhs == pytest.approx(2 / r, rel=1e-12)
