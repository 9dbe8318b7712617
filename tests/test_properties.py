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


def _boundary_projection(rng, lattice, bw):
    """A window at the n0 edge, or an index set whose gaps step across
    2 * bw + 1, where padded runs join or split."""
    if rng.random() < 0.3:
        lo = int(rng.integers(0, bw + 2)) if lattice == fl.N0 else int(rng.integers(-9, 9))
        return fl.Window(lattice, lo, lo + int(rng.integers(0, 6)))
    idx, at = [], int(rng.integers(0, 5))
    for _ in range(int(rng.integers(1, 5))):
        idx.extend(range(at, at + int(rng.integers(1, 4))))
        at = idx[-1] + max(2, 2 * bw + int(rng.integers(0, 4)))
    return fl.IndexSet(lattice, tuple(idx))


def _as_bits(x: complex) -> str:
    return repr((x.real, x.imag))


def _check_profile_against_dense_oracle(op, projs):
    """folner_profile over the grid `projs`, row by row against the
    commutator blocks cut from each window's dense padded matrix."""
    seq = fl.ProjectionSequence(projs[0].lattice, tuple(range(1, len(projs) + 1)), tuple(projs))
    rows = fl.folner_profile([("a", op)], seq, p_list=(1, 2)).rows
    assert len(rows) == 2 * len(projs)
    for row in rows:
        idx = projs[row["n"] - 1].index_array()
        pad_matrix, _ = dense_oracle.padded_matrix(op, idx)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(pad_matrix), initial=0.0)))

        b1, b2 = dense_oracle.corner_blocks(op, idx)
        sv1 = np.linalg.svd(b1, compute_uv=False) if b1.size else np.zeros(1)
        sv2 = np.linalg.svd(b2, compute_uv=False) if b2.size else np.zeros(1)
        hs1, hs2 = np.linalg.norm(b1), np.linalg.norm(b2)
        r = idx.size
        want = {1: ((sv1.sum() + sv2.sum()) / r, sv1.sum() / r),
                2: (math.hypot(hs1, hs2) / math.sqrt(r), hs1 / math.sqrt(r))}
        assert abs(row["ratio"] - want[row["p"]][0]) <= tol
        assert abs(row["off_corner"] - want[row["p"]][1]) <= tol
        assert abs(row["qd_gap"] - max(sv1.max(), sv2.max())) <= tol


def test_runs_path_matches_dense_oracle():
    # folner_profile rows from the runs of P against the commutator blocks
    # cut from the dense padded matrix, for every leaf kind and for trees
    rng = np.random.default_rng(8080)
    for case in range(300):
        lattice = fl.N0 if rng.random() < 0.5 else fl.Z
        op = _random_leaf(rng, lattice) if case % 3 == 0 else _random_poly(rng, lattice)
        _check_profile_against_dense_oracle(op, [_boundary_projection(rng, lattice, op.bandwidth)])


def _grid_operator(rng, lattice):
    """A band, a weighted shift, a dense leaf of support up to 40, or a
    random polynomial."""
    def c():
        return complex(rng.standard_normal(), rng.standard_normal())

    kind = rng.integers(4)
    if kind == 0:
        bw = int(rng.integers(0, 4))
        offs = rng.choice(np.arange(-bw, bw + 1), size=int(rng.integers(1, 2 * bw + 2)),
                          replace=False)
        diags = [(int(k), c() if rng.random() < 0.5 else
                  (lambda n, a=c(), f=float(rng.uniform(0.1, 2.0)): a * np.cos(f * np.asarray(n))))
                 for k in offs]
        return fl.Band(bw, tuple(diags), lattice=lattice)
    if kind == 1:
        a, b = c(), c()
        return fl.Shift(weight=lambda i: a + b * np.sin(np.asarray(i)), lattice=lattice)
    if kind == 2:
        s = int(rng.integers(1, 41))
        return fl.Dense(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)),
                        lattice=lattice)
    return _random_poly(rng, lattice)


def _grid_projection(rng, lattice):
    """A window or a gapped index set within a few dozen indices of 0, so
    that the pads of a grid's windows often overlap and join."""
    lo = int(rng.integers(-30, 30))
    if lattice == fl.N0:
        lo = abs(lo)
    if rng.random() < 0.5:
        return fl.Window(lattice, lo, lo + int(rng.integers(0, 20)))
    span = np.arange(lo, lo + int(rng.integers(2, 40)))
    keep = np.sort(rng.choice(span, size=int(rng.integers(1, span.size)), replace=False))
    return fl.IndexSet(lattice, tuple(int(i) for i in keep))


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
def test_grid_pass_matches_dense_oracle_per_window():
    # one folner_profile over a grid of windows and gapped sets with blocks
    # of several shapes and pads that join, row by row against each window
    rng = np.random.default_rng(1515)
    for _ in range(120):
        lattice = fl.N0 if rng.random() < 0.5 else fl.Z
        op = _grid_operator(rng, lattice)
        projs = [_grid_projection(rng, lattice) for _ in range(int(rng.integers(2, 9)))]
        _check_profile_against_dense_oracle(op, projs)


def test_nested_trace_grid_is_per_window_estimate_bit_for_bit():
    # one diagonal on the largest window, sliced per window, gives exactly
    # the sums of per-window diagonals; a sequence that is not nested still
    # takes each window on its own
    rng = np.random.default_rng(6060)
    for _ in range(150):
        lattice = fl.N0 if rng.random() < 0.5 else fl.Z
        op = _random_poly(rng, lattice)
        projs = [_boundary_projection(rng, lattice, op.bandwidth)]
        for _ in range(int(rng.integers(1, 4))):
            prev = projs[-1].index_array()
            extra = rng.integers(prev[0] - 6, prev[-1] + 8, size=4)
            grown = np.union1d(prev, extra[extra >= 0] if lattice == fl.N0 else extra)
            projs.append(fl.IndexSet(lattice, tuple(int(i) for i in grown)))
        whole = projs[-1].index_array()
        projs.append(fl.Window(lattice, int(whole[0]), int(whole[-1]) + 1))
        ns = tuple(range(1, len(projs) + 1))
        for nested in (True, False):
            seq_projs = projs if nested else projs[::-1]
            seq = fl.ProjectionSequence(lattice, ns, tuple(seq_projs), increasing=nested)
            rows = fl.trace_convergence_report([("a", op)], seq).rows
            for row, proj in zip(rows, seq_projs):
                want = fl.trace_estimate(op, proj)
                assert _as_bits(complex(row["estimate_re"], row["estimate_im"])) == _as_bits(want)


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
