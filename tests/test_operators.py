import math
import warnings

import numpy as np
import pytest

from dense_oracle import compress, index_runs, op_adjoint
import folner_lab as fl

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


class TestToeplitzSections:
    def test_constant_symbol(self):
        t = fl.Toeplitz({0: 5.0})
        assert np.array_equal(compress(t, fl.finite_section(fl.N0, 3)), 5.0 * np.eye(4))

    def test_hopping_symbol(self):
        t = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)
        want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
        assert np.array_equal(compress(t, fl.finite_section(fl.N0, 2)), want)

    def test_sampled_symbol_matches_coefficients(self):
        # discrete Fourier recovery oracle: g(theta) = 2 cos(theta) at 64 nodes
        theta = 2.0 * np.pi * np.arange(64) / 64
        t_sampled = fl.toeplitz_from_samples(2.0 * np.cos(theta), bandwidth=1)
        t_coeffs = fl.Toeplitz({1: 1.0, -1: 1.0})
        a = compress(t_sampled, fl.finite_section(fl.N0, 10))
        b = compress(t_coeffs, fl.finite_section(fl.N0, 10))
        assert np.max(np.abs(a - b)) < 1e-12

    def test_nyquist_bound(self):
        with pytest.raises(fl.NyquistError):
            fl.toeplitz_from_samples(np.ones(4), bandwidth=2)

    def test_fourier_sum_that_overflows_raises(self):
        # finite samples whose mean overflows: a FloatingPointError from a
        # library call, under numpy's default error state, not a warning
        # and inf + nan j coefficients
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^overflow"):
                fl.toeplitz_from_samples([1e308, -1e308, 1e308, 1e308, -1e308], bandwidth=2)
        assert np.geterr() == before

    def test_selfadjoint_flag_checks_coefficients(self):
        with pytest.raises(ValueError):
            fl.Toeplitz({1: 1.0, -1: 2.0}, selfadjoint=True)

    def test_symbol_values_bit_identical_to_the_term_by_term_sum(self):
        # each exponential taken once per |k|, its conjugate serving -k, and
        # a chunk of nodes at a time: the same bits as every term on every
        # node, summed in the order of k
        def term_by_term(t, theta):
            # a_k * e^{ik theta}, scalar first: numpy's loops for a scalar
            # times an array and an array times a scalar may round apart
            vals = np.zeros(theta.shape, dtype=complex)
            term = np.empty_like(vals)
            for k, a in t.coeffs:
                np.multiply(1j * k, theta, out=term)
                vals += np.multiply(a, np.exp(term, out=term), out=term)
            return vals

        rng = np.random.default_rng(29)
        for case in range(40):
            coeffs = {k: complex(*rng.standard_normal(2))
                      for k in range(-4, 5) if rng.random() < 0.7}
            if rng.random() < 0.5:
                coeffs = {k: v for k, v in coeffs.items() if k > 0}
                coeffs.update({-k: v.conjugate() for k, v in coeffs.items()})
                coeffs[0] = float(rng.standard_normal())
            t = fl.Toeplitz(coeffs)
            for nodes in (1, 4095, 4097, 1 << 16):
                theta = 2.0 * np.pi * np.arange(nodes) / nodes
                got, want = t.symbol_values(theta), term_by_term(t, theta)
                assert got.tobytes() == want.tobytes(), (case, nodes)
            theta = rng.uniform(-50.0, 50.0, 5000)
            assert t.symbol_values(theta).tobytes() == term_by_term(t, theta).tobytes(), case

    def test_constant_diagonals(self):
        rng = np.random.default_rng(7)
        coeffs = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(-3, 4)}
        m = compress(fl.Toeplitz(coeffs), fl.finite_section(fl.N0, 8))
        for i in range(9):
            for j in range(9):
                assert m[i, j] == coeffs.get(i - j, 0j)


class TestCompress:
    def test_tridiagonal_window(self):
        t = fl.Toeplitz({1: 1.0, -1: 1.0})
        for n in (2, 5):
            m = compress(t, fl.Window(fl.N0, 0, n))
            assert m.shape == (n + 1, n + 1)
            assert np.array_equal(m, np.eye(n + 1, k=1) + np.eye(n + 1, k=-1))

    def test_shift_window(self):
        m = compress(fl.Shift(), fl.Window(fl.N0, 0, 4))
        assert np.array_equal(m, np.eye(5, k=-1))

    def test_almost_mathieu_window(self):
        am = fl.AlmostMathieu(0.5, ALPHA, 0.0)
        m = compress(am, fl.Window(fl.Z, -2, 2))
        ks = np.arange(-2, 3)
        # d_0(n) = 2 * 0.5 * cos(2 pi alpha n), evaluated directly
        assert np.allclose(np.diag(m), np.cos(2.0 * np.pi * ALPHA * ks), atol=1e-15)
        assert np.array_equal(m - np.diag(np.diag(m)), np.eye(5, k=1) + np.eye(5, k=-1))
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_lattice_mismatch(self):
        with pytest.raises(fl.LatticeMismatchError):
            compress(fl.Shift(), fl.Window(fl.Z, -1, 1))

    def test_index_set_compression(self):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((6, 6))
        m = compress(fl.Dense(mat), fl.IndexSet(fl.N0, (1, 3, 4)))
        assert np.array_equal(m, mat[np.ix_([1, 3, 4], [1, 3, 4])])


MISMATCH_CALLS = {
    "compress": compress,
    "padded_compression": fl.operators.padded_compression,
    "trace_estimate": fl.trace_estimate,
    "diagonal_sums": lambda op, proj: fl.operators.diagonal_sums(op, [proj]),
    "folner_ratio": fl.folner_ratio,
    "compression_eigenvalues": fl.compression_eigenvalues,
    "compression_moments": lambda op, proj: fl.compression_moments(op, proj, 4),
}


@pytest.mark.parametrize("name, rank", [
    *((name, 5) for name in MISMATCH_CALLS),
    # the tridiagonal path, which reads no projection lattice of its own
    ("compression_eigenvalues", fl.spectral.TRIDIAGONAL_MIN_DIM),
])
@pytest.mark.parametrize("op, lattice", [
    (fl.Band(1, ((-1, 1.0), (1, 1.0))), fl.N0),
    (fl.Shift(), fl.Z),
], ids=["z-op-on-n0", "n0-op-on-z"])
def test_lattice_mismatch_at_every_entry_point(name, rank, op, lattice):
    with pytest.raises(fl.LatticeMismatchError):
        MISMATCH_CALLS[name](op, fl.Window(lattice, 0, rank - 1))


class TestAdjoint:
    def test_dense_example(self):
        adj = op_adjoint(fl.Dense(np.array([[0.0, 1.0], [0.0, 0.0]])))
        assert np.array_equal(compress(adj, fl.Window(fl.N0, 0, 1)), [[0.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("kind", ["dense", "toeplitz"])
    def test_adjoint_keeps_z_lattice(self, kind):
        rng = np.random.default_rng(17)
        if kind == "dense":
            op = fl.Dense(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
                          lattice=fl.Z)
        else:
            op = fl.Toeplitz({k: complex(rng.standard_normal(), rng.standard_normal())
                              for k in (-2, 0, 1)}, lattice=fl.Z)
        adj = op_adjoint(op)
        assert adj.lattice == fl.Z
        w = fl.Window(fl.Z, -3, 5)
        assert np.array_equal(compress(adj, w), compress(op, w).conj().T)
        herm = compress(op + adj, w)
        assert np.max(np.abs(herm - herm.conj().T)) < 1e-14

    def test_almost_mathieu_selfadjoint(self):
        am = fl.AlmostMathieu(1.7, ALPHA, 0.3)
        assert fl.spectral._hermitian_part(am, fl.finite_section(fl.Z, 6))[2] <= 1e-14

    def test_shift_not_selfadjoint(self):
        assert fl.spectral._hermitian_part(fl.Shift(), fl.finite_section(fl.N0, 5))[2] > 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_compression_is_conj_transpose(self, seed):
        rng = np.random.default_rng(seed)
        specs = [
            fl.Dense(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))),
            fl.Toeplitz({k: complex(rng.standard_normal(), rng.standard_normal()) for k in (-2, 0, 1)}),
            fl.Band(1, ((0, lambda n: np.exp(2j * np.pi * ALPHA * np.asarray(n))), (1, 0.5))),
        ]
        for op in specs:
            proj = (
                fl.Window(op.lattice, 0, 4) if op.lattice == fl.N0 else fl.Window(fl.Z, -2, 2)
            )
            a = compress(op_adjoint(op), proj)
            b = compress(op, proj).conj().T
            assert np.max(np.abs(a - b)) < 1e-14

    def test_band_adjoint_roundtrip(self):
        band = fl.Band(2, ((-2, 1j), (0, lambda n: np.asarray(n) + 0j), (1, 2.0)))
        twice = op_adjoint(op_adjoint(band))
        proj = fl.Window(fl.Z, -4, 4)
        assert np.max(np.abs(compress(twice, proj) - compress(band, proj))) < 1e-14


class TestPoly:
    def test_sum_linearity_exact(self):
        rng = np.random.default_rng(5)
        a = fl.Dense(rng.standard_normal((6, 6)))
        b = fl.Dense(rng.standard_normal((6, 6)))
        proj = fl.IndexSet(fl.N0, (0, 2, 5))
        lhs = compress(fl.op_sum(a, b), proj)
        assert np.array_equal(lhs, compress(a, proj) + compress(b, proj))

    @pytest.mark.parametrize("seed", range(10))
    def test_product_compression_defect(self, seed):
        # compress(AB, P) - compress(A, P) compress(B, P) == P A (1-P) B P
        rng = np.random.default_rng(seed)
        d = 7
        am = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        bm = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        idx = sorted(rng.choice(d, size=3, replace=False).tolist())
        proj = fl.IndexSet(fl.N0, tuple(idx))
        pm = np.zeros((d, d))
        pm[idx, idx] = 1.0
        lhs = compress(fl.op_prod(fl.Dense(am), fl.Dense(bm)), proj)
        cut = compress(fl.Dense(am), proj) @ compress(fl.Dense(bm), proj)
        defect = (pm @ am @ (np.eye(d) - pm) @ bm @ pm)[np.ix_(idx, idx)]
        assert np.max(np.abs(lhs - cut - defect)) < 1e-12

    def test_padded_product_is_exact_for_banded(self):
        # S* S = identity on l2(N0), including the lattice edge
        s = fl.Shift()
        prod = fl.op_prod(op_adjoint(s), s)
        m = compress(prod, fl.Window(fl.N0, 0, 6))
        assert np.max(np.abs(m - np.eye(7))) < 1e-14

    def test_mixed_lattice_rejected(self):
        with pytest.raises(fl.LatticeMismatchError):
            fl.op_sum(fl.Shift(), fl.Band(0, ((0, 1.0),)))

    def test_operator_arithmetic_sugar(self):
        t = fl.Toeplitz({1: 1.0, -1: 1.0})
        proj = fl.Window(fl.N0, 0, 4)
        m = compress(2.0 * t + fl.identity(fl.N0), proj)
        want = 2.0 * (np.eye(5, k=1) + np.eye(5, k=-1)) + np.eye(5)
        assert np.max(np.abs(m - want)) < 1e-14


class TestIndexRuns:
    def test_pad_runs_join_across_short_gaps(self):
        # bandwidth 1: runs 3 apart (2 * 1 + 1) share a padded run, 4 apart do not
        t = fl.Toeplitz({1: 1.0, -1: 1.0}, lattice=fl.Z)
        pad = fl.operators.pad_runs
        assert pad(t, ((0, 2), (5, 6))) == [(-1, 7)]
        assert pad(t, ((0, 2), (6, 6))) == [(-1, 3), (5, 7)]
        assert pad(fl.Shift(), ((0, 4),)) == [(0, 5)]
        # a dense support joins the runs, and reaches no further than itself
        dense = fl.Dense(np.eye(4))
        assert pad(dense, ((2, 2), (9, 9))) == [(0, 3), (9, 9)]

    def test_pad_runs_stay_in_int64(self):
        am = fl.AlmostMathieu(1.0, 0.3)
        diag = fl.Band(0, ((0, 1.0),))
        low, high = ((-(2**63), 0),), ((0, 2**63 - 1),)
        for runs in (low, high):
            with pytest.raises(fl.operators.ConfigError, match="64-bit"):
                fl.operators.pad_runs(am, runs)
            assert fl.operators.pad_runs(diag, runs) == list(runs)
        with pytest.raises(fl.operators.ConfigError, match="64-bit"):
            fl.operators.pad_runs(fl.Shift(), ((0, 2**63 - 1),))

    def test_run_arithmetic(self):
        ops = fl.operators
        runs = index_runs(np.array([-3, -2, 0, 4, 5, 6]))
        assert runs == ((-3, -2), (0, 0), (4, 6))
        assert ops.run_indices(runs).tolist() == [-3, -2, 0, 4, 5, 6]
        assert ops.run_indices(()).size == 0
        assert ops.widen_runs(runs, 1) == [(-4, 1), (3, 7)]
        assert ops.intersect_runs([(0, 10)], [(-5, 1), (3, 4), (9, 20)]) == [
            (0, 1), (3, 4), (9, 10)]
        assert ops.subtract_runs([(0, 10), (20, 22)], [(-5, 1), (3, 4), (9, 21)]) == [
            (2, 2), (5, 8), (22, 22)]
        assert ops.subtract_runs([(3, 4)], [(0, 9)]) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_poly_offsets_are_its_storage_keys(self, seed):
        from test_properties import _random_poly

        rng = np.random.default_rng(seed)
        for lattice in (fl.N0, fl.Z):
            op = _random_poly(rng, lattice)
            if isinstance(op, fl.Poly):
                src = fl.operators.exact_entries(op, [(3, 8)])
                assert op.offsets == tuple(sorted(src.offsets))


def test_poly_structure_matches_dense_oracle():
    # bandwidth and support, taken in the one construction walk, against the
    # oracle's own walks over random *-polynomial trees
    import dense_oracle
    from test_properties import _random_poly

    rng = np.random.default_rng(1618)
    for case in range(300):
        op = _random_poly(rng, (fl.N0, fl.Z)[case % 2])
        assert op.bandwidth == dense_oracle._width(op), case
        assert op.support == max(dense_oracle._supports(op), default=0), case


def test_poly_diagonal_is_offset_0_of_the_full_storage():
    # offset 0 alone, on random *-polynomial trees over windows and gapped
    # index sets of both lattices, is bit-identical to the full evaluation's
    from test_properties import _random_poly, _random_projection

    rng = np.random.default_rng(2718)
    for case in range(300):
        lattice = (fl.N0, fl.Z)[case % 2]
        op = _random_poly(rng, lattice)
        proj = _random_projection(rng, lattice)
        idx = proj.index_array()
        src = fl.operators.exact_entries(op, proj.runs)
        want = src.diagonal(0, idx) if 0 in src.offsets else np.zeros(idx.size, dtype=complex)
        assert np.array_equal(fl.operators.diagonal_entries(op, proj.runs), want), case
