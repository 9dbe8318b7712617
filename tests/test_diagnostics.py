import math

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.diagnostics import fit_decay_slope

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


class TestSchattenNorm:
    def test_matrix_unit(self):
        e21 = np.zeros((3, 3))
        e21[1, 0] = 1.0
        for p in (1, 2, math.inf):
            assert fl.schatten_norm(e21, p) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal(self):
        m = np.diag([3.0, -4.0])
        assert fl.schatten_norm(m, 1) == pytest.approx(7.0, abs=1e-12)
        assert fl.schatten_norm(m, 2) == pytest.approx(5.0, abs=1e-12)
        assert fl.schatten_norm(m, math.inf) == pytest.approx(4.0, abs=1e-12)

    def test_interpolation_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            sv = np.linalg.svd(m, compute_uv=False)  # SVD oracle
            assert fl.schatten_norm(m, 2) ** 2 <= fl.schatten_norm(m, 1) * fl.schatten_norm(
                m, math.inf
            ) + 1e-10
            assert fl.schatten_norm(m, 1) == pytest.approx(sv.sum(), rel=1e-12)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            fl.schatten_norm(np.eye(2), 3)


class TestFolnerRatio:
    def test_shift_exact_law(self):
        s = fl.Shift()
        for n in (1, 3, 10, 50):
            r = fl.folner_ratio(s, fl.finite_section(fl.N0, n), p=2)
            assert r == pytest.approx(1.0 / math.sqrt(n + 1), abs=1e-14)
        assert fl.folner_ratio(s, fl.finite_section(fl.N0, 3), p=2) == pytest.approx(0.5, abs=1e-14)

    def test_identity_vanishes(self):
        for lattice in (fl.N0, fl.Z):
            one = fl.identity(lattice)
            proj = fl.finite_section(lattice, 5)
            for p in (1, 2):
                assert fl.folner_ratio(one, proj, p) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        idx = sorted(rng.choice(8, size=3, replace=False).tolist())
        pm = np.zeros((8, 8))
        pm[idx, idx] = 1.0
        comm = pm @ m - m @ pm
        want = np.linalg.svd(comm, compute_uv=False).sum() / 3.0
        got = fl.folner_ratio(fl.Dense(m), fl.IndexSet(fl.N0, tuple(idx)), p=1)
        assert got == pytest.approx(want, abs=1e-10)


class TestOffCorner:
    def test_shift_single_column(self):
        s = fl.Shift()
        for n in (2, 9):
            got = fl.off_corner_ratio(s, fl.finite_section(fl.N0, n), p=2)
            assert got == pytest.approx(1.0 / math.sqrt(n + 1), abs=1e-14)

    def test_identity(self):
        assert fl.off_corner_ratio(fl.identity(fl.Z), fl.finite_section(fl.Z, 4), 1) == 0.0

    def test_selfadjoint_pythagoras_relation(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((7, 7))
        m = m + m.T
        proj = fl.IndexSet(fl.N0, (0, 1, 4, 6))
        full = fl.folner_ratio(fl.Dense(m), proj, 2)
        off = fl.off_corner_ratio(fl.Dense(m), proj, 2)
        assert full == pytest.approx(math.sqrt(2.0) * off, abs=1e-12)


class TestQdGap:
    def test_shift_gap_is_one(self):
        s = fl.Shift()
        for n in (1, 4, 17):
            assert fl.qd_gap(s, fl.finite_section(fl.N0, n)) == pytest.approx(1.0, abs=1e-14)

    def test_identity_gap(self):
        assert fl.qd_gap(fl.identity(fl.N0), fl.finite_section(fl.N0, 6)) == 0.0

    def test_almost_mathieu_dense_oracle(self):
        am = fl.AlmostMathieu(1.0, ALPHA, 0.0)
        for n in (2, 6):
            proj = fl.finite_section(fl.Z, n)
            a, inside = fl.operators.padded_compression(am, proj)
            mask = inside.astype(float)
            comm = a * (mask[:, None] - mask[None, :])
            want = np.linalg.svd(comm, compute_uv=False)[0]
            assert fl.qd_gap(am, proj) == pytest.approx(want, abs=1e-12)


class TestProfile:
    def test_shift_decay_slope(self):
        seq = fl.finite_section_sequence(fl.N0, [2**k for k in range(1, 11)])
        rep = fl.folner_profile([("S", fl.Shift())], seq, p_list=(2,))
        assert rep.slopes[("S", 2)] == pytest.approx(-0.5, abs=0.02)

    def test_identity_flagged_undefined(self):
        seq = fl.finite_section_sequence(fl.N0, [2, 4, 8])
        rep = fl.folner_profile([("one", fl.identity(fl.N0))], seq, p_list=(1, 2))
        assert all(r["ratio"] == 0.0 for r in rep.rows)
        assert rep.slopes[("one", 1)] is None
        assert rep.slopes[("one", 2)] is None

    def test_adjoint_symmetry_p2(self):
        seq = fl.finite_section_sequence(fl.N0, [3, 7, 15])
        s = fl.Shift()
        rep = fl.folner_profile([("S", s), ("S*", fl.op_adjoint(s))], seq, p_list=(2,))
        for n in seq.n_list:
            rs = [r["ratio"] for r in rep.rows if r["n"] == n]
            assert rs[0] == pytest.approx(rs[1], abs=1e-13)

    def test_rows_carry_exact_dimension(self):
        seq = fl.finite_section_sequence(fl.Z, [2, 5])
        rep = fl.folner_profile([("am", fl.AlmostMathieu(0.5, ALPHA))], seq, p_list=(2,))
        assert [r["d_n"] for r in rep.rows] == [5, 11]

    def test_almost_mathieu_ratios_nonincreasing(self):
        # monotone within 10% jitter over dyadic n
        seq = fl.finite_section_sequence(fl.Z, [2**k for k in range(2, 8)])
        rep = fl.folner_profile([("am", fl.AlmostMathieu(1.0, ALPHA))], seq, p_list=(1, 2))
        for p in (1, 2):
            rs = [r["ratio"] for r in rep.rows if r["p"] == p]
            for a, b in zip(rs, rs[1:]):
                assert b <= 1.1 * a

    def test_csv_and_json_round(self):
        seq = fl.finite_section_sequence(fl.N0, [2, 4])
        rep = fl.folner_profile([("S", fl.Shift())], seq, p_list=(2,))
        body = rep.to_csv()
        assert body.startswith("# folner-lab")
        assert "label,n,d_n,p,ratio,off_corner,qd_gap" in body
        assert '"slopes"' in rep.to_json()


def test_fit_decay_slope_skips_zeros():
    assert fit_decay_slope([2, 4, 8], [0.0, 0.0, 0.0]) is None
    s = fit_decay_slope([2, 4, 8], [1.0 / 2, 0.0, 1.0 / 8])
    assert s == pytest.approx(-1.0, abs=1e-12)
