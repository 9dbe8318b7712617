import json
import math

import numpy as np
import pytest

import folner_lab as fl
from folner_lab._util import ConfigError


def dense_pair(rng, da, db):
    a = fl.Dense(rng.standard_normal((da, da)) + 1j * rng.standard_normal((da, da)))
    b = fl.Dense(rng.standard_normal((db, db)) + 1j * rng.standard_normal((db, db)))
    return a, b


class TestShiftShift:
    def test_frozen_values_n7(self):
        s = fl.Shift()
        p = fl.finite_section(fl.N0, 7)
        rec = fl.tensor_bound_check(s, p, s, p)
        # lhs: one column leaks per factor; 15/64 by direct count
        assert rec.lhs == pytest.approx(15.0 / 64.0, abs=1e-14)
        assert rec.middle == pytest.approx(15.0 / 64.0, abs=1e-14)
        assert rec.rhs == pytest.approx(0.25, abs=1e-14)
        assert rec.slack == pytest.approx(0.25 - 15.0 / 64.0, abs=1e-14)
        assert rec.norm_a == pytest.approx(1.0, abs=1e-12)
        assert rec.ratio_a == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-14)

    def test_rhs_matches_two_over_window(self):
        s = fl.Shift()
        for n in (3, 15, 31):
            p = fl.finite_section(fl.N0, n)
            rec = fl.tensor_bound_check(s, p, s, p)
            assert rec.rhs == pytest.approx(2.0 / (n + 1), abs=1e-12)
            assert rec.slack >= 0.0


def test_equality_case_has_nonnegative_slack():
    # Pauli-Y (x) hopping at n = 1: both sides are exactly 1/2
    a = fl.Dense(np.array([[0.0, -1j], [1j, 0.0]]))
    b = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)
    p = fl.finite_section(fl.N0, 1)
    rec = fl.tensor_bound_check(a, p, b, p)
    assert rec.lhs == rec.middle == rec.rhs == 0.5
    assert rec.slack >= 0.0


class TestBoundChain:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_dense_chain(self, seed):
        rng = np.random.default_rng(seed)
        da, db = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        a, b = dense_pair(rng, da, db)
        p = fl.IndexSet(
            fl.N0, tuple(sorted(rng.choice(da, size=int(rng.integers(1, da)), replace=False)))
        )
        q = fl.IndexSet(
            fl.N0, tuple(sorted(rng.choice(db, size=int(rng.integers(1, db)), replace=False)))
        )
        rec = fl.tensor_bound_check(a, p, b, q)
        assert rec.lhs <= rec.middle + 1e-10
        assert rec.middle <= rec.rhs + 1e-10
        assert rec.slack >= -1e-10

    def test_lhs_equals_middle_orthogonal_split(self):
        # the three leak channels are mutually orthogonal, so the squared
        # Hilbert-Schmidt norms add up exactly
        rng = np.random.default_rng(99)
        a, b = dense_pair(rng, 5, 4)
        p = fl.IndexSet(fl.N0, (0, 2))
        q = fl.IndexSet(fl.N0, (1, 3))
        rec = fl.tensor_bound_check(a, p, b, q)
        assert rec.lhs == pytest.approx(rec.middle, rel=1e-12)

    def test_lhs_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        a, b = dense_pair(rng, 4, 3)
        p = fl.IndexSet(fl.N0, (0, 3))
        q = fl.IndexSet(fl.N0, (0, 1))
        rec = fl.tensor_bound_check(a, p, b, q)
        pm = np.zeros((4, 4)); pm[[0, 3], [0, 3]] = 1.0
        qm = np.zeros((3, 3)); qm[[0, 1], [0, 1]] = 1.0
        big_p = np.kron(pm, qm)
        big = np.kron(a.matrix, b.matrix)
        off = (np.eye(12) - big_p) @ big @ big_p
        want = np.linalg.norm(off, "fro") ** 2 / 4.0
        assert rec.lhs == pytest.approx(want, rel=1e-12)

    def test_identity_factors_leak_nothing(self):
        one = fl.identity(fl.N0)
        p = fl.finite_section(fl.N0, 3)
        rec = fl.tensor_bound_check(one, p, one, p)
        assert rec.lhs == 0.0 and rec.rhs == 0.0


class TestGuards:
    def test_section_footprint(self, monkeypatch):
        # shift at n = 100 pads to order 102: four complex sections of
        # 16 * 102^2 bytes each must fit, and nothing is built when they don't
        s = fl.Shift()
        p = fl.finite_section(fl.N0, 100)
        need = 4 * 16 * 102**2
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="order 102"):
            fl.tensor_bound_check(s, p, s, p)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need)
        assert fl.tensor_bound_check(s, p, s, p).rhs == pytest.approx(2.0 / 101.0, abs=1e-12)

    def test_kron_product_footprint(self, monkeypatch):
        # a tensor pair's padded section is the Kronecker product of two
        # order-5 factor sections, refused before np.kron forms it
        s = fl.Shift()
        p = fl.finite_section(fl.N0, 3)
        pair = fl.KronProj(p, p)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 4 * 16 * 25**2 - 1)
        monkeypatch.setattr(np, "kron", None)
        with pytest.raises(ConfigError, match="order 25"):
            fl.qd_gap(fl.Kron(s, s), pair)

    def test_json_record(self):
        s = fl.Shift()
        rec = fl.tensor_bound_check(s, fl.finite_section(fl.N0, 3), s, fl.finite_section(fl.N0, 3))
        payload = json.loads(rec.to_json())
        assert set(payload) == {
            "lhs", "middle", "rhs", "slack", "ratio_a", "ratio_b", "norm_a", "norm_b",
        }
