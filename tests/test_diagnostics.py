import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import op_adjoint
import folner_lab as fl
from folner_lab.cli import main
from folner_lab.diagnostics import fit_decay_slope

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
CORPUS = Path(__file__).parent / "corpus" / "valid"


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

    @pytest.mark.parametrize("shape, zero", [((4, 3), np.s_[1, :]), ((3, 4), np.s_[:, 2]),
                                             ((3, 3), np.s_[:, :]), ((0, 3), np.s_[:, :])],
                             ids=["zero-row", "zero-column", "all-zero", "0x3"])
    def test_degenerate_matrices_against_svd(self, shape, zero):
        rng = np.random.default_rng(7)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m[zero] = 0.0
        sv = np.linalg.svd(m, compute_uv=False)  # SVD oracle
        want = {1: sv.sum(), 2: math.sqrt(np.sum(sv**2)), math.inf: sv.max(initial=0.0)}
        for p, norm in want.items():
            assert fl.schatten_norm(m, p) == pytest.approx(norm, rel=1e-12, abs=0.0)

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


def off_corner(op, proj, p):
    """||(1 - P) A P||_p / ||P||_p, the off_corner column of `folner_profile`."""
    seq = fl.ProjectionSequence(proj.lattice, (1,), (proj,))
    return fl.folner_profile([("a", op)], seq, p_list=(p,)).rows[0]["off_corner"]


def _mp_entry(op, row: int, k: int):
    """A[row, row + k] of a band of `Wave`s and constants at 60 digits, from
    the waves' own terms, c e^{2 pi i G (row + a/2)} for the key (a, ks):
    the oracle of entries at any int64 index."""
    import mpmath

    fn = op.diags.get(k, 0.0)
    if not isinstance(fn, fl.Wave):
        return mpmath.mpc(complex(fn))
    total = mpmath.mpc(0)
    for (a, ks), c in fn.terms.items():
        g = mpmath.fsum(kk * mpmath.mpf(f) for kk, f in zip(ks, fn.freqs))
        total += mpmath.mpc(c) * mpmath.expjpi(2 * g * (row + mpmath.mpf(a) / 2))
    return total


def _wave_bands():
    """cos and exp off-diagonals, and a represented u v term, whose moduli
    turn with their phases."""
    cos = fl.Wave.of(ALPHA, cos=True)
    exp = fl.Wave((ALPHA, 0.1), {(1, 0): cmath.exp(0.6j * math.pi),
                                 (0, 1): 0.5 * cmath.exp(0.5j * math.pi)})
    u, v = fl.nc_u(ALPHA), fl.nc_v(ALPHA)
    return {"cos": fl.Band(1, ((-1, cos), (1, cos))),
            "exp": fl.Band(1, ((-1, exp), (1, 2.0))),
            "uv": fl.represent_nc(fl.nc_multiply(u, v) + 0.5 * u, phi=0.1)}


class TestPhasesAtHugeWindows:
    # the commutator of a bandwidth-1 band with a window [-n, n] has four
    # entries, each its own singular value: A[-n - 1, -n], A[n + 1, n] and
    # A[-n, -n - 1], A[n, n + 1], evaluated at indices near 2^40 and 2^62
    @pytest.mark.parametrize("name", ["cos", "exp", "uv"])
    @pytest.mark.parametrize("n", [2**40, 2**62])
    def test_ratios_and_gap_against_60_digits(self, name, n):
        import mpmath

        op = _wave_bands()[name]
        proj = fl.finite_section(fl.Z, n)
        with mpmath.workdps(60):
            mods = [abs(_mp_entry(op, row, k))
                    for row, k in ((-n - 1, 1), (n + 1, -1), (-n, -1), (n, 1))]
            want = {1: mpmath.fsum(mods) / proj.rank,
                    2: mpmath.sqrt(mpmath.fsum(m**2 for m in mods) / proj.rank),
                    "gap": max(mods)}
        for p in (1, 2):
            got = fl.folner_ratio(op, proj, p)
            assert abs(got - float(want[p])) <= 1e-12 * float(want[p]), (name, n, p)
        gap = fl.qd_gap(op, proj)
        assert abs(gap - float(want["gap"])) <= 1e-12 * float(want["gap"]), (name, n)


class TestOffCorner:
    def test_shift_single_column(self):
        s = fl.Shift()
        for n in (2, 9):
            got = off_corner(s, fl.finite_section(fl.N0, n), p=2)
            assert got == pytest.approx(1.0 / math.sqrt(n + 1), abs=1e-14)

    def test_identity(self):
        assert off_corner(fl.identity(fl.Z), fl.finite_section(fl.Z, 4), 1) == 0.0

    def test_selfadjoint_pythagoras_relation(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((7, 7))
        m = m + m.T
        proj = fl.IndexSet(fl.N0, (0, 1, 4, 6))
        full = fl.folner_ratio(fl.Dense(m), proj, 2)
        off = off_corner(fl.Dense(m), proj, 2)
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
        rep = fl.folner_profile([("S", s), ("S*", op_adjoint(s))], seq, p_list=(2,))
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

    def test_slopes_are_fitted_on_first_read(self, monkeypatch, capsys):
        # a CSV report prints no slope and fits none; a JSON one fits each
        # (label, p) once, to the slope of its rows
        fits = []
        polyfit = np.polyfit
        monkeypatch.setattr(np, "polyfit", lambda *a, **k: fits.append(a) or polyfit(*a, **k))
        argv = ["folner", "--op", str(CORPUS / "shift.json"), "--op", str(CORPUS / "hopping.json"),
                "--n", "1,2,4,8", "--p", "1,2"]
        assert main(argv) == 0 and fits == []
        capsys.readouterr()
        assert main([*argv, "--format", "json"]) == 0 and len(fits) == 4
        report = json.loads(capsys.readouterr().out)
        for label in ("shift", "hopping"):
            for p in (1, 2):
                rows = [r for r in report["rows"] if r["label"] == label and r["p"] == p]
                assert report["slopes"][f"{label}|p={p}"] == fit_decay_slope(
                    [r["d_n"] for r in rows], [r["ratio"] for r in rows])


class TestBoundaryCost:
    @pytest.mark.parametrize("lattice", [fl.N0, fl.Z])
    def test_rank_2_20_window_is_evaluated_on_its_boundary(self, monkeypatch, lattice):
        # a bandwidth-3 polynomial: no index array of the window is built and
        # every diagonal storage covers a few bandwidths at the window's ends
        s = fl.Toeplitz({1: 1.0, -1: 0.5j}, lattice=lattice)
        op = fl.op_sum(fl.op_prod(s, s, s), 0.5 * s)
        bw = op.bandwidth
        small = fl.finite_section(lattice, 32)
        big = fl.finite_section(lattice, 2**20 if lattice == fl.N0 else 2**19)
        want = fl.folner_profile([("a", op)], fl.ProjectionSequence(lattice, (1,), (small,))).rows

        sizes = []
        section = fl.operators.Section

        def spy(pad, diags):
            sizes.append(pad.size)
            return section(pad, diags)

        def forbidden(self):
            raise AssertionError("index array built")

        monkeypatch.setattr(fl.operators, "Section", spy)
        monkeypatch.setattr(fl.Window, "index_array", forbidden)
        seq = fl.ProjectionSequence(lattice, (1,), (big,))
        got = fl.folner_profile([("a", op)], seq).rows
        assert big.rank == 2**20 + 1 and sizes and max(sizes) <= 8 * bw
        # a Toeplitz polynomial's blocks depend on the boundary only, so
        # ratio * ||P||_p is the same at every window
        for g, w in zip(got, want):
            scale = big.rank / small.rank if g["p"] == 1 else math.sqrt(big.rank / small.rank)
            assert g["ratio"] * scale == pytest.approx(w["ratio"], rel=1e-12)
            assert g["qd_gap"] == w["qd_gap"]


class TestGridPass:
    """One pass per operator grid: windows with blocks of one shape share a
    stack and its SVDs, and the stacks are chunked and checked against
    physical memory."""

    def _svd_spy(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return calls

    def test_two_svds_per_block_shape(self, monkeypatch):
        # hopping's 62 windows n = 2^1 .. 2^62 all have 1 x 1 blocks,
        # {5, 7} and {10, 12} share 3 x 2 blocks, and {20} has 2 x 1
        hop = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)
        projs = [*(fl.finite_section(fl.N0, 2**k) for k in range(1, 63)),
                 fl.IndexSet(fl.N0, (5, 7)), fl.IndexSet(fl.N0, (10, 12)),
                 fl.IndexSet(fl.N0, (20,))]
        seq = fl.ProjectionSequence(fl.N0, tuple(range(len(projs))), tuple(projs))
        calls = self._svd_spy(monkeypatch)
        rows = fl.folner_profile([("hop", hop)], seq, p_list=(1, 2)).rows
        assert len(rows) == 2 * len(projs)
        assert sorted(calls) == sorted([(62, 1, 1)] * 2 + [(2, 3, 2), (2, 2, 3), (1, 2, 1), (1, 1, 2)])
        (top,) = [r for r in rows if r["n"] == 61 and r["p"] == 2]
        assert top["ratio"] == pytest.approx(math.sqrt(2.0) / math.sqrt(2**62 + 1), rel=1e-15)

    def _dense_spec(self, tmp_path, support):
        rng = np.random.default_rng(support)
        m = rng.uniform(-1, 1, (support, support))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"kind": "dense", "matrix": m.tolist()}), encoding="utf-8")
        return str(path)

    def test_dense_grid_refused_before_its_stacks(self, tmp_path, capsys, monkeypatch):
        # support 40: the n = 19 window has 20 x 20 blocks at 64 bytes an entry
        def unreachable(*args):
            raise AssertionError("stacks built")

        spec = self._dense_spec(tmp_path, 40)
        monkeypatch.setattr(fl.diagnostics, "_stacked_blocks", unreachable)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 64 * 400 - 1)
        assert main(["folner", "--op", spec, "--n", "1,2,19"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: the corner blocks of a window (20 x 20 entries)")

    @pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
    def test_dense_grid_in_chunks(self, monkeypatch):
        # every two-index set inside a support-6 dense leaf has 4 x 2 blocks;
        # a budget of three windows a stack cuts the 15 of them into 5 chunks
        rng = np.random.default_rng(6)
        op = fl.Dense(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        projs = tuple(fl.IndexSet(fl.N0, (a, b)) for a in range(6) for b in range(a + 1, 6))
        seq = fl.ProjectionSequence(fl.N0, tuple(range(len(projs))), projs)
        whole = fl.folner_profile([("a", op)], seq).rows

        chunks = []
        stacked = fl.diagnostics._stacked_blocks

        def spy(src, out, near):
            chunks.append((out.shape, near.shape))
            return stacked(src, out, near)

        monkeypatch.setattr(fl.diagnostics, "_stacked_blocks", spy)
        monkeypatch.setattr(fl.diagnostics, "_STACK_BYTES", 3 * 8 * fl.diagnostics._ENTRY_BYTES)
        rows = fl.folner_profile([("a", op)], seq).rows
        assert chunks == [((3, 4), (3, 2))] * 5
        for got, want in zip(rows, whole):
            for col in ("ratio", "off_corner", "qd_gap"):
                assert got[col] == pytest.approx(want[col], rel=1e-14)

    def test_index_differences_do_not_wrap(self):
        # a leaf hopping by 2 inside a pad of bandwidth 1: on {-2^63 + 1,
        # 2^63 - 2} the difference between near -2^63 + 1 and out 2^63 - 1
        # wraps in int64 to 2, one of its offsets, yet the two never couple;
        # the window [0, 5] in the same grid couples -1 -> 1 and 4 -> 6
        class FarHop(fl.operators.OperatorSpec):
            lattice = fl.Z
            bandwidth = 1

            def __init__(self):
                self._set_diags({2: 1.0})

        far = fl.IndexSet(fl.Z, (-2**63 + 1, 2**63 - 2))
        seq = fl.ProjectionSequence(fl.Z, (1, 2), (far, fl.Window(fl.Z, 0, 5)))
        rows = fl.folner_profile([("a", FarHop())], seq, p_list=(1, 2)).rows
        want = {(1, 1): (0.0, 0.0, 0.0), (1, 2): (0.0, 0.0, 0.0),
                (2, 1): (2 / 6, 1 / 6, 1.0), (2, 2): (math.sqrt(2 / 6), math.sqrt(1 / 6), 1.0)}
        for row in rows:
            assert (row["ratio"], row["off_corner"], row["qd_gap"]) == pytest.approx(
                want[row["n"], row["p"]], abs=1e-15)


def test_fit_decay_slope_skips_zeros():
    assert fit_decay_slope([2, 4, 8], [0.0, 0.0, 0.0]) is None
    s = fit_decay_slope([2, 4, 8], [1.0 / 2, 0.0, 1.0 / 8])
    assert s == pytest.approx(-1.0, abs=1e-12)
