import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import folner_lab as fl
from folner_lab.cli import ConfigError, main
from folner_lab.specio import load_spec_file

CORPUS = Path(__file__).parent / "corpus"

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
HOPPING = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)


class TestMomentsReference:
    def test_two_cosine_central_binomials(self):
        # tau((u + u*)^{2j}) = C(2j, j); odd moments vanish
        a = fl.nc_u(ALPHA) + fl.nc_adjoint(fl.nc_u(ALPHA))
        ref = fl.moments_reference(a, order=6)
        assert ref.moments == pytest.approx([1.0, 0.0, 2.0, 0.0, 6.0, 0.0, 20.0], abs=1e-12)

    def test_h_second_moment(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        ref = fl.moments_reference(h, order=2)
        assert ref.moments[2] == pytest.approx(2.5, abs=1e-13)
        assert ref.moments[0] == 1.0

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(fl.NotSelfAdjointError):
            fl.moments_reference(fl.nc_u(ALPHA))

    def test_large_coefficients_from_the_cli(self, capsys, tmp_path):
        path = tmp_path / "uv.json"
        path.write_text('{"kind": "ncpoly", "alpha": 0.6180339887498949, "terms": ['
                        '{"m": 1, "k": 1, "coeff": 1000.0}, {"m": -1, "k": -1, '
                        '"coeff": [-737.3688780783199, -675.4902942615237]}]}')
        code = main(["szego", "--op", str(path), "--n", "4"])
        out = capsys.readouterr()
        assert code == 0 and out.err == "" and out.out.count(",x^") == 7

    def test_moments_scale_with_the_element(self):
        # m_k(c a) = c^k m_k(a), to 1e-12 of c^k |a|_1^k
        _, h = load_spec_file(CORPUS / "valid" / "harper.json")
        small = fl.moments_reference(h, order=10).moments
        big = fl.moments_reference(1000.0 * h, order=10).moments
        for k in range(11):
            assert abs(big[k] - 1000.0**k * small[k]) <= 1e-12 * (1000.0 * 3.0) ** k

    def test_adjoint_tolerance_is_relative(self):
        # a coefficient of the adjoint half off by 1e-9 |a|_1 is still refused
        uv = fl.nc_monomial(ALPHA, 1, 1, 1000.0)
        star = fl.nc_adjoint(uv)
        off = fl.nc_monomial(ALPHA, -1, -1, 1e-9 * 2000.0)
        with pytest.raises(fl.NotSelfAdjointError, match="a = a"):
            fl.moments_reference(uv + star + off)

    def test_overflowing_moment_is_config_error(self):
        u = fl.nc_u(ALPHA)
        with pytest.raises(ConfigError, match="order 2"):
            fl.moments_reference(1e200 * (u + fl.nc_adjoint(u)), order=4)

    def test_forms_only_the_powers_it_traces(self, monkeypatch):
        # tau(a^0..a^order) needs the products a^1..a^order and no further one
        _, h = load_spec_file(CORPUS / "valid" / "harper.json")
        products = []
        mul = fl.NCPolynomial.__mul__

        def counted(self, other):
            products.append(other)
            return mul(self, other)

        monkeypatch.setattr(fl.NCPolynomial, "__mul__", counted)
        ref = fl.moments_reference(h, order=6)
        assert len(products) <= 6
        assert list(ref.moments) == [fl.canonical_trace(h.power(k)).real for k in range(7)]


class TestFamilies:
    def test_hat_family_partition_interior(self):
        fam = fl.hat_family(-1.0, 1.0, 9)
        assert len(fam) == 9
        # adjacent hats sum to one at shared nodes
        nodes = np.linspace(-1.0, 1.0, 11)
        for x in nodes[1:-1]:
            assert sum(f(x) for f in fam) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lo, hi, count", [
        (-2.0, 2.0, 17), (-2.0, 2.0, 4), (-1.0, 3.0, 7), (-3.5, 1.5, 9), (0.25, 8.0, 5),
    ])
    def test_names_ignore_round_off_of_the_support(self, lo, hi, count):
        names = [f.name for f in fl.hat_family(lo, hi, count)]
        assert not any("e-" in name for name in names)
        for k in (-8, -3, -1, 1, 3, 8):
            for lo2, hi2 in ((lo + k * np.spacing(lo), hi),
                             (lo, hi + k * np.spacing(hi)),
                             (lo + k * np.spacing(lo), hi - k * np.spacing(hi))):
                assert [f.name for f in fl.hat_family(lo2, hi2, count)] == names

    def test_zero_center_is_named_hat_at_0(self):
        assert fl.hat_family(-2 + 1e-15, 2 - 3e-15, 17)[8].name == "hat@0"
        assert [f.name for f in fl.hat_family(-2.0, 2.0, 4)] == [
            "hat@-1.2", "hat@-0.4", "hat@0.4", "hat@1.2",
        ]
        # a center genuinely off zero keeps its own name
        assert fl.hat_family(-2.0 + 1e-6, 2.0, 17)[8].name == "hat@5e-07"

    def test_default_family_on_a_symmetric_spectrum(self, capsys):
        code = main(["szego", "--op", HOPPING_SPEC, "--n", "64,256"])
        names = {line.split(",")[3] for line in capsys.readouterr().out.splitlines()[2:]}
        assert code == 0
        assert "hat@0" in names
        assert not any("e-" in name for name in names)

    def test_default_family_composition(self):
        fam = fl.szego.default_f_family((-2.0, 2.0))
        kinds = [f.kind for f in fam]
        assert kinds.count("poly") == 7 and kinds.count("hat") == 17


class TestSzegoPair:
    def test_hopping_second_moment_exact_error(self):
        # empirical x^2 integral is 2n/(n+1); the symbol reference is 2
        seq = fl.finite_section_sequence(fl.N0, [128, 512])
        refs = {"t": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs, f_family=[fl.monomial(2)])
        row = next(r for r in rep.rows if r["n"] == 512)
        assert row["error"] == pytest.approx(2.0 / 513.0, abs=1e-9)
        assert row["d_n"] == 513

    def test_kolmogorov_track_small(self):
        seq = fl.finite_section_sequence(fl.N0, [128, 256, 512])
        refs = {"t": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs, f_family=[fl.monomial(0)])
        ks = {r["n"]: r["kolmogorov"] for r in rep.kolmogorov_rows}
        assert ks[512] <= 0.01
        # weak-convergence surrogate: doubling n may not increase the distance
        assert ks[256] <= ks[128] + 0.005
        assert ks[512] <= ks[256] + 0.005

    def test_rotation_algebra_moment_errors(self):
        # N = 1024 window; max moment error over k <= 6 frozen from a
        # diagonal-sum oracle (0.0354, dominated by the sixth moment)
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        seq = fl.finite_section_sequence(fl.Z, [1024])
        refs = {"h": fl.moments_reference(h, order=6)}
        rep = fl.szego_pair_test(
            [("h", fl.represent_nc(h))],
            seq,
            refs,
            f_family=[fl.monomial(k) for k in range(7)],
            trace_refs={"h": fl.canonical_trace(h)},
        )
        assert rep.summary["h"]["max_error_at_largest_n"] <= 0.04
        # moments-only reference: no hats, no Kolmogorov rows
        assert rep.kolmogorov_rows == []
        assert rep.trace.rows[0]["abs_error"] <= 1e-3

    def test_moments_only_skips_hats(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        seq = fl.finite_section_sequence(fl.Z, [64])
        refs = {"h": fl.moments_reference(h, order=2)}
        fam = [fl.monomial(2), fl.hat(-1.0, 0.0, 1.0)]
        rep = fl.szego_pair_test([("h", fl.represent_nc(h))], seq, refs, f_family=fam)
        assert {r["f"] for r in rep.rows} == {"x^2"}

    def test_moments_only_needs_a_polynomial(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        seq = fl.finite_section_sequence(fl.Z, [64])
        refs = {"h": fl.moments_reference(h, order=2)}
        with pytest.raises(ValueError, match="no polynomial f for 'h'"):
            fl.szego_pair_test([("h", fl.represent_nc(h))], seq, refs,
                               f_family=[fl.hat(-1.0, 0.0, 1.0)])

    def test_one_eigensolve_per_window(self, eig_calls):
        # eigenvalues only below the largest window; there one solve with
        # eigenvectors serves both the measure and the residual contract
        cplx = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        refs = {"t": fl.reference_pushforward(HOPPING), "c": fl.reference_pushforward(cplx)}
        rep = fl.szego_pair_test([("t", HOPPING), ("c", cplx)], seq, refs,
                                 f_family=[fl.monomial(2)])
        real, cx = np.dtype(np.float64), np.dtype(np.complex128)
        assert eig_calls == [("eigvalsh", 5, real), ("eigvalsh", 9, real), ("eigh", 17, real),
                             ("eigvalsh", 5, cx), ("eigvalsh", 9, cx), ("eigh", 17, cx)]
        row = next(r for r in rep.rows if r["label"] == "t" and r["n"] == 16)
        assert row["error"] == pytest.approx(2.0 / 17.0, abs=1e-12)

    @pytest.mark.parametrize("family", [None, [fl.monomial(k) for k in range(5)]],
                             ids=["default", "explicit"])
    def test_moments_only_makes_no_eigensolve(self, monkeypatch, eig_calls, family):
        # not even above the tridiagonal threshold: the moments come from
        # the compressions' diagonal storage
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        op = fl.represent_nc(h)
        seq = fl.finite_section_sequence(fl.Z, [2, 16, 100])
        degree = 6 if family is None else 4
        want = {}
        for n, proj in seq:
            vals = np.linalg.eigvalsh(fl.compress(op, proj))
            want.update({(n, f"x^{k}"): np.mean(vals**k) for k in range(degree + 1)})
        eig_calls.clear()
        refs = {"h": fl.moments_reference(h, order=6)}
        rep = fl.szego_pair_test([("h", op)], seq, refs, f_family=family)
        assert eig_calls == []
        assert {(r["n"], r["f"]) for r in rep.rows} == set(want)
        for r in rep.rows:
            m = want[(r["n"], r["f"])]
            assert abs(r["empirical"] - m) <= 1e-12 * max(1.0, abs(m))

    def test_one_reference_integral_per_operator_and_f(self, monkeypatch):
        calls = []
        orig = fl.szego.integrate

        def counting(meas, f):
            calls.append((id(meas), f.name))
            return orig(meas, f)

        monkeypatch.setattr(fl.szego, "integrate", counting)
        real_sym = fl.Toeplitz({0: 0.3, 1: 0.7, -1: 0.7}, selfadjoint=True)
        refs = {"t": fl.reference_pushforward(HOPPING),
                "r": fl.ReferenceMeasure(moments=(1.0, 0.3, 1.07))}
        fam = [fl.monomial(0), fl.monomial(1), fl.monomial(2), fl.hat(-1.0, 0.0, 1.0)]
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        rep = fl.szego_pair_test([("t", HOPPING), ("r", real_sym)], seq, refs, f_family=fam)
        assert sorted(f for m, f in calls if m == id(refs["t"])) == sorted(f.name for f in fam)
        assert sorted(f for m, f in calls if m == id(refs["r"])) == ["x^0", "x^1", "x^2"]
        assert len(calls) == len(rep.rows) + 4 + 3

    def test_missing_reference(self):
        seq = fl.finite_section_sequence(fl.N0, [4])
        with pytest.raises(fl.MissingReferenceError):
            fl.szego_pair_test([("t", HOPPING)], seq, refs={})

    def test_non_selfadjoint_operator_rejected(self):
        seq = fl.finite_section_sequence(fl.N0, [4])
        refs = {"s": fl.ReferenceMeasure(moments=(1.0, 0.0))}
        with pytest.raises(fl.NonHermitianError):
            fl.szego_pair_test([("s", fl.Shift())], seq, refs, f_family=[fl.monomial(1)])

    def test_error_decay_slope_near_minus_one(self):
        # second-moment error 2/(n+1) decays like d_n^{-1}
        seq = fl.finite_section_sequence(fl.N0, [2**k for k in range(4, 10)])
        refs = {"t": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs, f_family=[fl.monomial(2)])
        assert rep.summary["t"]["error_decay_slope"] == pytest.approx(-1.0, abs=0.02)

    def test_attached_reports_and_serialization(self):
        seq = fl.finite_section_sequence(fl.N0, [8, 16])
        refs = {"t": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs, f_family=[fl.monomial(2)])
        assert rep.folner is not None and rep.trace is not None
        assert rep.to_csv().startswith("# folner-lab")
        assert "max_error" in rep.plot_csv()
        assert '"summary"' in rep.to_json()

    def test_necessity_coupling(self):
        # golden-threshold regression: the same windows that make the
        # spectral errors small also make the commutator ratios small,
        # and both are far from small at tiny n
        seq = fl.finite_section_sequence(fl.N0, [4, 512])
        refs = {"t": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs, f_family=[fl.monomial(2)])
        ratio = {r["n"]: r["ratio"] for r in rep.folner.rows if r["p"] == 2}
        err = {r["n"]: r["error"] for r in rep.rows}
        assert ratio[4] > 0.4 and err[4] > 0.35
        assert ratio[512] < 0.07 and err[512] < 0.005

    def test_one_eigensolve_per_window_tridiagonal(self, monkeypatch, eig_calls):
        # the same contract above the tridiagonal threshold: eigenvalues only
        # below the largest window, one solve with eigenvectors there, and no
        # dense solve at all
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
        real_sym = fl.Toeplitz({0: 0.3, 1: 0.7, -1: 0.7}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        refs = {"t": fl.reference_pushforward(HOPPING), "r": fl.reference_pushforward(real_sym)}
        rep = fl.szego_pair_test([("t", HOPPING), ("r", real_sym)], seq, refs,
                                 f_family=[fl.monomial(2)])
        real = np.dtype(np.float64)
        per_op = [("eigvalsh_tridiagonal", 5, real), ("eigvalsh_tridiagonal", 9, real),
                  ("eigh_tridiagonal", 17, real)]
        assert eig_calls == per_op + per_op
        row = next(r for r in rep.rows if r["label"] == "t" and r["n"] == 16)
        assert row["error"] == pytest.approx(2.0 / 17.0, abs=1e-12)


HOPPING_SPEC = str(CORPUS / "valid" / "hopping.json")


def test_perturbed_tridiagonal_vectors_exit_1(monkeypatch, capsys):
    import scipy.linalg

    orig = scipy.linalg.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        vals, vecs = orig(*args, **kwargs)
        vecs[0] += 1e-6
        return vals, vecs

    monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
    code = main(["szego", "--op", HOPPING_SPEC, "--n", "8,16"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("numerical failure: residual")


class TestMemoryFootprint:
    """A solve whose d x d arrays exceed physical memory is refused before
    anything is allocated; the memory reading is patched, never exhausted."""

    def test_oversized_window_is_config_error(self, monkeypatch, capsys, eig_calls):
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 64 << 30)
        code = main(["szego", "--op", HOPPING_SPEC, "--n", "200000"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        err = out.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "200001" in err[0]
        assert eig_calls == []

    def test_refused_before_the_first_solve(self, monkeypatch, capsys, eig_calls):
        # the largest window's eigenvectors (8 d^2 bytes at d = 4001) do not
        # fit; the smaller window is never solved
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 100 << 20)
        assert main(["szego", "--op", HOPPING_SPEC, "--n", "100,4000"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert eig_calls == []

    def test_dense_estimate(self, monkeypatch, eig_calls):
        # a complex compression stays dense: matrix, symmetrization and
        # eigenvectors, 48 d^2 bytes, are 3.17 MB at d = 257
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 3 << 20)
        cplx = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [32, 256])
        refs = {"c": fl.reference_pushforward(cplx)}
        with pytest.raises(ConfigError, match="dimension 257"):
            fl.szego_pair_test([("c", cplx)], seq, refs, f_family=[fl.monomial(2)])
        assert eig_calls == [("eigvalsh", 33, np.dtype(np.complex128))]


def test_harper_moments_storage_checked_before_it_is_built(monkeypatch, capsys, eig_calls):
    # order 6 at n = 100 (d = 201): (2 * 3 + 1) powers of 3 diagonals plus 3
    # temporaries of 16 bytes a position; no solve is checked or run
    harper = str(CORPUS / "valid" / "harper.json")
    need = 16 * 201 * (7 * 3 + 3)
    monkeypatch.setattr(fl._util, "_physical_memory", lambda: need - 1)
    assert main(["szego", "--op", harper, "--n", "10,100", "--f", "poly:6"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: the moment storage of a window of dimension 201 needs about "
                   f"{need / 2**30:.1f} GiB, more than the {(need - 1) / 2**30:.1f} GiB of "
                   "physical memory"]
    monkeypatch.setattr(fl._util, "_physical_memory", lambda: need)
    assert main(["szego", "--op", harper, "--n", "10,100", "--f", "poly:6"]) == 0
    assert eig_calls == []


def test_smoke_round_leaves_scipy_unimported():
    # the tiny windows every benchmark workload ends with stay on the dense
    # path, which never imports scipy
    valid = CORPUS / "valid"
    runs = [
        ["szego", "--op", HOPPING_SPEC, "--n", "2,4", "--f", "poly:2,hat:2:-2:2"],
        ["szego", "--op", str(valid / "harper.json"), "--n", "1,2", "--f", "poly:4"],
        ["folner", "--op", str(valid / "normal_poly.json"), "--n", "1,2"],
        ["trace", "--op", HOPPING_SPEC, "--n", "1,2"],
        ["tensor", "--op-a", str(valid / "shift.json"), "--op-b", HOPPING_SPEC, "--n", "1,2"],
        ["demo-shift", "--n", "1,3"],
    ]
    script = (
        "import sys\n"
        "from folner_lab.cli import main\n"
        f"codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
        " file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{[0] * len(runs)} []"
