import math

import numpy as np
import pytest

import folner_lab as fl

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


class TestFamilies:
    def test_hat_family_partition_interior(self):
        fam = fl.hat_family(-1.0, 1.0, 9)
        assert len(fam) == 9
        # adjacent hats sum to one at shared nodes
        nodes = np.linspace(-1.0, 1.0, 11)
        for x in nodes[1:-1]:
            assert sum(f(x) for f in fam) == pytest.approx(1.0, abs=1e-12)

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

    def test_one_eigensolve_per_window(self, eig_calls):
        # eigenvalues only below the largest window; there one solve with
        # eigenvectors serves both the measure and the residual contract
        cplx = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        refs = {lab: fl.ReferenceMeasure(moments=(1.0, 0.0, 2.0)) for lab in ("t", "c")}
        rep = fl.szego_pair_test([("t", HOPPING), ("c", cplx)], seq, refs,
                                 f_family=[fl.monomial(2)])
        real, cx = np.dtype(np.float64), np.dtype(np.complex128)
        assert eig_calls == [("eigvalsh", 5, real), ("eigvalsh", 9, real), ("eigh", 17, real),
                             ("eigvalsh", 5, cx), ("eigvalsh", 9, cx), ("eigh", 17, cx)]
        row = next(r for r in rep.rows if r["label"] == "t" and r["n"] == 16)
        assert row["error"] == pytest.approx(2.0 / 17.0, abs=1e-12)

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
