import json
import math
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import compress
import folner_lab as fl
from folner_lab.cli import ConfigError, main
from folner_lab.specio import load_spec_file

CORPUS = Path(__file__).parent / "corpus"

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
HOPPING = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)
# a real bandwidth-1 operator on n0 whose compressions are never persymmetric
RAMP = fl.op_sum(HOPPING, fl.Band(0, ((0, lambda n: 0.01 * n),), lattice=fl.N0))
# hopping on z, and with the even potential 0.01 |n| (a valley) or the odd
# one 0.01 n (a ramp) added: on the windows of z centred at 0 the first two
# are persymmetric, and only hopping is Toeplitz
HOPPING_Z = fl.Toeplitz({1: 1.0, -1: 1.0}, lattice=fl.Z, selfadjoint=True)
VALLEY_Z = fl.op_sum(HOPPING_Z, fl.Band(0, ((0, lambda n: 0.01 * np.abs(n)),), lattice=fl.Z))
RAMP_Z = fl.op_sum(HOPPING_Z, fl.Band(0, ((0, lambda n: 0.01 * n),), lattice=fl.Z))


def _exact_moments(a, order):
    """tau(a^0..a^order) of an NCPolynomial with rational coefficients, at
    50 digits.  The full powers a^k are formed by the normal-ordering rule
    v^n u^m = e^(2 pi i alpha n m) u^m v^n with exact integer ledgers {r: c}
    of a common multiple of a's coefficients, keeping only the monomials
    that can still return to u^0 v^0 by `order`; each tau(a^k) is its
    ledger at u^0 v^0, exponentiated with mpmath."""
    mpmath = pytest.importorskip("mpmath")
    coeffs = {mk: Fraction(a.coefficient(*mk).real) for mk in a.monomials()}
    assert all(a.coefficient(*mk) == c for mk, c in coeffs.items())
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    steps = [(m, n, int(c * den)) for (m, n), c in coeffs.items()]
    reach = max(abs(m) + abs(n) for m, n, _ in steps)
    power, moments = {(0, 0): {0: 1}}, [1.0]
    with mpmath.workdps(50):
        turn = 2 * mpmath.pi * mpmath.mpf(a.alpha)
        for k in range(1, order + 1):
            nxt = {}
            for (m, n), ledger in power.items():
                for dm, dn, c in steps:
                    if abs(m + dm) + abs(n + dn) > reach * (order - k):
                        continue
                    dst = nxt.setdefault((m + dm, n + dn), {})
                    for r, x in ledger.items():
                        dst[r + n * dm] = dst.get(r + n * dm, 0) + c * x
            power = nxt
            tau = mpmath.fsum(x * mpmath.expj(turn * r) for r, x in power.get((0, 0), {}).items())
            moments.append(complex(tau / mpmath.mpf(den) ** k))
    return moments


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
        # tau(a^0..a^order) needs the half powers a^1..a^ceil(order/2) only;
        # every product, through `*` or `nc_multiply`, is counted
        _, h = load_spec_file(CORPUS / "valid" / "harper.json")
        mul = fl.traces.nc_multiply
        for order in (0, 1, 2, 5, 6, 9):
            products = []

            def counted(x, y):
                products.append(y)
                return mul(x, y)

            monkeypatch.setattr(fl.traces, "nc_multiply", counted)
            monkeypatch.setattr(fl.szego, "nc_multiply", counted)
            ref = fl.moments_reference(h, order=order)
            monkeypatch.undo()
            assert len(products) <= math.ceil(order / 2), order
            for k, m in enumerate(ref.moments):
                want = fl.canonical_trace(h.power(k)).real
                assert abs(m - want) <= 1e-12 * max(1.0, abs(want)), (order, k)

    def test_harper_moments_against_a_50_digit_oracle(self):
        # tau(a^k) for k <= 30 to 1e-13 of max(1, |tau(a^k)|); the full
        # powers a^k it replaces drift to 4.5e-13 at k = 30
        _, h = load_spec_file(CORPUS / "valid" / "harper.json")
        want = _exact_moments(h, 30)
        got = fl.moments_reference(h, order=30).moments
        for k in range(31):
            assert abs(got[k] - want[k]) <= 1e-13 * max(1.0, abs(want[k])), k


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
        with pytest.raises(ConfigError, match="the f family has no polynomial"):
            fl.szego_pair_test([("h", fl.represent_nc(h))], seq, refs,
                               f_family=[fl.hat(-1.0, 0.0, 1.0)])

    def test_one_eigensolve_per_window(self, eig_calls):
        # eigenvalues only below the largest window; there one eigensolve
        # with eigenvectors serves both the measure and the residual contract:
        # two real halves of the persymmetric hopping, one real matrix of
        # order d for the persymmetric complex symbol, one solve of the ramp
        cplx = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        refs = {"t": fl.reference_pushforward(HOPPING), "c": fl.reference_pushforward(cplx),
                "r": fl.reference_pushforward(HOPPING)}
        rep = fl.szego_pair_test([("t", HOPPING), ("c", cplx), ("r", RAMP)], seq, refs,
                                 f_family=[fl.monomial(2)])
        real = np.dtype(np.float64)
        assert eig_calls == [("eigvalsh", 3, real), ("eigvalsh", 2, real),
                             ("eigvalsh", 5, real), ("eigvalsh", 4, real),
                             ("eigh", 9, real), ("eigh", 8, real),
                             ("eigvalsh", 5, real), ("eigvalsh", 9, real), ("eigh", 17, real),
                             ("eigvalsh", 5, real), ("eigvalsh", 9, real), ("eigh", 17, real)]
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
            vals = np.linalg.eigvalsh(compress(op, proj))
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

    def test_plot_rows_are_each_windows_largest_error(self):
        # two operators given out of label order: one plot row per (label, n),
        # sorted, each the largest error of that window's rows
        seq = fl.finite_section_sequence(fl.N0, [3, 9, 33])
        refs = {label: fl.reference_pushforward(HOPPING) for label in ("b", "a")}
        rep = fl.szego_pair_test([("b", HOPPING), ("a", HOPPING)], seq, refs)
        want = [{"label": label, "n": n, "d_n": n + 1,
                 "max_error": max(r["error"] for r in rep.rows
                                  if (r["label"], r["n"]) == (label, n))}
                for label in ("a", "b") for n in (3, 9, 33)]
        assert rep.plot_rows == want
        assert rep.plot_csv() == fl._util.report_csv(want, ("label", "n", "d_n", "max_error"))

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
        # above the tridiagonal threshold every window is solved for
        # eigenvalues only, the largest one certified by Sturm counts, and no
        # dense solve runs at all; on the windows of z centred at 0 the
        # persymmetric symbols take two tridiagonal halves in closed form,
        # the valley two sterf halves, the ramp one sterf solve
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
        real_sym = fl.Toeplitz({0: 0.3, 1: 0.7, -1: 0.7}, lattice=fl.Z, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.Z, [4, 8, 16])
        hop = fl.reference_pushforward(HOPPING_Z)
        refs = {"t": hop, "r": fl.reference_pushforward(real_sym), "v": hop, "u": hop}
        rep = fl.szego_pair_test([("t", HOPPING_Z), ("r", real_sym), ("v", VALLEY_Z),
                                  ("u", RAMP_Z)], seq, refs, f_family=[fl.monomial(2)])
        real = np.dtype(np.float64)
        orders = [5, 4, 9, 8, 17, 16]
        assert eig_calls == ([("cosine", n, real) for n in orders] * 2
                             + [("sterf", n, real) for n in orders]
                             + [("sterf", n, real) for n in (9, 17, 33)])
        row = next(r for r in rep.rows if r["label"] == "t" and r["n"] == 16)
        assert row["error"] == pytest.approx(2.0 / 33.0, abs=1e-12)

    def test_largest_window_takes_the_residual_check_wherever_it_stands(
            self, monkeypatch, eig_calls):
        # a sequence need not end on its largest window: the window of
        # largest rank is the one checked up front, certified and spanning
        # the default hats
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
        ranks = []
        monkeypatch.setattr(fl.szego, "check_solve_footprint",
                            lambda rank, **kwargs: ranks.append(rank))
        # (a valley on windows of z centred at 0, whose halves sterf solves)
        big, small = fl.finite_section(fl.Z, 32), fl.finite_section(fl.Z, 2)
        refs = {"t": fl.reference_pushforward(HOPPING)}
        seq = fl.ProjectionSequence(fl.Z, (1, 2), (big, small))
        rep = fl.szego_pair_test([("t", VALLEY_Z)], seq, refs)
        real = np.dtype(np.float64)
        assert ranks == [65]
        assert eig_calls == [("sterf", n, real) for n in (33, 32, 3, 2)]
        alone = fl.szego_pair_test([("t", VALLEY_Z)], fl.ProjectionSequence(fl.Z, (1,), (big,)),
                                   refs)
        assert {r["f"] for r in rep.rows} == {r["f"] for r in alone.rows}

    def test_summary_reads_the_window_of_largest_rank(self):
        # labels say nothing about ranks: the summary is that of the rank-65
        # window, labelled 1, not of the rank-5 window under the larger label
        big, small = fl.finite_section(fl.N0, 64), fl.finite_section(fl.N0, 4)
        refs = {"t": fl.reference_pushforward(HOPPING)}
        seq = fl.ProjectionSequence(fl.N0, (1, 2), (big, small))
        rep = fl.szego_pair_test([("t", HOPPING)], seq, refs)
        errors = {n: max(r["error"] for r in rep.rows if r["n"] == n) for n in (1, 2)}
        assert errors[1] < errors[2]
        assert rep.summary["t"]["largest_n"] == 1
        assert rep.summary["t"]["max_error_at_largest_n"] == errors[1]


HOPPING_SPEC = str(CORPUS / "valid" / "hopping.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("kind", ["shift", "duplicate", "nan"])
def test_perturbed_sterf_exit_1(monkeypatch, capsys, wrong_sterf, valley, kind):
    # a wrong eigenvalue of the largest window fails its Sturm certificate
    # (hopping's windows with a palindromic diagonal added, so that sterf
    # solves them)
    monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
    wrong_sterf(kind)
    code = main(["szego", "--op", HOPPING_SPEC, "--n", "16"])
    out = capsys.readouterr()
    err = out.err.splitlines()
    assert code == 1 and out.out == ""
    assert len(err) == 1 and err[0].startswith("numerical failure: eigenvalue ")


@pytest.mark.parametrize("kind", ["shift", "duplicate", "nan", "missing"])
@pytest.mark.parametrize("half", [0, 1], ids=["symmetric", "antisymmetric"])
def test_perturbed_closed_form_exit_1(capsys, wrong_cosine, half, kind):
    # hopping's largest window, d = 1025, is solved in closed form: a wrong
    # eigenvalue of either half fails its Sturm certificate, with one line
    calls = wrong_cosine(kind, half)
    code = main(["szego", "--op", HOPPING_SPEC, "--n", "16,1024"])
    out = capsys.readouterr()
    err = out.err.splitlines()
    assert code == 1 and out.out == ""
    assert len(err) == 1 and err[0].startswith("numerical failure: eigenvalue ")
    assert f"on its half, of order {(513, 512)[half]}," in err[0]
    assert [[v.size for v in halves] for halves in calls] == [[513, 512]]


class TestReferenceDeferral:
    """szego builds each Toeplitz operator's pushforward reference only
    after that operator's windows are solved, and drops it before the next
    operator's: one reference is held at a time.  Every reference's memory
    guard runs before any window is solved."""

    def _symbol(self, tmp_path, coeffs, name="wide"):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"kind": "toeplitz", "coeffs": coeffs}))
        return str(spec)

    def test_one_reference_at_a_time(self, monkeypatch, capsys, tmp_path):
        # hopping, then a real bandwidth-3 symbol: every window of an
        # operator is solved before its reference is built, and while the
        # second operator's windows are solved, the first's reference, held
        # only through a weak reference to its nodes, is gone
        wide = self._symbol(tmp_path, {"0": 0.5, "3": 0.25, "-3": 0.25, "1": 1.0, "-1": 1.0})
        events, built = [], []
        solve, build = fl.szego.compression_eigenvalues, fl.spectral.reference_pushforward

        def spy_solve(op, proj, **kwargs):
            assert all(r() is None for r in built), "a reference outlived its pass"
            events.append(("solve", op.bandwidth))
            return solve(op, proj, **kwargs)

        def spy_build(symbol, **kwargs):
            events.append(("reference", symbol.bandwidth))
            ref = build(symbol, **kwargs)
            built.append(weakref.ref(ref.xs))
            return ref

        monkeypatch.setattr(fl.szego, "compression_eigenvalues", spy_solve)
        monkeypatch.setattr(fl.spectral, "reference_pushforward", spy_build)
        code, out, err = run_cli(capsys, "szego", "--op", HOPPING_SPEC, "--op", wide,
                                 "--n", "4,8,16", "--format", "json")
        assert code == 0 and err == ""
        assert events == [("solve", 1)] * 3 + [("reference", 1)] + \
            [("solve", 3)] * 3 + [("reference", 3)]
        # the same rows as with every reference built before any solve
        monkeypatch.undo()
        ops = [("hopping", HOPPING), ("wide", load_spec_file(wide)[1])]
        seq = fl.finite_section_sequence(fl.N0, [4, 8, 16])
        eager = fl.szego_pair_test(ops, seq, {label: fl.reference_pushforward(op)
                                              for label, op in ops})
        assert json.loads(out)["rows"] == json.loads(eager.to_json())["rows"]

    def test_refused_reference_stops_before_any_solve(self, monkeypatch, capsys, tmp_path):
        # at --nodes 1000 hopping's reference counts 16 * 1000 + 16 * 6 *
        # 1000 bytes and the bandwidth-3 symbol's 16 * 1000 + 16 * 8 * 1000:
        # with memory for the first only, the run exits 2 on the second's
        # guard, and no window is solved nor any reference built
        wide = self._symbol(tmp_path, {"0": 0.5, "3": 0.25, "-3": 0.25})

        def unreachable(*args, **kwargs):
            raise AssertionError("solved or built after a refused reference")

        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 * 1000 + 16 * 6 * 1000)
        monkeypatch.setattr(fl.szego, "compression_eigenvalues", unreachable)
        monkeypatch.setattr(fl.spectral, "reference_pushforward", unreachable)
        code, out, err = run_cli(capsys, "szego", "--op", HOPPING_SPEC, "--op", wide,
                                 "--n", "4", "--nodes", "1000")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("config error: the pushforward reference of 1000 nodes")

    def test_non_real_second_symbol(self, capsys, tmp_path):
        # 1 + 0.5i e^(9i theta) is not real, but no window up to n = 8 sees
        # offset 9, so its compressions are Hermitian: the realness check in
        # its operator's pass exits 3 with one line, whether the symbol
        # comes second or alone
        odd = self._symbol(tmp_path, {"0": 1.0, "9": [0.0, 0.5]}, name="odd")
        for argv in (["--op", HOPPING_SPEC, "--op", odd], ["--op", odd]):
            code, out, err = run_cli(capsys, "szego", *argv, "--n", "4,8")
            assert code == 3 and out == ""
            assert err.splitlines() == ["spec error: pushforward requires a real-valued symbol"]


class TestMemoryFootprint:
    """A solve whose arrays exceed physical memory is refused before
    anything is allocated; the memory reading is patched, never exhausted,
    and no refused solve is ever started."""

    def test_oversized_window_is_config_error(self, monkeypatch, capsys, eig_calls):
        # even the O(d) arrays of the tridiagonal solve, 256 bytes a
        # position, exceed 64 GiB at d = 10^9 + 1
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 64 << 30)
        code = main(["szego", "--op", HOPPING_SPEC, "--n", "1000000000"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        err = out.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert "1000000001" in err[0]
        assert eig_calls == []

    def test_oversized_dense_window_is_config_error(self, monkeypatch, capsys, tmp_path,
                                                     eig_calls):
        # a bandwidth-3 symbol passes the tridiagonal pre-check at d = 200001,
        # and its dense halves with eigenvectors and LAPACK's workspace for
        # them, 56 (d - d // 2)^2 bytes, and four residual blocks of one
        # complex column (16 d bytes, more than the 2^18 bytes a block holds
        # at smaller d), 560 GB in all, are refused once its storage is read
        spec = tmp_path / "band3.json"
        spec.write_text('{"kind": "toeplitz", "coeffs": {"0": 0.5, "1": 1.0, "-1": 1.0, '
                        '"3": 0.25, "-3": 0.25}, "selfadjoint": true}')
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 64 << 30)
        code = main(["szego", "--op", str(spec), "--n", "200000"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        err = out.err.splitlines()
        need = 56 * 100001**2 + 4 * 16 * 200001
        assert err == ["config error: the eigensolve of a window of dimension 200001 needs "
                       f"about {need / 2**30:.1f} GiB, more than the 64.0 GiB of physical memory"]
        assert eig_calls == []

    def test_refused_before_the_first_solve(self, monkeypatch, capsys, eig_calls):
        # the tridiagonal solve of the largest window (256 bytes a position)
        # does not fit; the smaller window is never solved
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 256 * 4001 - 1)
        assert main(["szego", "--op", HOPPING_SPEC, "--n", "100,4000"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert eig_calls == []

    def test_window_the_fold_can_solve_runs(self, request, monkeypatch, capsys, eig_calls):
        # at d = 1001 the tridiagonal halves and their certificate (256 KB)
        # fit in 6 MiB, where the dense halves with eigenvectors (10.0 MB)
        # would not: hopping's in closed form, then sterf's once a
        # palindromic diagonal is added
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 6 << 20)
        real = np.dtype(np.float64)
        for solver in ("cosine", "sterf"):
            if solver == "sterf":
                request.getfixturevalue("valley")
            eig_calls.clear()
            assert main(["szego", "--op", HOPPING_SPEC, "--n", "1000", "--f", "poly:2"]) == 0
            assert capsys.readouterr().err == ""
            assert eig_calls == [(solver, 501, real), (solver, 500, real)]
        with pytest.raises(ConfigError, match="dimension 1001"):
            fl.spectral.check_solve_footprint(1001, tridiagonal=False, check_residual=True,
                                              fold="halves")

    def test_dense_estimate(self, monkeypatch, eig_calls):
        # a persymmetric complex compression folds into one real matrix of
        # order d, formed in place: it, LAPACK's working copy, the
        # eigenvectors and LAPACK's workspace for them, 40 d^2 bytes, and
        # four complex blocks of the residual of 2^18 // (16 d) = 63 columns
        # are 3.68 MB at d = 257
        cplx = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
        seq = fl.finite_section_sequence(fl.N0, [32, 256])
        refs = {"c": fl.reference_pushforward(cplx)}
        need = 40 * 257 * 257 + 4 * 16 * 257 * 63
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match="dimension 257"):
            fl.szego_pair_test([("c", cplx)], seq, refs, f_family=[fl.monomial(2)])
        assert eig_calls == [("eigvalsh", 33, np.dtype(np.float64))]
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need)
        fl.szego_pair_test([("c", cplx)], seq, refs, f_family=[fl.monomial(2)])


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
