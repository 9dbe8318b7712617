import cmath
import math

import numpy as np
import pytest

from dense_oracle import compress
import folner_lab as fl
from folner_lab._util import ConfigError
from folner_lab.operators import AdjE, _as_node

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


def word_trace(words, alpha):
    """Independent oracle: trace of a sum of generator words.

    Each word is (coeff, letters) with letters over u/U/v/V (U, V the
    inverses).  Normal-ordering phases are accumulated by counting, for
    every v-type letter standing left of a u-type letter, the product of
    their exponents; the canonical trace keeps only balanced words.
    """
    total = 0j
    steps = {"u": (1, 0), "U": (-1, 0), "v": (0, 1), "V": (0, -1)}
    for coeff, letters in words:
        ms = [steps[c][0] for c in letters]
        ks = [steps[c][1] for c in letters]
        if sum(ms) != 0 or sum(ks) != 0:
            continue
        phase = 0
        for i in range(len(letters)):
            for j in range(i + 1, len(letters)):
                phase += ks[i] * ms[j]
        total += coeff * cmath.exp(2j * math.pi * alpha * phase)
    return total


def h_words(lam):
    return [(1.0, "u"), (1.0, "U"), (lam, "v"), (lam, "V")]


def word_power(words, k):
    out = [(1.0, "")]
    for _ in range(k):
        out = [(c1 * c2, w1 + w2) for c1, w1 in out for c2, w2 in words]
    return out


class TestNCPolynomial:
    def test_defining_relation(self):
        u, v = fl.nc_u(ALPHA), fl.nc_v(ALPHA)
        vu = fl.nc_multiply(v, u)
        assert vu.coefficient(1, 1) == pytest.approx(cmath.exp(2j * math.pi * ALPHA), abs=1e-15)
        assert vu.monomials() == [(1, 1)]

    def test_inverse(self):
        u = fl.nc_u(ALPHA)
        prod = fl.nc_multiply(u, fl.nc_monomial(ALPHA, -1, 0))
        assert prod.monomials() == [(0, 0)]
        assert prod.coefficient(0, 0) == 1.0

    def test_h_squared_constant_term(self):
        # symbolic expansion oracle, 16 word products
        lam = 0.5
        h = fl.almost_mathieu_element(ALPHA, lam)
        h2 = fl.nc_multiply(h, h)
        oracle = word_trace(word_power(h_words(lam), 2), ALPHA)
        assert h2.coefficient(0, 0) == pytest.approx(2.0 + 2.0 * lam**2, abs=1e-14)
        assert h2.coefficient(0, 0) == pytest.approx(oracle, abs=1e-14)

    def test_alpha_mismatch(self):
        with pytest.raises(fl.traces.AlphaMismatchError):
            fl.nc_multiply(fl.nc_u(0.3), fl.nc_u(0.4))

    def test_distributive_and_associative(self):
        rng = np.random.default_rng(0)

        def rand_poly():
            terms = {}
            for _ in range(3):
                m, k = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
                terms[(m, k)] = {0: complex(rng.standard_normal(), rng.standard_normal())}
            return fl.NCPolynomial(ALPHA, terms)

        for _ in range(10):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            lhs = fl.nc_multiply(a, b + c)
            rhs = fl.nc_multiply(a, b) + fl.nc_multiply(a, c)
            for mk in set(lhs.monomials()) | set(rhs.monomials()):
                assert lhs.coefficient(*mk) == pytest.approx(rhs.coefficient(*mk), abs=1e-12)
            lhs = fl.nc_multiply(fl.nc_multiply(a, b), c)
            rhs = fl.nc_multiply(a, fl.nc_multiply(b, c))
            for mk in set(lhs.monomials()) | set(rhs.monomials()):
                assert lhs.coefficient(*mk) == pytest.approx(rhs.coefficient(*mk), abs=1e-12)


class TestCanonicalTrace:
    def test_unit(self):
        assert fl.canonical_trace(fl.nc_one(ALPHA)) == 1.0

    def test_nontrivial_monomials_vanish(self):
        for m, k in [(1, 0), (0, 1), (-2, 3)]:
            assert fl.canonical_trace(fl.nc_monomial(ALPHA, m, k)) == 0.0

    def test_h_squared(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        assert fl.canonical_trace(fl.nc_multiply(h, h)) == pytest.approx(2.5, abs=1e-14)


class TestAdjointConvention:
    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            terms = {
                (int(rng.integers(-3, 4)), int(rng.integers(-3, 4))): {
                    int(rng.integers(-2, 3)): complex(rng.standard_normal(), rng.standard_normal())
                }
                for _ in range(4)
            }
            a = fl.NCPolynomial(ALPHA, terms)
            assert fl.nc_adjoint(fl.nc_adjoint(a)).terms == a.terms

    def test_anti_multiplicative(self):
        u, v = fl.nc_u(ALPHA), fl.nc_v(ALPHA)
        lhs = fl.nc_adjoint(fl.nc_multiply(u, v))
        rhs = fl.nc_multiply(fl.nc_adjoint(v), fl.nc_adjoint(u))
        for mk in set(lhs.monomials()) | set(rhs.monomials()):
            assert lhs.coefficient(*mk) == pytest.approx(rhs.coefficient(*mk), abs=1e-15)


class TestRepresentation:
    def test_u_is_two_sided_shift(self):
        op = fl.represent_nc(fl.nc_u(ALPHA))
        m = compress(op, fl.Window(fl.Z, -2, 2))
        assert np.array_equal(m, np.eye(5, k=-1))
        assert fl.trace_estimate(op, fl.finite_section(fl.Z, 100)) == 0.0

    def test_v_is_modulation(self):
        phi = 0.25
        op = fl.represent_nc(fl.nc_v(ALPHA), phi=phi)
        idx = np.arange(-3, 4)
        m = compress(op, fl.Window(fl.Z, -3, 3))
        want = np.diag(np.exp(2j * np.pi * (ALPHA * idx + phi)))
        assert np.max(np.abs(m - want)) < 1e-14

    def test_commutation_relation_in_representation(self):
        u = fl.represent_nc(fl.nc_u(ALPHA))
        v = fl.represent_nc(fl.nc_v(ALPHA))
        proj = fl.Window(fl.Z, -4, 4)
        vu = compress(fl.op_prod(v, u), proj)
        uv = compress(fl.op_prod(u, v), proj)
        assert np.max(np.abs(vu - cmath.exp(2j * math.pi * ALPHA) * uv)) < 1e-13

    def test_symbol_at_phase_0_is_the_element_bit_for_bit(self):
        u, v = fl.nc_u(ALPHA), fl.nc_v(ALPHA)
        uv, u2v = u * v, (0.5 + 0.25j) * (u * u * v)
        mixed = uv + u2v + uv.adjoint() + u2v.adjoint() + 0.3
        for a in (fl.almost_mathieu_element(ALPHA, 0.5), mixed):
            sym = fl.represent_nc(a).symbol
            assert sym.freqs == a.freqs and sym.terms == a.terms
            assert all(repr(c) == repr(a.terms[key]) for key, c in sym.terms.items())

    def test_monomial_diagonal_faithfulness(self):
        # interior diagonal equals the pointwise diagonal symbol of the monomial
        idx = np.arange(-5, 6)
        for m, k in [(0, 0), (0, 2), (1, 1), (-2, 0)]:
            op = fl.represent_nc(fl.nc_monomial(ALPHA, m, k), phi=0.1)
            diag = np.diag(compress(op, fl.Window(fl.Z, -5, 5)))
            if m != 0:
                want = np.zeros(idx.size)
            else:
                want = np.exp(2j * np.pi * k * (ALPHA * idx + 0.1))
            assert np.max(np.abs(diag - want)) <= 1e-12

    def test_v_trace_geometric_sum(self):
        op = fl.represent_nc(fl.nc_v(ALPHA))
        n = 500
        est = fl.trace_estimate(op, fl.finite_section(fl.Z, n))
        d = 2 * n + 1
        closed = math.sin(math.pi * ALPHA * d) / (d * math.sin(math.pi * ALPHA))
        assert abs(est) == pytest.approx(abs(closed), abs=1e-12)
        assert abs(est) <= 0.002


class TestTraceEstimate:
    def test_identity(self):
        for lattice in (fl.N0, fl.Z):
            est = fl.trace_estimate(fl.identity(lattice), fl.finite_section(lattice, 7))
            assert est == 1.0

    def test_toeplitz_constant_diagonal(self):
        t = fl.Toeplitz({0: 0.5 + 0.25j, 2: 1.0})
        for n in (1, 9, 40):
            assert fl.trace_estimate(t, fl.finite_section(fl.N0, n)) == 0.5 + 0.25j

    def test_modulation_closed_form(self):
        alpha = math.sqrt(2.0) - 1.0
        band = fl.Band(0, ((0, lambda n: np.exp(2j * np.pi * alpha * np.asarray(n))),))
        n = 1000
        est = fl.trace_estimate(band, fl.finite_section(fl.Z, n))
        d = 2 * n + 1
        closed = math.sin(math.pi * alpha * d) / (d * math.sin(math.pi * alpha))
        assert abs(est) == pytest.approx(abs(closed), abs=1e-12)
        assert abs(est) <= 0.01

    def test_h_squared_estimate(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        op = fl.represent_nc(fl.nc_multiply(h, h))
        est = fl.trace_estimate(op, fl.finite_section(fl.Z, 2000))
        assert abs(est - 2.5) <= 0.01

    def test_linearity_in_operator(self):
        rng = np.random.default_rng(6)
        a = fl.Dense(rng.standard_normal((5, 5)))
        b = fl.Dense(rng.standard_normal((5, 5)))
        proj = fl.Window(fl.N0, 0, 4)
        lhs = fl.trace_estimate(fl.op_sum(a, b), proj)
        assert lhs == pytest.approx(
            fl.trace_estimate(a, proj) + fl.trace_estimate(b, proj), abs=1e-13
        )

    def test_estimate_bounded_by_padded_norm(self):
        am = fl.AlmostMathieu(0.9, ALPHA)
        proj = fl.finite_section(fl.Z, 30)
        a, _ = fl.operators.padded_compression(am, proj)
        bound = fl.schatten_norm(a, math.inf)
        assert abs(fl.trace_estimate(am, proj)) <= bound + 1e-12


class TestConvergenceReport:
    def test_identity_errors_zero(self):
        seq = fl.finite_section_sequence(fl.N0, [2, 4, 8])
        rep = fl.trace_convergence_report([("one", fl.identity(fl.N0))], seq, refs={"one": 1.0})
        assert all(r["abs_error"] == 0.0 for r in rep.rows)

    def test_toeplitz_zero_mean_symbol(self):
        seq = fl.finite_section_sequence(fl.N0, [4, 16, 64])
        t = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)
        rep = fl.trace_convergence_report([("t", t)], seq, refs={"t": 0.0})
        assert all(r["estimate_re"] == 0.0 and r["abs_error"] == 0.0 for r in rep.rows)

    def test_h_squared_error_track(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        op = fl.represent_nc(fl.nc_multiply(h, h))
        seq = fl.finite_section_sequence(fl.Z, [250, 500, 1000, 2000])
        rep = fl.trace_convergence_report([("h2", op)], seq, refs={"h2": 2.5})
        errs = [r["abs_error"] for r in rep.rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a  # nonincreasing within 10% jitter

    def test_one_poly_evaluation_per_operator_on_a_non_nested_sequence(self, monkeypatch):
        # windows that do not nest share one diagonal: each operator with a
        # callable diagonal is evaluated once, on the union of the windows' runs
        s = fl.Band(1, ((1, lambda i: 1.0 + 0.0 * np.asarray(i)), (-1, 0.5j)), lattice=fl.N0)
        ops = [("a", fl.op_prod(s, s)), ("b", fl.op_sum(s, fl.op_scale(2.0, fl.identity())))]
        projs = (fl.finite_section(fl.N0, 32), fl.Window(fl.N0, 40, 50), fl.finite_section(fl.N0, 2))
        want = {(label, n): np.trace(compress(op, proj)) / proj.rank
                for label, op in ops for n, proj in zip((1, 2, 3), projs)}
        calls = []
        exact = fl.operators.exact_entries

        def spy(op, runs):
            calls.append(sum(hi - lo + 1 for lo, hi in runs))
            return exact(op, runs)

        monkeypatch.setattr(fl.operators, "exact_entries", spy)
        seq = fl.ProjectionSequence(fl.N0, (1, 2, 3), projs)
        rows = fl.trace_convergence_report(ops, seq).rows
        assert calls == [44, 44]
        for row in rows:
            est = complex(row["estimate_re"], row["estimate_im"])
            assert est == pytest.approx(want[(row["label"], row["n"])], abs=1e-14)

    def test_an_empty_numeric_region_evaluates_nothing(self, monkeypatch):
        # a z-lattice polynomial of waves, free of Dense leaves, is summed in
        # closed form on every window: no entry is evaluated
        def forbidden(*args):
            raise AssertionError("entries evaluated")

        am = fl.AlmostMathieu(0.5, ALPHA, 0.25)
        op = fl.op_sum(fl.op_prod(am, am), fl.op_scale(0.5j, am))
        monkeypatch.setattr(fl.operators, "exact_entries", forbidden)
        seq = fl.finite_section_sequence(fl.Z, [1, 2, 3, 2**40])
        rows = fl.trace_convergence_report([("p", op)], seq).rows
        want = np.trace(compress(op, seq.projections[0])) / 3
        assert complex(rows[0]["estimate_re"], rows[0]["estimate_im"]) == pytest.approx(want)

    def test_poly_storage_too_large_for_memory(self, monkeypatch):
        # S*S - 1 with a callable weight at n = 1000, on the numeric path:
        # 1001 indices of 8 bytes fit; one offset of 16 bytes on 1003 padded
        # indices does not, and is refused before the storage is built
        s = fl.Shift(weight=lambda i: 1.0 + 0.0 * np.asarray(i))
        op = fl.op_sum(fl.op_prod(fl.Poly(AdjE(_as_node(s))), s),
                       fl.op_scale(-1.0, fl.identity(fl.N0)))
        seq = fl.finite_section_sequence(fl.N0, [1000])
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 * 1003 - 1)
        with pytest.raises(ConfigError, match="the diagonal storage"):
            fl.trace_convergence_report([("p", op)], seq)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: 16 * 1003)
        (row,) = fl.trace_convergence_report([("p", op)], seq).rows
        assert (row["estimate_re"], row["estimate_im"]) == (0.0, 0.0)

    def test_csv_has_version_stamp(self):
        seq = fl.finite_section_sequence(fl.N0, [2])
        rep = fl.trace_convergence_report([("one", fl.identity(fl.N0))], seq)
        assert rep.to_csv().startswith("# folner-lab")
