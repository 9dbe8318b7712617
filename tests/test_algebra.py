"""The one symbolic algebra (`operators.Element`): products and run sums
against 50-digit sums, closed-form `Poly` and `Dense` traces against their
numeric diagonals, and the canonical trace at rational alpha."""
from pathlib import Path

import mpmath
import numpy as np
import pytest

import folner_lab as fl
from folner_lab._util import ConfigError
from folner_lab.operators import AdjE, Wave, _as_node, diagonal_entries, diagonal_sums
from folner_lab.specio import load_spec_file

NORMAL_POLY = Path(__file__).parent / "corpus" / "valid" / "normal_poly.json"


def _c(rng) -> complex:
    return complex(*rng.uniform(-1.0, 1.0, 2))


def _band(rng, lattice=fl.Z) -> fl.Band:
    """A bandwidth-2 leaf as the benchmark's poly_z specs draw them: a
    cosine on offset 0, exponentials on +-1 and constants on +-2, each with
    its own random frequency and phase."""
    diags = []
    for off in range(-2, 3):
        if off == 0:
            amp, f, phase = float(rng.uniform(0.5, 2.0)), float(rng.random()), float(rng.random())
            fn = Wave.of(f, phase, amp, cos=True)
        elif abs(off) == 1:
            fn = Wave.of(float(rng.random()), float(rng.random()))
        else:
            fn = _c(rng)
        diags.append((off, fn))
    return fl.Band(2, tuple(diags), lattice=lattice)


def _poly_z(rng, lattice=fl.Z) -> fl.Poly:
    """c1 X1* Y1 + c2 X2 Y2 + Z over five such leaves."""
    x1, y1, x2, y2, z = (_band(rng, lattice) for _ in range(5))
    first = fl.op_prod(fl.Poly(AdjE(_as_node(x1))), y1)
    return fl.op_sum(fl.op_scale(_c(rng), first), fl.op_scale(_c(rng), fl.op_prod(x2, y2)), z)


def _mp_diagonal(fn, n):
    """A leaf's diagonal function at the integer n, at the working precision:
    a wave's terms c e^{2 pi i G (n + a/2)} for the keys (a, ks)."""
    if not isinstance(fn, Wave):
        return mpmath.mpc(fn)
    return mpmath.fsum(mpmath.mpc(c) * mpmath.expjpi(2 * mpmath.fsum(map(mpmath.fmul, ks, fn.freqs))
                                                     * (n + mpmath.mpf(a) / 2))
                       for (a, ks), c in fn.terms.items())


def _mp_entry(node, r, col):
    """A[r, col] of an expression node on l2(Z), at the working precision."""
    if isinstance(node, fl.OperatorSpec):
        fn = node.diags.get(col - r)
        return mpmath.mpc(0) if fn is None else _mp_diagonal(fn, r)
    if isinstance(node, fl.operators.AdjE):
        return mpmath.conj(_mp_entry(node.child, col, r))
    if isinstance(node, fl.operators.ScaleE):
        return mpmath.mpc(node.scalar) * _mp_entry(node.child, r, col)
    if isinstance(node, fl.operators.SumE):
        return mpmath.fsum(_mp_entry(child, r, col) for child in node.parts)
    left, right = node.parts  # the products here have two factors
    return mpmath.fsum(_mp_entry(left, r, j) * _mp_entry(right, j, col)
                       for j in range(r - 2, r + 3))


def _scale(sym) -> float:
    """Sum of |c| over the terms on offset 0."""
    return sum(abs(c) for (a, _), c in sym.terms.items() if a == 0)


class TestProductsAt50Digits:
    def test_entries_near_2_62(self):
        # every diagonal of the symbolic product, each coefficient's phase
        # read at the hop's midpoint n + a/2, against the product of the
        # leaves' entries at 50 digits
        rng = np.random.default_rng(2301)
        for _ in range(3):
            poly = _poly_z(rng)
            sym = poly.symbol
            for n in (2**62 - 3, 2**62 + 1, -2**62):
                for a in {a for a, _ in sym.terms}:
                    with mpmath.workdps(50):
                        got = mpmath.fsum(
                            mpmath.mpc(c) * mpmath.expjpi(mpmath.mpf(sym._dot(ks) * (2 * n + a))
                                                          / sym.den)
                            for (b, ks), c in sym.terms.items() if b == a)
                        want = _mp_entry(poly.expr, n, n + a)
                    assert abs(complex(got - want)) <= 1e-15 * (1 + abs(complex(want))), (n, a)

    def test_run_sums_near_2_62(self):
        rng = np.random.default_rng(2302)
        for lo, hi in ((2**62 - 40, 2**62 + 40), (2**63 - 61, 2**63 - 1), (-2**62, -2**62 + 20)):
            poly = _poly_z(rng)
            got = diagonal_sums(poly, [fl.Window(fl.Z, lo, hi)])[0]
            with mpmath.workdps(50):
                want = complex(mpmath.fsum(_mp_entry(poly.expr, n, n) for n in range(lo, hi + 1)))
            assert abs(got - want) <= 1e-14 * _scale(poly.symbol) * (hi - lo + 1)

    def test_adjoint_is_an_involution_and_anti_multiplicative(self):
        rng = np.random.default_rng(2303)
        x = _poly_z(rng).symbol  # elements combine over one set of frequencies
        y = x.adjoint() + 0.5j * x
        assert x.adjoint().adjoint().terms == x.terms
        lhs, rhs = (x * y).adjoint(), y.adjoint() * x.adjoint()
        assert lhs.terms.keys() == rhs.terms.keys()
        for key, c in lhs.terms.items():
            assert abs(c - rhs.terms[key]) <= 1e-15 * max(1.0, abs(c))


class TestFrequencySets:
    """Elements over different frequencies do not combine: their keys
    would merge terms of different frequencies."""

    QUARTER = fl.Band(0, ((0, Wave.of(0.25, cos=True)),))
    EIGHTH = fl.Band(0, ((0, Wave.of(0.125, cos=True)),))

    def test_the_spec_sum_has_one_symbol(self):
        # cos(pi/2) + cos(pi/4) at n = 1
        got = (self.QUARTER + self.EIGHTH).symbol.run_sum(1, 1)
        assert abs(got - 0.5**0.5) <= 1e-15

    @pytest.mark.parametrize("combine", [lambda a, b: a + b, lambda a, b: b + a,
                                         lambda a, b: a * b, lambda a, b: b - a],
                             ids=["a+b", "b+a", "a*b", "b-a"])
    def test_symbols_over_different_frequencies_do_not_combine(self, combine):
        a, b = self.QUARTER.symbol, self.EIGHTH.symbol
        with pytest.raises(fl.traces.AlphaMismatchError, match="do not combine"):
            combine(a, b)


def _trig_leaf(rng, lattice):
    """A random leaf whose diagonals the symbol holds, or a Dense one."""
    kind = rng.integers(5)
    if kind == 0:
        ks = rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 4)), replace=False)
        return fl.Toeplitz({int(k): _c(rng) for k in ks}, lattice=lattice)
    if kind == 1:
        return fl.Shift(weight=_c(rng), lattice=lattice)
    if kind == 2:
        return _band(rng, lattice)
    if kind == 3:
        return fl.AlmostMathieu(float(rng.uniform(0.2, 2.0)), float(rng.random()),
                                float(rng.random()), lattice=lattice)
    s = int(rng.integers(1, 5))
    return fl.Dense(rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)),
                    lattice=lattice)


def _trig_poly(rng, lattice, depth=3):
    if depth == 0 or rng.random() < 0.2:
        return _trig_leaf(rng, lattice)
    parts = [_trig_poly(rng, lattice, depth - 1) for _ in range(rng.integers(1, 4))]
    kind = rng.integers(4)
    if kind == 0:
        return fl.op_sum(*parts)
    if kind == 1:
        return fl.op_prod(*parts)
    if kind == 2:
        return fl.Poly(AdjE(_as_node(parts[0])))
    return fl.op_scale(_c(rng), parts[0])


def _projection(rng, lattice, bw):
    """A window of rank below the bandwidth, a window, or a gapped set,
    near the n0 edge and near 0 on z."""
    lo = int(rng.integers(0, bw + 3)) if lattice == fl.N0 else int(rng.integers(-20, 20))
    kind = rng.integers(3)
    if kind == 0:
        return fl.Window(lattice, lo, lo + int(rng.integers(0, max(1, bw))))
    if kind == 1:
        return fl.Window(lattice, lo, lo + int(rng.integers(0, 60)))
    span = np.arange(lo, lo + int(rng.integers(2, 60)))
    keep = np.sort(rng.choice(span, size=int(rng.integers(1, span.size)), replace=False))
    return fl.IndexSet(lattice, tuple(int(i) for i in keep))


class TestClosedFormTraces:
    def test_against_numeric_diagonals(self):
        # closed form on the interior, numeric only below support +
        # bandwidth on n0, against the whole diagonal evaluated numerically
        rng = np.random.default_rng(2304)
        for case in range(300):
            lattice = (fl.N0, fl.Z)[case % 2]
            op = _trig_poly(rng, lattice)
            proj = _projection(rng, lattice, op.bandwidth)
            got = fl.trace_estimate(op, proj)
            want = complex(diagonal_entries(op, proj.runs).sum()) / proj.rank
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (case, op, proj)

    @pytest.mark.parametrize("op", [
        fl.op_sum(fl.Shift(), fl.identity(fl.N0)),
        fl.Dense(np.eye(3)),
    ], ids=["poly", "dense"])
    def test_closed_form(self, op):
        proj = fl.Window(fl.N0, 0, 9)
        assert diagonal_sums(op, [proj]) == [diagonal_entries(op, proj.runs).sum()]

    def test_normal_poly_builds_no_window_index_array(self, monkeypatch):
        # S*S - I is zero on l2(N0): the closed form gives 0 on every window,
        # and only the two indices below the bandwidth are evaluated
        def forbidden(self):
            raise AssertionError("index array built")

        sizes = []
        run_indices = fl.operators.run_indices

        def counted(runs):
            out = run_indices(runs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(fl.Window, "index_array", forbidden)
        monkeypatch.setattr(fl.operators, "run_indices", counted)
        _, op = load_spec_file(NORMAL_POLY)
        seq = fl.finite_section_sequence(fl.N0, [2**k for k in range(10, 20)])
        rows = fl.trace_convergence_report([("normal_poly", op)], seq).rows
        assert [(r["estimate_re"], r["estimate_im"]) for r in rows] == [(0.0, 0.0)] * 10
        assert max(sizes) <= 8

    def test_callable_band_index_array_is_config_error(self):
        # a diagonal that is a Python callable is still evaluated on the
        # windows' indices, and 16 TiB of them are refused before any is built
        band = fl.Band(0, ((0, lambda n: np.cos(np.asarray(n))),))
        with pytest.raises(ConfigError, match="the index array"):
            fl.trace_estimate(band, fl.finite_section(fl.Z, 2**40))


class TestCanonicalTraceAtRationalAlpha:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_nontrivial_powers_vanish(self, alpha):
        # at alpha = 0 or 1/2 the diagonal e^{2 pi i k alpha n} of v^k is
        # constant for even k, yet tau(v^k) = 0: terms are keyed by k, not by
        # k alpha modulo 1
        u, v = fl.nc_u(alpha), fl.nc_v(alpha)
        for k in (1, 2, 3, 4):
            for x in (u, v, fl.nc_adjoint(u), fl.nc_adjoint(v)):
                assert fl.canonical_trace(x.power(k)) == 0.0
        assert fl.canonical_trace(fl.nc_multiply(v.power(2), fl.nc_adjoint(v).power(2))) == 1.0
        h = fl.almost_mathieu_element(alpha, 0.5)
        assert fl.canonical_trace(h.power(2)) == pytest.approx(2.5, abs=1e-15)

    def test_the_represented_diagonal_is_still_summed(self):
        # the trace estimate of v^2 at alpha = 1/2 reads its diagonal, all 1
        op = fl.represent_nc(fl.nc_v(0.5).power(2))
        assert fl.trace_estimate(op, fl.finite_section(fl.Z, 10)) == 1.0
