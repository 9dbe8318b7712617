"""Trigonometric diagonals (`Wave`): entries bit-identical to the formulas
they replace, and run sums in closed form against numeric and 50-digit sums."""
import math

import mpmath
import numpy as np
import pytest

import folner_lab as fl
from folner_lab._util import ConfigError
from folner_lab.operators import Term, Wave, diagonal_entries, diagonal_sum
from folner_lab.specio import operator_from_json

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
# 0, subnormal, tiny, Nyquist and one below 1: the reductions' edge cases
FREQS = (0.0, 5e-324, 1e-9, 0.5, 1.0 - 1e-9)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=complex).tobytes()


def _random_wave(rng) -> Wave:
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        f = float(FREQS[rng.integers(len(FREQS))] if rng.random() < 0.5 else rng.random())
        terms.append(Term(complex(*rng.standard_normal(2)), f, float(rng.random()),
                          k=int(rng.choice([-1, 1])), s=int(rng.integers(-2, 3)),
                          cos=bool(rng.random() < 0.4)))
    return Wave(tuple(terms))


def _random_projection(rng, lattice, d):
    """A window of rank d, or a gapped index set over a span of about d."""
    lo = int(rng.integers(0, d)) if lattice == fl.N0 else int(rng.integers(-d, d))
    if rng.random() < 0.5:
        return fl.Window(lattice, lo, lo + d - 1)
    span = np.arange(lo, lo + d)
    keep = np.sort(rng.choice(span, size=max(1, d // 2), replace=False))
    return fl.IndexSet(lattice, tuple(int(i) for i in keep))


def _mp_sum(wave, runs) -> complex:
    """The diagonal's sum over runs at 50 digits, term by term, as a running
    product of the term's unit ratio e^{2 pi i k f}."""
    with mpmath.workdps(50):
        total = mpmath.mpc(0)
        for c, f, phase, k, s, cos in wave:
            f, phase = mpmath.mpf(f), mpmath.mpf(phase)
            step = mpmath.expjpi(2 * k * f)
            for lo, hi in runs:
                z = mpmath.expjpi(2 * k * (f * (lo + s) + phase))
                acc = mpmath.mpc(0)
                for _ in range(hi - lo + 1):
                    acc += z.real if cos else z
                    z *= step
                total += mpmath.mpc(c) * acc
        return complex(total)


def _scale(wave, proj) -> float:
    """Sum of |c| over the summed entries: the sums' natural size."""
    return proj.rank * sum(abs(c) for c, *_ in wave)


def _numeric_tol(wave, proj) -> float:
    """1e-12 of `_scale`, plus the rounding of the numeric entries: the
    argument 2 pi k (f (n + s) + phase) of each is off by up to about
    2 pi * 3 ulp of k f (n + s), under 4e-15 |k f (n + s)|."""
    lo, hi = proj.runs[0][0], proj.runs[-1][1]
    arg = max(abs(k * f) * max(abs(lo + s), abs(hi + s)) for _, f, _, k, s, _ in wave)
    return (1e-12 + 4e-15 * arg) * _scale(wave, proj)


class TestPointwise:
    """Each Wave is bit for bit the closure it replaces."""

    N = np.arange(-5000, 5001, dtype=np.int64)

    def test_spec_cos_and_exp(self):
        rng = np.random.default_rng(11)
        for freq in (*FREQS, ALPHA, float(rng.random())):
            amp, phase = float(rng.uniform(0.5, 2.0)), float(rng.random())
            cos = operator_from_json({"kind": "band", "bandwidth": 0, "diagonals": [
                {"offset": 0, "fn": {"type": "cos", "amp": amp, "freq": freq, "phase": phase}}]})
            want = amp * np.cos(2.0 * np.pi * (freq * self.N + phase)) + 0j
            assert _bits(cos.diagonal(0, self.N)) == _bits(want)
            exp = operator_from_json({"kind": "band", "bandwidth": 0, "diagonals": [
                {"offset": 0, "fn": {"type": "exp", "freq": freq, "phase": phase}}]})
            want = np.exp(2j * np.pi * (freq * self.N + phase))
            assert _bits(exp.diagonal(0, self.N)) == _bits(want)

    def test_almost_mathieu_potential(self):
        for lam, alpha, phi in ((0.5, ALPHA, 0.0), (1.7, 0.3, 0.125), (0.9, 1e-9, 0.7)):
            am = fl.AlmostMathieu(lam, alpha, phi)
            want = 2.0 * lam * np.cos(2.0 * np.pi * (alpha * self.N + phi)) + 0j
            assert _bits(am.diagonal(0, self.N)) == _bits(want)

    def test_represent_nc_modulation_sums(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        a = fl.nc_multiply(h, fl.nc_multiply(h, h)) + 0.25j * fl.nc_monomial(ALPHA, 1, 2)
        phi = 0.3
        op = fl.represent_nc(a, phi=phi)
        for off, _ in op.diagonals:
            acc = np.zeros(self.N.shape, dtype=complex)
            for m, k in a.monomials():
                if -m == off:
                    c = a.coefficient(m, k)
                    acc += c * np.exp(2j * np.pi * k * (ALPHA * (self.N + off) + phi))
            assert _bits(op.diagonal(off, self.N)) == _bits(acc)


def _weight(n):
    return (0.5 - 0.25j) + np.sin(0.3 * np.asarray(n))


def _leaves(lattice) -> list:
    """One leaf of each kind and each diagonal-function type."""
    wave = Wave((Term(0.75 - 0.5j, ALPHA, 0.375), Term(1.25, 0.3, 0.1, k=-1, s=2, cos=True)))
    return [
        fl.Toeplitz({2: 1.0 + 1.0j, 0: 0.5, -1: -2.0j}, lattice=lattice),
        fl.Shift(weight=0.5 - 2.0j, lattice=lattice),
        fl.Shift(weight=_weight, lattice=lattice),
        fl.Band(2, ((1, _weight), (0, 1.5 + 0.5j), (-2, wave)), lattice=lattice),
        fl.Band(1, ((0, wave), (-1, 2.0)), lattice=lattice),
        fl.Band(1, ((0, _weight),), lattice=lattice),
        fl.AlmostMathieu(0.7, ALPHA, 0.2, lattice=lattice),
    ]


def _formula(op, k, rows):
    """A[r, r + k] from each leaf's own entry formula."""
    if isinstance(op, fl.Toeplitz):
        return np.full(np.shape(rows), dict(op.coeffs)[-k])
    if isinstance(op, fl.Shift):
        if callable(op.weight):
            return np.asarray(op.weight(np.asarray(rows) - 1), dtype=complex)
        return np.full(np.shape(rows), complex(op.weight))
    if isinstance(op, fl.AlmostMathieu):
        if k:
            return np.full(np.shape(rows), 1.0 + 0j)
        return 2.0 * op.coupling * np.cos(2.0 * np.pi * (op.freq * rows + op.phase)) + 0j
    fn = dict(op.diagonals)[k]
    if callable(fn):
        return np.asarray(fn(rows), dtype=complex)
    return np.full(np.shape(rows), complex(fn))


class TestLeafDiagonals:
    """Every leaf's diagonal map gives its formula's entries bit for bit, in
    the offset order of its coefficients, and its offset 0 sums in closed
    form to the sum of those entries."""

    ROWS = {fl.N0: np.arange(0, 5001, dtype=np.int64),
            fl.Z: np.arange(-5000, 5001, dtype=np.int64)}

    @pytest.mark.parametrize("lattice", [fl.N0, fl.Z])
    def test_entries_and_offsets(self, lattice):
        rows = self.ROWS[lattice]
        for op in _leaves(lattice):
            if isinstance(op, fl.Toeplitz):
                assert op.offsets == tuple(-k for k, _ in op.coeffs)
            elif isinstance(op, fl.Band):
                assert op.offsets == tuple(off for off, _ in op.diagonals)
            else:
                assert op.offsets == ((-1,) if isinstance(op, fl.Shift) else (-1, 0, 1))
            for k in op.offsets:
                assert _bits(op.diagonal(k, rows)) == _bits(_formula(op, k, rows)), (op, k)

    def test_as_band_keeps_the_entries(self):
        am = fl.AlmostMathieu(0.7, ALPHA, 0.2)
        band = am.as_band()
        assert band.offsets == am.offsets
        for k in am.offsets:
            assert _bits(band.diagonal(k, self.ROWS[fl.Z])) == _bits(am.diagonal(k, self.ROWS[fl.Z]))

    def test_diagonal_sum_is_the_sum_of_the_entries(self):
        rng = np.random.default_rng(14)
        for case in range(40):
            lattice = (fl.N0, fl.Z)[case % 2]
            # small indices keep the rounding of each numeric entry under 1e-12
            proj = _random_projection(rng, lattice, int(rng.integers(1, 200)))
            for op in _leaves(lattice):
                got = diagonal_sum(op, proj)
                entries = diagonal_entries(op, proj)
                fn = op.diags.get(0)
                if callable(fn) and not isinstance(fn, Wave):
                    assert got is None
                    continue
                tol = 1e-12 * proj.rank * float(np.max(np.abs(entries)))
                assert abs(got - entries.sum()) <= tol, (case, op)


class TestRunSums:
    def test_against_numeric_sums(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            wave = _random_wave(rng)
            lattice = fl.N0 if rng.random() < 0.5 else fl.Z
            proj = _random_projection(rng, lattice, int(rng.integers(1, 10**4 + 1)))
            band = fl.Band(0, ((0, wave),), lattice=lattice)
            got = diagonal_sum(band, proj)
            want = diagonal_entries(band, proj).sum()
            assert abs(got - want) <= _numeric_tol(wave, proj)

    def test_against_50_digit_sums(self):
        rng = np.random.default_rng(13)
        for case in range(16):
            wave = _random_wave(rng)
            lattice = fl.N0 if case % 2 else fl.Z
            d = 10**4 if case < 2 else int(rng.integers(1, 2000))
            proj = _random_projection(rng, lattice, d)
            band = fl.Band(0, ((0, wave),), lattice=lattice)
            got = diagonal_sum(band, proj)
            assert abs(got - _mp_sum(wave, proj.runs)) <= 1e-15 * _scale(wave, proj)

    @pytest.mark.parametrize("f", FREQS)
    def test_each_edge_frequency(self, f):
        wave = Wave((Term(0.75 - 0.5j, f, 0.375), Term(1.25, f, 0.1, cos=True)))
        proj = fl.IndexSet(fl.Z, (-7, -6, -5, 3, 4, 9, 100, 101))
        band = fl.Band(0, ((0, wave),))
        got = diagonal_sum(band, proj)
        assert abs(got - _mp_sum(wave, proj.runs)) <= 1e-15 * _scale(wave, proj)
        assert abs(got - diagonal_entries(band, proj).sum()) <= _numeric_tol(wave, proj)


    def test_many_runs(self):
        # ten thousand runs of one index whose sums all point one way: summed
        # one after the other they would lose about sqrt(runs) ulps
        wave = Wave((Term(1.0 - 0.5j, 1e-9, 0.125),))
        proj = fl.IndexSet(fl.Z, tuple(range(-10**4, 10**4, 2)))
        got = diagonal_sum(fl.Band(0, ((0, wave),)), proj)
        assert abs(got - _mp_sum(wave, proj.runs)) <= 1e-15 * _scale(wave, proj)


class TestHugeWindows:
    def test_harper_window_of_rank_2_62(self):
        # the diagonal cos(2 pi alpha n) sums to sin(pi alpha d) / sin(pi alpha)
        # over -2^61..2^61; its phases need 19 integer digits of alpha d
        harper = fl.represent_nc(fl.almost_mathieu_element(ALPHA, 0.5))
        proj = fl.Window(fl.Z, -2**61, 2**61)
        d = 2**62 + 1
        with mpmath.workdps(50):
            a = mpmath.mpf(ALPHA)
            want = complex(mpmath.sinpi(a * d) / mpmath.sinpi(a) / d)
        got = fl.trace_estimate(harper, proj)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_window_at_the_int64_edge(self):
        wave = Wave((Term(1.0 + 2.0j, ALPHA, 0.25),))
        proj = fl.Window(fl.Z, 2**63 - 2000, 2**63 - 1)
        band = fl.Band(0, ((0, wave),))
        assert abs(diagonal_sum(band, proj) - _mp_sum(wave, proj.runs)) \
            <= 1e-15 * _scale(wave, proj)

    def test_constants_and_missing_diagonals(self):
        proj = fl.Window(fl.N0, 0, 2**62)
        assert fl.trace_estimate(fl.identity(fl.N0), proj) == 1.0
        assert fl.trace_estimate(fl.Toeplitz({1: 1.0, -1: 1.0}), proj) == 0.0
        assert fl.trace_estimate(fl.Shift(), proj) == 0.0

    def test_indices_beyond_int64_are_config_errors(self):
        with pytest.raises(ConfigError):
            fl.trace_estimate(fl.AlmostMathieu(0.5, ALPHA), fl.finite_section(fl.Z, 2**63))


class TestNumericPathKept:
    @pytest.mark.parametrize("op", [
        fl.op_sum(fl.Shift(), fl.identity(fl.N0)),
        fl.Dense(np.eye(3)),
        fl.Band(0, ((0, lambda n: np.exp(1j * np.asarray(n))),), lattice=fl.N0),
    ], ids=["poly", "dense", "callable"])
    def test_no_closed_form(self, op):
        assert diagonal_sum(op, fl.Window(fl.N0, 0, 9)) is None

    def test_closed_form_builds_no_index_array(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("index array built")

        monkeypatch.setattr(fl.Window, "index_array", forbidden)
        seq = fl.finite_section_sequence(fl.Z, [2**k for k in range(4, 41)])
        op = fl.represent_nc(fl.almost_mathieu_element(ALPHA, 0.5))
        rows = fl.trace_convergence_report([("harper", op)], seq, refs={"harper": 0.0}).rows
        assert len(rows) == 37 and rows[-1]["abs_error"] <= 1e-12
