"""Trigonometric diagonals (`Wave`): entries bit-identical to their formula
with each phase reduced in Python integers, and run sums in closed form
against numeric and 50-digit sums."""
import math
from operator import mul

import mpmath
import numpy as np
import pytest

import folner_lab as fl
from folner_lab._util import ConfigError
from folner_lab.operators import Wave, _sinpi, _turns, _unit, diagonal_entries, diagonal_sums
from folner_lab.specio import operator_from_json

ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
# 0, subnormal, tiny, Nyquist and one below 1: the reductions' edge cases
FREQS = (0.0, 5e-324, 1e-9, 0.5, 1.0 - 1e-9)
EDGE = 2**63 - 1


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=complex).tobytes()


def _py_phases(wave: Wave, ks, a: int, n: np.ndarray) -> np.ndarray:
    """G (n + a/2) modulo 1 in [-1/2, 1/2), G = ks . freqs, entry by entry in
    Python integers, as the nearest floats; where r den > 2^64, r = 1 + a
    mod 2, the reduced g/(r den) times r (n + a/2) in floats, as the formula
    reads it."""
    g, den, r = wave._dot(ks), wave.den, 1 + a % 2
    if r * den > 2**64:
        return r * _turns(g, r * den) * (n + a / 2)
    return np.array([_turns(g * (2 * x + a), 2 * den) for x in n.tolist()])


def _wave_formula(wave: Wave, n: np.ndarray) -> np.ndarray:
    """The wave's entries at the rows n: a key (a, ks) and its conjugate
    (a, -ks) of the conjugate coefficient as 2 Re(c e^{i theta}), any
    other as c e^{i theta}, theta = 2 pi G (n + a/2) reduced by
    `_py_phases`."""
    vals, paired = [], set()
    for (a, ks), c in wave.terms.items():
        if (a, ks) in paired:
            continue
        turns = _py_phases(wave, ks, a, n)
        conj = (a, tuple(-k for k in ks))
        if conj != (a, ks) and wave.terms.get(conj) == c.conjugate():
            paired.add(conj)
            theta = 2.0 * np.pi * turns
            v = 2 * c.real * np.cos(theta)
            if c.imag:
                v = v - 2 * c.imag * np.sin(theta)
            vals.append(v + 0j)
        else:
            v = np.exp(2j * np.pi * turns)
            vals.append(v if c == 1 else c * v)
    return sum(vals[1:], vals[0]) if vals else np.zeros(n.shape, dtype=complex)


def _random_freq(rng) -> float:
    return float(FREQS[rng.integers(len(FREQS))] if rng.random() < 0.5 else rng.random())


def _random_wave(rng) -> Wave:
    """One to three keys over one or two frequencies on an offset in -2..2,
    some with their conjugate key of the conjugate coefficient (a cosine)."""
    freqs = tuple(dict.fromkeys(_random_freq(rng) for _ in range(int(rng.integers(1, 3)))))
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        ks = tuple(int(k) for k in rng.choice([-1, 1], size=len(freqs)))
        terms[ks] = c = complex(*rng.standard_normal(2))
        if rng.random() < 0.4:
            terms[tuple(-k for k in ks)] = c.conjugate()
    return Wave(freqs, terms, int(rng.integers(-2, 3)))


def _random_projection(rng, lattice, d):
    """A window of rank d, or a gapped index set over a span of about d."""
    lo = int(rng.integers(0, d)) if lattice == fl.N0 else int(rng.integers(-d, d))
    if rng.random() < 0.5:
        return fl.Window(lattice, lo, lo + d - 1)
    span = np.arange(lo, lo + d)
    keep = np.sort(rng.choice(span, size=max(1, d // 2), replace=False))
    return fl.IndexSet(lattice, tuple(int(i) for i in keep))


def _mp_frequency(wave, ks):
    return mpmath.fsum(k * mpmath.mpf(f) for k, f in zip(ks, wave.freqs))


def _mp_sum(wave, runs) -> complex:
    """The diagonal's sum over runs at 50 digits, term by term, as a running
    product of the term's unit ratio e^{2 pi i G}."""
    with mpmath.workdps(50):
        total = mpmath.mpc(0)
        for (a, ks), c in wave.terms.items():
            g = _mp_frequency(wave, ks)
            step = mpmath.expjpi(2 * g)
            for lo, hi in runs:
                z = mpmath.expjpi(2 * g * (lo + mpmath.mpf(a) / 2))
                acc = mpmath.mpc(0)
                for _ in range(hi - lo + 1):
                    acc += z
                    z *= step
                total += mpmath.mpc(c) * acc
        return complex(total)


def _scale(wave, proj) -> float:
    """Sum of |c| over the summed entries: the sums' natural size."""
    return proj.rank * sum(abs(c) for c in wave.terms.values())


def _numeric_tol(wave, proj) -> float:
    """1e-12 of `_scale`, plus the rounding of the numeric entries: the
    argument 2 pi G (n + a/2) of each is off by up to about 2 pi * 3 ulp of
    G (n + a/2), under 4e-15 |G (n + a/2)|."""
    lo, hi = proj.runs[0][0], proj.runs[-1][1]
    arg = max(abs(sum(map(mul, ks, wave.freqs))) * max(abs(lo + a / 2), abs(hi + a / 2))
              for a, ks in wave.terms)
    return (1e-12 + 4e-15 * arg) * _scale(wave, proj)


def _spec_wave(fn: dict) -> Wave:
    return operator_from_json({"kind": "band", "bandwidth": 0,
                               "diagonals": [{"offset": 0, "fn": fn}]}).diags[0]


class TestPointwise:
    """Each wave's entries are bit for bit its formula with every phase
    reduced in Python integers, its spec's phase folded into c exactly."""

    N = np.arange(-5000, 5001, dtype=np.int64)

    def test_spec_cos_and_exp(self):
        rng = np.random.default_rng(11)
        for freq in (*FREQS, ALPHA, float(rng.random())):
            amp, phase = float(rng.uniform(0.5, 2.0)), float(rng.random())
            unit = _unit(*phase.as_integer_ratio())
            cos = _spec_wave({"type": "cos", "amp": amp, "freq": freq, "phase": phase})
            assert cos.freqs == (freq,) and cos.terms == {
                (0, (1,)): amp / 2 * unit, (0, (-1,)): amp / 2 * unit.conjugate()}
            assert _bits(cos(self.N)) == _bits(_wave_formula(cos, self.N))
            exp = _spec_wave({"type": "exp", "freq": freq, "phase": phase})
            assert exp.freqs == (freq,) and exp.terms == {(0, (1,)): unit}
            assert _bits(exp(self.N)) == _bits(_wave_formula(exp, self.N))

    def test_almost_mathieu_potential(self):
        for lam, alpha, phi in ((0.5, ALPHA, 0.0), (1.7, 0.3, 0.125), (0.9, 1e-9, 0.7)):
            am = fl.AlmostMathieu(lam, alpha, phi)
            pot = am.diags[0]
            unit = _unit(*phi.as_integer_ratio())
            assert pot.terms == {(0, (1,)): lam * unit, (0, (-1,)): lam * unit.conjugate()}
            assert _bits(am.diagonal(0, self.N)) == _bits(_wave_formula(pot, self.N))

    def test_represent_nc_modulation_sums(self):
        h = fl.almost_mathieu_element(ALPHA, 0.5)
        a = fl.nc_multiply(h, fl.nc_multiply(h, h)) + 0.25j * fl.nc_monomial(ALPHA, 1, 2)
        phi = 0.3
        op = fl.represent_nc(a, phi=phi)
        num, den = phi.as_integer_ratio()
        assert {off for off, _ in op.diagonals} == {off for off, _ in a.terms}
        for off, wave in op.diagonals:
            assert wave.freqs == a.freqs and wave.terms == {
                (b, ks): c * _unit(ks[0] * num, den) for (b, ks), c in a.terms.items() if b == off}
            assert _bits(op.diagonal(off, self.N)) == _bits(_wave_formula(wave, self.N))

    @pytest.mark.parametrize("f", [3 * 2.0**-70, 2.0**-1074, ALPHA])
    def test_shifted_entries_at_the_int64_edge_against_50_digits(self, f):
        # u^-s v^k is e^{2 pi i k f (n + s)} on offset s: at n = +-(2^63 - 1)
        # the index n + s leaves int64, and no sum n + s may be formed there;
        # k = -1 needs kf reduced with its sign, not into [0, 1)
        rows = np.array([EDGE, -EDGE, EDGE - 2, 1 - EDGE], dtype=np.int64)
        for s in (-2, -1, 1, 2):
            for k in (1, -1):
                got = fl.represent_nc(fl.nc_monomial(f, -s, k)).diagonal(s, rows)
                with mpmath.workdps(50):
                    want = [complex(mpmath.expjpi(2 * k * mpmath.mpf(f) * (n + s)))
                            for n in rows.tolist()]
                assert np.max(np.abs(got - want)) <= 1e-15, (f, s, k)

    def test_cosine_diagonals_are_exactly_real_and_phase_0_even(self):
        rng = np.random.default_rng(16)
        rows = np.concatenate([[EDGE, 1 - EDGE, 0, 1, 2**62], rng.integers(-EDGE, EDGE, 2000)])
        rows = np.concatenate([rows, -rows])  # row i and row i + rows.size / 2 are n and -n
        waves = []
        for freq in (*FREQS, ALPHA, 2.0**-70, float(rng.random())):
            for phase in (0.0, 0.3, float(rng.random())):
                waves.append((phase, _spec_wave({"type": "cos", "amp": 1.5, "freq": freq,
                                                 "phase": phase})))
                waves.append((phase, fl.AlmostMathieu(0.7, freq, phase).diags[0]))
        harper = fl.represent_nc(fl.almost_mathieu_element(ALPHA, 0.5), phi=0.3)
        waves.append((0.3, harper.diags[0]))
        for phase, wave in waves:
            got = wave(rows)
            assert not got.imag.any(), (wave.freqs, phase)
            if phase == 0.0:
                half = rows.size // 2
                assert _bits(got[:half]) == _bits(got[half:]), wave.freqs


def _weight(n):
    return (0.5 - 0.25j) + np.sin(0.3 * np.asarray(n))


def _leaves(lattice) -> list:
    """One leaf of each kind and each diagonal-function type."""
    # an exponential and a cosine over two frequencies, read at n + 1
    half = 0.625 * _unit(*(0.1).as_integer_ratio())
    wave = Wave((ALPHA, 0.3), {(1, 0): 0.75 - 0.5j, (0, 1): half, (0, -1): half.conjugate()}, 2)
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
    fn = op.diags[k]
    if isinstance(fn, Wave):
        return _wave_formula(fn, rows)
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

    def test_diagonal_sum_is_the_sum_of_the_entries(self):
        rng = np.random.default_rng(14)
        for case in range(40):
            lattice = (fl.N0, fl.Z)[case % 2]
            # small indices keep the rounding of each numeric entry under 1e-12
            proj = _random_projection(rng, lattice, int(rng.integers(1, 200)))
            for op in _leaves(lattice):
                # a callable's sum is numeric, run by run
                got = diagonal_sums(op, [proj])[0]
                entries = diagonal_entries(op, proj.runs)
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
            got = diagonal_sums(band, [proj])[0]
            want = diagonal_entries(band, proj.runs).sum()
            assert abs(got - want) <= _numeric_tol(wave, proj)

    def test_against_50_digit_sums(self):
        rng = np.random.default_rng(13)
        for case in range(16):
            wave = _random_wave(rng)
            lattice = fl.N0 if case % 2 else fl.Z
            d = 10**4 if case < 2 else int(rng.integers(1, 2000))
            proj = _random_projection(rng, lattice, d)
            band = fl.Band(0, ((0, wave),), lattice=lattice)
            got = diagonal_sums(band, [proj])[0]
            assert abs(got - _mp_sum(wave, proj.runs)) <= 1e-15 * _scale(wave, proj)

    @pytest.mark.parametrize("f", FREQS)
    def test_each_edge_frequency(self, f):
        wave = Wave.of(f, 0.375, 0.75 - 0.5j) + Wave.of(f, 0.1, 1.25, cos=True)
        proj = fl.IndexSet(fl.Z, (-7, -6, -5, 3, 4, 9, 100, 101))
        band = fl.Band(0, ((0, wave),))
        got = diagonal_sums(band, [proj])[0]
        assert abs(got - _mp_sum(wave, proj.runs)) <= 1e-15 * _scale(wave, proj)
        want = diagonal_entries(band, proj.runs).sum()
        assert abs(got - want) <= _numeric_tol(wave, proj)

    def test_cosine_halves_sum_to_a_real_value_within_4_eps(self):
        # c cos(theta) splits into (c/2) e^{+-i theta}, two coefficients
        # conjugate bit for bit, so the pair sums to a real number; it is
        # within 4 eps c |width| of the one-term formula c (cos theta width)
        # with the phases reduced in integers
        rng = np.random.default_rng(15)
        for _ in range(200):
            c, f, phase = float(rng.uniform(0.5, 2.0)), float(rng.random()), float(rng.random())
            lo = int(rng.integers(-2**62, 2**62))
            hi = lo + int(rng.integers(0, 10**6))
            band = fl.Band(0, ((0, Wave.of(f, phase, c, cos=True)),))
            fn, fd = f.as_integer_ratio()
            pn, pd = phase.as_integer_ratio()
            g = fn % fd - (fd if 2 * (fn % fd) >= fd else 0)
            m = max(fd, pd)
            turns = _turns(pn * (2 * m // pd) + g * (lo + hi) * (m // fd), 2 * m)
            d = hi - lo + 1
            width = d if abs(g) * d * 2**30 <= fd else _sinpi(g * d, fd) / _sinpi(g, fd)
            want = c * (math.cos(2.0 * math.pi * turns) * width)
            got = diagonal_sums(band, [fl.Window(fl.Z, lo, hi)])[0]
            assert got.imag == 0.0
            assert abs(got.real - want) <= 4 * np.finfo(float).eps * c * abs(width)

    @pytest.mark.parametrize("f, phase", [(0.25, 0.5), (0.125, 0.5), (0.5, 0.0), (0.5, 0.25)])
    def test_cosine_at_half_turns_sums_to_a_real_value(self, f, phase):
        # a half turn, reduced to -pi, has the unit -1 and the sine 0, so
        # the halves stay conjugate and a frequency-1/2 width is 0 at even d
        band = fl.Band(0, ((0, Wave.of(f, phase, cos=True)),))
        wins = [fl.Window(fl.Z, lo, lo + d) for lo in (0, 1, 3, 2**40 + 1) for d in range(6)]
        for win, got in zip(wins, diagonal_sums(band, wins)):
            assert got.imag == 0.0, win.runs

    def test_many_runs(self):
        # ten thousand runs of one index whose sums all point one way: summed
        # one after the other they would lose about sqrt(runs) ulps
        wave = Wave.of(1e-9, 0.125, 1.0 - 0.5j)
        proj = fl.IndexSet(fl.Z, tuple(range(-10**4, 10**4, 2)))
        got = diagonal_sums(fl.Band(0, ((0, wave),)), [proj])[0]
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
        wave = Wave.of(ALPHA, 0.25, 1.0 + 2.0j)
        proj = fl.Window(fl.Z, 2**63 - 2000, 2**63 - 1)
        band = fl.Band(0, ((0, wave),))
        assert abs(diagonal_sums(band, [proj])[0] - _mp_sum(wave, proj.runs)) \
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
    # a diagonal that is a Python callable, of a leaf or under a polynomial,
    # has no closed form: the whole window is the numeric region, and its
    # sum is that of its entries; `Poly` and `Dense` specs of constants and
    # waves have one (tests/test_algebra.py)
    @pytest.mark.parametrize("op", [
        fl.op_sum(fl.Shift(weight=lambda i: np.cos(np.asarray(i))), fl.identity(fl.N0)),
        fl.Band(0, ((0, lambda n: np.exp(1j * np.asarray(n))),), lattice=fl.N0),
    ], ids=["poly", "callable"])
    def test_no_closed_form(self, op):
        proj = fl.Window(fl.N0, 0, 9)
        assert diagonal_sums(op, [proj]) == [complex(diagonal_entries(op, proj.runs).sum())]

    def test_closed_form_builds_no_index_array(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("index array built")

        monkeypatch.setattr(fl.Window, "index_array", forbidden)
        seq = fl.finite_section_sequence(fl.Z, [2**k for k in range(4, 41)])
        op = fl.represent_nc(fl.almost_mathieu_element(ALPHA, 0.5))
        rows = fl.trace_convergence_report([("harper", op)], seq, refs={"harper": 0.0}).rows
        assert len(rows) == 37 and rows[-1]["abs_error"] <= 1e-12
