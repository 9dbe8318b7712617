import functools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import dense_oracle
from dense_oracle import compress, eigenvalues_hermitian, op_adjoint, sturm_counts
import folner_lab as fl
from folner_lab.specio import load_spec_file


def tridiagonal_eigs(n):
    # closed-form Chebyshev oracle for the (n+1)-dim 0/1 tridiagonal section
    k = np.arange(1, n + 2)
    return np.sort(2.0 * np.cos(k * np.pi / (n + 2)))


def arcsine_cdf(x):
    # analytic CDF of the pushforward of 2 cos(theta)
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 1.0 - np.arccos(x / 2.0) / np.pi


def dense_solve(m, **kwargs):
    """The production solve of the matrix m: the compression of Dense(m) to
    its whole support."""
    m = np.asarray(m)
    return fl.compression_eigenvalues(fl.Dense(m), fl.Window(fl.N0, 0, m.shape[0] - 1), **kwargs)


class TestEigenvalues:
    def test_diagonal(self):
        assert np.array_equal(dense_solve(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_two_by_two(self):
        vals = dense_solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [5, 30, 99])
    def test_tridiagonal_chebyshev_oracle(self, n):
        m = compress(fl.Toeplitz({1: 1.0, -1: 1.0}), fl.finite_section(fl.N0, n))
        vals = dense_solve(m)
        assert np.max(np.abs(vals - tridiagonal_eigs(n))) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(fl.NonHermitianError):
            dense_solve(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_residual_contract_path(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((40, 40))
        m = m + m.T
        vals = dense_solve(m, check_residual=True)
        assert np.all(np.diff(vals) >= 0)


class TestSolverDtype:
    """Which dtype reaches LAPACK: real when the imaginary part is exactly zero."""

    @pytest.mark.parametrize("check_residual", [False, True])
    def test_exactly_real_solves_in_float64(self, eig_calls, check_residual):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((60, 60)) * 3.0
        m = (a + a.T).astype(complex)
        expected = np.linalg.eigvalsh(m)
        eig_calls.clear()
        vals = dense_solve(m, check_residual=check_residual)
        solver = "eigh" if check_residual else "eigvalsh"
        assert eig_calls == [(solver, 60, np.dtype(np.float64))]
        assert np.max(np.abs(vals - expected)) <= 1e-12 * np.max(np.abs(m))

    def test_tiny_imaginary_entry_stays_complex(self, eig_calls):
        m = np.array([[1.0, 1.0 + 1e-17j, 0.0], [1.0 - 1e-17j, 2.0, 0.5], [0.0, 0.5, 3.0]])
        vals = dense_solve(m)
        assert eig_calls == [("eigvalsh", 3, np.dtype(np.complex128))]
        assert np.allclose(vals, np.linalg.eigvalsh(m.real), atol=1e-14)

    @pytest.mark.parametrize("phase", [1.0, 1j])
    def test_solves_the_symmetrized_matrix(self, phase):
        # a defect inside herm_tol: the solve sees (M + M^dagger)/2, not one triangle
        m = np.array([[0.0, phase], [np.conj(phase) * (1.0 + 2e-11), 0.0]])
        vals = dense_solve(m)
        assert np.allclose(vals, [-(1.0 + 1e-11), 1.0 + 1e-11], rtol=0.0, atol=1e-15)

    def test_real_solve_keeps_hermiticity_check(self, eig_calls):
        m = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]], dtype=complex)
        with pytest.raises(fl.NonHermitianError):
            dense_solve(m)
        assert eig_calls == []

    def test_real_defect_equals_complex_defect(self, eig_calls):
        # max |entry| is 4, so herm_tol * scale is exact and the tolerance
        # can sit on either side of the defect the complex arithmetic gives
        rng = np.random.default_rng(5)
        m = rng.uniform(-1.0, 1.0, (40, 40))
        m[3, 7] = 4.0
        mc = m.astype(complex)
        dev = float(np.max(np.abs(mc - mc.conj().T)))
        dense_solve(m, herm_tol=dev / 4.0)
        with pytest.raises(fl.NonHermitianError, match=re.escape(f"{dev:.3e}")):
            dense_solve(m, herm_tol=np.nextafter(dev, 0.0) / 4.0)
        assert [c[0] for c in eig_calls] == ["eigvalsh"]


class TestEmpiricalMeasure:
    def test_zero_operator(self):
        meas = fl.empirical_measure(fl.Dense(np.zeros((4, 4))), fl.Window(fl.N0, 0, 3))
        assert meas.dim == 4
        assert np.array_equal(meas.atoms, np.zeros(4))

    def test_small_tridiagonal_closed_form(self):
        meas = fl.empirical_measure(
            fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True), fl.Window(fl.N0, 0, 2)
        )
        assert np.allclose(meas.atoms, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_identity_is_point_mass(self):
        meas = fl.empirical_measure(fl.identity(fl.Z), fl.finite_section(fl.Z, 3))
        assert np.array_equal(meas.atoms, np.ones(7))

    def test_non_hermitian_compression_rejected(self):
        with pytest.raises(fl.NonHermitianError):
            fl.empirical_measure(fl.Shift(), fl.Window(fl.N0, 0, 3))

    def test_mass_and_support_invariants(self):
        am = fl.AlmostMathieu(0.7, (math.sqrt(5) - 1) / 2)
        proj = fl.finite_section(fl.Z, 20)
        meas = fl.empirical_measure(am, proj)
        bound = fl.schatten_norm(compress(am, proj), math.inf) + 1e-10
        assert meas.atoms.size == proj.rank
        assert np.all(np.abs(meas.atoms) <= bound)
        assert meas.cdf(meas.atoms[-1]) == pytest.approx(1.0)


class TestIntegrate:
    def test_point_mass_square(self):
        meas = fl.EmpiricalMeasure(np.ones(3), 3)
        assert fl.integrate(meas, fl.monomial(2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [4, 64, 256])
    def test_tridiagonal_second_moment_exact(self, n):
        meas = fl.empirical_measure(
            fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True), fl.Window(fl.N0, 0, n)
        )
        # Tr(T^2) = number of nonzero entries = 2n
        assert fl.integrate(meas, fl.monomial(2)) == pytest.approx(2.0 * n / (n + 1), abs=1e-10)

    def test_pushforward_second_moment(self):
        ref = fl.reference_pushforward(fl.Toeplitz({1: 1.0, -1: 1.0}))
        # quadrature oracle: int (2 cos t)^2 dt / 2pi = 2
        theta = 2 * np.pi * (np.arange(4096) + 0.5) / 4096
        oracle = np.mean((2 * np.cos(theta)) ** 2)
        assert fl.integrate(ref, fl.monomial(2)) == pytest.approx(oracle, abs=1e-3)
        assert fl.integrate(ref, fl.monomial(2)) == pytest.approx(2.0, abs=1e-3)

    def test_raw_callable_rejected(self):
        meas = fl.EmpiricalMeasure(np.zeros(2), 2)
        with pytest.raises(ValueError):
            fl.integrate(meas, lambda x: x)

    def test_hat_against_reference_grid(self):
        # four samples of mass 1/4: the hat is 1, 0.5, 0 and 0 at them
        ref = fl.ReferenceMeasure(xs=np.array([0.0, 0.5, 1.0, 2.0]))
        assert fl.integrate(ref, fl.hat(-1.0, 0.0, 1.0)) == 0.375

    def test_scalar_gives_numpy_float(self):
        for f, x, v in ((fl.monomial(2), 3.0, 9.0), (fl.hat(0, 1, 2), 0.5, 0.5)):
            assert type(f(x)) is np.float64 and f(x) == v

    def test_moments_only_reference(self):
        ref = fl.ReferenceMeasure(moments=(1.0, 0.0, 2.0))
        assert fl.integrate(ref, fl.monomial(2)) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            fl.integrate(ref, fl.hat(-1, 0, 1))
        with pytest.raises(ValueError):
            fl.integrate(ref, fl.monomial(3))


class TestIntegrateOnSupport:
    """Against N sorted samples of mass 1/N each a hat is evaluated only on
    the samples of its support: bit for bit the mean of f at every sample
    (tests/dense_oracle.py::integrate)."""

    @staticmethod
    def _samples():
        rng = np.random.default_rng(67)
        return np.sort(np.round(rng.uniform(-1.0, 1.0, 300), 2))  # repeated samples

    @classmethod
    def _refs(cls):
        band = fl.Toeplitz({0: 0.5, 1: 1.0, -1: 1.0, 3: 0.25, -3: 0.25}, selfadjoint=True)
        return [fl.reference_pushforward(fl.Toeplitz({1: 1.0, -1: 1.0})),
                fl.reference_pushforward(band, grid_size=4099),
                fl.ReferenceMeasure(xs=cls._samples()),
                fl.ReferenceMeasure(xs=np.array([0.25]))]

    @staticmethod
    def _family(xs):
        lo, hi = float(xs[0]), float(xs[-1])
        at = [float(xs[i]) for i in (0, xs.size // 7, xs.size // 3, xs.size // 2, -1)]
        mid = 0.5 * (lo + hi)
        hats = [
            (at[1], at[2], at[3]),  # inside, on grid nodes
            (at[1] + 1e-3, mid, at[3] - 1e-3),  # inside, between nodes
            (lo - 1.0, lo, mid), (mid, hi, hi + 1.0),  # straddling an end
            (lo - 1.0, mid, hi + 1.0),  # covering the grid
            (lo - 3.0, lo - 2.0, lo - 1.0), (hi + 1.0, hi + 2.0, hi + 3.0),  # outside
            (lo - 2.0, lo - 1.0, lo), (hi, hi + 1.0, hi + 2.0),  # touching an end
            (at[1], at[1], at[3]), (at[1], at[3], at[3]),  # center = left, = right
            (at[2], at[2], at[2]), (mid, mid, mid),  # a point
            (lo, lo, lo), (hi, hi, hi),
        ]
        return [fl.monomial(k) for k in range(9)] + [fl.hat(*sorted(h)) for h in hats]

    def test_bit_identical_to_the_full_grid_sum(self):
        for ref in self._refs():
            for f in self._family(ref.xs):
                want = dense_oracle.integrate(ref.xs, f)
                assert fl.integrate(ref, f).hex() == want.hex(), (ref.xs.size, f)

    def test_empirical_and_reference_on_the_same_samples(self):
        # one rule for both measures: the same sorted samples, as atoms or
        # as nodes, integrate to the same bits
        for xs in (self._samples(), fl.reference_pushforward(HOPPING, grid_size=4099).xs,
                   np.array([0.25])):
            meas, ref = fl.EmpiricalMeasure(xs, xs.size), fl.ReferenceMeasure(xs=xs)
            for f in self._family(xs):
                assert fl.integrate(meas, f).hex() == fl.integrate(ref, f).hex(), (xs.size, f)


class TestPushforward:
    def test_constant_symbol_step(self):
        ref = fl.reference_pushforward(fl.Toeplitz({0: 5.0}), grid_size=64)
        assert ref.cdf(4.999) == 0.0
        assert ref.cdf(5.0) == 1.0

    def test_symmetry_at_zero(self):
        ref = fl.reference_pushforward(fl.Toeplitz({1: 1.0, -1: 1.0}))
        assert ref.cdf(0.0) == pytest.approx(0.5, abs=1e-4)

    def test_arcsine_value(self):
        ref = fl.reference_pushforward(fl.Toeplitz({1: 1.0, -1: 1.0}))
        assert ref.cdf(1.0) == pytest.approx(1.0 - math.acos(0.5) / math.pi, abs=1e-4)

    def test_complex_symbol_rejected(self):
        with pytest.raises(fl.spectral.ComplexSymbolError):
            fl.reference_pushforward(fl.Toeplitz({1: 1.0}))

    def test_peak_within_its_memory_check(self, monkeypatch):
        # the memory check counts 16 bytes a node and seven complex
        # temporaries of a chunk of nodes for a bandwidth-2 symbol: the
        # traced peak of a five-term symbol at 2^16 nodes stays within 9
        # bytes a node (the sorted values and the check of their order) and
        # those temporaries, and the measure keeps 8 bytes a node
        import tracemalloc

        sym = fl.Toeplitz({0: 0.5, 1: 1.0, -1: 1.0, 2: 0.25j, -2: -0.25j}, selfadjoint=True)
        nodes = 1 << 16
        need = []
        monkeypatch.setattr(fl.spectral, "check_footprint", lambda n, what: need.append(n))
        fl.reference_pushforward(sym, grid_size=64)
        tracemalloc.start()
        try:
            ref = fl.reference_pushforward(sym, grid_size=nodes)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunk = fl.operators._SYMBOL_CHUNK
        assert need == [16 * 64 + 16 * 7 * 64, 16 * nodes + 16 * 7 * chunk]
        assert peak <= 9 * nodes + 16 * 7 * chunk <= need[1]
        assert ref.xs.nbytes == 8 * nodes and kept <= 8 * nodes + 4096

    @pytest.mark.parametrize("nodes", [1 << 16, 100003])
    def test_integrals_peak_at_one_buffer(self, nodes):
        # a hat over the whole grid and x^6 are evaluated into one buffer of
        # a value a node, the hat's falling ramp a chunk of nodes at a time
        import tracemalloc

        ref = fl.reference_pushforward(HOPPING, grid_size=nodes)
        chunk = fl.operators._SYMBOL_CHUNK
        for f in (fl.hat(-3.0, 0.0, 3.0), fl.monomial(6)):
            fl.integrate(ref, f)
            tracemalloc.start()
            try:
                fl.integrate(ref, f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * nodes + 8 * chunk + 4096, (f, peak)


class TestAgainstFullArrays:
    """The sorted values, the CDF, every integral and the Kolmogorov
    distance of a pushforward reference are bit for bit those of the grid
    built from every angle and value at once, its CDF stored
    (tests/dense_oracle.py::pushforward), and of the mean of f over every
    sample (tests/dense_oracle.py::integrate)."""

    SYMBOLS = {
        "hopping": fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True),
        "real band 3": fl.Toeplitz({0: 0.5, 1: 1.0, -1: 1.0, 3: 0.25, -3: 0.25},
                                   selfadjoint=True),
        "complex": fl.Toeplitz({0: 0.3, 1: 0.7 - 0.2j, -1: 0.7 + 0.2j, 3: 0.25j, -3: -0.25j},
                               selfadjoint=True),
        # conjugate pairs of moduli near 10^7, whose values' imaginary
        # round-off exceeds 1e-10 but not 1e-10 * sum |a_k|
        "large": fl.Toeplitz({1: 12345678.9 + 3456789.1j, -1: 12345678.9 - 3456789.1j,
                              2: 7654321.3 - 2345678.7j, -2: 7654321.3 + 2345678.7j},
                             selfadjoint=True),
    }

    @pytest.fixture(scope="class", params=[(s, n) for s in SYMBOLS for n in (64, 4099, 1 << 16)],
                    ids=lambda p: f"{p[0]}-{p[1]}")
    def pair(self, request):
        sym = self.SYMBOLS[request.param[0]]
        nodes = request.param[1]
        return sym, fl.reference_pushforward(sym, nodes), dense_oracle.pushforward(sym, nodes)

    def test_grid_and_cdf(self, pair):
        sym, ref, grid = pair
        xs = grid.xs
        if sym is self.SYMBOLS["large"]:
            vals = sym.symbol_values(2.0 * np.pi * np.arange(xs.size) / xs.size)
            assert np.max(np.abs(vals.imag)) > 1e-10
        assert ref.xs.tobytes() == xs.tobytes()
        probes = np.concatenate([xs, (xs[1:] + xs[:-1]) / 2, [xs[0] - 1.0, xs[-1] + 1.0]])
        assert ref.cdf(probes).tobytes() == grid.cdf(probes).tobytes()

    def test_integrals(self, pair):
        _, ref, grid = pair
        for f in TestIntegrateOnSupport._family(grid.xs):
            assert fl.integrate(ref, f).hex() == dense_oracle.integrate(grid.xs, f).hex(), f
            assert f(grid.xs).tobytes() == dense_oracle.evaluate(f, grid.xs).tobytes(), f

    def test_kolmogorov(self, pair):
        sym, ref, grid = pair
        for n in (0, 9, 200):
            meas = fl.empirical_measure(sym, fl.Window(fl.N0, 0, n))
            assert fl.kolmogorov_distance(meas, ref) == dense_oracle.kolmogorov(meas, grid)


class TestKolmogorov:
    def test_identical(self):
        meas = fl.EmpiricalMeasure(np.array([0.0, 1.0]), 2)
        assert fl.kolmogorov_distance(meas, meas) == 0.0

    def test_point_masses(self):
        d0 = fl.EmpiricalMeasure(np.zeros(1), 1)
        d1 = fl.EmpiricalMeasure(np.ones(1), 1)
        assert fl.kolmogorov_distance(d0, d1) == pytest.approx(1.0)

    def test_tridiagonal_against_arcsine(self):
        n = 1024
        meas = fl.empirical_measure(
            fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True), fl.Window(fl.N0, 0, n)
        )
        ref = fl.reference_pushforward(fl.Toeplitz({1: 1.0, -1: 1.0}))
        assert fl.kolmogorov_distance(meas, ref) <= 0.01
        # closed-form eigenvalues vs analytic CDF, fully independent oracle
        oracle = tridiagonal_eigs(n)
        grid = np.linspace(-2.0, 2.0, 2001)
        emp_cdf = np.searchsorted(oracle, grid, side="right") / (n + 1)
        assert np.max(np.abs(emp_cdf - arcsine_cdf(grid))) <= 0.01

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(8)
        ms = [fl.EmpiricalMeasure(np.sort(rng.standard_normal(6)), 6) for _ in range(3)]
        d01 = fl.kolmogorov_distance(ms[0], ms[1])
        d10 = fl.kolmogorov_distance(ms[1], ms[0])
        assert d01 == d10
        d02 = fl.kolmogorov_distance(ms[0], ms[2])
        d12 = fl.kolmogorov_distance(ms[1], ms[2])
        assert d02 <= d01 + d12 + 1e-14

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_sup(self, seed):
        # both CDFs evaluated independently at every grid point, every midpoint
        # between neighbours (the left limits) and outside the grid; rounding
        # to a coarse lattice makes atoms and grid points repeat and coincide
        rng = np.random.default_rng(seed)

        def empirical():
            atoms = np.round(rng.normal(size=int(rng.integers(1, 12))), 1)
            return fl.EmpiricalMeasure(atoms, atoms.size), lambda x: np.mean(atoms <= x)

        def reference():
            xs = np.sort(np.round(rng.normal(size=int(rng.integers(1, 12))), 1))
            return fl.ReferenceMeasure(xs=xs), lambda x: np.count_nonzero(xs <= x) / xs.size

        (a, fa), (b, fb) = [rng.choice([empirical, reference])() for _ in range(2)]
        grid = np.unique(np.concatenate([m.atoms if hasattr(m, "atoms") else m.xs
                                         for m in (a, b)]))
        probes = np.concatenate([grid, (grid[1:] + grid[:-1]) / 2,
                                 [grid[0] - 1.0, grid[-1] + 1.0]])
        brute = max(abs(fa(x) - fb(x)) for x in probes)
        assert fl.kolmogorov_distance(a, b) == brute

    def test_moments_only_rejected(self):
        ref = fl.ReferenceMeasure(moments=(1.0, 0.0))
        with pytest.raises(ValueError):
            fl.kolmogorov_distance(ref, fl.EmpiricalMeasure(np.zeros(1), 1))


def merged_grid_kolmogorov(a, b):
    """The merged-grid formula: both CDFs at every point of either grid."""
    grids = [m.atoms if isinstance(m, fl.EmpiricalMeasure) else m.xs for m in (a, b)]
    xs = np.unique(np.concatenate(grids))
    return float(np.max(np.abs(a.cdf(xs) - b.cdf(xs))))


HOPPING = fl.Toeplitz({1: 1.0, -1: 1.0}, selfadjoint=True)


@functools.cache
def hopping_spectrum(d):
    """The dense oracle of hopping's window of order d: np.linalg.eigvalsh of
    its compression, exactly real and so solved in real arithmetic,
    computed once per module and read-only."""
    m = compress(HOPPING, fl.Window(fl.N0, 0, d - 1))
    assert not m.imag.any()
    vals = np.linalg.eigvalsh(m.real)
    vals.flags.writeable = False
    return vals


def toeplitz_spectrum(a0, a1, d):
    """The ascending spectrum of a window of order d of the bandwidth-1
    Toeplitz operator of diagonal a0 and off-diagonals a1 and conj(a1),
    unitarily similar to a0 + |a1| times hopping's: from the dense oracle
    of that window (`hopping_spectrum`)."""
    return a0 + abs(a1) * hopping_spectrum(d)


class TestKolmogorovAgainstMergedGrid:
    """The distance from the smaller grid, its predecessors and the larger
    grid's ends equals the merged-grid sup bit for bit."""

    @pytest.fixture(scope="class")
    def hopping_ref(self):
        return fl.reference_pushforward(HOPPING)

    @pytest.mark.parametrize("n", [*range(71), *(2**k - 1 for k in range(7, 12))])
    def test_hopping_windows(self, hopping_ref, n):
        meas = fl.empirical_measure(HOPPING, fl.Window(fl.N0, 0, n))
        want = merged_grid_kolmogorov(meas, hopping_ref)
        assert fl.kolmogorov_distance(meas, hopping_ref) == want
        assert fl.kolmogorov_distance(hopping_ref, meas) == want

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 3000])
    def test_atoms_on_grid_nodes(self, hopping_ref, size):
        # atoms drawn from the grid itself tie with its nodes, repeats included
        rng = np.random.default_rng(size)
        atoms = rng.choice(hopping_ref.xs, size=size)
        meas = fl.EmpiricalMeasure(atoms, size)
        assert fl.kolmogorov_distance(meas, hopping_ref) == merged_grid_kolmogorov(
            meas, hopping_ref)

    @pytest.mark.parametrize("nodes", [64, 1000, 4096])
    def test_random_bandwidth_2_symbols(self, nodes):
        rng = np.random.default_rng(nodes)
        for _ in range(4):
            a1, a2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            sym = fl.Toeplitz({0: rng.normal(), 1: a1, -1: np.conj(a1), 2: a2, -2: np.conj(a2)},
                              selfadjoint=True)
            ref = fl.reference_pushforward(sym, grid_size=nodes)
            for n in (0, 5, 40, 300):  # d = 301 exceeds 64 nodes: the grids swap roles
                meas = fl.empirical_measure(sym, fl.Window(fl.N0, 0, n))
                assert fl.kolmogorov_distance(meas, ref) == merged_grid_kolmogorov(meas, ref)


def test_reference_measure_validation():
    for xs in ([0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [], [[0.0, 1.0]]):  # unsorted, empty, 2-d
        with pytest.raises(ValueError):
            fl.ReferenceMeasure(xs=np.array(xs))
    with pytest.raises(ValueError):
        fl.ReferenceMeasure()
    with pytest.raises(TypeError):  # moments are named, never a second array
        fl.ReferenceMeasure(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    ref = fl.ReferenceMeasure(xs=np.array([0.0, 0.0, 1.0]))  # ties count as sorted
    assert ref.cdf([-1.0, 0.0, 0.5, 1.0]).tolist() == [0.0, 2 / 3, 2 / 3, 1.0]


def test_moments_only_reference_has_no_cdf():
    # a moments-only reference has no samples: its CDF says so, as the
    # Kolmogorov distance does, where numpy's searchsorted failed on None
    ref = fl.ReferenceMeasure(moments=(1.0, 0.0))
    with pytest.raises(ValueError, match="has no samples"):
        ref.cdf(0.0)
    with pytest.raises(ValueError, match="has no samples"):
        fl.kolmogorov_distance(fl.EmpiricalMeasure(np.array([0.0]), 1), ref)


NON_FINITE = [[0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [0.0, 1.0, np.nan], [np.nan],
              [-np.inf, 0.0], [0.0, np.inf], [np.inf], [-np.inf, np.inf]]


@pytest.mark.parametrize("xs", NON_FINITE)
def test_reference_measure_refuses_non_finite_samples(xs):
    # a NaN compares false with its neighbours, so an order check alone
    # passes [0, nan, 1], whose Kolmogorov distance to [nan, 0] read 0.5
    with pytest.raises(ValueError, match="finite"):
        fl.ReferenceMeasure(xs=np.array(xs))


@pytest.mark.parametrize("xs", NON_FINITE)
def test_empirical_measure_refuses_non_finite_atoms(xs):
    with pytest.raises(ValueError, match="finite"):
        fl.EmpiricalMeasure(np.array(xs), len(xs))


def valley(d, base=HOPPING):
    """base, on n0, plus the diagonal 0.01 min(n, d - 1 - n): for a
    bandwidth-1 Toeplitz base its window 0..d-1 is tridiagonal and
    persymmetric but not Toeplitz, so it reaches sterf's halves, not the
    closed form."""
    return fl.op_sum(base, fl.Band(0, ((0, lambda n: 0.01 * np.minimum(n, d - 1 - n)),),
                                   lattice=fl.N0))


def _tridiagonal_cases():
    """Seeded real bandwidth-1 operators, each on a window and on a gapped
    index set of its lattice."""
    rng = np.random.default_rng(23)
    off = rng.uniform(-2.0, 2.0, 400)
    diag = rng.uniform(-3.0, 3.0, 400)
    up = rng.uniform(-1.0, 1.0, 400)
    weight = rng.uniform(0.5, 1.5, 400)
    a0, a1 = rng.uniform(-1.0, 1.0, 2)
    toeplitz = fl.Toeplitz({0: a0, 1: a1, -1: a1}, selfadjoint=True)
    ops = {
        "toeplitz": toeplitz,
        # persymmetric on the 61-position window, not Toeplitz
        "valley": valley(61, toeplitz),
        "shift_poly": fl.op_sum(fl.Shift(lambda n: weight[n]),
                                op_adjoint(fl.Shift(lambda n: weight[n])),
                                fl.op_scale(0.5, fl.identity(fl.N0))),
        "almost_mathieu": fl.AlmostMathieu(float(rng.uniform(0.2, 2.0)),
                                           (math.sqrt(5.0) - 1.0) / 2.0,
                                           float(rng.uniform())),
        # A[i, i + 1] = off[i + 200] = A[i + 1, i]
        "band": fl.Band(1, ((-1, lambda n: off[n + 199]), (0, lambda n: diag[n + 200]),
                            (1, lambda n: off[n + 200]))),
        "band_poly": fl.op_sum(fl.Band(1, ((0, lambda n: diag[n + 200]),
                                           (1, lambda n: up[n + 200]))),
                               op_adjoint(fl.Band(1, ((1, lambda n: up[n + 200]),)))),
        "harper": fl.represent_nc(fl.almost_mathieu_element((math.sqrt(5.0) - 1.0) / 2.0, 0.5),
                                  phi=float(rng.uniform())),
    }
    gaps = {
        fl.N0: np.sort(rng.choice(np.arange(0, 190), 90, replace=False)),
        fl.Z: np.sort(rng.choice(np.arange(-95, 95), 90, replace=False)),
    }
    cases = []
    for name, op in ops.items():
        cases.append(pytest.param(op, fl.finite_section(op.lattice, 60), id=f"{name}-window"))
        cases.append(pytest.param(op, fl.IndexSet(op.lattice, tuple(gaps[op.lattice])),
                                  id=f"{name}-gapped"))
    return cases


def _dense_cases():
    """Compressions that are not tridiagonal by position, each on a window
    and on a gapped index set; the set holds 0..3, so an index offset of 2
    stays a position offset of 2 there."""
    rng = np.random.default_rng(29)
    x = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    ops = {
        "complex": fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j, 2: 0.25j, -2: -0.25j},
                               selfadjoint=True),
        "bandwidth-2": fl.Toeplitz({0: 1.0, 2: 0.5, -2: 0.5}, selfadjoint=True),
        "poly-bandwidth-2": fl.op_prod(fl.Toeplitz({1: 1.0, -1: 1.0}),
                                       fl.Toeplitz({1: 1.0, -1: 1.0})),
        "dense-leaf": fl.Dense(np.array([[1.0, 0.5, 0.25], [0.5, 2.0, 0.5], [0.25, 0.5, 3.0]])),
        # a support wider than the rank: offsets |j| >= d stay in the storage, all zero
        "dense-leaf-past-rank": fl.Dense(x + x.conj().T),
    }
    gapped = fl.IndexSet(fl.N0, (0, 1, 2, 3, 5, 8, 9, 11, 12, 13, 17, 20))
    return [pytest.param(op, proj, id=name + suffix)
            for suffix, proj in (("", fl.Window(fl.N0, 0, 20)), ("-gapped", gapped))
            for name, op in ops.items()]


def persymmetric(m):
    """J m J = conj(m) for the exchange matrix J, read off the dense matrix:
    the compressions the production path folds."""
    return np.array_equal(m[::-1, ::-1], m.conj())


def halves(rank):
    """The orders of the two halves of a folded real compression."""
    return [rank - rank // 2, rank // 2]


def constant_tridiagonal(m):
    """Whether the real gauge of the tridiagonal m, of diagonal Re m_ii and
    off-diagonal |m_i,i+1|, has one diagonal entry and one off-diagonal
    entry: the windows solved in closed form."""
    a, e = np.diag(m).real, np.abs(np.diag(m, 1))
    return bool((a == a[0]).all() and (e == e[0]).all())


# a real bandwidth-1 operator on n0 whose compressions are never persymmetric
RAMP = fl.op_sum(HOPPING, fl.Band(0, ((0, lambda n: 0.01 * n),), lattice=fl.N0))



class TestTridiagonalPath:
    """Real bandwidth-1 compressions at or above TRIDIAGONAL_MIN_DIM are solved
    from their diagonals, as two tridiagonal halves where persymmetric, in
    closed form where Toeplitz; the threshold is lowered so small windows
    take it."""

    @pytest.mark.parametrize("check_residual", [False, True])
    @pytest.mark.parametrize("op,proj", _tridiagonal_cases())
    def test_matches_dense_eigvalsh(self, monkeypatch, eig_calls, op, proj, check_residual):
        # toeplitz-window is persymmetric and Toeplitz, its halves solved in
        # closed form; valley-window is persymmetric and not Toeplitz, its
        # halves solved by sterf; the other cases are not persymmetric and
        # take one sterf solve; eigenvalues only, with check_residual or
        # without
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 2)
        m = compress(op, proj)
        expected = np.linalg.eigvalsh(m)
        eig_calls.clear()
        vals = fl.compression_eigenvalues(op, proj, check_residual=check_residual)
        orders = halves(proj.rank) if persymmetric(m) else [proj.rank]
        solver = "cosine" if constant_tridiagonal(m) else "sterf"
        assert eig_calls == [(solver, d, np.dtype(np.float64)) for d in orders]
        tol = 1e-12 * max(1.0, float(np.max(np.abs(m))))
        assert np.max(np.abs(vals - expected)) <= tol

    def test_crossover_pinned(self, eig_calls):
        # below the threshold the dense solves run, at it the tridiagonal
        # ones: two halves of the persymmetric hopping in closed form, two
        # sterf halves of the persymmetric valley, one sterf solve of the ramp
        d = fl.spectral.TRIDIAGONAL_MIN_DIM
        real = np.dtype(np.float64)
        for ops, below, at in (((HOPPING, HOPPING), halves(d - 1), ("cosine", halves(d))),
                               ((valley(d - 1), valley(d)), halves(d - 1), ("sterf", halves(d))),
                               ((RAMP, RAMP), [d - 1], ("sterf", [d]))):
            projs = [fl.Window(fl.N0, 0, rank - 1) for rank in (d - 1, d)]
            sections = [compress(op, proj) for op, proj in zip(ops, projs)]
            assert not any(m.imag.any() for m in sections)
            expected = [np.linalg.eigvalsh(m.real) for m in sections]  # in real arithmetic
            eig_calls.clear()
            for op, proj, m, want in zip(ops, projs, sections, expected):
                vals = fl.compression_eigenvalues(op, proj)
                assert np.max(np.abs(vals - want)) <= 1e-12 * max(1.0, np.max(np.abs(m)))
            assert eig_calls == ([("eigvalsh", n, real) for n in below]
                                 + [(at[0], n, real) for n in at[1]])

    @pytest.mark.parametrize("op,proj", _dense_cases())
    def test_other_compressions_stay_dense(self, monkeypatch, eig_calls, op, proj):
        # unfolded: one dense solve, bit for bit the dense oracle's; folded:
        # two real halves, or one real matrix of order d for a complex H
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 2)
        m = compress(op, proj)
        vals = fl.compression_eigenvalues(op, proj)
        if not persymmetric(m):
            assert [c[:2] for c in eig_calls] == [("eigvalsh", proj.rank)]
            assert vals.tobytes() == eigenvalues_hermitian(m).tobytes()
            return
        orders = halves(proj.rank) if not m.imag.any() else [proj.rank]
        assert eig_calls == [("eigvalsh", d, np.dtype(np.float64)) for d in orders]
        assert np.max(np.abs(vals - np.linalg.eigvalsh(m))) <= 1e-12 * max(1.0, np.max(np.abs(m)))

    def test_dense_cases_cover_every_routing(self):
        kinds = set()
        for case in _dense_cases():
            m = compress(*case.values)
            kinds.add("unfolded" if not persymmetric(m) else
                      "complex" if m.imag.any() else "halves")
        assert kinds == {"unfolded", "complex", "halves"}

    def test_tridiagonal_by_position(self, monkeypatch, eig_calls):
        # index offsets +-2 on the even indices couple neighbouring positions;
        # the even indices alone are their own mirror and Toeplitz by
        # position, and fold into halves solved in closed form; a gap of 4
        # in the middle keeps the mirror but uncouples two positions, and
        # its halves take sterf; an isolated last index breaks the mirror
        # and takes one sterf solve
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 2)
        op = fl.Toeplitz({0: 0.5, 2: 1.0, -2: 1.0}, selfadjoint=True)
        for indices, solver, orders in ((range(0, 80, 2), "cosine", [20, 20]),
                                        ([*range(0, 40, 2), *range(42, 82, 2)], "sterf",
                                         [20, 20]),
                                        ([*range(0, 80, 2), 81], "sterf", [41])):
            proj = fl.IndexSet(fl.N0, tuple(indices))
            expected = np.linalg.eigvalsh(compress(op, proj))
            eig_calls.clear()
            vals = fl.compression_eigenvalues(op, proj)
            assert eig_calls == [(solver, d, np.dtype(np.float64)) for d in orders]
            assert np.max(np.abs(vals - expected)) <= 1e-12

    @pytest.mark.parametrize("check_residual", [False, True])
    @pytest.mark.parametrize("op,rank,solvers", [
        pytest.param(HOPPING, 7, ["eigvalsh"] * 2, id="below"),
        pytest.param(HOPPING, 8, ["cosine"] * 2, id="at"),
        pytest.param(valley(8), 8, ["sterf"] * 2, id="valley-at"),
        pytest.param(RAMP, 7, ["eigvalsh"], id="unfolded-below"),
        pytest.param(RAMP, 8, ["sterf"], id="unfolded-at"),
        pytest.param(fl.op_prod(HOPPING, HOPPING), 9, ["eigvalsh"], id="poly-bandwidth-2-above"),
        pytest.param(fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True), 9,
                     ["cosine"] * 2, id="complex-above"),
        pytest.param(valley(9, fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j},
                                           selfadjoint=True)), 9,
                     ["sterf"] * 2, id="complex-valley-above"),
        pytest.param(fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j, 2: 0.25j, -2: -0.25j},
                                 selfadjoint=True), 9,
                     ["eigvalsh"], id="complex-bandwidth-2-above"),
    ])
    def test_one_storage_and_one_check_per_call(self, monkeypatch, eig_calls, op, rank,
                                                solvers, check_residual):
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 8)
        calls = []
        for name in ("exact_entries", "_check_hermitian"):
            def spy(*args, _name=name, _orig=getattr(fl.spectral, name), **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(fl.spectral, name, spy)
        fl.compression_eigenvalues(op, fl.Window(fl.N0, 0, rank - 1),
                                   check_residual=check_residual)
        assert sorted(calls) == ["_check_hermitian", "exact_entries"]
        if check_residual:
            solvers = [{"eigvalsh": "eigh"}.get(s, s) for s in solvers]
        assert [c[0] for c in eig_calls] == solvers

    @pytest.mark.parametrize("peak", ["diagonal", "offdiagonal"])
    def test_defect_bit_identical_to_dense(self, monkeypatch, eig_calls, peak):
        # lower diagonal = upper one times (1 + small noise); max |entry| is
        # 4, so herm_tol * scale is exact and the tolerance sits on either
        # side of the defect the dense check computes
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 2)
        rng = np.random.default_rng(31)
        up = rng.uniform(-1.0, 1.0, 200)
        lo = up * (1.0 + rng.uniform(-1e-9, 1e-9, 200))
        diag = rng.uniform(-1.0, 1.0, 200)
        if peak == "diagonal":
            diag[57] = 4.0
        else:
            up[57] = lo[57] = -4.0
        op = fl.Band(1, ((-1, lambda n: lo[n + 99]), (0, lambda n: diag[n + 100]),
                         (1, lambda n: up[n + 100])))
        proj = fl.finite_section(fl.Z, 80)
        m = compress(op, proj)
        dev = float(np.max(np.abs(m - m.conj().T)))
        assert dev > 0.0
        fl.compression_eigenvalues(op, proj, herm_tol=dev / 4.0)
        eigenvalues_hermitian(m, herm_tol=dev / 4.0)
        below = np.nextafter(dev, 0.0) / 4.0
        with pytest.raises(fl.NonHermitianError, match=re.escape(f"{dev:.3e}")):
            fl.compression_eigenvalues(op, proj, herm_tol=below)
        with pytest.raises(fl.NonHermitianError, match=re.escape(f"{dev:.3e}")):
            eigenvalues_hermitian(m, herm_tol=below)
        assert [c[0] for c in eig_calls] == ["sterf", "eigvalsh"]


def _mirrored_positions(rng, lattice, d):
    """d indices of the lattice whose gaps read the same backwards, so that
    a Toeplitz compression to them is persymmetric by position."""
    gaps = rng.integers(1, 4, d - 1)
    gaps = np.where(np.arange(d - 1) < (d - 1) // 2, gaps, gaps[::-1])
    start = 0 if lattice == fl.N0 else int(rng.integers(-3 * d, 0))
    return fl.IndexSet(lattice, tuple(start + np.concatenate([[0], np.cumsum(gaps)])))


def _fold_cases():
    """(label, op, proj, check_residual) of seeded persymmetric
    compressions: Toeplitz symbols of bandwidth 0-3, real and complex, on
    windows of n0 and z and on gapped index sets mirrored by position, at
    orders 1-7 and odd and even up to 2049, real tridiagonal and wider
    ones past TRIDIAGONAL_MIN_DIM; almost-Mathieu on windows of z centred
    at 0, where its potential is even; and past TRIDIAGONAL_MIN_DIM, as
    tridiagonal windows that are not Toeplitz, a valley at d = 2048 and
    almost-Mathieu at d = 2049."""
    rng = np.random.default_rng(41)
    alpha = (math.sqrt(5.0) - 1.0) / 2.0
    cases = []
    small = [(d, bw, cx) for d in (1, 2, 3, 4, 5, 6, 7, 16, 17, 64, 65, 200, 201)
             for bw in range(4) for cx in (False, True)]
    large = [(2048, 1, False), (2049, 1, False), (1024, 2, False), (1025, 3, False),
             (512, 1, True), (513, 2, True)]
    for case, (d, bw, cx) in enumerate(small + large):
        coeffs = {0: float(rng.uniform(-1.0, 1.0))}
        for k in range(1, bw + 1):
            a = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) if cx else 0.0)
            coeffs[k], coeffs[-k] = a, a.conjugate()
        kind = ("n0", "z", "gapped-n0", "gapped-z")[case % 4] if (d, bw, cx) in small else "n0"
        lattice = fl.Z if kind.endswith("z") else fl.N0
        if kind.startswith("gapped"):
            proj = _mirrored_positions(rng, lattice, d)
        else:
            lo = 0 if lattice == fl.N0 else int(rng.integers(-d, 1))
            proj = fl.Window(lattice, lo, lo + d - 1)
        cases.append((f"toeplitz d={d} bw={bw} {'complex' if cx else 'real'} {kind}",
                      fl.Toeplitz(coeffs, lattice=lattice), proj, case % 2 == 1))
    for n in (0, 4, 500, 501, 1024):
        cases.append((f"almost-mathieu n={n}", fl.AlmostMathieu(float(rng.uniform(0.2, 2.0)), alpha),
                      fl.finite_section(fl.Z, n), n % 2 == 0))
    cases.append(("valley d=2048", valley(2048), fl.Window(fl.N0, 0, 2047), False))
    return cases


def _unfolded_cases():
    """(label, op, proj) of compressions that are not persymmetric: Harper,
    almost-Mathieu, and persymmetric ones with one entry changed, each on
    a small window, and the tridiagonal ones on one past
    TRIDIAGONAL_MIN_DIM too."""
    rng = np.random.default_rng(43)
    alpha = (math.sqrt(5.0) - 1.0) / 2.0
    bump = fl.Band(0, ((0, lambda n: 0.5 * (n == 3)),), lattice=fl.N0)
    ops = {
        "harper": fl.represent_nc(fl.almost_mathieu_element(alpha, 0.5),
                                  phi=float(rng.uniform())),
        "almost-mathieu": fl.AlmostMathieu(float(rng.uniform(0.2, 2.0)), alpha,
                                           float(rng.uniform())),
        "hopping-one-entry-changed": fl.op_sum(HOPPING, bump),
        "complex-one-entry-changed": fl.op_sum(
            fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j, 2: 0.25j, -2: -0.25j},
                        selfadjoint=True), bump),
    }
    return [(f"{name} d={d}", op, fl.Window(op.lattice, 0, d - 1))
            for name, op in ops.items() for d in (40, 1001) if d < 1000 or "complex" not in name]


class TestPersymmetricFold:
    """Compressions whose stored diagonals are all palindromes are solved
    folded (`spectral._fold`); every other one as before the fold."""

    def test_matches_dense_eigvalsh(self, eig_calls):
        # every eigenvalue within 1e-12 of the scale, and with check_residual
        # every eigenpair within the residual contract, from real solves:
        # sterf's halves or the closed form's past TRIDIAGONAL_MIN_DIM; the
        # dense oracle solves an exactly real compression in real arithmetic,
        # and a bandwidth-1 Toeplitz window past TRIDIAGONAL_MIN_DIM reads
        # hopping's, shared with TestClosedForm
        real = np.dtype(np.float64)
        cases = _fold_cases()
        solvers = set()
        for label, op, proj, check_residual in cases:
            m = compress(op, proj)
            assert persymmetric(m), label
            d = proj.rank
            if d >= fl.spectral.TRIDIAGONAL_MIN_DIM and isinstance(op, fl.Toeplitz) \
                    and op.bandwidth == 1 and isinstance(proj, fl.Window):
                coeffs = dict(op.coeffs)
                expected = toeplitz_spectrum(coeffs.get(0, 0.0).real, coeffs[1], d)
            else:
                expected = np.linalg.eigvalsh(m if m.imag.any() else m.real)
            eig_calls.clear()
            vals = fl.compression_eigenvalues(op, proj, check_residual=check_residual)
            orders = [d] if m.imag.any() else [n for n in halves(d) if n]
            assert [(c[1], c[2]) for c in eig_calls] == [(n, real) for n in orders], label
            if d >= fl.spectral.TRIDIAGONAL_MIN_DIM and not np.triu(m, 2).any():
                solver = "cosine" if constant_tridiagonal(m) else "sterf"
                assert {c[0] for c in eig_calls} == {solver}, label
                solvers.add(solver)
            tol = 1e-12 * max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(vals - expected)) <= tol, label
        assert {(p.rank % 2, check) for _, _, p, check in cases if p.rank > 2000} == \
            {(0, False), (1, True)}
        assert solvers == {"cosine", "sterf"}

    @pytest.mark.parametrize("check_residual", [False, True])
    @pytest.mark.parametrize("label,op,proj", _unfolded_cases(),
                             ids=[c[0] for c in _unfolded_cases()])
    def test_unfolded_bit_identical(self, label, op, proj, check_residual):
        # the solve before the fold: sterf on the diagonals of a real
        # tridiagonal window of order >= TRIDIAGONAL_MIN_DIM, else the dense
        # solve of the whole compression
        import scipy.linalg

        m = compress(op, proj)
        assert not persymmetric(m)
        if proj.rank >= fl.spectral.TRIDIAGONAL_MIN_DIM and not m.imag.any() \
                and not np.triu(m, 2).any():
            a, e = np.diag(m).real.copy(), np.diag(m, 1).real.copy()
            want = scipy.linalg.eigvalsh_tridiagonal(a, e, lapack_driver="sterf")
        else:
            want = eigenvalues_hermitian(m, check_residual=check_residual)
        vals = fl.compression_eigenvalues(op, proj, check_residual=check_residual)
        assert vals.tobytes() == want.tobytes()

    def test_exact_spectra_stay_exact(self):
        # the fold adds and subtracts stored entries and scales only the
        # couplings to the middle index of an odd order
        for n in range(1, 8):
            for lattice in (fl.N0, fl.Z):
                proj = fl.finite_section(lattice, n)
                ones = fl.compression_eigenvalues(fl.identity(lattice), proj)
                assert np.array_equal(ones, np.ones(proj.rank))
                zeros = fl.compression_eigenvalues(fl.Dense(np.zeros((3, 3)), lattice=lattice),
                                                   proj)
                assert np.array_equal(zeros, np.zeros(proj.rank))
        # H = [[0, 1], [1, 0]] folds into the halves [1] and [-1]
        assert np.array_equal(dense_solve(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])


class TestFoldResidual:
    """A wrong eigenvalue of any folded tridiagonal solve, or a wrong
    eigenvector of any folded dense one, breaches the contract, which is
    checked against the compression itself: by Sturm counts on each half of
    its tridiagonal, or against its storage with each vector unfolded."""

    def _spy(self, monkeypatch):
        """The storage and order each residual check reads, and the
        residuals it finds."""
        seen = {"resid": []}
        check_storage, check = fl.spectral._check_storage_residual, fl.spectral._check_residual

        def spy_storage(h, d, *args):
            seen["storage"], seen["d"] = h, d
            return check_storage(h, d, *args)

        def spy(resid, *args):
            seen["resid"].append(resid)
            return check(resid, *args)

        monkeypatch.setattr(fl.spectral, "_check_storage_residual", spy_storage)
        monkeypatch.setattr(fl.spectral, "_check_residual", spy)
        return seen

    def _assert_against_storage(self, seen, op, proj, lam, u, delta):
        # the residual of the perturbed pair is delta ||(M - lam) u|| for
        # the compression M, u the unfolded coordinate vector perturbed
        h, _ = fl.spectral._hermitian_compression(op, proj, 1e-10)
        assert seen["d"] == proj.rank
        assert set(seen["storage"]) == set(h)
        assert all(np.array_equal(seen["storage"][j], v) for j, v in h.items())
        m = compress(op, proj)
        want = delta * np.linalg.norm(m @ u - lam * u)
        assert seen["resid"][-1] == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("d", [16, 17])
    @pytest.mark.parametrize("half", [0, 1], ids=["symmetric", "antisymmetric"])
    def test_perturbed_tridiagonal_half(self, monkeypatch, d, half):
        # one eigenvalue of one sterf half moved by 1e-3: the Sturm
        # certificate on the halves of the compression's tridiagonal catches
        # it (a valley, which is not Toeplitz, so that sterf solves it)
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 5)
        op = valley(d, fl.Toeplitz({0: 0.3, 1: 0.7, -1: 0.7}, selfadjoint=True))
        proj = fl.Window(fl.N0, 0, d - 1)
        orig, calls, seen = fl.spectral._sterf, [], {}

        def perturbed(*args, **kwargs):
            vals = orig(*args, **kwargs)
            if len(calls) == half:
                vals[3] += 1e-3
            calls.append(vals.size)
            return vals

        def spy(solves, *args):
            seen["halves"] = [(a.copy(), e.copy()) for (a, e), _ in solves]
            return check(solves, *args)

        check = fl.spectral._check_sturm
        monkeypatch.setattr(fl.spectral, "_sterf", perturbed)
        monkeypatch.setattr(fl.spectral, "_check_sturm", spy)
        with pytest.raises(fl.ResidualError, match=f"of {d},"):
            fl.compression_eigenvalues(op, proj, check_residual=True)
        assert calls == halves(d)
        m = compress(op, proj)
        want = fl.spectral._tridiagonal_halves(np.diag(m).real, np.abs(np.diag(m, 1)))
        assert [a.size for a, _ in seen["halves"]] == halves(d)
        for (a, e), (wa, we) in zip(seen["halves"], want):
            assert np.array_equal(a, wa) and np.array_equal(e, we)

    @pytest.mark.parametrize("d", [16, 17])
    def test_perturbed_complex_fold(self, monkeypatch, d):
        op = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j, 2: 0.25j, -2: -0.25j},
                         selfadjoint=True)
        proj = fl.Window(fl.N0, 0, d - 1)
        eigh, lams, delta = np.linalg.eigh, [], 1e-3

        def perturbed(m, *args, **kwargs):
            vals, vecs = eigh(m, *args, **kwargs)
            vecs[0, 5] += delta
            lams.append(vals[5])
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        seen = self._spy(monkeypatch)
        with pytest.raises(fl.ResidualError):
            fl.compression_eigenvalues(op, proj, check_residual=True)
        u = np.zeros(d)
        u[0] = u[-1] = math.sqrt(0.5)
        self._assert_against_storage(seen, op, proj, lams[0], u, delta)

    @pytest.mark.parametrize("kind", ["vector", "nan"])
    @pytest.mark.parametrize("label", ["complex-fold", "dense-halves", "dense-real"])
    def test_wrong_pair_in_the_last_block(self, monkeypatch, label, kind):
        # at d = 513 a residual block holds 2^18 // (16 * 513) = 31 pairs:
        # the last eigenvector of the first solve, in its last block, moved
        # or made NaN, breaches the contract
        op = dict(_footprint_cases())[label]
        d = 513
        proj = fl.Window(fl.N0, 0, d - 1)
        eigh, lams, delta = np.linalg.eigh, [], 1e-3

        def perturbed(m, *args, **kwargs):
            vals, vecs = eigh(m, *args, **kwargs)
            if not lams:
                step = fl.spectral._residual_columns(d, vals.size)
                assert step == 31 and vals.size % step, vals.size
                vecs[0, -1] = np.nan if kind == "nan" else vecs[0, -1] + delta
            lams.append(vals[-1])
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        seen = self._spy(monkeypatch)
        with pytest.raises(fl.ResidualError, match="nan" if kind == "nan" else "residual"):
            fl.compression_eigenvalues(op, proj, check_residual=True)
        if kind == "vector":
            u = np.zeros(d)
            if label == "dense-real":
                u[0] = 1.0
            else:
                u[0] = u[-1] = math.sqrt(0.5)
            self._assert_against_storage(seen, op, proj, lams[0], u, delta)

    def test_every_block_is_read(self, monkeypatch):
        # the worst residual of a solve of several blocks is the largest of
        # the per-pair residuals, each formed densely, wherever it stands
        op = dict(_footprint_cases())["complex-fold"]
        d = 200
        proj = fl.Window(fl.N0, 0, d - 1)
        monkeypatch.setattr(fl.spectral, "_RESIDUAL_BLOCK_BYTES", 16 * d * 7)
        h, scale = fl.spectral._hermitian_compression(op, proj, 1e-10)
        (part, folded), = fl.spectral._fold(h, d)
        vals, vecs = np.linalg.eigh(folded)
        m = compress(op, proj)
        for col in (0, 6, 7, 100, d - 1):
            wrong = vecs.copy()
            wrong[:, col] = np.roll(wrong[:, col], 1)
            u = fl.spectral._unfold(wrong, d, part, out=np.empty((d, d), complex))
            want = float(np.max(np.linalg.norm(m @ u - u * vals[None, :], axis=0)))
            seen = self._spy(monkeypatch)
            with pytest.raises(fl.ResidualError):
                fl.spectral._check_storage_residual(h, d, scale, vals, wrong, part)
            assert seen["resid"][-1] == pytest.approx(want, rel=1e-9), col


# complex bandwidth-1 operators: symbol_sampled's Toeplitz symbol, whose
# off-diagonals carry FFT round-off of about 1e-16i and which is
# persymmetric, and a band with round-off and with whole phases on its
# off-diagonal and a ramp on its diagonal, which is not
SYMBOL_SAMPLED = load_spec_file(
    str(Path(__file__).parent / "corpus" / "valid" / "symbol_sampled.json"))[1]
_PHASES = np.exp(1j * np.linspace(0.0, 40.0, 3000))


def _complex_band(imag):
    off = lambda n: 1.0 + imag(n)  # noqa: E731
    return fl.Band(1, ((-1, lambda n: np.conj(off(n - 1))), (0, lambda n: 0.01 * n),
                       (1, off)), lattice=fl.N0)


COMPLEX_BANDS = {
    "symbol-sampled": SYMBOL_SAMPLED,
    "round-off-ramp": _complex_band(lambda n: 1e-16j * np.cos(n)),
    "phases-ramp": _complex_band(lambda n: _PHASES[n] - 1.0),
}


class TestSturmCertificate:
    """A tridiagonal window is solved for eigenvalues only, and with
    check_residual each eigenvalue is certified, index by index, by Sturm
    counts on the whole compression or on each of its halves, whether sterf
    or the closed form solved it."""

    @pytest.mark.parametrize("kind", ["shift", "duplicate", "nan"])
    @pytest.mark.parametrize("op,orders", [(valley(64), halves(64)), (RAMP, [64]),
                                           (COMPLEX_BANDS["phases-ramp"], [64])],
                             ids=["folded", "unfolded", "complex"])
    def test_wrong_sterf_spectrum_raises(self, monkeypatch, wrong_sterf, op, orders, kind):
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 8)
        proj = fl.Window(fl.N0, 0, 63)
        calls = wrong_sterf(kind)
        with pytest.raises(fl.ResidualError, match=r"^eigenvalue \d+ of 64, .* breaches contract"):
            fl.compression_eigenvalues(op, proj, check_residual=True)
        assert calls == orders

    @pytest.mark.parametrize("kind", ["shift", "duplicate", "missing"])
    @pytest.mark.parametrize("half", [0, 1], ids=["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("d", [64, 65])
    def test_each_half_is_certified_on_its_own(self, monkeypatch, d, half, kind):
        # the halves of a persymmetric window (a valley, which sterf
        # solves) are certified by Sturm counts on each half: the eigenvalue
        # of index 3 of either half moved up by 1e-3, replaced by its upper
        # neighbour, or missing (those above it moved down one place, the
        # top one repeated) fails at half index 3, and the message names
        # that value's index in the window's sorted list
        monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 8)
        orig, returned = fl.spectral._sterf, []

        def wrong(*args):
            vals = orig(*args)
            if len(returned) == half:
                if kind == "shift":
                    vals[3] += 1e-3
                elif kind == "duplicate":
                    vals[3] = vals[4]
                else:
                    vals = np.append(np.delete(vals, 3), vals[-1])
            returned.append(vals)
            return vals

        monkeypatch.setattr(fl.spectral, "_sterf", wrong)
        with pytest.raises(fl.ResidualError) as exc:
            fl.compression_eigenvalues(valley(d), fl.Window(fl.N0, 0, d - 1),
                                       check_residual=True)
        assert [v.size for v in returned] == halves(d)
        match = re.fullmatch(rf"eigenvalue (\d+) of {d}, (\S+), breaches contract \S+: Sturm "
                             rf"counts on its half, of order {halves(d)[half]}, \d+ below it "
                             r"- tol and \d+ below it \+ tol, want <= 3 and >= 4", str(exc.value))
        assert match, str(exc.value)
        merged = np.sort(np.concatenate(returned))
        assert match[2] == f"{returned[half][3]:.6g}" == f"{merged[int(match[1])]:.6g}"
        assert merged[int(match[1])] == returned[half][3]

    def test_counts_match_dense_eigvalsh(self):
        # generic irreducible tridiagonals, at their diagonal entries and
        # between neighbouring eigenvalues
        rng = np.random.default_rng(61)
        for d in (1, 2, 7, 60):
            a, e = rng.uniform(-1.0, 1.0, d), rng.uniform(-1.0, 1.0, d - 1)
            mu = np.linalg.eigvalsh(np.diag(a) + np.diag(e, 1) + np.diag(e, -1))
            x = np.concatenate([a, (mu[1:] + mu[:-1]) / 2.0, [mu[0] - 1.0, mu[-1] + 1.0]])
            counts = fl.spectral._sturm_counts(a, e * e, x)
            assert np.array_equal(counts, np.sum(mu[None, :] < x[:, None], axis=1)), d

    def test_exact_ties(self):
        # shifts equal to exact eigenvalues and diagonal entries leave zero
        # pivots; an eigenvalue at the shift is not counted below it.  The
        # reducible matrix, with zero off-diagonals, has the blocks [1],
        # [[2, 1], [1, 2]], [0], [[3, 2], [2, 3]] and [-1]; hopping of odd
        # order has the eigenvalue 0 on its zero diagonal
        a = np.array([1.0, 2.0, 2.0, 0.0, 3.0, 3.0, -1.0])
        e = np.array([0.0, 1.0, 0.0, 0.0, 2.0, 0.0])
        lam = np.array([-1.0, 0.0, 1.0, 1.0, 1.0, 3.0, 5.0])
        m = np.diag(a) + np.diag(e, 1) + np.diag(e, -1)
        assert np.max(np.abs(np.linalg.eigvalsh(m) - lam)) <= 1e-14
        x = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        want = np.sum(lam[None, :] < x[:, None], axis=1)
        assert np.array_equal(fl.spectral._sturm_counts(a, e * e, x), want)
        for d in (1, 7, 63):
            hop = fl.spectral._sturm_counts(np.zeros(d), np.ones(d - 1), np.zeros(1))
            assert hop.tolist() == [d // 2]

    @pytest.mark.parametrize("name", sorted(COMPLEX_BANDS))
    def test_complex_windows_match_dense(self, eig_calls, name):
        # on both sides of TRIDIAGONAL_MIN_DIM: dense below, at and above it
        # the real gauge's halves in closed form where Toeplitz, else its
        # sterf, certified in the largest window
        op, low = COMPLEX_BANDS[name], fl.spectral.TRIDIAGONAL_MIN_DIM
        folds = name == "symbol-sampled"
        for d, check in ((low - 1, False), (low, False), (low + 1, True)):
            proj = fl.Window(op.lattice, 0, d - 1)
            m = compress(op, proj)
            assert m.imag.any() and persymmetric(m) == folds
            want = eigenvalues_hermitian(m)
            eig_calls.clear()
            vals = fl.compression_eigenvalues(op, proj, check_residual=check)
            scale = max(1.0, float(np.max(np.abs(m))))
            assert np.max(np.abs(vals - want)) <= 1e-12 * scale, (name, d)
            solvers = [c[0] for c in eig_calls]
            if d < low:
                assert solvers == ["eigvalsh"]
            else:
                assert solvers == (["cosine"] * 2 if folds else ["sterf"])


class TestClosedForm:
    """A tridiagonal window whose real gauge has one diagonal entry a and
    one off-diagonal entry e, a bandwidth-1 Toeplitz section, is solved in
    closed form: a + 2e cos(k pi / (d + 1)), k = 1..d, odd k in the
    symmetric half and even k in the antisymmetric one, each certified by
    Sturm counts as sterf's halves are."""

    @pytest.mark.parametrize("d", [1000, 1001, 1025, 2048, 2049])
    def test_matches_sterf_and_dense(self, eig_calls, d):
        # a_0 = -0.4 and a_1 = 0.7 e^(i phase) on windows of n0 and z: every
        # eigenvalue, certified, within 1e-13 * scale of sterf's on the
        # whole real gauge, solved once for each gauge it reads, and of the
        # dense oracle of hopping's window of order d, scaled by |a_1| and
        # shifted by a_0 (`toeplitz_spectrum`)
        real = np.dtype(np.float64)
        phases = [0.0, math.pi, 1.0, math.pi / 2, 2.5]
        sterf = {}
        for i, phase in enumerate(phases):
            a1 = 0.7 * complex(np.exp(1j * phase)) if i > 1 else 0.7 * math.cos(phase)
            for lattice in (fl.N0, fl.Z):
                op = fl.Toeplitz({0: -0.4, 1: a1, -1: np.conj(a1)}, lattice=lattice,
                                 selfadjoint=True)
                lo = 0 if lattice == fl.N0 else -(d // 2)
                proj = fl.Window(lattice, lo, lo + d - 1)
                eig_calls.clear()
                vals = fl.compression_eigenvalues(op, proj, check_residual=True)
                assert eig_calls == [("cosine", n, real) for n in halves(d)]
                h, scale = fl.spectral._hermitian_compression(op, proj, 1e-10)
                assert scale == 1.0
                a, e = h[0].real, np.abs(h[1][:-1])
                gauge = (a.tobytes(), e.tobytes())
                if gauge not in sterf:
                    sterf[gauge] = fl.spectral._sterf(a.copy(), e)
                assert np.max(np.abs(vals - sterf[gauge])) <= 1e-13, (phase, lattice)
                dense = toeplitz_spectrum(-0.4, a1, d)
                assert np.max(np.abs(vals - dense)) <= 1e-13, (phase, lattice)

    @pytest.mark.parametrize("d", [2, 3, 16, 17, 1000, 1001])
    def test_odd_k_is_the_symmetric_half(self, d):
        # the eigenvector sin(j k pi / (d + 1)) of a + 2e cos(k pi / (d + 1))
        # reads the same backwards for odd k and changes sign for even k, so
        # the odd k are the symmetric half's eigenvalues and the even k the
        # antisymmetric half's, each within 1e-13 of a dense solve of that
        # half of `_tridiagonal_halves`
        a, e = -0.4, 0.7
        k = np.arange(1, d + 1)
        vecs = np.sin(np.outer(k, k) * np.pi / (d + 1))
        assert np.allclose(vecs[::-1], vecs * np.where(k % 2, 1.0, -1.0), atol=1e-12)
        lam = a + 2.0 * e * np.cos(k * np.pi / (d + 1))
        sym, anti = fl.spectral._cosine_halves(a, e, d)
        assert np.array_equal(sym, np.sort(lam[k % 2 == 1]))
        assert np.array_equal(anti, np.sort(lam[k % 2 == 0]))
        for got, (ha, he) in zip((sym, anti),
                                 fl.spectral._tridiagonal_halves(np.full(d, a), np.full(d - 1, e))):
            want = np.linalg.eigvalsh(np.diag(ha) + np.diag(he, 1) + np.diag(he, -1))
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_only_exactly_constant_storage(self, eig_calls):
        # the test reads the storage, exactly: two mirrored diagonal
        # entries, or two mirrored off-diagonal moduli, an ulp off take
        # sterf's halves; a zero off-diagonal takes the closed form, every
        # eigenvalue a exactly; storage with a NaN or an infinity is refused
        # by sterf as before
        d = 1000
        for j, at in ((0, ()), (0, (d // 2 - 1, d // 2)), (1, (10, d - 12))):
            h = {0: np.full(d, 0.3), 1: np.full(d, 0.7 + 0.0j)}
            for p in at:
                h[j][p] = np.nextafter(h[j][p].real, 1.0)
            eig_calls.clear()
            vals = fl.spectral._tridiagonal_eigenvalues(h, d, 1.0, check_residual=True)
            assert [c[0] for c in eig_calls] == ["sterf" if at else "cosine"] * 2
            want = tridiagonal_eigs(d - 1) * 0.7 + 0.3  # of order d
            assert np.max(np.abs(vals - want)) <= 1e-13
        vals = fl.spectral._tridiagonal_eigenvalues({0: np.full(d, 0.3)}, d, 1.0, True)
        assert np.array_equal(vals, np.full(d, 0.3))
        for bad in (np.nan, np.inf):
            with pytest.raises(np.linalg.LinAlgError, match="^non-finite entry"):
                fl.spectral._tridiagonal_eigenvalues({0: np.full(d, bad)}, d, 1.0, True)

    @pytest.mark.parametrize("kind", ["shift", "duplicate", "nan", "missing"])
    @pytest.mark.parametrize("half", [0, 1], ids=["symmetric", "antisymmetric"])
    @pytest.mark.parametrize("d", [1000, 1001])
    def test_wrong_closed_form_raises(self, wrong_cosine, d, half, kind):
        # the eigenvalue of index 3 of either half moved up by 1e-3,
        # replaced by its upper neighbour or by NaN, or missing, fails the
        # Sturm certificate of that half at half index 3, and the message
        # names that value's index in the window's sorted list
        calls = wrong_cosine(kind, half)
        with pytest.raises(fl.ResidualError) as exc:
            fl.compression_eigenvalues(HOPPING, fl.Window(fl.N0, 0, d - 1), check_residual=True)
        (returned,) = calls
        assert [v.size for v in returned] == halves(d)
        match = re.fullmatch(rf"eigenvalue (\d+) of {d}, (\S+), breaches contract \S+: Sturm "
                             rf"counts on its half, of order {halves(d)[half]}, \d+ below it "
                             r"- tol and \d+ below it \+ tol, want <= 3 and >= 4", str(exc.value))
        assert match, str(exc.value)
        assert match[2] == f"{returned[half][3]:.6g}"
        if kind != "nan":
            merged = np.sort(np.concatenate(returned))
            assert merged[int(match[1])] == returned[half][3]


def _sturm_case(rng, near_underflow=False):
    """(a, e, x): a random tridiagonal of blocks joined by zero or random
    off-diagonals, and shifts at its diagonal entries, an ulp from them, at
    the blocks' exact eigenvalues ([p], [[p, q], [q, p]] and zero-diagonal
    hopping of odd order, which has 0), at computed eigenvalues and between
    them.  The whole is scaled by a power of two from 2^-1000 to 2^500, and
    shifts a subnormal step from zero, far below pivmin, are added after
    the scaling where no two neighbouring diagonal entries are zero, so
    that they leave isolated subnormal pivots.  near_underflow takes the
    scale 2^-515, where the squared off-diagonals are subnormal, and the
    subnormal shifts and shifts of pivmin / 2 and pivmin wherever they
    fall, next to runs of zero diagonal entries too."""
    a, e, exact = [], [], []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(4))
        if kind == 0:
            p = float(rng.integers(-3, 4))
            block, off, lam = [p], [], [p]
        elif kind == 1:
            p, q = float(rng.integers(-3, 4)), float(rng.integers(1, 4))
            block, off, lam = [p, p], [q], [p - q, p + q]
        elif kind == 2:
            n = int(rng.choice([1, 3, 5, 7]))
            block, off, lam = [0.0] * n, [1.0] * (n - 1), [0.0]
        else:
            n = int(rng.integers(1, 9))
            block, off, lam = rng.uniform(-2, 2, n).tolist(), rng.uniform(-2, 2, n - 1).tolist(), []
        if a:
            e.append(0.0 if rng.random() < 0.6 else float(rng.uniform(-2, 2)))
        a += block
        e += off
        exact += lam
    a, e = np.array(a), np.array(e)
    mu = np.linalg.eigvalsh(np.diag(a) + np.diag(e, 1) + np.diag(e, -1))
    x = np.concatenate([a, np.nextafter(a, np.inf), np.nextafter(a, -np.inf), exact, mu,
                        (mu[1:] + mu[:-1]) / 2.0, [-0.0, 0.0]])
    scales = [-515] if near_underflow else [-1000, -300, -40, 0, 40, 300, 500]
    s = math.ldexp(1.0, int(rng.choice(scales)))
    tiny = np.finfo(float).tiny
    subnormal = [5e-324, -5e-324, 1e-310, -1e-310]
    if near_underflow:
        subnormal += [tiny / 2, -tiny / 2, tiny, -tiny]
    elif np.any((a[1:] == 0.0) & (a[:-1] == 0.0)):
        subnormal = []
    return a * s, e * s, np.concatenate([x * s, subnormal])


def test_sturm_counts_match_the_pivmin_oracle():
    # the production loop carries zero and tiny pivots through IEEE
    # infinities and clamps only where the factorisation decouples; clear
    # of the underflow threshold its counts equal those of the pivmin
    # substitution, on random tridiagonals with zero off-diagonals, ties at
    # diagonal entries and exact eigenvalues, isolated subnormal pivots and
    # scales from 2^-1000 to 2^500, and no 0 / 0 is met on the way
    rng = np.random.default_rng(71)
    for case in range(1500):
        a, e, x = _sturm_case(rng)
        with np.errstate(invalid="raise"):
            got = fl.spectral._sturm_counts(a, e * e, x)
        assert np.array_equal(got, sturm_counts(a, e * e, x)), case
    # NaN shifts count no eigenvalue below them, as in the oracle
    a, e = np.zeros(5), np.ones(4)
    x = np.array([np.nan, 0.0, np.nan])
    assert fl.spectral._sturm_counts(a, e, x).tolist() == [0, 2, 0] == \
        sturm_counts(a, e, x).tolist()


@pytest.mark.parametrize("near_underflow", [False, True])
def test_sturm_counts_bracketed_by_the_spectrum(near_underflow):
    # at every shift, near the underflow threshold too, the count is that of
    # T at a shift moved by at most an ulp of T's scale and a few pivmin:
    # #{mu < x - delta} <= count <= #{mu < x + delta} for the computed
    # eigenvalues mu of the T that the squared off-diagonals e2 describe
    # (at 2^-1000 they underflow to zero)
    rng = np.random.default_rng(73)
    for case in range(600):
        a, e, x = _sturm_case(rng, near_underflow)
        e2 = e * e
        root = np.sqrt(e2)
        mu = np.linalg.eigvalsh(np.diag(a) + np.diag(root, 1) + np.diag(root, -1))
        delta = (1e-13 * np.max(np.abs(np.concatenate([a, e, [0.0]])))
                 + 4 * np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0))))
        got = fl.spectral._sturm_counts(a, e2, x)
        low = np.sum(mu[None, :] < x[:, None] - delta, axis=1)
        high = np.sum(mu[None, :] < x[:, None] + delta, axis=1)
        assert np.all((low <= got) & (got <= high)), case


def _footprint_cases():
    """(label, op) of every solve path on windows of n0: tridiagonal halves
    and whole, real and complex, dense halves, the complex fold, and
    unfolded dense real and complex matrices."""
    ramp = fl.Band(0, ((0, lambda n: 0.01 * n),), lattice=fl.N0)
    cx1 = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j}, selfadjoint=True)
    r3 = fl.Toeplitz({0: 0.3, 1: 0.5, -1: 0.5, 3: 0.2, -3: 0.2}, selfadjoint=True)
    c3 = fl.Toeplitz({0: 0.3, 1: 0.5 + 0.5j, -1: 0.5 - 0.5j, 3: 0.2j, -3: -0.2j},
                     selfadjoint=True)
    return [("tridiagonal-halves", HOPPING), ("tridiagonal-whole", RAMP),
            ("complex-tridiagonal-halves", cx1),
            ("complex-tridiagonal-whole", fl.op_sum(cx1, ramp)),
            ("dense-halves", r3), ("complex-fold", c3),
            ("dense-real", fl.op_sum(r3, ramp)), ("dense-complex", fl.op_sum(c3, ramp))]


@pytest.mark.parametrize("d", [400, 2049])
def test_solve_peaks_within_its_footprint(monkeypatch, d):
    # tracemalloc's peak of each whole call, storage included, is at most
    # what check_solve_footprint counted for it; windows of order >= 400
    # take the tridiagonal path.  The unfolded complex matrix runs at 400
    # only: its complex eigh at 2049 takes 4-16 s on two vCPUs, and the
    # unfolded count, complex d x d arrays, is the real matrix's too
    import tracemalloc

    counted = []
    check = fl.spectral.check_footprint
    monkeypatch.setattr(fl.spectral, "check_footprint",
                        lambda nbytes, what: counted.append(nbytes) or check(nbytes, what))
    monkeypatch.setattr(fl.spectral, "TRIDIAGONAL_MIN_DIM", 400)
    for label, op in _footprint_cases():
        if d > 400 and label == "dense-complex":
            continue
        for check_residual in (False, True):
            # every path once at a small order first, so that no lazy set-up
            # lands in a peak
            fl.compression_eigenvalues(op, fl.Window(fl.N0, 0, 399), check_residual=check_residual)
            counted.clear()
            tracemalloc.start()
            try:
                fl.compression_eigenvalues(op, fl.Window(fl.N0, 0, d - 1),
                                           check_residual=check_residual)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(counted) == 1 and peak <= counted[0], (label, check_residual, peak)


@pytest.mark.parametrize("label", ["dense-halves", "complex-fold", "dense-complex"])
def test_eigenvector_workspace_is_counted(monkeypatch, label):
    # with eigenvectors LAPACK syevd / heevd allocate about 2 n^2 entries of
    # workspace for a solve of order n, outside tracemalloc's view: physical
    # memory between the count without it and the count with it refuses a
    # checked solve, before anything is allocated, and still runs an
    # eigenvalue-only one
    d = 600
    fold = {"dense-halves": "halves", "complex-fold": "complex"}.get(label)
    order, size, arrays = ((d + 1) // 2, 8, 5) if fold == "halves" else (d, 8 if fold else 16, 3)
    blocks = fl.spectral._RESIDUAL_BLOCKS * 16 * d * fl.spectral._residual_columns(d, d)
    without = size * order * order * arrays + blocks
    monkeypatch.setattr(fl._util, "_physical_memory", lambda: without + size * order * order)
    op, proj = dict(_footprint_cases())[label], fl.Window(fl.N0, 0, d - 1)
    with pytest.raises(fl._util.ConfigError, match="the eigensolve of a window of dimension 600"):
        fl.compression_eigenvalues(op, proj, check_residual=True)
    assert fl.compression_eigenvalues(op, proj).size == d


def test_is_selfadjoint_matches_dense_verdict(monkeypatch):
    # the defect of `_hermitian_part`, read from diagonal storage, against the
    # dense max |M - M^dagger| <= tol, with tol on either side of the dense
    # defect; no dense compression is formed
    from test_properties import _random_poly, _random_projection

    rng = np.random.default_rng(515)
    cases = []
    for case in range(150):
        lattice = (fl.N0, fl.Z)[case % 2]
        a = _random_poly(rng, lattice)
        proj = _random_projection(rng, lattice)
        for op in (a, fl.op_sum(a, op_adjoint(a))):
            m = compress(op, proj)
            cases.append((case, op, proj, float(np.max(np.abs(m - m.conj().T)))))

    def no_dense(*args):
        raise AssertionError("the defect was read from a dense matrix")

    for mod in (fl.operators, fl.spectral):
        monkeypatch.setattr(mod, "_scatter", no_dense)
    verdicts = set()
    for case, op, proj, dev in cases:
        defect = fl.spectral._hermitian_part(op, proj)[2]
        for tol in (0.0, 1e-12, dev, float(np.nextafter(dev, 0.0))):
            got = defect <= tol
            assert got == (dev <= tol), case
            verdicts.add(got)
    assert verdicts == {True, False}


def _eigenvalue_moments(op, proj, order):
    vals = np.linalg.eigvalsh(compress(op, proj))
    return np.array([np.mean(vals**k) for k in range(order + 1)])


class TestCompressionMoments:
    """tr(H^k)/rank from diagonal storage, against the eigenvalues."""

    def test_random_hermitian_polys(self, eig_calls):
        # H = A + A* over random *-polynomial trees on both lattices, windows
        # and gapped index sets, scaled to spectral radius 1 so that the
        # eigenvalue oracle itself holds to the tolerance
        from test_properties import _random_poly, _random_projection

        rng = np.random.default_rng(909)
        for case in range(200):
            lattice = (fl.N0, fl.Z)[case % 2]
            a = _random_poly(rng, lattice)
            h = fl.op_sum(a, op_adjoint(a))
            proj = _random_projection(rng, lattice)
            radius = float(np.max(np.abs(np.linalg.eigvalsh(compress(h, proj)))))
            if radius > 0.0:
                h = fl.op_scale(1.0 / radius, h)
            want = _eigenvalue_moments(h, proj, 6)
            eig_calls.clear()
            got = fl.spectral.compression_moments(h, proj, 6)
            assert eig_calls == []
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), case

    def test_bit_identical_to_the_inline_schedule(self):
        # `power_traces` keeps the order of the loop it replaced, so each
        # moment of the random cases above is the same float, bit for bit
        from test_properties import _random_poly, _random_projection

        def inline(op, proj, order):
            h, _ = fl.spectral._hermitian_compression(op, proj, 1e-10)
            moments, low, high = [1.0], None, h
            for k in range(1, order + 1):
                if k == 1:
                    tr = np.sum(h[0]) if 0 in h else 0.0
                elif k % 2:
                    low = high
                    high = fl.operators._times(low, h)
                    tr = sum(np.vdot(v, high[j]) for j, v in low.items() if j in high)
                else:
                    tr = sum(np.vdot(v, v) for v in high.values())
                moments.append(float(np.real(tr)) / proj.rank)
            return np.array(moments)

        rng = np.random.default_rng(909)
        for case in range(200):
            lattice = (fl.N0, fl.Z)[case % 2]
            a = _random_poly(rng, lattice)
            h = fl.op_sum(a, op_adjoint(a))
            proj = _random_projection(rng, lattice)
            order = case % 8
            got = fl.spectral.compression_moments(h, proj, order)
            assert got.tobytes() == inline(h, proj, order).tobytes(), case

    @pytest.mark.parametrize("order", [0, 1, 2, 5])
    def test_orders(self, order):
        proj = fl.finite_section(fl.Z, 30)
        op = fl.AlmostMathieu(1.3, (math.sqrt(5.0) - 1.0) / 2.0, 0.2)
        got = fl.spectral.compression_moments(op, proj, order)
        assert got.shape == (order + 1,) and got[0] == 1.0
        assert np.allclose(got, _eigenvalue_moments(op, proj, order), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("proj", [
        fl.finite_section(fl.Z, 80),
        fl.IndexSet(fl.Z, tuple(range(-91, 90, 2)) + tuple(range(90, 120))),
    ], ids=["window", "gapped"])
    @pytest.mark.parametrize("peak", ["diagonal", "offdiagonal"])
    def test_defect_bit_identical_to_dense(self, peak, proj):
        # as TestTridiagonalPath's: max |entry| is 4, so herm_tol * scale is
        # exact and the tolerance sits on either side of the dense defect
        rng = np.random.default_rng(37)
        up = rng.uniform(-1.0, 1.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300)
        lo = np.conj(up) * (1.0 + rng.uniform(-1e-9, 1e-9, 300))
        diag = rng.uniform(-1.0, 1.0, 300)
        if peak == "diagonal":
            diag[157] = 4.0
        else:
            up[157] = lo[157] = -4.0
        op = fl.Band(2, ((-2, lambda n: lo[n + 148]), (0, lambda n: diag[n + 150]),
                         (2, lambda n: up[n + 150])))
        m = compress(op, proj)
        dev = float(np.max(np.abs(m - m.conj().T)))
        assert dev > 0.0
        fl.spectral.compression_moments(op, proj, 3, herm_tol=dev / 4.0)
        eigenvalues_hermitian(m, herm_tol=dev / 4.0)
        below = np.nextafter(dev, 0.0) / 4.0
        with pytest.raises(fl.NonHermitianError, match=re.escape(f"{dev:.3e}")):
            fl.spectral.compression_moments(op, proj, 3, herm_tol=below)
        with pytest.raises(fl.NonHermitianError, match=re.escape(f"{dev:.3e}")):
            eigenvalues_hermitian(m, herm_tol=below)

    def test_storage_checked_before_it_is_built(self, monkeypatch):
        # order 6 keeps H, H^2 and H^3: (2 * 3 + 1) powers of 3 diagonals
        # plus 3 temporaries, 16 bytes each, for each of the 61 positions
        op = fl.AlmostMathieu(1.0, (math.sqrt(5.0) - 1.0) / 2.0)
        proj = fl.finite_section(fl.Z, 30)
        need = 16 * 61 * (7 * 3 + 3)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need - 1)
        with pytest.raises(fl._util.ConfigError, match="moment storage of a window of dimension 61"):
            fl.spectral.compression_moments(op, proj, 6)
        monkeypatch.setattr(fl._util, "_physical_memory", lambda: need)
        fl.spectral.compression_moments(op, proj, 6)
