"""End-to-end verification that a projection sequence and a trace behave as
a Szego pair on declared self-adjoint operators: empirical spectral
integrals against reference integrals, with the accompanying commutator
ratios and trace estimates."""
from __future__ import annotations

import cmath

import numpy as np

from ._util import ConfigError, SpecError, report_csv, report_json
from .diagnostics import fit_decay_slope, folner_profile
from .spectral import (
    EmpiricalMeasure,
    ReferenceMeasure,
    check_solve_footprint,
    compression_eigenvalues,
    compression_moments,
    hat,
    integrate,
    kolmogorov_distance,
    monomial,
    power_traces,
)
from .traces import (
    NCPolynomial,
    canonical_trace,
    nc_adjoint,
    nc_multiply,
    trace_convergence_report,
)


class MissingReferenceError(SpecError):
    """Every operator under test needs a declared reference measure."""


class NotSelfAdjointError(SpecError):
    """Szego-pair tests are defined for self-adjoint elements only."""


def hat_family(lo: float, hi: float, count: int):
    """Piecewise-linear hats on a uniform grid over [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    nodes = np.linspace(lo, hi, count + 2)
    # a node that is zero up to the round-off of lo and hi is zero, so that
    # its hat is named hat@0 and not after the last bits of the support
    nodes[np.abs(nodes) <= 64 * np.finfo(float).eps * max(abs(lo), abs(hi))] = 0.0
    return [hat(nodes[i], nodes[i + 1], nodes[i + 2]) for i in range(count)]


def default_f_family(support=None):
    """Monomials up to degree 6, plus 17 hats spanning the empirical support
    when one is given."""
    fam = [monomial(k) for k in range(7)]
    if support is not None:
        fam += hat_family(support[0], support[1], 17)
    return fam


def polynomial_family(f_family=None):
    """(polynomials, top degree) of f_family, by default `default_f_family()`:
    the moment order of a moments-only reference, which integrates
    polynomials only, so that a family with none is a ConfigError."""
    fam = default_f_family() if f_family is None else f_family
    polys = [f for f in fam if f.kind == "poly"]
    if not polys:
        raise ConfigError("the f family has no polynomial, which a moments-only reference needs")
    return polys, max(len(f.params) - 1 for f in polys)


def moments_reference(a: NCPolynomial, order: int = 6) -> ReferenceMeasure:
    """Moment list tau(a^0..a^order) of a self-adjoint rotation-algebra
    element, from `power_traces` under tau's inner product tau(x* y).

    Both checks are relative to the size of what they test, since round-off
    grows with it: a = a* to 1e-12 of max(1, |a|_1), |a|_1 the sum of the
    coefficients' moduli, and each tau(a^k) real to 1e-10 of max(1, |a|_1^k).
    A moment that overflows is a ConfigError naming its order.
    """
    star = nc_adjoint(a)
    norm = sum(abs(a.coefficient(m, k)) for m, k in a.monomials())
    for m, k in set(a.monomials()) | set(star.monomials()):
        if abs(a.coefficient(m, k) - star.coefficient(m, k)) > 1e-12 * max(1.0, norm):
            raise NotSelfAdjointError("moment reference requires a = a*")
    moments, scale = [1.0], 1.0
    for k, t in enumerate(power_traces(a, order, nc_multiply, NCPolynomial.inner,
                                       canonical_trace), 1):
        scale *= norm
        if not cmath.isfinite(t):
            raise ConfigError(f"the moment of order {k} of the reference overflows")
        if abs(t.imag) > 1e-10 * max(1.0, scale):
            raise NotSelfAdjointError("trace of a power came out non-real")
        moments.append(t.real)
    return ReferenceMeasure(moments=moments)


class SzegoReport:
    """Per (operator, n, f) integral comparison, Kolmogorov track, summary,
    and the coupled commutator-ratio and trace reports (a `FolnerReport` and
    a `TraceReport`, or None); `plot_rows` holds each window's largest
    error.  Built empty, filled by `szego_pair_test`."""

    __slots__ = ("rows", "kolmogorov_rows", "plot_rows", "summary", "folner", "trace")

    COLUMNS = ("label", "n", "d_n", "f", "empirical", "reference", "error")

    def __init__(self):
        self.rows, self.kolmogorov_rows, self.plot_rows, self.summary = [], [], [], {}
        self.folner = self.trace = None

    def to_json(self) -> str:
        payload = {
            "rows": self.rows,
            "kolmogorov": self.kolmogorov_rows,
            "summary": self.summary,
        }
        if self.folner is not None:
            payload["folner"] = self.folner.payload()
        if self.trace is not None:
            payload["trace"] = self.trace.payload()
        return report_json(payload)

    def to_csv(self) -> str:
        return report_csv(self.rows, self.COLUMNS)

    def plot_csv(self) -> str:
        """n vs max f-error per operator, log-log ready."""
        return report_csv(self.plot_rows, ("label", "n", "d_n", "max_error"))


def _has_grid(ref) -> bool:
    """Whether a reference of `szego_pair_test`, a measure or a function
    that builds one, carries a CDF grid."""
    return callable(ref) or ref.xs is not None


def szego_pair_test(ops, seq, refs, f_family=None, trace_refs=None,
                    sa_tol: float = 1e-10) -> SzegoReport:
    """Quantify weak convergence of empirical spectral measures to references.

    `ops` is a list of (label, spec), `refs` maps label to a
    ReferenceMeasure, or to a function of no arguments that builds one
    carrying a CDF grid (a pushforward reference): it is called once, after
    that operator's windows are solved, and what it builds is dropped
    before the next operator's solves, so that one such reference is held
    at a time.
    Against a reference carrying a CDF grid, each window is solved once (the
    one of largest rank under the backward-stability contract of
    `compression_eigenvalues`, its spectrum spanning the default hats) and
    hat integrals and Kolmogorov distances are reported too.  Against a
    moments-only reference only polynomial f are reported, from the moments
    tr((PAP)^k)/rank of each compression's diagonal storage, with no
    eigensolve.  Each operator takes one pass:
    its measures, one reference integral per f, its rows and its summary,
    read at the window of largest rank wherever it stands in the sequence.
    """
    ops = list(ops)
    for label, _ in ops:
        if label not in refs:
            raise MissingReferenceError(f"no reference measure for {label!r}")

    projs = seq.projections
    top = max(range(len(projs)), key=lambda w: projs[w].rank)
    if any(_has_grid(refs[label]) for label, _ in ops):
        # even the cheapest solve of the certified largest window, a
        # tridiagonal one, must fit in memory, or the run stops before its
        # first solve
        check_solve_footprint(projs[top].rank, tridiagonal=True, check_residual=True)
    report = SzegoReport()
    for label, op in ops:
        ref = refs[label]
        if not _has_grid(ref):
            fam, order = polynomial_family(f_family)
            measures = [ReferenceMeasure(moments=compression_moments(
                op, proj, order, herm_tol=sa_tol)) for proj in projs]
        else:
            measures = [EmpiricalMeasure(compression_eigenvalues(
                op, proj, herm_tol=sa_tol, check_residual=w == top), proj.rank)
                for w, proj in enumerate(projs)]
            atoms = measures[top].atoms
            fam = default_f_family((atoms[0], atoms[-1])) if f_family is None else f_family
            if callable(ref):
                ref = ref()
        ref_values = [integrate(ref, f) for f in fam]
        worst = []  # each window's largest error
        for (n, proj), meas in zip(seq, measures):
            errors = []
            for f, rv in zip(fam, ref_values):
                emp = integrate(meas, f)
                errors.append(abs(emp - rv))
                report.rows.append({"label": label, "n": n, "d_n": proj.rank, "f": f.name,
                                    "empirical": emp, "reference": rv, "error": errors[-1]})
            worst.append(max(errors))
            report.plot_rows.append({"label": label, "n": n, "d_n": proj.rank,
                                     "max_error": worst[-1]})
            if ref.xs is not None:
                report.kolmogorov_rows.append({"label": label, "n": n, "d_n": proj.rank,
                                               "kolmogorov": kolmogorov_distance(meas, ref)})
        report.summary[label] = {
            "largest_n": seq.n_list[top],
            "max_error_at_largest_n": worst[top],
            "error_decay_slope": fit_decay_slope([proj.rank for proj in projs], worst),
        }

    report.rows.sort(key=lambda r: (r["label"], r["n"], r["f"]))
    report.kolmogorov_rows.sort(key=lambda r: (r["label"], r["n"]))
    report.plot_rows.sort(key=lambda r: (r["label"], r["n"]))
    report.folner = folner_profile(ops, seq, p_list=(2,))
    report.trace = trace_convergence_report(ops, seq, refs=trace_refs)
    return report
