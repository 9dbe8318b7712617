"""End-to-end verification that a projection sequence and a trace behave as
a Szego pair on declared self-adjoint operators: empirical spectral
integrals against reference integrals, with the accompanying commutator
ratios and trace estimates."""
from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

import numpy as np

from ._util import ConfigError, report_csv, report_json
from .diagnostics import FolnerReport, fit_decay_slope, folner_profile
from .spectral import (
    EmpiricalMeasure,
    ReferenceMeasure,
    TestFunction,
    check_solve_footprint,
    compression_eigenvalues,
    compression_moments,
    hat,
    integrate,
    kolmogorov_distance,
    monomial,
)
from .traces import (
    NCPolynomial,
    TraceReport,
    canonical_trace,
    nc_adjoint,
    trace_convergence_report,
)


class MissingReferenceError(ValueError):
    """Every operator under test needs a declared reference measure."""


class NotSelfAdjointError(ValueError):
    """Szego-pair tests are defined for self-adjoint elements only."""


def hat_family(lo: float, hi: float, count: int = 17):
    """Piecewise-linear hats on a uniform grid over [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    nodes = np.linspace(lo, hi, count + 2)
    # a node that is zero up to the round-off of lo and hi is zero, so that
    # its hat is named hat@0 and not after the last bits of the support
    nodes[np.abs(nodes) <= 64 * np.finfo(float).eps * max(abs(lo), abs(hi))] = 0.0
    return [hat(nodes[i], nodes[i + 1], nodes[i + 2]) for i in range(count)]


def default_f_family(support=None, degree: int = 6, hats: int = 17):
    """Monomials up to `degree`, plus hats spanning the empirical support
    when one is given."""
    fam = [monomial(k) for k in range(degree + 1)]
    if support is not None:
        fam += hat_family(support[0], support[1], hats)
    return fam


def moments_reference(a: NCPolynomial, order: int = 6) -> ReferenceMeasure:
    """Moment list tau(a^0..a^order) of a self-adjoint rotation-algebra element.

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
    moments = []
    power, scale = a._coerce(1), 1.0
    for k in range(order + 1):
        if k:
            power, scale = power * a, scale * norm
        t = canonical_trace(power)
        if not cmath.isfinite(t):
            raise ConfigError(f"the moment of order {k} of the reference overflows")
        if abs(t.imag) > 1e-10 * max(1.0, scale):
            raise NotSelfAdjointError("trace of a power came out non-real")
        moments.append(t.real)
    return ReferenceMeasure(moments=moments)


@dataclass
class SzegoReport:
    """Per (operator, n, f) integral comparison, Kolmogorov track, summary,
    and the coupled commutator-ratio and trace reports."""

    rows: list = field(default_factory=list)
    kolmogorov_rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    folner: FolnerReport | None = None
    trace: TraceReport | None = None

    COLUMNS = ("label", "n", "d_n", "f", "empirical", "reference", "error")
    KS_COLUMNS = ("label", "n", "d_n", "kolmogorov")

    def to_json(self) -> str:
        payload = {
            "rows": self.rows,
            "kolmogorov": self.kolmogorov_rows,
            "summary": self.summary,
        }
        if self.folner is not None:
            payload["folner"] = json.loads(self.folner.to_json())
        if self.trace is not None:
            payload["trace"] = json.loads(self.trace.to_json())
        return report_json(payload)

    def to_csv(self) -> str:
        return report_csv(self.rows, self.COLUMNS)

    def plot_csv(self) -> str:
        """n vs max f-error per operator, log-log ready."""
        rows = []
        for label in sorted({r["label"] for r in self.rows}):
            for n in sorted({r["n"] for r in self.rows if r["label"] == label}):
                errs = [r["error"] for r in self.rows if r["label"] == label and r["n"] == n]
                d_n = next(r["d_n"] for r in self.rows if r["label"] == label and r["n"] == n)
                rows.append({"label": label, "n": n, "d_n": d_n, "max_error": max(errs)})
        return report_csv(rows, ("label", "n", "d_n", "max_error"))


def szego_pair_test(ops, seq, refs, f_family=None, p_list=(2,), trace_refs=None,
                    sa_tol: float = 1e-10) -> SzegoReport:
    """Quantify weak convergence of empirical spectral measures to references.

    `ops` is a list of (label, spec), `refs` maps label to ReferenceMeasure.
    Against a reference carrying a CDF grid, each window is solved once (the
    largest under the eigenpair residual contract) and hat integrals and
    Kolmogorov distances are reported too.  Against a moments-only reference
    only polynomial f are reported, from the moments tr((PAP)^k)/rank of
    each compression's diagonal storage, with no eigensolve.  Each f's
    reference integral is taken once per operator.
    """
    ops = list(ops)
    for label, _ in ops:
        if label not in refs:
            raise MissingReferenceError(f"no reference measure for {label!r}")

    if any(refs[label].xs is not None for label, _ in ops):
        # even the cheapest solve of the residual-checked largest window must
        # fit in memory, or the run stops before its first solve
        check_solve_footprint(seq.projections[-1].rank, tridiagonal=True, check_residual=True)
    report = SzegoReport()
    measures, families = {}, {}
    last_n = seq.n_list[-1]
    for label, op in ops:
        if refs[label].xs is None:
            fam = default_f_family() if f_family is None else f_family
            fam = families[label] = [f for f in fam if f.kind == "poly"]
            if not fam:
                raise ValueError(f"no polynomial f for {label!r}, whose reference has moments only")
            order = max((len(f.params) - 1 for f in fam), default=0)
            for n, proj in seq:
                measures[(label, n)] = ReferenceMeasure(
                    moments=compression_moments(op, proj, order, herm_tol=sa_tol))
            continue
        for n, proj in seq:
            vals = compression_eigenvalues(op, proj, herm_tol=sa_tol,
                                           check_residual=n == last_n)
            measures[(label, n)] = EmpiricalMeasure(vals, proj.rank)
        top = measures[(label, last_n)].atoms
        families[label] = default_f_family((top[0], top[-1])) if f_family is None else f_family

    for label, op in ops:
        ref, fam = refs[label], families[label]
        ref_values = [integrate(ref, f) for f in fam]
        for n, proj in seq:
            meas = measures[(label, n)]
            for f, rv in zip(fam, ref_values):
                emp = integrate(meas, f)
                report.rows.append(
                    {
                        "label": label,
                        "n": n,
                        "d_n": proj.rank,
                        "f": f.name,
                        "empirical": emp,
                        "reference": rv,
                        "error": abs(emp - rv),
                    }
                )
            if ref.xs is not None:
                report.kolmogorov_rows.append(
                    {
                        "label": label,
                        "n": n,
                        "d_n": proj.rank,
                        "kolmogorov": kolmogorov_distance(meas, ref),
                    }
                )

    report.rows.sort(key=lambda r: (r["label"], r["n"], r["f"]))
    report.kolmogorov_rows.sort(key=lambda r: (r["label"], r["n"]))

    for label, _ in ops:
        mine = [r for r in report.rows if r["label"] == label]
        ns = sorted({r["n"] for r in mine})
        max_err = {n: max(r["error"] for r in mine if r["n"] == n) for n in ns}
        d_of = {r["n"]: r["d_n"] for r in mine}
        report.summary[label] = {
            "largest_n": ns[-1],
            "max_error_at_largest_n": max_err[ns[-1]],
            "error_decay_slope": fit_decay_slope(
                [d_of[n] for n in ns], [max_err[n] for n in ns]
            ),
        }

    report.folner = folner_profile(ops, seq, p_list=p_list)
    report.trace = trace_convergence_report(ops, seq, refs=trace_refs)
    return report
