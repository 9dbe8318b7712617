"""Compression trace estimates, and the rotation algebra as the
one-frequency case of the symbolic algebra `operators.Element`.

Noncommutative polynomials in unitaries u, v with v u = e^{2 pi i alpha} u v
are elements over the one frequency alpha: u^m v^k sits on offset -m with
key (k,), in the covariant representation on l2(Z).  Commutation phases
are exact binary fractions, reduced in integers, and only exponentiated
when a numeric coefficient is requested, so long products do not drift.
Traces of compressions come from `operators.diagonal_sums`: in closed
form from the symbol of a spec, outside one numeric region per grid, which
for a diagonal that is a Python callable is every index.
"""
from __future__ import annotations

import math

from ._util import report_csv, report_json
from .operators import Band, Element, OperatorSpec, Term, Wave, diagonal_sums


class AlphaMismatchError(ValueError):
    """Rotation-algebra elements with different frequencies cannot be combined."""


class NCPolynomial(Element):
    """Normal-ordered polynomial sum_{m,k} c_{m,k} u^m v^k, built from a map
    from (m, k) to a phase ledger {r: c} meaning the coefficient
    sum_r c e^{2 pi i alpha r}; as an `Element`, u^m v^k is the key
    (-m, (k,)) of `terms`."""

    __slots__ = ()

    def __init__(self, alpha: float, terms=None):
        super().__init__((alpha,), alpha.as_integer_ratio()[1])
        # u^m v^k is e^{2 pi i alpha k (n - m)} on offset -m
        self.terms = self._new(((-int(m), (int(k),)), self.units[0] * (int(r) - int(k) * int(m)),
                                complex(c)) for (m, k), ledger in (terms or {}).items()
                               for r, c in ledger.items()).terms

    @property
    def alpha(self) -> float:
        return self.freqs[0]

    def _coerce(self, other):
        if isinstance(other, Element) and other.freqs != self.freqs:
            raise AlphaMismatchError("frequency mismatch")
        return super()._coerce(other)

    def power(self, k: int) -> "NCPolynomial":
        if k < 0:
            raise ValueError("negative powers of general elements are not defined")
        return math.prod([self] * k, start=nc_one(self.alpha))

    def coefficient(self, m: int, k: int) -> complex:
        """c_{m,k}, the coefficient of u^m v^k."""
        return self._coefficient((-m, (k,)), turn=self.units[0] * k * m)

    def monomials(self):
        return sorted((-a, ks[0]) for a, ks in self.terms)


def nc_one(alpha: float) -> NCPolynomial:
    return NCPolynomial(alpha, {(0, 0): {0: 1 + 0j}})


def nc_monomial(alpha: float, m: int, k: int, coeff=1.0) -> NCPolynomial:
    return NCPolynomial(alpha, {(m, k): {0: complex(coeff)}})


def nc_u(alpha: float) -> NCPolynomial:
    return nc_monomial(alpha, 1, 0)


def nc_v(alpha: float) -> NCPolynomial:
    return nc_monomial(alpha, 0, 1)


def nc_multiply(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """The product a b, with v^k u^p = e^{2 pi i alpha k p} u^p v^k."""
    return a * b


def nc_adjoint(a: NCPolynomial) -> NCPolynomial:
    """The involution: (c u^m v^k)* = conj(c) v^{-k} u^{-m}."""
    return a.adjoint()


def canonical_trace(a: NCPolynomial) -> complex:
    """The unique tracial state: the coefficient of u^0 v^0."""
    return a.coefficient(0, 0)


def almost_mathieu_element(alpha: float, coupling: float) -> NCPolynomial:
    """u + u* + coupling (v + v*) in the rotation algebra."""
    u, v = nc_u(alpha), nc_v(alpha)
    return u + nc_adjoint(u) + coupling * (v + nc_adjoint(v))


def represent_nc(a: NCPolynomial, phi: float = 0.0) -> OperatorSpec:
    """Concrete l2(Z) representation: u = two-sided shift, v = modulation.

    u e_n = e_{n+1} and v e_n = e^{2 pi i (alpha n + phi)} e_n, so a maps to
    a band operator whose diagonals are `Wave`s: the modulation sums
    c e^{2 pi i k (alpha (n + off) + phi)} of a's normal-ordered monomials.
    """
    by_offset = {}
    for m, k in a.monomials():
        by_offset.setdefault(-m, []).append(Term(a.coefficient(m, k), a.alpha, phi, k=k, s=-m))
    if not by_offset:
        return Band(0, ((0, 0.0),))
    bw = max(abs(off) for off in by_offset)
    return Band(bw, tuple((off, Wave(tuple(terms))) for off, terms in sorted(by_offset.items())))


# ---------------------------------------------------------------------------
# trace estimates


def trace_estimate(op: OperatorSpec, proj) -> complex:
    """Tr(A P) / Tr(P): the normalized diagonal sum of the compression
    (`diagonal_sums`)."""
    return diagonal_sums(op, [proj])[0] / proj.rank


class TraceReport:
    """Rows of trace estimates, one per (label, n)."""

    __slots__ = ("rows",)

    COLUMNS = ("label", "n", "d_n", "estimate_re", "estimate_im", "reference_re",
               "reference_im", "abs_error")

    def __init__(self, rows: list):
        self.rows = rows

    def payload(self) -> dict:
        return {"rows": self.rows}

    def to_json(self) -> str:
        return report_json(self.payload())

    def to_csv(self) -> str:
        return report_csv(self.rows, self.COLUMNS)


def trace_convergence_report(ops, seq, refs=None) -> TraceReport:
    """Grid of trace estimates, with absolute errors where a reference is known.

    `ops` is a list of (label, spec); `refs` maps label to a complex
    reference trace.  Each window's runs are summed by `diagonal_sums`, in
    closed form from the operator's symbol outside one numeric region that
    is evaluated once per grid, on the union of its windows; only one
    operator's region is held at a time.
    """
    refs = refs or {}
    rows = []
    for label, op in ops:
        for (n, proj), total in zip(seq, diagonal_sums(op, seq.projections)):
            est = total / proj.rank
            row = {
                "label": label,
                "n": n,
                "d_n": proj.rank,
                "estimate_re": est.real,
                "estimate_im": est.imag,
                "reference_re": "",
                "reference_im": "",
                "abs_error": "",
            }
            if label in refs:
                ref = complex(refs[label])
                row["reference_re"] = ref.real
                row["reference_im"] = ref.imag
                row["abs_error"] = abs(est - ref)
            rows.append(row)
    rows.sort(key=lambda r: (r["label"], r["n"]))
    return TraceReport(rows)
