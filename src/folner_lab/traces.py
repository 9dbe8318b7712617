"""Compression trace estimates and the canonical symbolic trace on the
rotation algebra.

Noncommutative polynomials in unitaries u, v with v u = e^{2 pi i alpha} u v
are kept in normal order (u-powers left of v-powers).  Commutation phases
are stored as exact integer multiples of alpha and only exponentiated when
a numeric coefficient is requested, so long products do not drift.
"""
from __future__ import annotations

import bisect
import cmath
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import report_csv, report_json
from .operators import Band, OperatorSpec, Term, Wave, diagonal_entries, diagonal_sum
from .projections import ProjectionSequence


class AlphaMismatchError(ValueError):
    """Rotation-algebra elements with different frequencies cannot be combined."""


def _merge_phase(dst: dict, r: int, c: complex):
    new = dst.get(r, 0j) + c
    if new == 0:
        dst.pop(r, None)
    else:
        dst[r] = new


@dataclass(frozen=True)
class NCPolynomial:
    """Normal-ordered polynomial sum_{m,k} c_{m,k} u^m v^k.

    terms maps (m, k) to a phase ledger {r: c} meaning the coefficient
    sum_r c * e^{2 pi i alpha r}.
    """

    alpha: float
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (m, k), ledger in self.terms.items():
            lg = {int(r): complex(c) for r, c in ledger.items() if c != 0}
            if lg:
                clean[(int(m), int(k))] = lg
        object.__setattr__(self, "terms", clean)

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = {mk: dict(lg) for mk, lg in self.terms.items()}
        for mk, lg in other.terms.items():
            dst = out.setdefault(mk, {})
            for r, c in lg.items():
                _merge_phase(dst, r, c)
        return NCPolynomial(self.alpha, out)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial(
                self.alpha,
                {mk: {r: c * other for r, c in lg.items()} for mk, lg in self.terms.items()},
            )
        return nc_multiply(self, other)

    def __rmul__(self, scalar):
        return self * scalar

    def _coerce(self, other):
        if isinstance(other, NCPolynomial):
            if other.alpha != self.alpha:
                raise AlphaMismatchError("frequency mismatch")
            return other
        return NCPolynomial(self.alpha, {(0, 0): {0: complex(other)}})

    def power(self, k: int) -> "NCPolynomial":
        if k < 0:
            raise ValueError("negative powers of general elements are not defined")
        acc = nc_one(self.alpha)
        for _ in range(k):
            acc = nc_multiply(acc, self)
        return acc

    # -- evaluation ---------------------------------------------------------

    def coefficient(self, m: int, k: int) -> complex:
        ledger = self.terms.get((m, k), {})
        return sum(
            (c * cmath.exp(2j * math.pi * self.alpha * r) for r, c in ledger.items()), 0j
        )

    def monomials(self):
        return sorted(self.terms)

    def to_json(self) -> str:
        terms = [
            {"m": m, "k": k, "coeff": [self.coefficient(m, k).real, self.coefficient(m, k).imag]}
            for m, k in self.monomials()
        ]
        return json.dumps({"alpha": self.alpha, "terms": terms})


def nc_one(alpha: float) -> NCPolynomial:
    return NCPolynomial(alpha, {(0, 0): {0: 1 + 0j}})


def nc_monomial(alpha: float, m: int, k: int, coeff=1.0) -> NCPolynomial:
    return NCPolynomial(alpha, {(m, k): {0: complex(coeff)}})


def nc_u(alpha: float) -> NCPolynomial:
    return nc_monomial(alpha, 1, 0)


def nc_v(alpha: float) -> NCPolynomial:
    return nc_monomial(alpha, 0, 1)


def nc_multiply(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Normal-ordered product via v^k u^p = e^{2 pi i alpha k p} u^p v^k."""
    if not isinstance(b, NCPolynomial):
        return a * b
    if a.alpha != b.alpha:
        raise AlphaMismatchError("frequency mismatch")
    out = {}
    for (m1, k1), lg1 in a.terms.items():
        for (m2, k2), lg2 in b.terms.items():
            mk = (m1 + m2, k1 + k2)
            dst = out.setdefault(mk, {})
            for r1, c1 in lg1.items():
                for r2, c2 in lg2.items():
                    _merge_phase(dst, r1 + r2 + k1 * m2, c1 * c2)
    return NCPolynomial(a.alpha, out)


def nc_adjoint(a: NCPolynomial) -> NCPolynomial:
    """Involution: (c e^{2 pi i alpha r} u^m v^k)* = conj(c) e^{2 pi i alpha (mk - r)} u^{-m} v^{-k}."""
    out = {}
    for (m, k), lg in a.terms.items():
        dst = out.setdefault((-m, -k), {})
        for r, c in lg.items():
            _merge_phase(dst, m * k - r, c.conjugate())
    return NCPolynomial(a.alpha, out)


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
# numeric trace estimates


def trace_estimate(op: OperatorSpec, proj) -> complex:
    """Tr(A P) / Tr(P): the normalized diagonal sum of the compression, in
    closed form over the projection's runs where `diagonal_sum` has one."""
    total = diagonal_sum(op, proj)
    if total is None:
        total = diagonal_entries(op, proj).sum()
    return complex(total / proj.rank)


@dataclass
class TraceReport:
    rows: list = field(default_factory=list)

    COLUMNS = ("label", "n", "d_n", "estimate_re", "estimate_im", "reference_re",
               "reference_im", "abs_error")

    def to_json(self) -> str:
        return report_json({"rows": self.rows})

    def to_csv(self) -> str:
        return report_csv(self.rows, self.COLUMNS)


def _window_slices(big_runs, runs) -> list:
    """Slices of the index array of big_runs that hold each run of runs,
    every one of which lies inside a run of big_runs."""
    starts = [lo for lo, _ in big_runs]
    pos = list(itertools.accumulate((hi - lo + 1 for lo, hi in big_runs), initial=0))
    out = []
    for lo, hi in runs:
        j = bisect.bisect_right(starts, lo) - 1
        out.append(slice(pos[j] + lo - starts[j], pos[j] + hi - starts[j] + 1))
    return out


def _estimates(op: OperatorSpec, seq: ProjectionSequence) -> list:
    """`trace_estimate` at every window of seq.  Where the diagonal has no
    closed-form sum and seq is nested, the diagonal is evaluated once, on
    the largest window, and each window sums its own slices of it: the same
    values in the same order, so the same sums, bit for bit."""
    if not seq.increasing or diagonal_sum(op, seq.projections[0]) is not None:
        return [trace_estimate(op, proj) for proj in seq.projections]
    big = seq.projections[-1]
    diag = diagonal_entries(op, big)
    ests = []
    for proj in seq.projections:
        parts = [diag[s] for s in _window_slices(big.runs, proj.runs)]
        mine = parts[0] if len(parts) == 1 else np.concatenate(parts)
        ests.append(complex(mine.sum() / proj.rank))
    return ests


def trace_convergence_report(ops, seq: ProjectionSequence, refs=None) -> TraceReport:
    """Grid of trace estimates, with absolute errors where a reference is known.

    `ops` is a list of (label, spec); `refs` maps label to a complex
    reference trace.  A constant or `Wave` diagonal is summed in closed form
    over each window's runs; otherwise, on a nested sequence, each
    operator's diagonal is evaluated once, on the largest window, and only
    one operator's diagonal is held at a time.
    """
    refs = refs or {}
    rows = []
    for label, op in ops:
        for (n, proj), est in zip(seq, _estimates(op, seq)):
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
    return TraceReport(rows=rows)
