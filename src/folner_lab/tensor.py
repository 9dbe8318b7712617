"""Hilbert-Schmidt bound for commutator defects of tensor-product
compressions: the off-corner ratio of A (x) B against P (x) Q is controlled
by the factor ratios weighted with the factor operator norms."""
from __future__ import annotations

import math

import numpy as np

from .diagnostics import INF, schatten_norm
from .operators import OperatorSpec, padded_compression


class TensorBoundRecord:
    """Both sides of the bound for one pair of windows:

    lhs      ||(1 - P(x)Q)(A(x)B)(P(x)Q)||_2^2 / ||P(x)Q||_2^2
    middle   the two-term factorized bound
    rhs      ||B||^2 r_A^2 + ||A||^2 r_B^2
    slack    rhs - lhs
    ratio_a  the p=2 off-corner ratio r_A of the left factor (ratio_b: right)
    norm_a   the operator norm of the padded left compression (norm_b: right)
    """

    __slots__ = ("lhs", "middle", "rhs", "slack", "ratio_a", "ratio_b", "norm_a", "norm_b")

    def __init__(self, lhs: float, middle: float, rhs: float, slack: float,
                 ratio_a: float, ratio_b: float, norm_a: float, norm_b: float):
        self.lhs, self.middle, self.rhs, self.slack = lhs, middle, rhs, slack
        self.ratio_a, self.ratio_b, self.norm_a, self.norm_b = ratio_a, ratio_b, norm_a, norm_b


def _hs2(m: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm as the plain sum of |entries|^2."""
    return float(np.vdot(m, m).real)


def _factor(op: OperatorSpec, proj):
    """(|(1-P)AP|_2^2, |PAP|_2^2, |A|) from one padded section of A."""
    a, inside = padded_compression(op, proj)
    off2 = _hs2(a[np.ix_(~inside, inside)])
    pap2 = _hs2(a[np.ix_(inside, inside)])
    return off2, pap2, schatten_norm(a, INF)


def tensor_bound_check(a: OperatorSpec, p, b: OperatorSpec, q) -> TensorBoundRecord:
    """Evaluate both sides of the tensor-product off-corner bound.

    Everything comes from the padded factor compressions; no Kronecker
    product is formed.  Since 1 - P(x)Q = (1-P)(x)1 + P(x)(1-Q), the leak
    (1 - P(x)Q)(A(x)B)(P(x)Q) is the sum of (1-P)AP (x) BQ and
    PAP (x) (1-Q)BQ, whose ranges are orthogonal, and the Hilbert-Schmidt
    norm of a Kronecker product is the product of the factor norms; so
    lhs = (|(1-P)AP|^2 |BQ|^2 + |PAP|^2 |(1-Q)BQ|^2) / (rank P rank Q),
    with |BQ|^2 = |PBQ|^2 + |(1-Q)BQ|^2: sums of nonnegative terms with no
    cancellation.  One padded section per factor is alive at a time, and
    one too large for physical memory raises ConfigError before it is
    allocated.

    The operator norms entering the right side are taken from the padded
    factor compressions; they lower-bound the true norms, so the reported
    slack can slightly undercut the ideal one (exact for dense factors).
    """
    off_a2, pap2, norm_a = _factor(a, p)
    off_b2, qbq2, norm_b = _factor(b, q)
    bq2 = qbq2 + off_b2

    rank_p = float(p.rank)
    rank_q = float(q.rank)
    lhs = (off_a2 * bq2 + pap2 * off_b2) / (rank_p * rank_q)
    middle = (off_a2 / rank_p) * (bq2 / rank_q) + (pap2 / rank_p) * (off_b2 / rank_q)
    rhs = norm_b**2 * (off_a2 / rank_p) + norm_a**2 * (off_b2 / rank_q)

    return TensorBoundRecord(
        lhs=float(lhs),
        middle=float(middle),
        rhs=float(rhs),
        slack=float(rhs - lhs),
        ratio_a=math.sqrt(off_a2 / rank_p),
        ratio_b=math.sqrt(off_b2 / rank_q),
        norm_a=float(norm_a),
        norm_b=float(norm_b),
    )
