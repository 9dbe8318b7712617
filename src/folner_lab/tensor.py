"""Hilbert-Schmidt bound for commutator defects of tensor-product
compressions: the off-corner ratio of A (x) B against P (x) Q is controlled
by the factor ratios weighted with the factor operator norms."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import INF, schatten_norm
from .operators import OperatorSpec, padded_compression


class DimensionCapError(ValueError):
    """The product of the padded factor orders exceeds the configured cap."""


@dataclass(frozen=True)
class TensorBoundRecord:
    lhs: float           # ||(1 - P(x)Q)(A(x)B)(P(x)Q)||_2^2 / ||P(x)Q||_2^2
    middle: float        # two-term factorized bound
    rhs: float           # ||B||^2 r_A^2 + ||A||^2 r_B^2
    slack: float         # rhs - lhs
    ratio_a: float       # p=2 off-corner ratio of the left factor
    ratio_b: float
    norm_a: float        # operator norm of the padded left compression
    norm_b: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "lhs": self.lhs,
                "middle": self.middle,
                "rhs": self.rhs,
                "slack": self.slack,
                "ratio_a": self.ratio_a,
                "ratio_b": self.ratio_b,
                "norm_a": self.norm_a,
                "norm_b": self.norm_b,
            },
            sort_keys=True,
        )


def _hs2(m: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm as the plain sum of |entries|^2."""
    return float(np.vdot(m, m).real)


def tensor_bound_check(a: OperatorSpec, p, b: OperatorSpec, q,
                       dim_cap: int = 4096) -> TensorBoundRecord:
    """Evaluate both sides of the tensor-product off-corner bound.

    Everything comes from the padded factor compressions; no Kronecker
    product is formed.  Since 1 - P(x)Q = (1-P)(x)1 + P(x)(1-Q), the leak
    (1 - P(x)Q)(A(x)B)(P(x)Q) is the sum of (1-P)AP (x) BQ and
    PAP (x) (1-Q)BQ, whose ranges are orthogonal, and the Hilbert-Schmidt
    norm of a Kronecker product is the product of the factor norms; so
    lhs = (|(1-P)AP|^2 |BQ|^2 + |PAP|^2 |(1-Q)BQ|^2) / (rank P rank Q),
    a sum of nonnegative terms with no cancellation.  dim_cap bounds the
    product of the padded factor orders.

    The operator norms entering the right side are taken from the padded
    factor compressions; they lower-bound the true norms, so the reported
    slack can slightly undercut the ideal one (exact for dense factors).
    """
    ma, mask_a = padded_compression(a, p)
    mb, mask_b = padded_compression(b, q)
    if ma.shape[0] * mb.shape[0] > dim_cap:
        raise DimensionCapError(
            f"padded Kronecker dimension {ma.shape[0] * mb.shape[0]} exceeds cap {dim_cap}"
        )

    rank_p = float(p.rank)
    rank_q = float(q.rank)

    off_a2 = _hs2(ma * ((1.0 - mask_a)[:, None] * mask_a[None, :]))
    off_b2 = _hs2(mb * ((1.0 - mask_b)[:, None] * mask_b[None, :]))
    bq2 = _hs2(mb * mask_b[None, :])
    pap2 = _hs2(ma * (mask_a[:, None] * mask_a[None, :]))
    lhs = (off_a2 * bq2 + pap2 * off_b2) / (rank_p * rank_q)
    middle = (off_a2 / rank_p) * (bq2 / rank_q) + (pap2 / rank_p) * (off_b2 / rank_q)

    norm_a = schatten_norm(ma, INF)
    norm_b = schatten_norm(mb, INF)
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
