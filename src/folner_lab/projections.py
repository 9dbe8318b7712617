"""Non-zero finite-rank coordinate projections and candidate sequences."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import check_footprint
from .operators import N0, Z, _LATTICES


class RankZeroError(ValueError):
    """A projection spec must have rank at least one."""


@dataclass(frozen=True)
class Window:
    """Orthogonal projection onto span{e_lo, ..., e_hi} (inclusive)."""

    lattice: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lattice not in _LATTICES:
            raise ValueError(f"unknown lattice {self.lattice!r}")
        if self.hi < self.lo:
            raise RankZeroError(f"empty window [{self.lo}, {self.hi}]")
        if self.lattice == N0 and self.lo < 0:
            raise ValueError("window on n0 cannot contain negative indices")

    @property
    def rank(self) -> int:
        return self.hi - self.lo + 1

    @property
    def hs_norm(self) -> float:
        return math.sqrt(self.rank)

    def index_array(self) -> np.ndarray:
        check_footprint(8 * self.rank, f"the index array of a window of rank {self.rank}")
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)


@dataclass(frozen=True)
class IndexSet:
    """Projection onto an explicit strictly increasing finite index set."""

    lattice: str
    indices: tuple

    def __post_init__(self):
        if self.lattice not in _LATTICES:
            raise ValueError(f"unknown lattice {self.lattice!r}")
        idx = tuple(int(i) for i in self.indices)
        if not idx:
            raise RankZeroError("empty index set")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("index set must be strictly increasing")
        if self.lattice == N0 and idx[0] < 0:
            raise ValueError("index set on n0 cannot contain negative indices")
        object.__setattr__(self, "indices", idx)

    @property
    def rank(self) -> int:
        return len(self.indices)

    @property
    def hs_norm(self) -> float:
        return math.sqrt(self.rank)

    def index_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


@dataclass(frozen=True)
class KronProj:
    """Tensor product P (x) Q; rank and Hilbert-Schmidt norm multiply."""

    left: object
    right: object
    lattice: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice", (self.left.lattice, self.right.lattice))

    @property
    def rank(self) -> int:
        return self.left.rank * self.right.rank

    @property
    def hs_norm(self) -> float:
        return self.left.hs_norm * self.right.hs_norm


def finite_section(lattice: str, n: int) -> Window:
    """The n-th finite-section window: {0..n} on n0, {-n..n} on z."""
    if n < 0:
        raise ValueError("section order must be nonnegative")
    if lattice == N0:
        return Window(N0, 0, n)
    if lattice == Z:
        return Window(Z, -n, n)
    raise ValueError(f"unknown lattice {lattice!r}")


@dataclass(frozen=True)
class ProjectionSequence:
    lattice: str
    n_list: tuple
    projections: tuple
    increasing: bool = False
    exhaustive: bool = False

    def __post_init__(self):
        if not self.projections:
            raise ValueError("empty projection sequence")
        if self.increasing:
            for p, q in zip(self.projections, self.projections[1:]):
                if not np.isin(p.index_array(), q.index_array()).all():
                    raise ValueError("sequence flagged increasing but index sets are not nested")

    @property
    def proper(self) -> bool:
        return self.increasing and self.exhaustive

    def __iter__(self):
        return iter(zip(self.n_list, self.projections))


def finite_section_sequence(lattice: str, n_list) -> ProjectionSequence:
    """Canonical increasing, exhaustive sequence of finite-section windows."""
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ValueError("empty n list")
    if any(n <= 0 for n in ns):
        raise ValueError("section orders must be positive")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n list must be strictly increasing")
    projs = tuple(finite_section(lattice, n) for n in ns)
    return ProjectionSequence(lattice, ns, projs, increasing=True, exhaustive=True)
