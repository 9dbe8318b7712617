"""Non-zero finite-rank coordinate projections and candidate sequences.

A window or an index set also gives its indices as `runs`: sorted,
disjoint, inclusive (lo, hi) pairs, one per maximal contiguous stretch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import check_footprint
from .operators import _INT64, N0, Z, _LATTICES, index_runs


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
    def runs(self) -> tuple:
        return ((self.lo, self.hi),)

    def index_array(self) -> np.ndarray:
        check_footprint(8 * self.rank, f"the index array of a window of rank {self.rank}")
        return np.arange(self.lo, self.hi + 1, dtype=np.int64)


@dataclass(frozen=True)
class IndexSet:
    """Projection onto an explicit strictly increasing finite index set."""

    lattice: str
    indices: tuple
    runs: tuple = field(init=False, repr=False, compare=False)

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
        if idx[0] < _INT64.min or idx[-1] > _INT64.max:
            raise ValueError("index set indices must fit in 64 bits")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "runs", index_runs(idx))

    @property
    def rank(self) -> int:
        return len(self.indices)

    def index_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.int64)


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

    def __post_init__(self):
        if not self.projections:
            raise ValueError("empty projection sequence")

    def __iter__(self):
        return iter(zip(self.n_list, self.projections))


def finite_section_sequence(lattice: str, n_list) -> ProjectionSequence:
    """Canonical increasing sequence of finite-section windows."""
    ns = tuple(int(n) for n in n_list)
    if not ns:
        raise ValueError("empty n list")
    if any(n <= 0 for n in ns):
        raise ValueError("section orders must be positive")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n list must be strictly increasing")
    projs = tuple(finite_section(lattice, n) for n in ns)
    return ProjectionSequence(lattice, ns, projs)
