"""Non-zero finite-rank coordinate projections and candidate sequences.

A projection is its `runs`: sorted, disjoint, inclusive (lo, hi) pairs,
one per maximal contiguous stretch of its indices.  A window has one run;
an index set has as many as its indices have stretches.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import SpecError, check_footprint
from .operators import _INT64, N0, Z, _LATTICES, index_runs, run_indices


class RankZeroError(SpecError):
    """A projection spec must have rank at least one."""


@dataclass(frozen=True)
class Projection:
    """Orthogonal projection onto span{e_i : i in one of the runs}."""

    lattice: str
    runs: tuple
    rank: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.lattice not in _LATTICES:
            raise ValueError(f"unknown lattice {self.lattice!r}")
        if self.lattice == N0 and self.runs[0][0] < 0:
            raise ValueError("a projection on n0 cannot contain negative indices")
        object.__setattr__(self, "rank", sum(hi - lo + 1 for lo, hi in self.runs))

    def index_array(self) -> np.ndarray:
        check_footprint(8 * self.rank, f"the index array of a window of rank {self.rank}")
        return run_indices(self.runs)


class Window(Projection):
    """Orthogonal projection onto span{e_lo, ..., e_hi} (inclusive)."""

    def __init__(self, lattice: str, lo: int, hi: int):
        if hi < lo:
            raise RankZeroError(f"empty window [{lo}, {hi}]")
        super().__init__(lattice, ((lo, hi),))


class IndexSet(Projection):
    """Projection onto an explicit strictly increasing finite index set."""

    def __init__(self, lattice: str, indices):
        idx = tuple(int(i) for i in indices)
        if not idx:
            raise RankZeroError("empty index set")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("index set must be strictly increasing")
        if idx[0] < _INT64.min or idx[-1] > _INT64.max:
            raise ValueError("index set indices must fit in 64 bits")
        super().__init__(lattice, index_runs(idx))


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
