"""Non-zero finite-rank coordinate projections and candidate sequences.

A projection is its `runs`: sorted, disjoint, inclusive (lo, hi) pairs,
one per maximal contiguous stretch of its indices.  A window has one run;
an index set has as many as its indices have stretches.
"""
from __future__ import annotations

from ._util import SpecError, check_footprint
from .operators import _INT64_MAX, _INT64_MIN, N0, Z, _LATTICES, run_indices


class RankZeroError(SpecError):
    """A projection spec must have rank at least one."""


class Projection:
    """Orthogonal projection onto span{e_i : i in one of the runs}.  It is
    its runs: they are what it shows, and two are equal when they are of
    one class, on one lattice, with the same runs."""

    __slots__ = ("lattice", "runs", "rank")

    def __init__(self, lattice: str, runs: tuple):
        if lattice not in _LATTICES:
            raise ValueError(f"unknown lattice {lattice!r}")
        if lattice == N0 and runs[0][0] < 0:
            raise ValueError("a projection on n0 cannot contain negative indices")
        self.lattice, self.runs = lattice, runs
        self.rank = sum(hi - lo + 1 for lo, hi in runs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.lattice, self.runs) == (other.lattice, other.runs)

    def __hash__(self):
        return hash((self.lattice, self.runs))

    def __repr__(self):
        return f"{type(self).__name__}(lattice={self.lattice!r}, runs={self.runs!r})"

    def index_array(self):
        """The sorted int64 array of the projection's indices."""
        check_footprint(8 * self.rank, f"the index array of a window of rank {self.rank}")
        return run_indices(self.runs)


class Window(Projection):
    """Orthogonal projection onto span{e_lo, ..., e_hi} (inclusive)."""

    __slots__ = ()

    def __init__(self, lattice: str, lo: int, hi: int):
        if hi < lo:
            raise RankZeroError(f"empty window [{lo}, {hi}]")
        super().__init__(lattice, ((lo, hi),))


class IndexSet(Projection):
    """Projection onto an explicit strictly increasing finite index set,
    split into its runs in the one pass that checks the order."""

    __slots__ = ()

    def __init__(self, lattice: str, indices):
        idx = tuple(int(i) for i in indices)
        if not idx:
            raise RankZeroError("empty index set")
        runs, lo = [], idx[0]
        for a, b in zip(idx, idx[1:]):
            if b <= a:
                raise ValueError("index set must be strictly increasing")
            if b != a + 1:
                runs.append((lo, a))
                lo = b
        runs.append((lo, idx[-1]))
        if idx[0] < _INT64_MIN or idx[-1] > _INT64_MAX:
            raise ValueError("index set indices must fit in 64 bits")
        super().__init__(lattice, tuple(runs))


def finite_section(lattice: str, n: int) -> Window:
    """The n-th finite-section window: {0..n} on n0, {-n..n} on z."""
    if n < 0:
        raise ValueError("section order must be nonnegative")
    if lattice == N0:
        return Window(N0, 0, n)
    if lattice == Z:
        return Window(Z, -n, n)
    raise ValueError(f"unknown lattice {lattice!r}")


class ProjectionSequence:
    """The projections of a sequence on one lattice, each with its order n."""

    __slots__ = ("lattice", "n_list", "projections")

    def __init__(self, lattice: str, n_list: tuple, projections: tuple):
        if not projections:
            raise ValueError("empty projection sequence")
        self.lattice, self.n_list, self.projections = lattice, n_list, projections

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
