
import numpy as np
import pytest

import dense_oracle
import folner_lab as fl
from folner_lab.projections import Projection


def test_finite_section_ranks_n0():
    seq = fl.finite_section_sequence(fl.N0, [1, 2, 3])
    assert [p.rank for _, p in seq] == [2, 3, 4]


def test_finite_section_ranks_z():
    seq = fl.finite_section_sequence(fl.Z, [1, 2])
    assert [p.rank for _, p in seq] == [3, 5]


def test_nesting():
    seq = fl.finite_section_sequence(fl.Z, [1, 3, 9])
    sets = [set(p.index_array().tolist()) for _, p in seq]
    assert sets[0] < sets[1] < sets[2]


def test_runs():
    assert fl.Window(fl.Z, -3, 4).runs == ((-3, 4),)
    p = fl.IndexSet(fl.Z, (-4, -3, -1, 2, 3, 4))
    assert p.runs == ((-4, -3), (-1, -1), (2, 4))
    # a projection is its runs: they are what it shows and what it compares
    assert p == fl.IndexSet(fl.Z, (-4, -3, -1, 2, 3, 4))
    assert repr(p) == "IndexSet(lattice='z', runs=((-4, -3), (-1, -1), (2, 4)))"


@pytest.mark.parametrize("seed", range(8))
def test_index_set_runs_match_index_runs(seed):
    # the runs an index set splits while it checks the order are those of
    # `dense_oracle.index_runs` on its int64 array: gapped sets, single points, and
    # indices at the int64 bounds
    rng = np.random.default_rng(seed)
    lo, hi = -(2**63), 2**63 - 1
    idx = set(rng.integers(-40, 40, size=rng.integers(1, 30)).tolist())
    idx |= {lo, lo + 1, hi} if seed % 2 else {hi - 2, hi - 1}
    if seed % 3 == 0:
        idx |= {lo + 5}  # a single point beside the bound's run
    idx = tuple(sorted(idx))
    runs = fl.IndexSet(fl.Z, idx).runs
    assert runs == dense_oracle.index_runs(np.array(idx))
    assert all(type(x) is int for run in runs for x in run)
    assert fl.IndexSet(fl.Z, idx[:1]).runs == ((idx[0], idx[0]),)


def test_window_and_index_set_of_the_same_indices():
    w, s = fl.Window(fl.Z, -2, 3), fl.IndexSet(fl.Z, range(-2, 4))
    assert w.runs == s.runs and w.rank == s.rank == 6
    assert w.index_array().tolist() == s.index_array().tolist() == list(range(-2, 4))
    assert w.index_array().dtype == s.index_array().dtype == np.int64
    # both are projections, still told apart by class
    assert isinstance(w, Projection) and isinstance(s, Projection) and w != s


def test_empty_n_list_rejected():
    with pytest.raises(ValueError):
        fl.finite_section_sequence(fl.N0, [])


def test_non_increasing_rejected():
    with pytest.raises(ValueError):
        fl.finite_section_sequence(fl.N0, [2, 2])


def test_rank_zero_rejected():
    with pytest.raises(fl.RankZeroError):
        fl.Window(fl.N0, 3, 2)
    with pytest.raises(fl.RankZeroError):
        fl.IndexSet(fl.N0, ())


def test_index_set_must_increase():
    with pytest.raises(ValueError):
        fl.IndexSet(fl.N0, (3, 1))


def test_index_set_fits_int64():
    fl.IndexSet(fl.Z, (-(2**63), 2**63 - 1))
    for bad in ((-(2**63) - 1, 0), (0, 2**63)):
        with pytest.raises(ValueError, match="64 bits"):
            fl.IndexSet(fl.Z, bad)


def test_n0_window_nonnegative():
    with pytest.raises(ValueError, match="on n0 cannot contain negative indices"):
        fl.Window(fl.N0, -1, 3)


def test_n0_index_set_nonnegative():
    with pytest.raises(ValueError, match="on n0 cannot contain negative indices"):
        fl.IndexSet(fl.N0, (-2, 0, 5))
    fl.IndexSet(fl.Z, (-2, 0, 5))

