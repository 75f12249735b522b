"""Wasserstein-1D measures and grids as quantile tables: ``Measure1D`` and
the grid's rows against the merge loop and the per-object grid they
replaced (``tests/oracles.py``), the band of ``grid_mean_set`` against
``grid_oracle`` over that list, and the kernel's shared breakpoint sorts
against unshared ones."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    ConfigurationError,
    DiscreteMeasure,
    FrechetConfig,
    Measure1D,
    QuantileTable,
    Wasserstein1D,
    grid_mean_set,
    grid_oracle,
)
from frechet import spaces
from frechet.spaces import _axis_grid, _grid_rows

from oracles import measure1d_reference, w1d_grid_per_object, wasserstein1d_pair


def _same_measure(a, b):
    """Bit for bit: the same float arrays, shapes and dtypes. ``b`` is a
    measure or the (atoms, weights, breakpoints) of ``measure1d_reference``."""
    want = (b.atoms, b.weights, b._cum) if isinstance(b, Measure1D) else b
    for name, x, y in zip(("atoms", "weights", "_cum"), (a.atoms, a.weights, a._cum), want):
        assert x.dtype == y.dtype == float and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), (name, x, y)


def _cone_table(axis, k):
    """The chart's rows of every nondecreasing index tuple of k axis points,
    in ``combinations_with_replacement`` order, as one table."""
    index = list(itertools.combinations_with_replacement(range(len(axis)), k))
    return _grid_rows(axis, np.array(index, dtype=np.intp).reshape(-1, k))


@st.composite
def _measure(draw, max_atoms=3):
    k = draw(st.integers(1, max_atoms))
    atoms = draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k))
    w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return Measure1D(atoms, w)


@st.composite
def _raw_measure(draw):
    """Atoms in any order, some 0, 5e-13, 1e-12 or 2e-12 above an earlier
    one (which merge or do not, by the chain rule), and weights or None."""
    atoms = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    for i in range(1, len(atoms)):
        if draw(st.booleans()):
            atoms[i] = atoms[i - 1] + draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]))
    atoms = draw(st.permutations(atoms))
    if not draw(st.booleans()):
        return atoms, None
    w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms),
                                 max_size=len(atoms))))
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return atoms, w.tolist()


class TestMeasure1D:
    """``Measure1D`` is row 0 of its one-row table, built by ``_merged_table``,
    against the merge loop it replaced (``oracles.measure1d_reference``)."""

    @given(raw=_raw_measure())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_merge_loop_bit_for_bit(self, raw):
        m = Measure1D(*raw)
        _same_measure(m, measure1d_reference(*raw))
        assert m.table.counts.tolist() == [m.atoms.size]
        for name, a in (("atoms", m.atoms), ("weights", m.weights), ("cum", m._cum)):
            assert np.shares_memory(a, getattr(m.table, name)) and m.table.atoms.shape[0] == 1

    def test_chain_rule_merges_against_the_run_start(self):
        m = Measure1D([1.2e-12, 0.0, 6e-13], [0.5, 0.25, 0.25])
        assert m.atoms.tolist() == [0.0, 1.2e-12] and m.weights.tolist() == [0.5, 0.5]
        _same_measure(m, measure1d_reference([1.2e-12, 0.0, 6e-13], [0.5, 0.25, 0.25]))

    def test_one_measure_is_its_own_table(self):
        m = Measure1D([0.5, -1.0, 2.0], [0.2, 0.3, 0.5])
        assert QuantileTable.of([m]) is m.table
        assert len(QuantileTable.of([m, m])) == 2

    def test_a_distance_builds_no_table(self, monkeypatch):
        space = Wasserstein1D(q=2.0)
        x, y = Measure1D([0.0, 1.0, 3.0]), Measure1D([0.5, 2.0], [0.25, 0.75])
        want = wasserstein1d_pair(x, y, 2.0)
        calls = []
        merged = spaces._merged_table
        monkeypatch.setattr(spaces, "_merged_table",
                            lambda *args: calls.append(args) or merged(*args))
        got = space.distance(x, y)
        assert calls == []
        assert abs(got - want) <= 1e-12 * (1.0 + want)


class TestGridTable:
    """The cone's rows against one reference measure per combination."""

    @given(lo=st.floats(-1e3, 1e3), n=st.integers(1, 7), k=st.integers(1, 4),
           step=st.sampled_from([2e-13, 4e-13, 5e-13, 7e-13, 1e-12, 1.3e-12, 0.01, 0.25]))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_per_object_grid(self, lo, n, k, step):
        # Steps below 1e-12 merge runs of axis points under the chain rule
        # (each atom against its run's first); at |lo| near 1e3 the axis
        # points are a few ulps apart and some coincide.
        axis = lo + step * np.arange(n)
        table = _cone_table(axis, k)
        reference = w1d_grid_per_object(axis, k)
        assert len(table) == len(reference)
        for row, m in zip(table, reference):
            _same_measure(row, m)

    def test_chain_rule_merges_against_the_run_start(self):
        # 0, 6e-13, 1.2e-12: the second joins the first; the third is more
        # than 1e-12 from the run's first atom, so it starts a new run even
        # though it is within 1e-12 of the second.
        table = _cone_table(np.array([0.0, 6e-13, 1.2e-12]), 3)
        row = table[4]  # (0, 6e-13, 1.2e-12)
        assert row.atoms.tolist() == [0.0, 1.2e-12]
        _same_measure(row, measure1d_reference([0.0, 6e-13, 1.2e-12]))

    def test_padding_and_indexing(self):
        table = _cone_table(np.array([0.0, 1.0, 2.0]), 2)
        assert table.counts.tolist() == [1, 2, 2, 1, 2, 1]
        # A single-atom row repeats its atom, weighs 0.0 and breaks at 1.0.
        assert table.atoms[0].tolist() == [0.0, 0.0]
        assert table.weights[0].tolist() == [1.0, 0.0]
        assert table.cum[0].tolist() == [1.0, 1.0]
        sub = table[np.array([4, 0])]
        assert isinstance(sub, QuantileTable) and sub.counts.tolist() == [2, 1]
        assert isinstance(table[1:3], QuantileTable) and len(table[1:3]) == 2
        row = table[-1]
        assert isinstance(row, Measure1D) and row.atoms.tolist() == [2.0]
        row.atoms[0] = 5.0  # a row is a copy
        assert table.atoms[-1, 0] == 2.0
        # ... of its one row only, cut to its count.
        assert row.table.atoms.shape == (1, 1) and row.table.counts.tolist() == [1]
        assert not any(np.shares_memory(getattr(row.table, name), getattr(table, name))
                       for name in ("atoms", "weights", "cum", "counts"))

    def test_no_atoms_is_refused(self):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0])])
        with pytest.raises(ValueError, match="at least one atom"):
            space.candidates(mu, "grid", step=0.5, atom_count=0)

    def test_candidates_are_the_table_rows(self):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0]), Measure1D([0.4])])
        for k in (1, 2, 3, 4):
            cands = space.candidates(mu, "grid", step=0.25, pad=0.1, atom_count=k)
            assert isinstance(cands, list)
            reference = w1d_grid_per_object(_axis_grid(-0.1, 1.1, 0.25), k)
            assert len(cands) == len(reference)
            for c, m in zip(cands, reference):
                _same_measure(c, m)


class TestGridMeanSet:
    """The band of the table sweep against ``grid_oracle`` over the list."""

    @given(members=st.lists(_measure(), min_size=1, max_size=5),
           q=st.sampled_from([1.0, 2.0, 3.0]), p=st.sampled_from([1.0, 2.0]),
           epsilon=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
           step=st.sampled_from([0.2, 0.35, 0.5]), pad=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=60, deadline=None)
    def test_band_equals_the_oracle_over_the_per_object_grid(self, members, q, p,
                                                             epsilon, step, pad):
        space = Wasserstein1D(q=q)
        mu = DiscreteMeasure.uniform(space, members)
        config = FrechetConfig(p=p, epsilon=epsilon)
        lo = min(float(m.atoms.min()) for m in members) - pad
        hi = max(float(m.atoms.max()) for m in members) + pad
        reference = grid_oracle(space, mu, config,
                                w1d_grid_per_object(_axis_grid(lo, hi, step), 2),
                                resolution=step)
        band = grid_mean_set(space, mu, config, step, pad)
        assert band.resolution == step
        assert float(band.achieved_value).hex() == float(reference.achieved_value).hex()
        assert len(band.points) == len(reference.points)
        for a, b in zip(band.points, reference.points):
            _same_measure(a, b)

    def test_only_band_rows_become_measures(self, monkeypatch):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0]), Measure1D([0.5, 2.0])])
        built = []
        of = spaces.Measure1D._of.__func__
        monkeypatch.setattr(spaces.Measure1D, "_of", classmethod(
            lambda cls, *arrays: built.append(arrays) or of(cls, *arrays)))
        monkeypatch.setattr(spaces.Measure1D, "__init__", _refuse)
        band = grid_mean_set(space, mu, FrechetConfig(p=2.0, epsilon=0.01), 0.05, 0.5)
        assert len(built) == len(band.points) < len(_cone_table(_axis_grid(-0.5, 2.5, 0.05), 2))

    def test_non_measure_support_is_refused(self):
        space = Wasserstein1D(q=2.0)
        points = [Measure1D([0.0]), 1.0]
        assert space.stack(points) is points
        with pytest.raises(ConfigurationError):
            DiscreteMeasure.uniform(space, points)


def _refuse(self, *args, **kwargs):
    raise AssertionError("a grid candidate was built through Measure1D.__init__")


class TestSharedSorts:
    """A kernel entry does not depend on the rows batched with it."""

    @given(x=_measure(4), shared=st.lists(st.lists(st.floats(-3, 3), min_size=4, max_size=4),
                                          max_size=3),
           others=st.lists(_measure(4), max_size=3),
           ys=st.lists(_measure(4), min_size=1, max_size=4),
           q=st.sampled_from([1.0, 2.0, 3.0]))
    @settings(max_examples=80, deadline=None)
    def test_entry_bits_do_not_depend_on_the_batch(self, x, shared, others, ys, q):
        space = Wasserstein1D(q=q)
        # Rows with x's breakpoints: x's weights on other atoms, sorted so
        # that no atom merges and the breakpoints stay the same.
        twins = [Measure1D(np.sort(a[:x.atoms.size]) + 10.0 * np.arange(x.atoms.size),
                           x.weights) for a in shared]
        assert all(np.array_equal(t.cdf_breakpoints(), x.cdf_breakpoints()) for t in twins)
        alone = space.pairwise_distances([x], ys)[0]
        with_twins = space.pairwise_distances(twins + [x] + twins, ys)[len(twins)]
        with_others = space.pairwise_distances(others + [x], ys)[len(others)]
        mixed = space.pairwise_distances(QuantileTable.of(others + twins + [x]), ys)[-1]
        for row in (with_twins, with_others, mixed):
            assert row.tobytes() == alone.tobytes()
        for j, y in enumerate(ys):
            expected = wasserstein1d_pair(x, y, q)
            assert abs(alone[j] - expected) <= 1e-12 * (1.0 + expected)

    def test_grid_rows_against_the_pair_reference(self):
        space = Wasserstein1D(q=2.0)
        table = _cone_table(_axis_grid(-1.0, 1.0, 0.25), 3)
        ys = [Measure1D([-0.3, 0.2, 0.9], [0.2, 0.5, 0.3]), Measure1D([0.1])]
        dm = space.pairwise_distances(table, ys)
        for i in range(len(table)):
            alone = space.pairwise_distances(table[i:i + 1], ys)[0]
            assert dm[i].tobytes() == alone.tobytes()
            for j, y in enumerate(ys):
                expected = wasserstein1d_pair(table[i], y, 2.0)
                assert abs(dm[i, j] - expected) <= 1e-12 * (1.0 + expected)

    def test_empty_sides(self):
        space = Wasserstein1D(q=2.0)
        assert space.pairwise_distances([], [Measure1D([0.0])]).shape == (0, 1)
        assert space.pairwise_distances([Measure1D([0.0])], []).shape == (1, 0)
