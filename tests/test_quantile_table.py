"""Wasserstein-1D grids as one quantile table: the table against the
per-object grid it replaced (``tests/oracles.py``), the band of
``grid_mean_set`` against ``grid_oracle`` over that list, and the kernel's
shared breakpoint sorts against unshared ones."""

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
from frechet.spaces import _axis_grid, _grid_table

from oracles import w1d_grid_per_object, wasserstein1d_pair


def _same_measure(a, b):
    """Bit for bit: the same float arrays, shapes and dtypes."""
    for name in ("atoms", "weights", "_cum"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype == float and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), (name, x, y)


@st.composite
def _measure(draw, max_atoms=3):
    k = draw(st.integers(1, max_atoms))
    atoms = draw(st.lists(st.floats(-3, 3), min_size=k, max_size=k))
    w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return Measure1D(atoms, w)


class TestGridTable:
    """``_grid_table`` rows against one ``Measure1D`` per combination."""

    @given(lo=st.floats(-1e3, 1e3), n=st.integers(1, 7), k=st.integers(1, 4),
           step=st.sampled_from([2e-13, 4e-13, 5e-13, 7e-13, 1e-12, 1.3e-12, 0.01, 0.25]))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_the_per_object_grid(self, lo, n, k, step):
        # Steps below 1e-12 merge runs of axis points under the chain rule
        # (each atom against its run's first); at |lo| near 1e3 the axis
        # points are a few ulps apart and some coincide.
        axis = lo + step * np.arange(n)
        table = _grid_table(axis, k)
        reference = w1d_grid_per_object(axis, k)
        assert len(table) == len(reference)
        for row, m in zip(table, reference):
            _same_measure(row, m)

    def test_chain_rule_merges_against_the_run_start(self):
        # 0, 6e-13, 1.2e-12: the second joins the first; the third is more
        # than 1e-12 from the run's first atom, so it starts a new run even
        # though it is within 1e-12 of the second.
        table = _grid_table(np.array([0.0, 6e-13, 1.2e-12]), 3)
        row = table[4]  # (0, 6e-13, 1.2e-12)
        assert row.atoms.tolist() == [0.0, 1.2e-12]
        _same_measure(row, Measure1D([0.0, 6e-13, 1.2e-12]))

    def test_padding_and_indexing(self):
        table = _grid_table(np.array([0.0, 1.0, 2.0]), 2)
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

    def test_no_atoms_is_refused(self):
        with pytest.raises(ValueError, match="at least one atom"):
            _grid_table(np.array([0.0, 1.0]), 0)

    def test_candidates_are_the_table_rows(self):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0]), Measure1D([0.4])])
        for k in (1, 2, 3):
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
        assert len(built) == len(band.points) < len(_grid_table(_axis_grid(-0.5, 2.5, 0.05), 2))

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
        table = _grid_table(_axis_grid(-1.0, 1.0, 0.25), 3)
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
