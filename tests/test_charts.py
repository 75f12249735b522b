"""Grids searched as charts of integer index tuples (``spaces.GridChart``):
the Wasserstein-1D cone against the full sweep it replaced, its cells and
radii, the covering radius each chart reports, the quantile gap kernel
against its out-of-place form (``tests/oracles.py``), and the
Bures-Wasserstein grid swept as one stacked array with one stacked
membership check."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    BuresWassersteinSpace,
    DiscreteMeasure,
    EuclideanSpace,
    FrechetConfig,
    LqSequenceSpace,
    Measure1D,
    QuantileTable,
    SpiderSpace,
    Wasserstein1D,
    grid_mean_set,
    grid_oracle,
)
from frechet import core, solvers
from frechet.spaces import _cone_clip, _grid_rows, _quantile_gap_integrals

from oracles import quantile_gap_integrals_out_of_place
from test_pruned import _CountedSweep, _whole_box
from test_quantile_table import _measure, _same_measure


def _cone_band(space, mu, config, step, pad, k):
    """``grid_mean_set`` with k atoms per candidate, through the chart's
    own entry point (the command line fixes k at 2)."""
    short = core.degenerate_band(space, mu, config, step)
    if short is not None:
        return short
    chart = space.grid_chart(mu, step, pad, atom_count=k)
    return solvers._pruned_band(space, mu, config, chart)


def _full_sweep(space, mu, config, step, pad, k):
    grid = space.candidates(mu, "grid", step=step, pad=pad, atom_count=k)
    return grid_oracle(space, mu, config, grid, resolution=step)


def _assert_same_measures(got, want):
    assert got.resolution == want.resolution
    assert np.float64(got.achieved_value).tobytes() == np.float64(want.achieved_value).tobytes()
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        _same_measure(a, b)


# Atoms in [-1, 1], or on a coarse lattice that the grid steps hit, where
# whole runs of candidates tie.
_ATOM = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))


@st.composite
def _members(draw):
    members = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 4))
        atoms = draw(st.lists(_ATOM, min_size=k, max_size=k))
        w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        w = w / w.sum()
        w[-1] = 1.0 - float(w[:-1].sum())
        members.append(Measure1D(atoms, w))
    return members


class TestConeSearch:
    @given(members=_members(), k=st.integers(1, 4), q=st.sampled_from([1.0, 2.0, 3.0]),
           p=st.sampled_from([1.0, 2.0]), epsilon=st.sampled_from([0.0, 0.0, 1e-3, 0.05, 0.5]),
           step=st.sampled_from([0.25, 0.4, 0.7]), pad=st.sampled_from([0.0, 0.3]),
           uniform=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_band_equals_the_full_sweep(self, members, k, q, p, epsilon, step, pad,
                                        uniform, seed):
        space = Wasserstein1D(q=q)
        if uniform:
            mu = DiscreteMeasure.uniform(space, members)
        else:
            w = np.random.default_rng(seed).uniform(0.2, 1.0, size=len(members))
            mu = DiscreteMeasure.from_weights(space, members, w / float(w.sum()))
        config = FrechetConfig(p=p, epsilon=epsilon)
        _assert_same_measures(_cone_band(space, mu, config, step, pad, k),
                              _full_sweep(space, mu, config, step, pad, k))

    def test_grid_mean_set_is_the_two_atom_cone(self):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([-0.4, 0.9]), Measure1D([0.1, 0.3, 1.2])])
        config = FrechetConfig(p=2.0, epsilon=0.05)
        band = grid_mean_set(space, mu, config, 0.1, 0.3)
        _assert_same_measures(band, _full_sweep(space, mu, config, 0.1, 0.3, 2))
        _assert_same_measures(band, _cone_band(space, mu, config, 0.1, 0.3, 2))

    @staticmethod
    def _benchmark_members(seed):
        """20 members of 3 weighted atoms rescaled onto [-1, 1], the shape
        of the benchmark's call."""
        rng = np.random.default_rng(seed)
        atoms = rng.normal(size=(20, 3))
        atoms = -1.0 + 2.0 * (atoms - atoms.min()) / (atoms.max() - atoms.min())
        members = []
        for row in atoms:
            w = rng.uniform(0.5, 1.5, size=3)
            w = w / w.sum()
            w[-1] = 1.0 - float(w[:-1].sum())
            members.append(Measure1D(row, w))
        return members

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_benchmark_shape_evaluates_under_half_the_rows(self, monkeypatch, seed):
        # Step 0.1 and pad 0.55: a 32-point axis, 528 candidates of 2 atoms.
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, self._benchmark_members(seed))
        config = FrechetConfig(p=2.0)
        assert len(space.candidates(mu, "grid", step=0.1, pad=0.55)) == 528
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(space, mu, config, 0.1, 0.55)
        monkeypatch.undo()
        assert 0 < sweep.rows < 0.5 * 528
        _assert_same_measures(band, _full_sweep(space, mu, config, 0.1, 0.55, 2))

    @pytest.mark.parametrize("origin", [None, Measure1D([40.0])])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_four_atoms_start_at_the_block_means(self, monkeypatch, seed, origin):
        # k = 4 on the benchmark's members: 52,360 cone points, of which the
        # search from the whole box evaluates thousands.
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, self._benchmark_members(seed))
        config = FrechetConfig(p=2.0, origin=origin)
        sweep = _CountedSweep(monkeypatch)
        band = _cone_band(space, mu, config, 0.1, 0.55, 4)
        monkeypatch.undo()
        assert 0 < sweep.rows < 50
        _assert_same_measures(band, _whole_box(space, mu, config, 0.1, 0.55, atom_count=4))

    def test_fewer_than_one_atom_is_refused(self):
        space = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0])])
        with pytest.raises(ValueError, match="at least one atom"):
            space.grid_chart(mu, 0.1, 0.0, atom_count=0)


@st.composite
def _cells(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    bounds = [sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                                   unique=True))) for _ in range(k)]
    return n, np.array([[b[0] for b in bounds]]), np.array([[b[1] for b in bounds]])


class TestCells:
    @given(cell=_cells())
    @settings(max_examples=200, deadline=None)
    def test_clip_is_the_bounding_box_of_the_cone_points(self, cell):
        n, lo, hi = cell
        inside = [t for t in itertools.combinations_with_replacement(range(n), lo.shape[1])
                  if all(a <= i < b for a, i, b in zip(lo[0], t, hi[0]))]
        clo, chi = _cone_clip(lo, hi)
        if not inside:
            assert len(clo) == 0
            return
        assert clo.tolist() == [np.min(inside, axis=0).tolist()]
        assert (chi - 1).tolist() == [np.max(inside, axis=0).tolist()]
        # The middle of the cut cell is one of its grid points.
        assert tuple(((clo + chi - 1) // 2)[0]) in inside

    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 4),
           q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           step=st.sampled_from([2e-13, 7e-13, 1e-3, 0.3]), lo=st.floats(-2.0, 2.0))
    @settings(max_examples=150, deadline=None)
    def test_radius_bounds_the_kernel_distance(self, data, n, k, q, step, lo):
        # Steps below 1e-12 merge neighbouring axis points in a row; a row's
        # atom is then its run's first.
        space = Wasserstein1D(q=q)
        spots = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
                                   min_size=1, max_size=3), label="members")
        hi = lo + step * (n - 1)
        mu = DiscreteMeasure.uniform(space, [Measure1D([lo]), Measure1D([hi])] + [
            Measure1D([lo + (hi - lo) * f for f in member]) for member in spots])
        chart = space.grid_chart(mu, step, 0.0, atom_count=k)
        size = chart.sizes[0]
        bounds = [sorted(data.draw(st.lists(st.integers(0, size), min_size=2, max_size=2,
                                            unique=True), label="cell")) for _ in range(k)]
        cell_lo, cell_hi = _cone_clip(np.array([[b[0] for b in bounds]]),
                                      np.array([[b[1] for b in bounds]]))
        if not len(cell_lo):
            return
        rep = (cell_lo + cell_hi - 1) // 2
        inside = np.array([t for t in itertools.product(
            *[range(a, b) for a, b in zip(cell_lo[0], cell_hi[0])]) if list(t) == sorted(t)])
        d = space.pairwise_distances(chart.rows(inside), chart.rows(rep))[:, 0]
        r = chart.radius(cell_lo, cell_hi, rep)[0]
        assert d.max() <= r * (1.0 + 2.0 ** -40)


class TestResolution:
    # The covering radius a band reports is its chart's: the l_q box's half
    # cell diagonal, at least the step, and the W1D cone's step. The spider
    # has no chart, and its band reports the step.
    @pytest.mark.parametrize("space,want", [
        (EuclideanSpace(dim=1), 0.25), (EuclideanSpace(dim=5), 0.125 * 5 ** 0.5),
        (LqSequenceSpace(truncation=4, q=1.5), 0.125 * 4 ** (1 / 1.5)),
        (LqSequenceSpace(truncation=3, q=4.0), 0.25),  # 0.125 * 3 ** 0.25 < 0.25
        (Wasserstein1D(q=1.0), 0.25), (Wasserstein1D(q=2.0), 0.25), (SpiderSpace(legs=3), 0.25)])
    def test_band_reports_its_charts_covering_radius(self, space, want):
        points = {Wasserstein1D: [Measure1D([0.0, 1.0]), Measure1D([0.5])],
                  SpiderSpace: [(0, 1.0), (1, 1.0), (2, 1.0)]}.get(type(space))
        mu = DiscreteMeasure.uniform(space, points or [np.zeros(space._length),
                                                       np.ones(space._length)])
        charts = [space.grid_chart(mu, 0.25, 0.5)] if hasattr(space, "grid_chart") else []
        band = grid_mean_set(space, mu, FrechetConfig(p=2.0, epsilon=0.01), 0.25, 0.5)
        assert [c.resolution for c in charts] + [band.resolution] == [want] * (len(charts) + 1)
        assert len(charts) == (not isinstance(space, SpiderSpace)) and len(band.points) > 0


class TestGapKernel:
    @given(xs=st.lists(_measure(4), min_size=1, max_size=5),
           ys=st.lists(_measure(4), min_size=1, max_size=5),
           q=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=100, deadline=None)
    def test_in_place_kernel_keeps_the_bits(self, xs, ys, q):
        tx, ty = QuantileTable.of(xs), QuantileTable.of(ys)
        got = _quantile_gap_integrals(tx.atoms, tx.cum, ty.atoms, ty.cum, q)
        want = quantile_gap_integrals_out_of_place(tx.atoms, tx.cum, ty.atoms, ty.cum, q)
        assert got.tobytes() == want.tobytes()

    def test_grid_rows_with_repeated_breakpoints(self):
        # Many candidates share a breakpoint row, as on a grid.
        axis = np.linspace(-1.0, 1.0, 9)
        rows = _grid_rows(axis, np.array(list(itertools.combinations_with_replacement(
            range(9), 3))))
        ys = QuantileTable.of([Measure1D([-0.3, 0.2, 0.9], [0.2, 0.5, 0.3]), Measure1D([0.1])])
        for q in (1.0, 2.0, 3.0):
            got = _quantile_gap_integrals(rows.atoms, rows.cum, ys.atoms, ys.cum, q)
            want = quantile_gap_integrals_out_of_place(rows.atoms, rows.cum, ys.atoms,
                                                       ys.cum, q)
            assert got.tobytes() == want.tobytes()


def _psd(rng, dim, rank=None):
    a = rng.normal(size=(dim, rank or dim))
    return a @ a.T


@st.composite
def _matrix_stacks(draw):
    """Stacks of 1-5 matrices of one dimension (1-3), each PSD, rank
    deficient, indefinite, at the 1e-10 boundaries of the symmetry and
    eigenvalue checks, or holding a NaN or an infinity."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["psd", "rank", "indefinite", "asym", "edge", "nan", "inf"]))
        m = _psd(rng, dim, rank=max(1, dim - 1) if kind == "rank" else None)
        if kind == "indefinite":
            m = m - (np.linalg.eigvalsh(m)[-1] + 0.5) * np.eye(dim) * draw(st.booleans())
            m[0, 0] -= 1.0
        elif kind == "asym" and dim > 1:
            # np.allclose's tolerance is 1e-10 + 1e-5 |b|: just inside or outside.
            m[0, 1] = m[1, 0] + (1e-10 + 1e-5 * abs(m[1, 0])) * draw(
                st.sampled_from([0.5, 0.999999, 1.0, 1.000001, 2.0, -1.000001]))
        elif kind == "edge":
            # A smallest eigenvalue near -1e-10 max(1, |largest|).
            lam, vec = np.linalg.eigh(m)
            lam[0] = -1e-10 * max(1.0, abs(lam[-1])) * draw(
                st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]))
            m = (vec * lam) @ vec.T
            m = (m + m.T) / 2.0
        elif kind in ("nan", "inf"):
            m[rng.integers(dim), rng.integers(dim)] = math.nan if kind == "nan" else -math.inf
        mats.append(m)
    return dim, mats


class TestBuresWassersteinStack:
    @given(stack=_matrix_stacks())
    @settings(max_examples=300, deadline=None)
    def test_contains_all_equals_the_contains_loop(self, stack):
        dim, mats = stack
        space = BuresWassersteinSpace(dim=dim)
        expected = all(space.contains(m) for m in mats)
        assert space.contains_all(mats) is expected
        assert space.contains_all(np.stack(mats)) is expected

    @given(stack=_matrix_stacks())
    @settings(max_examples=100, deadline=None)
    def test_stacked_eigvalsh_has_the_per_matrix_bits(self, stack):
        _, mats = stack
        finite = [m for m in mats if np.all(np.isfinite(m))]
        if finite:
            sym = [(m + m.T) / 2.0 for m in finite]
            assert np.linalg.eigvalsh(np.stack(sym)).tobytes() == np.stack(
                [np.linalg.eigvalsh(s) for s in sym]).tobytes()

    def test_points_that_do_not_stack_are_not_in_the_space(self):
        space = BuresWassersteinSpace(dim=2)
        assert space.contains_all([np.eye(2), np.eye(3)]) is False
        assert space.contains_all([np.eye(2), [[1.0, 0.0], [0.0, 1.0]]]) is True
        assert space.contains_all([]) is True
        assert space.contains_all([np.eye(2), "ab"]) is False

    @pytest.mark.parametrize("dim,step,pad", [(1, 0.1, 0.2), (2, 0.25, 0.3), (2, 0.4, 0.0)])
    def test_grid_is_one_array_and_its_band_that_of_the_list(self, dim, step, pad):
        space = BuresWassersteinSpace(dim=dim)
        rng = np.random.default_rng(dim)
        mu = DiscreteMeasure.uniform(space, [_psd(rng, dim) + 0.5 * np.eye(dim)
                                             for _ in range(6)])
        grid = space.candidates(mu, "grid", step=step, pad=pad)
        assert isinstance(grid, np.ndarray) and grid.ndim == 3 and grid.shape[1:] == (dim, dim)
        listed = list(grid)
        config = FrechetConfig(p=2.0, epsilon=0.05)
        band = grid_mean_set(space, mu, config, step, pad)
        want = grid_oracle(space, mu, config, listed, resolution=step)
        assert band.achieved_value == want.achieved_value and band.resolution == step
        assert np.stack(band.points).tobytes() == np.stack(want.points).tobytes()
