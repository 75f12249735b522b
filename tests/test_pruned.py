"""The pruned grid search (``grid_mean_set``) against the full grid sweep it
replaced (``oracles.grid_band_full_sweep``): the same band point for point
with a bit-equal achieved value, on a small share of the evaluations."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet import (
    DiscreteMeasure,
    EuclideanSpace,
    ExperimentConfig,
    FrechetConfig,
    LqSequenceSpace,
    Measure1D,
    SamplerSpec,
    SpiderSpace,
    Wasserstein1D,
    grid_mean_set,
    slln_experiment,
)
from frechet import core, solvers

from oracles import grid_band_full_sweep

_SPACES = [EuclideanSpace(1), EuclideanSpace(2), EuclideanSpace(3), EuclideanSpace(4),
           LqSequenceSpace(truncation=1, q=3.0), LqSequenceSpace(truncation=2, q=1.5),
           LqSequenceSpace(truncation=2, q=3.0), LqSequenceSpace(truncation=4, q=1.5)]

# Grid steps by dimension; from 3-D up a cell splits into 3 or 2 index
# ranges per axis, not 16 or 4.
_STEPS = {1: 0.05, 2: 0.1, 3: 0.25, 4: 0.5}


def _length(space):
    return space.dim if isinstance(space, EuclideanSpace) else space.truncation


def _assert_same_band(got, want):
    assert got.resolution == want.resolution
    assert np.float64(got.achieved_value).tobytes() == np.float64(want.achieved_value).tobytes()
    assert len(got.points) == len(want.points)
    assert np.asarray(got.points).tobytes() == np.asarray(want.points).tobytes()


class _CountedSweep:
    """Wraps the band sweep the pruned search calls and counts the grid
    points it evaluates."""

    def __init__(self, monkeypatch):
        self.rows = 0
        original = solvers._band_values

        def counted(space, mu, config, candidates, *shift):
            self.rows += len(candidates)
            return original(space, mu, config, candidates, *shift)

        monkeypatch.setattr(solvers, "_band_values", counted)


class TestSameBandAsFullSweep:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, data):
        space = data.draw(st.sampled_from(_SPACES), label="space")
        dim = _length(space)
        n = data.draw(st.integers(1, 8), label="n")
        shape = data.draw(st.sampled_from(["integer", "real", "degenerate"]), label="atoms")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        if shape == "integer":  # ties: whole intervals of minimizers at p = 1
            atoms = rng.integers(-2, 3, size=(n, dim)).astype(float)
        else:
            atoms = rng.standard_t(2, size=(n, dim))
            atoms = atoms / max(1.0, float(np.abs(atoms).max()) / 2.0)
            if shape == "degenerate":
                atoms = np.repeat(atoms[:1], n, axis=0)
        p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="p")
        eps = data.draw(st.sampled_from([0.0, 0.0, 1e-3, 0.1, 0.4]), label="epsilon")
        step = _STEPS[dim]
        pad = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="pad")
        if data.draw(st.booleans(), label="uniform"):
            mu = DiscreteMeasure.uniform(space, list(atoms))
        else:
            w = rng.uniform(0.2, 1.0, size=n)
            mu = DiscreteMeasure.from_weights(space, list(atoms), w / float(w.sum()))
        config = FrechetConfig(p=p, epsilon=eps)
        _assert_same_band(grid_mean_set(space, mu, config, step, pad),
                          grid_band_full_sweep(space, mu, config, step, pad))

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_even_sample_interval_at_p1(self, p):
        # Four atoms at p = 1: every grid point between the middle two is a
        # minimizer, 301 of them.
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, [np.array([v]) for v in (-4.0, -1.5, 1.5, 3.0)])
        config = FrechetConfig(p=p)
        band = grid_mean_set(line, mu, config, 0.01, 1.0)
        _assert_same_band(band, grid_band_full_sweep(line, mu, config, 0.01, 1.0))
        if p == 1.0:
            assert len(band.points) == 301

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_four_dimensions(self, monkeypatch, p):
        # Two index ranges per axis: 16 children per cell, not 4**4 = 256.
        space = EuclideanSpace(4)
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure.uniform(space, list(rng.standard_t(3, size=(30, 4)).clip(-3, 3)))
        config = FrechetConfig(p=p, epsilon=0.01)
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(space, mu, config, 0.25, 0.5)
        monkeypatch.undo()
        full = grid_band_full_sweep(space, mu, config, 0.25, 0.5)
        _assert_same_band(band, full)
        assert sweep.rows < 0.1 * np.prod(space.grid_chart(mu, 0.25, 0.5).sizes)

    def test_origin_does_not_matter(self):
        plane = EuclideanSpace(2)
        rng = np.random.default_rng(5)
        mu = DiscreteMeasure.uniform(plane, list(rng.normal(size=(30, 2))))
        for origin in (None, np.array([40.0, -3.0])):
            config = FrechetConfig(p=1.5, epsilon=0.01, origin=origin)
            _assert_same_band(grid_mean_set(plane, mu, config, 0.05, 0.5),
                              grid_band_full_sweep(plane, mu, config, 0.05, 0.5))

    def test_degenerate_measure_short_circuits(self):
        plane = EuclideanSpace(2)
        mu = DiscreteMeasure.uniform(plane, [np.array([0.3, 0.7])] * 3)
        band = grid_mean_set(plane, mu, FrechetConfig(p=2.0), 0.1, 1.0)
        assert len(band.points) == 1 and np.array_equal(band.points[0], [0.3, 0.7])
        _assert_same_band(band, grid_band_full_sweep(plane, mu, FrechetConfig(p=2.0), 0.1, 1.0))

    def test_other_spaces_sweep_the_whole_grid(self, monkeypatch):
        spider = SpiderSpace(legs=3)
        mu = DiscreteMeasure.uniform(spider, [(0, 1.0), (1, 0.5), (2, 2.0)])
        config = FrechetConfig(p=2.0)
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(spider, mu, config, 0.1, 0.5)
        assert sweep.rows == 0  # the full sweep goes through relaxed_mean_set
        want = grid_band_full_sweep(spider, mu, config, 0.1, 0.5)
        assert band.points == want.points and band.achieved_value == want.achieved_value


@st.composite
def _weighted_atoms(draw):
    dim, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    atoms = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim),
                          min_size=n, max_size=n))
    w = np.asarray(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return np.asarray(atoms), w / w.sum()


class TestBoxResolution:
    # Two atoms 0 and (h, ..., h): the mean is a cell's centre, (h/2) d**0.5
    # from the nearest grid points, more than h from d = 5.
    @given(case=_weighted_atoms())
    @example(case=(np.array([[0.0] * 5, [0.25] * 5]), np.array([0.5, 0.5])))
    @example(case=(np.array([[0.0] * 6, [0.25] * 6]), np.array([0.5, 0.5])))
    @settings(max_examples=100, deadline=None)
    def test_the_mean_lies_within_resolution_of_the_band(self, case):
        atoms, w = case
        space = EuclideanSpace(atoms.shape[1])
        band = grid_mean_set(space, DiscreteMeasure.from_weights(space, atoms, w),
                             FrechetConfig(p=2.0), 0.25)
        gap = min(float(np.linalg.norm(np.asarray(x) - w @ atoms)) for x in band.points)
        assert gap <= band.resolution * (1.0 + 1e-12)


class TestWork:
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["euclidean", "lq"])
    def test_one_origin_shift_per_search(self, monkeypatch, kind, dim, p, eps):
        # The shift is the same at every level: it is computed once and
        # passed down, and the band still equals relaxed_mean_set over the
        # full grid bit for bit.
        space = EuclideanSpace(dim) if kind == "euclidean" else LqSequenceSpace(dim, 3.0)
        rng = np.random.default_rng(dim * 100 + int(10 * p))
        mu = DiscreteMeasure.uniform(space, list(rng.standard_t(2, size=(7, dim)).clip(-2, 2)))
        config = FrechetConfig(p=p, epsilon=eps)
        step = {1: 0.02, 2: 0.1, 3: 0.25, 4: 0.5}[dim]
        calls = []
        original = solvers.origin_shift

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(core, "origin_shift", counted)
        monkeypatch.setattr(solvers, "origin_shift", counted)
        band = grid_mean_set(space, mu, config, step, 0.5)
        assert len(calls) == 1
        monkeypatch.undo()
        _assert_same_band(band, grid_band_full_sweep(space, mu, config, step, 0.5))

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")])
    def test_step_that_is_not_positive_is_refused(self, step):
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, [np.array([0.0]), np.array([1.0])])
        with pytest.raises(ValueError, match="grid step"):
            grid_mean_set(line, mu, FrechetConfig(p=2.0), step)

    def test_mean_grid_instance_evaluates_under_one_percent(self, monkeypatch):
        # The shape of the benchmark's Euclidean call: 200 heavy-tailed atoms
        # rescaled onto [-1, 1]^2, p = 1, step 0.02, pad 1: 40,401 candidates.
        rng = np.random.default_rng(11)
        atoms = rng.standard_t(df=3, size=(200, 2))
        lo, hi = atoms.min(axis=0), atoms.max(axis=0)
        atoms = -1.0 + 2.0 * (atoms - lo) / (hi - lo)
        plane = EuclideanSpace(2)
        mu = DiscreteMeasure.uniform(plane, list(atoms))
        config = FrechetConfig(p=1.0)
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(plane, mu, config, 0.02, 1.0)
        assert sweep.rows < 0.01 * 201 * 201
        _assert_same_band(band, grid_band_full_sweep(plane, mu, config, 0.02, 1.0))

    def test_cauchy_slln_on_the_grid_at_n_1e4(self):
        # Cauchy samples spread the hull: at n = 1e4 and step 0.01 the grid
        # has over 5e5 points, and the full sweep would make about 6e9
        # distance evaluations.
        sampler = SamplerSpec(kind="iid", distribution="cauchy", params=(0.0, 1.0), seed=7)
        config = ExperimentConfig(solver="grid", grid_step=0.01, grid_pad=1.0,
                                  target_points=(np.array([0.0]),), threshold=0.5)
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, sampler.draw(10000))
        assert line.grid_chart(mu, 0.01, 1.0).sizes[0] > 500_000
        tracemalloc.start()
        try:
            report = slln_experiment(line, sampler, 1.0, [10000], 1, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdicts == {"solver_failures": 0, "final_below_threshold": True}
        assert peak < 30e6

    def test_wide_hull_grid_is_never_built(self):
        # 1e8 grid points: their coordinates alone would take 800 MB.
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, [np.array([v]) for v in (-5e5, 0.0, 1.0, 5e5)])
        assert line.grid_chart(mu, 0.01, 1.0).sizes[0] > 1e8
        tracemalloc.start()
        try:
            band = grid_mean_set(line, mu, FrechetConfig(p=1.0), 0.01, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = np.concatenate(band.points)
        assert 99 <= len(points) <= 103 and points.min() > -0.02 and points.max() < 1.02
        assert peak < 10e6


def _whole_box(space, mu, config, step, pad, **chart_args):
    """The pruned search from the whole index box: the chart without its
    center."""
    chart = dataclasses.replace(space.grid_chart(mu, step, pad, **chart_args), center=None)
    return solvers._pruned_band(space, mu, config, chart)


class TestCenteredStart:
    """At p = 2 a flat chart's search starts from the box of a ball around
    its barycenter (``solvers._center_box``)."""

    def test_normal_cell_evaluates_at_most_four_rows(self, monkeypatch):
        # The shape of the benchmark's normal SLLN cell: 3,000 atoms, step
        # 0.01, pad 1; the whole-box search evaluates about 100 rows.
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, np.random.default_rng(2).normal(size=(3000, 1)))
        config = FrechetConfig(p=2.0)
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(line, mu, config, 0.01, 1.0)
        monkeypatch.undo()
        assert 1 <= sweep.rows <= 4
        _assert_same_band(band, grid_band_full_sweep(line, mu, config, 0.01, 1.0))

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.4])
    @pytest.mark.parametrize("shape", ["integer", "real", "degenerate"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_far_origin_weights_and_ties(self, dim, shape, eps):
        space = EuclideanSpace(dim)
        rng = np.random.default_rng(dim * 10 + len(shape))
        if shape == "integer":  # grid points tie at the barycenter's midpoints
            atoms = rng.integers(-2, 3, size=(6, dim)).astype(float)
        else:
            atoms = rng.standard_t(3, size=(6, dim)).clip(-2, 2)
            if shape == "degenerate":
                atoms = np.repeat(atoms[:1], 6, axis=0)
        w = rng.uniform(0.2, 1.0, size=6)
        mu = DiscreteMeasure.from_weights(space, list(atoms), w / float(w.sum()))
        for origin in (None, np.full(dim, 1e4)):
            config = FrechetConfig(p=2.0, epsilon=eps, origin=origin)
            _assert_same_band(grid_mean_set(space, mu, config, _STEPS[dim], 0.5),
                              grid_band_full_sweep(space, mu, config, _STEPS[dim], 0.5))

    def test_only_flat_charts_carry_a_center(self):
        line = [np.array([0.0]), np.array([1.0])]
        for space in (EuclideanSpace(1), LqSequenceSpace(truncation=1, q=3.0)):
            chart = space.grid_chart(DiscreteMeasure.uniform(space, line), 0.1)
            assert (chart.center is not None) is isinstance(space, EuclideanSpace)
        for q in (1.0, 2.0, 3.0):
            space = Wasserstein1D(q=q)
            mu = DiscreteMeasure.uniform(space, [Measure1D([0.0, 1.0]), Measure1D([0.5])])
            assert (space.grid_chart(mu, 0.1, atom_count=3).center is not None) is (q == 2.0)

    def test_heavy_tail_at_n_1e5(self, monkeypatch):
        # Pareto alpha = 1.5: a hull of about 5.9e3 and a grid of 5.9e5
        # points at step 0.01, too many to sweep with 1e5 atoms each.
        sampler = SamplerSpec(kind="iid", distribution="pareto", params=(1.5, 1.0), seed=3)
        line = EuclideanSpace(1)
        mu = DiscreteMeasure.uniform(line, sampler.draw(100_000))
        config = FrechetConfig(p=2.0)
        sweep = _CountedSweep(monkeypatch)
        band = grid_mean_set(line, mu, config, 0.01, 1.0)
        monkeypatch.undo()
        assert sweep.rows <= 4
        _assert_same_band(band, _whole_box(line, mu, config, 0.01, 1.0))
