"""Vector points as one stacked array: measures, grids, kernels and the
band sweep, against the per-point code they replaced (``tests/oracles.py``),
and the ownership contract of every space's distance kernel."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    BuresWassersteinSpace,
    ConfigurationError,
    DiscreteMeasure,
    EuclideanSpace,
    FrechetConfig,
    LqSequenceSpace,
    Measure1D,
    QuantileTable,
    Wasserstein1D,
    grid_oracle,
    relaxed_mean_set,
)
from frechet import spaces
from frechet.core import _band_values, as_sequence

from conftest import pt
from oracles import (band_values_out_of_place, box_grid, box_grid_list, measure1d_reference,
                     vector_kernel_from_zeros)
from test_spaces import _dedup_spaces

VECTOR_SPACES = [EuclideanSpace(1), EuclideanSpace(2), EuclideanSpace(3), EuclideanSpace(10),
                 LqSequenceSpace(truncation=3, q=1.5), LqSequenceSpace(truncation=2, q=3.0)]


def _length(space):
    return space.dim if isinstance(space, EuclideanSpace) else space.truncation


class _CountingNumpy:
    """Stands in for ``numpy`` in one module and counts the ``asarray``
    calls that build a new array."""

    def __init__(self):
        self.copies = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def asarray(self, a, *args, **kwargs):
        out = np.asarray(a, *args, **kwargs)
        self.copies += out is not a
        return out


class TestStackedMeasure:
    @pytest.mark.parametrize("space", VECTOR_SPACES[2:], ids=repr)
    def test_one_conversion_per_measure(self, space, monkeypatch):
        rng = np.random.default_rng(3)
        rows = list(rng.normal(size=(500, _length(space))))
        counting = _CountingNumpy()
        monkeypatch.setattr(spaces, "np", counting)
        mu = DiscreteMeasure.uniform(space, rows)
        assert counting.copies == 1
        assert mu.stacked.shape == (500, _length(space)) and mu.stacked.dtype == float
        assert np.array_equal(mu.stacked, np.asarray(rows))
        space.pairwise_distances(mu.stacked[:7], mu.stacked)
        assert counting.copies == 1

    @pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
    def test_array_support_is_kept_without_a_copy(self, space, monkeypatch):
        stream = np.random.default_rng(5).normal(size=(500, _length(space)))
        counting = _CountingNumpy()
        monkeypatch.setattr(spaces, "np", counting)
        mu = DiscreteMeasure.uniform(space, stream[:300])
        assert counting.copies == 0
        assert mu.stacked.base is stream and mu.stacked.shape == (300, _length(space))
        assert len(mu.support) == 300 and np.array_equal(mu.support[-1], stream[299])
        assert mu.support.base is stream and not mu.support.flags.writeable

    @pytest.mark.parametrize("space", [s for s in _dedup_spaces()[2:]
                                       if not isinstance(s, (Wasserstein1D,
                                                             BuresWassersteinSpace))],
                             ids=lambda s: type(s).__name__)
    def test_other_spaces_keep_their_support(self, space):
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure.uniform(space, [space.sample_point(rng) for _ in range(3)])
        assert mu.stacked is mu.support

    def test_bures_wasserstein_stacks_one_array(self):
        space = BuresWassersteinSpace(dim=2)
        rng = np.random.default_rng(4)
        mu = DiscreteMeasure.uniform(space, [space.sample_point(rng) for _ in range(5)])
        assert mu.stacked.shape == (5, 2, 2) and mu.stacked.dtype == float
        assert space.stack(mu.stacked) is mu.stacked
        assert np.array_equal(mu.stacked, np.asarray(mu.support))
        ragged = [np.eye(2), np.eye(3)]
        assert space.stack(ragged) is ragged

    def test_wasserstein1d_stacks_one_quantile_table(self):
        space = Wasserstein1D(q=2.0)
        rng = np.random.default_rng(4)
        raw = [(rng.normal(size=k), rng.dirichlet(np.ones(k))) for k in (1, 3, 2, 3, 1)]
        raw.append(([1.0, 0.0, 1.0 + 5e-13], None))  # a merge
        mu = DiscreteMeasure.uniform(space, [Measure1D(a, w) for a, w in raw])
        assert isinstance(mu.stacked, QuantileTable) and len(mu.stacked) == 6
        assert space.stack(mu.stacked) is mu.stacked
        for i, (a, w) in enumerate(raw):
            row = mu.stacked[i]
            for name, x, y in zip(("atoms", "weights", "_cum"),
                                  (row.atoms, row.weights, row._cum), measure1d_reference(a, w)):
                assert x.tobytes() == y.tobytes(), name

    # Exception types the per-point membership loop gives; None: accepted.
    BAD_SUPPORTS = [
        ("ragged", [[0.0, 1.0], [0.0]], ConfigurationError),
        ("ragged-arrays", [np.zeros(2), np.zeros(3)], ConfigurationError),
        ("nan", [[0.0, np.nan], [1.0, 1.0]], ConfigurationError),
        ("inf", [[0.0, 1.0], [np.inf, 1.0]], ConfigurationError),
        ("wrong-dim", [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], ConfigurationError),
        ("scalars", [0.0, 1.0], ConfigurationError),
        ("matrix", [np.zeros((2, 2))], ConfigurationError),
        ("none", [None, None], ConfigurationError),
        ("strings", [["a", "b"]], ConfigurationError),
        ("complex", [[1j, 0.0]], ConfigurationError),
        ("object", [object()], ConfigurationError),
        ("huge-int", [[10 ** 400, 0.0]], ConfigurationError),
        ("ints", [[0, 1], [2, 3]], None),
    ]

    @pytest.mark.parametrize("space", [EuclideanSpace(2), LqSequenceSpace(2, 1.5)], ids=repr)
    @pytest.mark.parametrize("name,points,expected", BAD_SUPPORTS,
                             ids=[case[0] for case in BAD_SUPPORTS])
    def test_bad_supports_raise_as_the_per_point_loop(self, space, name, points, expected):
        try:
            loop = None if all(space.contains(x) for x in points) else ConfigurationError
        except Exception as exc:  # the reference's own error is the expectation
            loop = type(exc)
        assert loop is expected
        if expected is None:
            assert DiscreteMeasure.uniform(space, points).stacked.dtype == float
        else:
            with pytest.raises(expected):
                DiscreteMeasure.uniform(space, points)


class TestVectorGrids:
    @pytest.mark.parametrize("space", VECTOR_SPACES[:3] + VECTOR_SPACES[4:], ids=repr)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_the_product_list(self, space, seed):
        rng = np.random.default_rng(seed)
        dim = _length(space)
        mu = DiscreteMeasure.uniform(space, list(rng.normal(size=(4, dim))))
        step = {1: 0.05, 2: 0.1}.get(dim, 0.3)
        pad = float(rng.uniform(0.0, 0.5))
        grid = space.candidates(mu, "grid", step=step, pad=pad)
        expected = box_grid_list(mu.stacked.min(axis=0) - pad, mu.stacked.max(axis=0) + pad, step)
        assert isinstance(grid, np.ndarray) and grid.shape == (len(expected), dim)
        assert grid.tobytes() == np.asarray(expected).tobytes()
        lows = mu.stacked.min(axis=0) - pad
        sizes = space.grid_chart(mu, step, pad).sizes
        assert grid.tobytes() == box_grid(lows, sizes, step).tobytes()

    def test_grid_memory_is_one_array(self):
        # About 160k candidates in the plane. A list of one array per point
        # needs roughly 8x the bound.
        space = EuclideanSpace(2)
        mu = DiscreteMeasure.uniform(space, [pt(-1.0, -1.0), pt(1.0, 1.0), pt(-1.0, 1.0)])
        tracemalloc.start()
        try:
            grid = space.candidates(mu, "grid", step=0.01, pad=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 401 * 401
        assert peak <= 3 * len(grid) * 2 * 8
        assert grid.shape == (len(grid), 2)


@st.composite
def _vector_batches(draw):
    space = draw(st.sampled_from(VECTOR_SPACES))
    coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    vec = st.lists(coord, min_size=_length(space), max_size=_length(space))
    xs = draw(st.lists(vec, min_size=1, max_size=6))
    ys = draw(st.lists(vec, min_size=1, max_size=6))
    return space, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


# Signed zeros, subnormals, the smallest normal and values whose squares
# approach the largest float, next to ordinary coordinates.
_EDGE_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                     1e154, -1e154, 1.3e154]),
    st.floats(-1.3e154, 1.3e154, allow_subnormal=True),
    st.floats(-1e3, 1e3))


@st.composite
def _edge_batches(draw):
    dim = draw(st.sampled_from([1, 2, 3, 10]))
    space = draw(st.sampled_from([EuclideanSpace(dim), LqSequenceSpace(dim, 1.5),
                                  LqSequenceSpace(dim, 2.0), LqSequenceSpace(dim, 3.0)]))
    vec = st.lists(_EDGE_COORDS, min_size=dim, max_size=dim)
    xs = draw(st.lists(vec, min_size=1, max_size=5))
    ys = draw(st.lists(vec, min_size=1, max_size=5))
    return space, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


class TestKernelsOnStacks:
    @given(batch=_vector_batches())
    @settings(max_examples=80, deadline=None)
    def test_same_bits_on_rows_and_on_the_stack(self, batch):
        space, xs, ys = batch
        expected = vector_kernel_from_zeros(space, list(xs), list(ys)).tobytes()
        for a in (xs, list(xs), tuple(xs), xs.tolist()):
            for b in (ys, list(ys)):
                assert space.pairwise_distances(a, b).tobytes() == expected

    @given(batch=_edge_batches())
    @settings(max_examples=200, deadline=None)
    def test_first_term_start_equals_the_sum_from_zeros(self, batch):
        # Every term is +0.0 or more, so 0.0 + t == t: starting from the
        # first coordinate's term gives the old sums bit for bit, signed
        # zeros, subnormals and overflow to inf included.
        space, xs, ys = batch
        with np.errstate(over="ignore"):
            want = vector_kernel_from_zeros(space, list(xs), list(ys))
            got = space.pairwise_distances(xs, ys)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _band_cases(draw):
    dim = draw(st.integers(1, 3))
    space = draw(st.sampled_from([EuclideanSpace(dim), LqSequenceSpace(dim, 1.5)]))
    k = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    atoms = list(rng.integers(-3, 4, size=(k, dim)) / 2.0)  # ties are common
    mu = DiscreteMeasure.uniform(space, atoms)
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    eps = draw(st.sampled_from([0.0, 0.0, 0.05]))
    step = {1: 0.05, 2: 0.25, 3: 0.5}[dim]
    return space, mu, FrechetConfig(p=p, epsilon=eps), step


class TestBandOnArrays:
    @given(case=_band_cases())
    @settings(max_examples=60, deadline=None)
    def test_array_and_list_give_the_same_band(self, case):
        space, mu, config, step = case
        grid = space.candidates(mu, "grid", step=step, pad=0.5)
        rows = [row.copy() for row in grid]
        on_array = relaxed_mean_set(space, mu, config, grid, resolution=step)
        on_list = relaxed_mean_set(space, mu, config, rows, resolution=step)
        on_iter = grid_oracle(space, mu, config, iter(rows), resolution=step)
        for band in (on_list, on_iter):
            assert band.achieved_value == on_array.achieved_value
            assert len(band.points) == len(on_array.points)
            assert all(np.array_equal(a, b) for a, b in zip(band.points, on_array.points))
        if not (config.epsilon == 0.0 and mu.is_degenerate()):
            # The band keeps the candidates themselves, picked by index.
            assert all(any(x is r for r in rows) for x in on_list.points)

    @given(case=_band_cases())
    @settings(max_examples=40, deadline=None)
    def test_in_place_sweep_keeps_the_bits(self, case):
        space, mu, config, step = case
        grid = space.candidates(mu, "grid", step=step, pad=0.5)
        expected = band_values_out_of_place(space, mu, config.p, grid, mu.support[0])
        assert _band_values(space, mu, config, grid).tobytes() == expected.tobytes()

    def test_as_sequence_copies_only_iterators(self):
        arr, rows, pts = np.zeros((3, 2)), [pt(0.0)], (pt(1.0),)
        assert as_sequence(arr) is arr and as_sequence(rows) is rows
        assert as_sequence(pts) is pts
        assert as_sequence(iter(rows)) == rows


def _arrays(obj):
    """Every numpy array reachable from a point or a collection of points."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Measure1D):
        yield from (obj.atoms, obj.weights, obj.cdf_breakpoints())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


class TestKernelOwnership:
    """``pairwise_distances`` returns a fresh, writable float array that
    the caller may overwrite (the band sweep reduces it in place)."""

    @pytest.mark.parametrize("space", _dedup_spaces(), ids=lambda s: type(s).__name__)
    def test_result_is_fresh_and_writable(self, space):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure.uniform(space, [space.sample_point(rng) for _ in range(4)])
        points = [space.sample_point(rng) for _ in range(3)]
        for xs in (points, space.stack(points), mu.stacked[:1]):
            first = space.pairwise_distances(xs, mu.stacked)
            second = space.pairwise_distances(xs, mu.stacked)
            assert isinstance(first, np.ndarray) and first.dtype == np.float64
            assert first.shape == (len(xs), len(mu.support))
            assert first.flags.writeable
            assert not np.shares_memory(first, second)
            for arr in _arrays([xs, mu.stacked, mu.support]):
                assert not np.shares_memory(first, arr)
            first[...] = -1.0
            assert np.array_equal(space.pairwise_distances(xs, mu.stacked), second)
