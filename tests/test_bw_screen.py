"""The Bures-Wasserstein grid screened with the 2x2 closed form
(``BuresWassersteinSpace.closed_form``, ``solvers._bw_screen``): the
closed form against the per-pair oracle within its documented bound, the
screened band against the full sweep bit for bit, and the symmetry checks
against ``np.allclose``."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet import (
    BuresWassersteinSpace,
    DiscreteMeasure,
    FrechetConfig,
    grid_mean_set,
    grid_oracle,
)
from frechet.cli import _measure_from_json, main, space_from_json
from frechet.core import ConfigurationError
from frechet.spaces import _near_symmetric, _symmetric_stack

from oracles import bures_wasserstein_pair
from test_charts import _matrix_stacks
from test_cli import write_config
from test_median_gate import _benchmark_workloads
from test_spaces import _psd_matrix

MEAN_BW_MEMBER = {"space": {"type": "bures-wasserstein", "dim": 2}, "p": 2.0,
                  "scheme": "grid", "grid_step": 0.25, "grid_pad": 0.0}

_PAIRS = st.integers(1, 2).flatmap(lambda dim: st.tuples(
    st.lists(_psd_matrix(dim), min_size=1, max_size=4),
    st.lists(_psd_matrix(dim), min_size=1, max_size=4)))


def _same_band(got, want):
    assert got.resolution == want.resolution
    assert np.float64(got.achieved_value).tobytes() == np.float64(want.achieved_value).tobytes()
    assert np.stack(got.points).tobytes() == np.stack(want.points).tobytes()


class TestClosedFormBound:
    @given(pair=_PAIRS)
    @settings(max_examples=200, deadline=None)
    # Rank deficient: the closed form used as the kernel missed the
    # kernel test's 1e-12 tolerance here (3.0566849287923428 against
    # 3.0566849253452384).
    @example(pair=([np.array([[9.0, 4.7578125], [4.7578125, 2.51519775]])],
                   [np.diag([0.0, 1.0])]))
    def test_within_delta_of_the_oracle_and_the_kernel(self, pair):
        xs, ys = pair[0], pair[1] + [pair[0][0]]  # and a pair the kernel gives 0.0
        space = BuresWassersteinSpace(dim=xs[0].shape[0])
        dist, delta = space.closed_form(np.stack(xs), np.stack(ys))
        kernel = space.pairwise_distances(xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert abs(dist[i, j] - bures_wasserstein_pair(x, y)) <= delta[i, j]
                assert abs(dist[i, j] - kernel[i, j]) <= delta[i, j]

    @given(stack=_matrix_stacks())
    @settings(max_examples=100, deadline=None)
    def test_members_at_the_psd_boundary(self, stack):
        # Members the space accepts, up to -1e-10 max(1, |largest|).
        dim, mats = stack
        space = BuresWassersteinSpace(dim=dim)
        mats = [m for m in mats if dim <= 2 and space.contains(m)]
        if mats:
            dist, delta = space.closed_form(np.stack(mats), np.stack(mats[::-1]))
            assert np.all(np.abs(dist - space.pairwise_distances(mats, mats[::-1])) <= delta)

    def test_refuses_larger_matrices(self):
        with pytest.raises(ConfigurationError, match="dim <= 2"):
            BuresWassersteinSpace(dim=3).closed_form(np.eye(3)[None], np.eye(3)[None])


@st.composite
def _member(draw, dim):
    """A PSD matrix of rank 0 to dim, one on a coarse lattice, or one whose
    smallest eigenvalue lies at the -1e-10 boundary of ``contains_all``."""
    kind = draw(st.sampled_from(["psd", "lattice", "edge"]))
    if kind == "lattice":
        vals = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=3, max_size=3))
        a, c = vals[0], vals[1]
        b = float(np.clip(vals[2] - 0.75, -math.sqrt(a * c), math.sqrt(a * c)))
        return np.array([[a, b], [b, c]]) if dim == 2 else np.array([[a]])
    rank = draw(st.integers(0, dim))
    entries = draw(st.lists(st.floats(-1.2, 1.2), min_size=dim * rank, max_size=dim * rank))
    factor = np.asarray(entries, dtype=float).reshape(dim, rank)
    m = factor @ factor.T
    if kind == "edge":
        lam, vec = np.linalg.eigh(m)
        top = abs(lam[-1]) if dim == 2 else 0.0  # a 1x1 matrix's largest is lam[0]
        lam[0] = -1e-10 * max(1.0, top) * draw(st.sampled_from([0.5, 0.999]))
        m = (vec * lam) @ vec.T
        m = (m + m.T) / 2.0
    return m


@st.composite
def _grid_cases(draw):
    dim = draw(st.integers(1, 2))
    mats = draw(st.lists(_member(dim), min_size=1, max_size=6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(mats), max_size=len(mats)))
    w = np.asarray(raw) / sum(raw)
    w[-1] = 1.0 - float(w[:-1].sum())
    config = FrechetConfig(p=draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])),
                           epsilon=draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.3])))
    return (BuresWassersteinSpace(dim=dim), mats, w, config,
            draw(st.sampled_from([0.25, 0.3, 0.5])), draw(st.sampled_from([0.0, 0.25])))


class TestScreenedGrid:
    @given(case=_grid_cases())
    @settings(max_examples=150, deadline=None)
    def test_band_equals_the_full_sweep(self, case):
        space, mats, w, config, step, pad = case
        mu = DiscreteMeasure(space, mats, w)
        grid = space.candidates(mu, "grid", step=step, pad=pad)
        # The grid keeps what the space accepts: the corner of largest
        # diagonals and smallest b raises a member's diagonal.
        assert space.contains_all(grid) and len(grid)
        want = grid_oracle(space, mu, config, grid, resolution=step)
        _same_band(grid_mean_set(space, mu, config, step, pad), want)

    @pytest.mark.parametrize("low", [-0.5e-10, -0.999e-10])
    def test_member_below_zero_gives_a_band(self, tmp_path, low):
        # Eigenvalues (low, 1) on the diagonals' bisector: b is above
        # sqrt(ac) by about -low, and with pad 0 the grid is the member.
        vec = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        member = (vec * [low, 1.0]) @ vec.T
        space = BuresWassersteinSpace(dim=2)
        assert space.contains(member)
        assert abs(member[0, 1]) > math.sqrt(member[0, 0] * member[1, 1])
        mu = DiscreteMeasure.uniform(space, [member])
        grid = space.candidates(mu, "grid", step=0.25, pad=0.0)
        assert grid.tobytes() == member[None].tobytes()
        # The closed form's eta terms cover the candidate below zero.
        dist, delta = space.closed_form(grid, grid)
        assert abs(dist[0, 0] - space.pairwise_distances(grid, grid)[0, 0]) <= delta[0, 0]
        config = FrechetConfig(p=2.0, epsilon=0.05)
        _same_band(grid_mean_set(space, mu, config, 0.25, 0.0),
                   grid_oracle(space, mu, config, grid, resolution=0.25))
        payload = {**MEAN_BW_MEMBER, "measure": {"support": [member.reshape(-1).tolist()]}}
        assert main(["mean", "--config", write_config(tmp_path, "bw_config.json", payload),
                     "--out", str(tmp_path / "bw")]) == 0
        got = json.loads((tmp_path / "bw.json").read_text())["result"]
        assert got["mean_set"] == [member.reshape(-1).tolist()]

    @staticmethod
    def _benchmark_call(seed):
        calls = _benchmark_workloads().generate("mean-grid", seed)
        return next(c for _, c in calls if c["space"]["type"] == "bures-wasserstein")

    @pytest.mark.parametrize("seed", range(32))
    def test_benchmark_calls_equal_the_full_sweep(self, tmp_path, seed):
        config = self._benchmark_call(seed)
        assert main(["mean", "--config", write_config(tmp_path, "bw_config.json", config),
                     "--out", str(tmp_path / "bw")]) == 0
        got = json.loads((tmp_path / "bw.json").read_text())["result"]
        space = space_from_json(config["space"])
        mu = _measure_from_json(space, config["measure"])
        grid = space.candidates(mu, "grid", step=config["grid_step"], pad=config["grid_pad"])
        want = grid_oracle(space, mu, FrechetConfig(p=config["p"]), grid,
                           resolution=config["grid_step"])
        assert got["achieved_value"] == want.achieved_value
        assert got["mean_set"] == [space.point_to_json(x) for x in want.points]

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_few_candidates_reach_the_kernel(self, monkeypatch, seed):
        # An oversized margin would send most of the 631 candidates on.
        config = self._benchmark_call(seed)
        space = space_from_json(config["space"])
        mu = _measure_from_json(space, config["measure"])
        grid = space.candidates(mu, "grid", step=config["grid_step"], pad=config["grid_pad"])
        assert len(grid) == 631
        mu.is_degenerate()  # the origin row, computed once per measure
        rows = []
        kernel = BuresWassersteinSpace.pairwise_distances

        def counted(self, xs, ys):
            rows.append(len(xs))
            return kernel(self, xs, ys)

        monkeypatch.setattr(BuresWassersteinSpace, "pairwise_distances", counted)
        grid_mean_set(space, mu, FrechetConfig(p=config["p"]), config["grid_step"],
                      config["grid_pad"])
        assert 1 <= sum(rows) <= 8


# Equal infinities count as close in np.allclose; a NaN never does.
_SYMMETRY_CASES = [np.array([[[1.0, math.inf], [math.inf, 2.0]]]),
                   np.array([[[1.0, math.inf], [-math.inf, 2.0]]]),
                   np.array([[[-math.inf, 0.0], [0.0, 1.0]]]),
                   np.array([[[1.0, math.nan], [math.nan, 1.0]]]),
                   np.array([[[math.nan, 0.0], [0.0, 1.0]]]), np.zeros((0, 2, 2))]


class TestSymmetryChecks:
    @staticmethod
    def _check(arr):
        flip = np.swapaxes(arr, -1, -2)
        want = np.allclose(arr, flip, atol=1e-10)
        assert _near_symmetric(arr, flip) is want
        space = BuresWassersteinSpace(dim=arr.shape[-1])
        if want:
            assert _symmetric_stack(space, arr) is arr
        else:
            with pytest.raises(ValueError, match="symmetric"):
                _symmetric_stack(space, arr)
        # contains_all as it read with np.allclose alone.
        finite = bool(np.all(np.isfinite(arr)))
        lam = np.linalg.eigvalsh((arr + flip) / 2.0) if finite else None
        assert space.contains_all(arr) is (finite and want and bool(
            np.all(lam[:, 0] >= -1e-10 * np.maximum(1.0, np.abs(lam[:, -1])))))

    @given(stack=_matrix_stacks())
    @settings(max_examples=300, deadline=None)
    def test_decisions_equal_allclose(self, stack):
        self._check(np.stack(stack[1]))

    @pytest.mark.parametrize("arr", _SYMMETRY_CASES, ids=range(len(_SYMMETRY_CASES)))
    def test_infinities_and_nans(self, arr):
        self._check(arr)
