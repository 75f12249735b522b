"""The shared prefix-experiment engine and the shared equality scan against
the per-driver and pair-at-a-time loops they replaced (``oracles.py``)."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet import (
    ConvergenceFailure,
    DiscreteMeasure,
    EuclideanSpace,
    ExperimentConfig,
    ProductSpace,
    QuotientSpace,
    SamplerSpec,
    SolverConfig,
    Wasserstein1D,
    ergodic_experiment,
)
from frechet import spaces
from frechet.cli import EXIT_SOLVER, SCHEMA_VERSION, main
from frechet.constructions import sign_flip_group
from frechet.stochastics import _aggregate, _equals_any

from oracles import _aggregate as aggregate_scalar
from oracles import ergodic_prefix_loop, event_flags_scalar

_SPACES = [
    EuclideanSpace(1),
    EuclideanSpace(2),
    Wasserstein1D(q=2.0),
    ProductSpace(EuclideanSpace(1), EuclideanSpace(1)),
    QuotientSpace(EuclideanSpace(1), sign_flip_group(dim=1)),
]
_IDS = ["euclid1", "euclid2", "w1d", "product", "quotient"]


def _pool(space, seed):
    """Five points, with images under the group for a quotient so that
    distinct objects can be equal points."""
    rng = np.random.default_rng(seed)
    pool = [space.sample_point(rng) for _ in range(5)]
    if isinstance(space, QuotientSpace):
        pool[3:] = [space.group.act(g, pool[0]) for g in space.group.elements]
    return pool


def _measure(space, pool, picks, counts):
    """The picked pool points with weights proportional to counts; some
    weights may be zero, never all of them."""
    counts = list(counts[:len(picks)]) + [1] * (len(picks) - len(counts))
    counts[0] += 1
    w = np.asarray(counts, dtype=float)
    return DiscreteMeasure.from_weights(space, [pool[i] for i in picks], w / w.sum())


_picks = st.lists(st.integers(0, 4), min_size=1, max_size=10)
_counts = st.lists(st.integers(0, 3), min_size=1, max_size=10)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestEqualityScan:
    @pytest.mark.parametrize("space", _SPACES, ids=_IDS)
    @given(seed=st.integers(0, 2 ** 32 - 1), picks=_picks, counts=_counts)
    @settings(max_examples=30, deadline=None)
    def test_aggregate_is_bit_identical(self, space, seed, picks, counts):
        mu = _measure(space, _pool(space, seed), picks, counts)
        pts, ws = _aggregate(mu)
        ref_pts, ref_ws = aggregate_scalar(space, mu.support, mu.weights)
        assert len(pts) == len(ref_pts)
        assert all(a is b for a, b in zip(pts, ref_pts))
        assert _bits(ws) == _bits(ref_ws)

    @pytest.mark.parametrize("space", _SPACES, ids=_IDS)
    @given(seed=st.integers(0, 2 ** 32 - 1), atoms=_picks,
           events=st.lists(st.integers(0, 5), max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_event_flags_match_pairwise_loop(self, space, seed, atoms, events):
        # Index 5 is a point outside the pool.
        pool = _pool(space, seed) + [space.sample_point(np.random.default_rng(seed + 1))]
        atom_pts = [pool[i] for i in atoms]
        event_pts = [pool[i] for i in events]
        flags = _equals_any(space, atom_pts, event_pts)
        assert flags.tolist() == event_flags_scalar(space, atom_pts, event_pts)

    def test_first_equal_points_at_first_kept(self):
        line = EuclideanSpace(1)
        pts = [np.array([v]) for v in (2.0, 1.0, 2.0, 3.0, 1.0, 2.0)]
        assert line.first_equal(pts) == [0, 1, 0, 3, 1, 0]
        assert line.first_equal([]) == []

    def test_first_equal_converts_the_kept_points_once(self, monkeypatch):
        # 300 distinct points: one conversion of the whole list, then one of
        # each row's own point; the kept points are rows of that stack.
        copies = [0]
        original = np.asarray

        def counted(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            copies[0] += out is not a
            return out

        monkeypatch.setattr(spaces.np, "asarray", counted)
        pts = [np.array([float(v)]) for v in range(300)]
        assert EuclideanSpace(1).first_equal(pts) == list(range(300))
        assert copies[0] <= 300


def _chain(seed, states):
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(0.1, 1.0, size=(states, states))
    kernel /= kernel.sum(axis=1, keepdims=True)
    return SamplerSpec(kind="markov-chain", seed=seed,
                       states=tuple(float(v) for v in rng.normal(scale=2.0, size=states)),
                       kernel=tuple(tuple(row) for row in kernel))


class TestPrefixEngine:
    @pytest.mark.parametrize("solver,p,explicit", [
        ("subgradient", 2.0, False), ("subgradient", 1.5, True),
        ("grid", 2.0, False), ("grid", 2.0, True), ("weiszfeld", 1.0, True)])
    @given(seed=st.integers(0, 2 ** 32 - 1), states=st.integers(2, 3),
           threshold=st.sampled_from([None, 0.5]))
    # Seed 325 at p = 1.5: the descent used to overshoot its whole budget.
    @example(seed=325, states=2, threshold=None)
    @settings(max_examples=8, deadline=None)
    def test_ergodic_equals_prefix_loop(self, solver, p, explicit, seed, states, threshold):
        line = EuclideanSpace(1)
        markov = _chain(seed, states)
        target = (np.array([markov.states[0]]),) if explicit else ()
        config = ExperimentConfig(solver=solver, grid_step=0.05, grid_pad=0.5,
                                  target_points=target, threshold=threshold)
        n_grid = [5, 40, 200]
        report = ergodic_experiment(line, markov, p, n_grid, config)
        dvec, moments, verdicts = ergodic_prefix_loop(line, markov, p, n_grid, config)
        assert _bits(report.dvec) == _bits(dvec)
        assert _bits(report.moments) == _bits(moments)
        assert report.verdicts == verdicts
        assert report.sample_sizes == n_grid and len(report.runtimes) == len(n_grid)

    def test_ergodic_failure_is_the_solver_exception(self):
        line = EuclideanSpace(1)
        markov = SamplerSpec(kind="markov-chain", states=(0.0, 3.0),
                             kernel=((0.5, 0.5), (0.5, 0.5)), seed=7)
        config = ExperimentConfig(solver="subgradient", target_points=(np.array([1.5]),),
                                  solver_config=SolverConfig(max_iterations=1))
        with pytest.raises(ConvergenceFailure) as got:
            ergodic_experiment(line, markov, 3.0, [50, 80], config)
        with pytest.raises(ConvergenceFailure) as ref:
            ergodic_prefix_loop(line, markov, 3.0, [50, 80], config)
        assert str(got.value) == str(ref.value) == "gradient descent did not converge"
        assert got.value.iterations == ref.value.iterations == 1

    def test_cli_failure_writes_the_partial_result(self, tmp_path, capsys):
        cfg = tmp_path / "e.json"
        cfg.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "space": {"type": "euclidean", "dim": 1},
            "sampler": {"kind": "markov-chain", "states": [0.0, 3.0],
                        "kernel": [[0.5, 0.5], [0.5, 0.5]], "seed": 7},
            "p": 3.0, "n_grid": [50], "solver": "subgradient",
            "target_points": [[1.5]], "max_iterations": 1}))
        out = tmp_path / "out"
        assert main(["ergodic", "--config", str(cfg), "--out", str(out)]) == EXIT_SOLVER
        expected = {"error": "solver", "message": "gradient descent did not converge",
                    "iterations": 1}
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == expected
        assert json.loads(out.with_suffix(".json").read_text())["result"] == expected
