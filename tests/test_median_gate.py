"""The median iteration's rank-count gate (``solvers._pull_outweighs_window``)
and its line kernel (|d| in place of sqrt(d * d)) against the full
certificate scan with ``np.linalg.norm`` distances
(``oracles.weiszfeld_median_full_scan``): the same iterates, callbacks and
result bit for bit, on shapes that take the kernel's sqrt(d * d) fallbacks
and on the benchmark's own Cauchy cells, with at most two full scans per call on
heavy-tailed samples. Also the per-call tables of the Monte-Carlo LDP
replications and of the chain draw against the code they replaced."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    EuclideanSpace,
    SamplerSpec,
    SolverConfig,
    weiszfeld_median,
)
from frechet import solvers
from frechet.cli import sampler_from_config
from frechet.stochastics import _derived_seed, _drawn_atoms, _finite_indices

from oracles import (
    chain_indices_bisect,
    ldp_replication_counts_unique,
    weiszfeld_median_full_scan,
)


def _run(solve, space, mu, config):
    """(outcome, bytes of the result or the failure, bytes of every iterate)."""
    iterates = []
    try:
        x = solve(space, mu, config, callback=lambda v: iterates.append(v.tobytes()))
        return "ok", x.tobytes(), iterates
    except ConvergenceFailure as exc:
        return "failed", (str(exc), np.asarray(exc.last_point).tobytes()), iterates
    except ConfigurationError as exc:
        return "rejected", str(exc), iterates


class _CountedScans:
    """Counts the full O(n) certificate scans of the median iteration."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = solvers._atom_certificate

        def counted(*args):
            self.calls += 1
            return original(*args)

        monkeypatch.setattr(solvers, "_atom_certificate", counted)


class TestSameIteratesAsFullScan:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_instances(self, data):
        shape = data.draw(st.sampled_from(
            ["even-uniform", "integer-ties", "near-ties", "offset", "huge-span", "cauchy",
             "plane", "tiny-gap", "on-atom", "near-overflow"]),
            label="shape")
        n = data.draw(st.integers(2, 300), label="n")
        if shape == "even-uniform":
            n += n % 2
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        dim = 2 if shape == "plane" else 1
        if shape == "even-uniform":  # the certificate is tight at the middle pair
            atoms = rng.uniform(-1.0, 1.0, size=(n, 1))
        elif shape == "integer-ties":
            atoms = rng.integers(-3, 4, size=(n, 1)).astype(float)
        elif shape == "near-ties":  # distinct atoms within one or two tie distances
            atoms = rng.integers(-2, 3, size=(n, 1)) + 1e-12 * rng.integers(-12, 13, size=(n, 1))
        elif shape == "offset":  # the tie window is below one ulp of the atoms
            atoms = 1e10 + 1e-3 * rng.uniform(size=(n, 1))
        elif shape == "huge-span":  # a span above 1e150: no gate; at 1e200 the scale overflows
            far = data.draw(st.sampled_from([1e152, 1e200]), label="far")
            atoms = rng.standard_cauchy(size=(n, 1))
            atoms[0, 0], atoms[-1, 0] = -far, far
        elif shape == "near-overflow":  # no gate and no |d|, yet squares stay finite
            far = data.draw(st.sampled_from([1e150, 1e153, 6e153]), label="far")
            atoms = rng.standard_cauchy(size=(n, 1))
            atoms[0, 0], atoms[-1, 0] = -far, far
        elif shape in ("tiny-gap", "on-atom"):
            # Integers summing to 0 over 2**k atoms: the uniform start is the
            # atom 0 exactly, or within 2**-511 of it and of the tiny atoms.
            tiny = [0.0, 1e-170, 1e-160, 2e-160] if shape == "tiny-gap" else [0.0]
            ints = rng.integers(-3, 4, size=max(8, 1 << (n - 1).bit_length()) - len(tiny))
            ints[-1] -= ints.sum()
            atoms = rng.permutation(np.concatenate([ints, tiny])).reshape(-1, 1)
        elif shape == "cauchy":
            atoms = np.round(rng.standard_cauchy(size=(n, 1)), data.draw(
                st.sampled_from([0, 1, 8]), label="decimals"))
        else:
            atoms = rng.integers(-2, 3, size=(n, dim)).astype(float)
        space = EuclideanSpace(dim=dim)
        if shape != "even-uniform" and data.draw(st.booleans(), label="weighted"):
            weights = rng.integers(1, 5, size=len(atoms)).astype(float)
            mu = DiscreteMeasure.from_weights(space, list(atoms), weights / weights.sum())
        else:
            mu = DiscreteMeasure.uniform(space, list(atoms))
        config = SolverConfig(max_iterations=data.draw(st.sampled_from([3, 500]),
                                                       label="max_iterations"))
        with np.errstate(over="ignore"):
            assert _run(weiszfeld_median, space, mu, config) == \
                _run(weiszfeld_median_full_scan, space, mu, config)

    @pytest.mark.parametrize("n", [2, 4, 10, 100, 1000])
    def test_even_uniform_returns_what_the_scan_returns(self, line, n):
        atoms = np.arange(n, dtype=float).reshape(-1, 1)
        mu = DiscreteMeasure.uniform(line, list(atoms))
        assert _run(weiszfeld_median, line, mu, None) == \
            _run(weiszfeld_median_full_scan, line, mu, None)

    @pytest.mark.parametrize("atoms", [
        # tiny-gap: from the start 0 the atoms 1e-170 and 0 both have
        # sqrt(d * d) = 0, so the scan stops at the first, 1e-170; |d|
        # alone would pick 0.
        [1e-170, 0.0, 1e-160, 2e-160, -12.0, 1.0, 2.0, 9.0],
        # on-atom: the start is the atom 0 exactly, a non-optimal one.
        [-12.0, 0.0, 1.0, 2.0, 3.0, 3.0, 1.0, 2.0],
    ], ids=["tiny-gap", "on-atom"])
    def test_starts_within_2_pow_minus_511_of_an_atom(self, line, atoms):
        column = np.array(atoms)
        mu = DiscreteMeasure.uniform(line, list(column.reshape(-1, 1)))
        starts = []
        weiszfeld_median_full_scan(line, mu, callback=starts.append)
        assert np.min(np.abs(column - starts[0][0])) < 2.0 ** -511
        assert _run(weiszfeld_median, line, mu, None) == \
            _run(weiszfeld_median_full_scan, line, mu, None)

    @pytest.mark.parametrize("far", [1e149, 1e151])
    def test_gate_steps_aside_beyond_a_span_of_1e150(self, line, monkeypatch, far):
        gates = []
        original = solvers._pull_outweighs_window
        monkeypatch.setattr(solvers, "_pull_outweighs_window",
                            lambda *args: gates.append(args) or original(*args))
        atoms = np.array([[-far], [0.0], [1.0], [2.0], [far]])
        mu = DiscreteMeasure.uniform(line, list(atoms))
        assert _run(weiszfeld_median, line, mu, None) == \
            _run(weiszfeld_median_full_scan, line, mu, None)
        assert bool(gates) == (far < 1e150)


class TestLineDistance:
    """sqrt(fl(d * d)) = |d|, the identity the line kernel's fast path uses,
    and its failures just outside [2**-511, 2**511), which the guards avoid."""

    @given(magnitude=st.floats(2.0 ** -511, 2.0 ** 511, exclude_max=True),
           negative=st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_square_root_of_square_is_abs_inside_the_range(self, magnitude, negative):
        d = np.float64(-magnitude if negative else magnitude)
        assert np.sqrt(d * d) == np.abs(d)

    @pytest.mark.parametrize("d", [1e-160, -1e-160, 1.5e154, -1.5e154],
                             ids=["underflow", "underflow-negative", "overflow",
                                  "overflow-negative"])
    def test_square_root_of_square_is_not_abs_outside(self, d):
        with np.errstate(over="ignore", under="ignore"):
            assert np.sqrt(np.float64(d) * np.float64(d)) != abs(d)


def _benchmark_workloads():
    """``bench/workloads.py`` as a module, read only: no bytecode is written."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


class TestBenchmarkCells:
    @pytest.mark.parametrize("seed", range(8))
    def test_cauchy_cells_match_the_full_scan(self, line, seed):
        """Each cell of the ``experiments`` Cauchy strong-law call, drawn as
        ``slln_experiment`` draws it: 12 prefix measures per seed."""
        calls = _benchmark_workloads().generate("experiments", seed)
        config = next(c for command, c in calls
                      if command == "slln" and c["solver"] == "weiszfeld")
        sampler = sampler_from_config(config["sampler"], config["seed"])
        for rep in range(config["replications"]):
            stream = sampler.with_seed(_derived_seed(sampler.seed, rep)).draw(
                max(config["n_grid"]))
            for n in config["n_grid"]:
                mu = DiscreteMeasure.uniform(line, stream[:n])
                assert _run(weiszfeld_median, line, mu, None) == \
                    _run(weiszfeld_median_full_scan, line, mu, None), (rep, n)


class TestWork:
    @pytest.mark.parametrize("n", [1000, 10000])
    def test_at_most_two_scans_on_cauchy_samples(self, line, monkeypatch, n):
        scans = _CountedScans(monkeypatch)
        rng = np.random.default_rng(n)
        for _ in range(3):
            mu = DiscreteMeasure.uniform(line, rng.standard_cauchy(size=(n, 1)))
            before = scans.calls
            weiszfeld_median(line, mu)
            assert scans.calls - before <= 2

    def test_plane_keeps_the_full_scan(self, plane, monkeypatch):
        scans = _CountedScans(monkeypatch)
        pts = [np.array([0.0, 0.0])] * 3 + [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert np.array_equal(weiszfeld_median(plane, DiscreteMeasure.uniform(plane, pts)),
                              [0.0, 0.0])
        assert scans.calls >= 1


class TestSortedLine:
    @given(values=st.lists(st.integers(-5, 5), min_size=1, max_size=30),
           lo=st.integers(-6, 6), width=st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_split_counts_each_side(self, values, lo, width):
        column = np.array(values, dtype=float) / 2.0
        weights = np.arange(1.0, len(values) + 1.0)
        line = solvers.SortedLine.of(column, weights)
        lo, hi = lo / 2.0, (lo + width) / 2.0
        want = (weights[column < lo].sum(), weights[(column >= lo) & (column <= hi)].sum(),
                weights[column > hi].sum())
        assert line.split(lo, hi) == want  # integer weights: every sum is exact
        assert np.all(np.diff(line.values) >= 0) and line.cum[0] == 0.0


class TestReplicationTables:
    @given(k=st.integers(1, 12), n=st.integers(1, 400), rows=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_first_drawn_matches_unique(self, k, n, rows, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(k, 0.3))
        u = rng.uniform(size=(rows, n))
        order, counts = _drawn_atoms(_finite_indices(np.cumsum(probs), u), k)
        for r in range(rows):
            want_order, want_counts = ldp_replication_counts_unique(probs, u[r], k)
            drawn = len(want_order)
            assert order[r, :drawn].tolist() == want_order.tolist()
            assert counts[r, :drawn].tolist() == want_counts.tolist()
            assert sorted(order[r].tolist()) == list(range(k))
            assert not counts[r, drawn:].any()

    @pytest.mark.parametrize("m,n", [(1, 50), (2, 1), (3, 10000), (5, 0), (64, 40000)])
    def test_chain_matches_bisect(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        kernel = rng.uniform(size=(m, m)) * (rng.uniform(size=(m, m)) > 0.4)
        kernel[:, 0] += 1e-3
        kernel = kernel / kernel.sum(axis=1, keepdims=True)
        sampler = SamplerSpec(kind="markov-chain", kernel=tuple(map(tuple, kernel)),
                              states=tuple(float(s) for s in range(m)),
                              initial_state=m - 1, seed=m + n)
        got = sampler.draw(n).reshape(-1).astype(np.intp)
        want = chain_indices_bisect(kernel, m - 1, np.random.default_rng(m + n).uniform(size=n))
        assert got.tolist() == want.tolist()
