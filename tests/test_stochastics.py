import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    EuclideanSpace,
    ExperimentConfig,
    FrechetConfig,
    SamplerSpec,
    SpiderSpace,
    ergodic_experiment,
    ldp_experiment,
    ldp_rate_function,
    sample_empirical,
    slln_experiment,
)
from frechet import core, stochastics
from frechet.solvers import grid_mean_set
from frechet.stochastics import (_derived_seed, _is_irreducible, _replication_uniforms,
                                 _solve_points)

from conftest import pt
from oracles import (
    bernoulli_strict_majority_tail,
    draw_per_point,
    kl_divergence,
    ldp_monte_carlo_per_replication,
    ldp_rate_lattice,
    slln_per_n_draws,
    support_bands_per_row_dot,
)


def bernoulli_sampler(theta, seed=0):
    return SamplerSpec(kind="iid", distribution="finite",
                       atoms=(0.0, 1.0), probs=(1.0 - theta, theta), seed=seed)


class TestSampleEmpirical:
    def test_constant_distribution(self, line):
        sampler = SamplerSpec(kind="iid", distribution="finite",
                              atoms=(2.5,), probs=(1.0,), seed=1)
        mu = sample_empirical(sampler, 5, line)
        assert len(mu.support) == 5
        assert all(float(x[0]) == 2.5 for x in mu.support)

    def test_bernoulli_fraction_approaches_theta(self, line):
        sampler = bernoulli_sampler(0.3, seed=2)
        errors = []
        for n in (100, 1000, 10000):
            mu = sample_empirical(sampler, n, line)
            frac = float(np.mean([x[0] for x in mu.support]))
            errors.append(abs(frac - 0.3))
        assert errors[-1] < 0.02
        assert errors[-1] <= errors[0] + 1e-12

    def test_absorbing_chain(self, line):
        sampler = SamplerSpec(kind="markov-chain", states=(4.0, 7.0),
                              kernel=((1.0, 0.0), (0.0, 1.0)),
                              initial_state=1, seed=3)
        mu = sample_empirical(sampler, 6, line)
        assert all(float(x[0]) == 7.0 for x in mu.support)

    def test_prefix_property(self, line):
        sampler = SamplerSpec(kind="iid", distribution="normal", params=(0.0, 1.0), seed=4)
        short = [float(x[0]) for x in sample_empirical(sampler, 5, line).support]
        long = [float(x[0]) for x in sample_empirical(sampler, 9, line).support]
        assert long[:5] == short

    def test_determinism(self, line):
        sampler = SamplerSpec(kind="iid", distribution="cauchy", params=(0.0, 1.0), seed=5)
        a = [float(x[0]) for x in sample_empirical(sampler, 50, line).support]
        b = [float(x[0]) for x in sample_empirical(sampler, 50, line).support]
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec(kind="iid", distribution="normal", params=(0.0, -1.0))
        with pytest.raises(ValueError):
            SamplerSpec(kind="iid", distribution="nope")
        with pytest.raises(ValueError):
            SamplerSpec(kind="markov-chain", states=(0.0, 1.0),
                        kernel=((0.5, 0.6), (0.5, 0.5)))

    @pytest.mark.parametrize("spec", [
        {"distribution": "finite", "atoms": (0.0, 1.0), "probs": (np.nan, 1.0)},
        {"distribution": "finite", "atoms": (0.0, 1.0), "probs": (0.5, np.nan)},
        {"distribution": "normal", "params": (0.0, np.nan)},
        {"distribution": "normal", "params": (np.nan, 1.0)},
        {"distribution": "uniform", "params": (0.0, np.inf)},
        {"distribution": "pareto", "params": (np.nan, 1.0)},
        {"distribution": "cauchy", "params": (0.0, np.nan)},
    ], ids=["finite-first", "finite-last", "normal-scale", "normal-loc", "uniform-inf",
            "pareto", "cauchy"])
    def test_nan_and_infinite_parameters_rejected(self, spec):
        with pytest.raises(ValueError):
            SamplerSpec(kind="iid", **spec)

    def test_nan_kernel_row_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            SamplerSpec(kind="markov-chain", states=(0.0, 1.0),
                        kernel=((np.nan, 1.0), (0.5, 0.5)))

    def test_pareto_inverse_cdf(self, line):
        sampler = SamplerSpec(kind="iid", distribution="pareto", params=(1.5, 1.0), seed=6)
        mu = sample_empirical(sampler, 1000, line)
        vals = np.array([float(x[0]) for x in mu.support])
        assert np.all(vals >= 1.0)
        # Median of pareto(1.5, 1) is 2^(2/3).
        assert np.median(vals) == pytest.approx(2.0 ** (2.0 / 3.0), rel=0.15)


class TestSllnExperiment:
    def test_normal_mean_converges(self, line):
        sampler = SamplerSpec(kind="iid", distribution="normal", params=(0.0, 1.0), seed=7)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.0),),
                                  threshold=0.2)
        report = slln_experiment(line, sampler, 2.0, [50, 500, 5000], 5, config)
        assert report.verdicts["final_below_threshold"]
        assert report.verdicts["solver_failures"] == 0
        assert report.dvec[-1] < report.dvec[0]

    def test_grid_solver_median(self, line):
        sampler = bernoulli_sampler(0.5, seed=8)
        config = ExperimentConfig(solver="grid", grid_step=0.05, grid_pad=0.5,
                                  target_points=(pt(0.0), pt(0.5), pt(1.0)),
                                  threshold=0.2)
        report = slln_experiment(line, sampler, 1.0, [101, 1001], 3, config)
        assert report.dvec[-1] <= 0.2

    def test_bit_identical_reports(self, line):
        sampler = SamplerSpec(kind="iid", distribution="uniform", params=(0.0, 1.0), seed=9)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        r1 = slln_experiment(line, sampler, 2.0, [10, 100], 4, config)
        r2 = slln_experiment(line, sampler, 2.0, [10, 100], 4, config)
        assert r1.dvec == r2.dvec
        assert r1.moments == r2.moments

    def test_missing_target_rejected(self, line):
        sampler = bernoulli_sampler(0.5)
        with pytest.raises(ConfigurationError):
            slln_experiment(line, sampler, 2.0, [10], 1, ExperimentConfig())

    def test_solver_nonconvergence_is_counted(self, line, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceFailure("budget exhausted")
        monkeypatch.setattr(stochastics, "_solve_points", fail)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        report = slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10, 20], 3, config)
        assert report.verdicts["solver_failures"] == 6
        assert all(math.isnan(v) for v in report.dvec)

    def test_no_replications_rejected(self, line):
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        with pytest.raises(ValueError, match="replication"):
            slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10], 0, config)

    def test_program_errors_propagate(self, line, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("kernel returned the wrong shape")
        monkeypatch.setattr(stochastics, "_solve_points", broken)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        with pytest.raises(TypeError):
            slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10], 2, config)


class TestErgodicExperiment:
    def two_state(self, a=0.4, seed=0):
        return SamplerSpec(kind="markov-chain", states=(0.0, 3.0),
                           kernel=((1 - a, a), (a, 1 - a)), seed=seed)

    def test_symmetric_chain_reaches_stationary_mean(self, line):
        config = ExperimentConfig(solver="subgradient", threshold=0.2)
        report = ergodic_experiment(line, self.two_state(seed=11), 2.0,
                                    [100, 1000, 5000], config)
        assert report.verdicts["final_below_threshold"]
        assert report.dvec[-1] < 0.2  # target mean is 1.5

    def test_identity_kernel_stays_at_start(self, line):
        sampler = SamplerSpec(kind="markov-chain", states=(0.0, 3.0),
                              kernel=((1.0, 0.0), (0.0, 1.0)),
                              initial_state=1, seed=12)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(3.0),))
        with pytest.raises(ConfigurationError):
            ergodic_experiment(line, sampler, 2.0, [10, 20], config)

    def test_iid_rows_reduce_to_slln(self, line):
        # A kernel with equal rows draws iid states.
        sampler = SamplerSpec(kind="markov-chain", states=(0.0, 3.0),
                              kernel=((0.5, 0.5), (0.5, 0.5)), seed=13)
        config = ExperimentConfig(solver="subgradient", threshold=0.25)
        report = ergodic_experiment(line, sampler, 2.0, [200, 2000], config)
        assert report.dvec[-1] < 0.25

    def test_reducibility_detection(self):
        assert _is_irreducible(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert not _is_irreducible(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert not _is_irreducible(np.array([[1.0, 0.0], [0.5, 0.5]]))

    def test_single_state_chain_stays_put(self, line):
        sampler = SamplerSpec(kind="markov-chain", states=(2.0,),
                              kernel=((1.0,),), seed=17)
        config = ExperimentConfig(solver="subgradient", target_points=(pt(2.0),))
        report = ergodic_experiment(line, sampler, 2.0, [5, 50], config)
        assert report.dvec == [0.0, 0.0]


class TestRateFunction:
    def test_zero_at_own_mean(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        assert ldp_rate_function(line, mu, 2.0, pt(0.0), simplex_step=0.01) == 0.0

    def test_bernoulli_strict_majority_rate(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        rate = ldp_rate_function(line, mu, 2.0, pt(1.0), simplex_step=1e-3)
        assert rate == pytest.approx(kl_divergence([0.5, 0.5], [0.7, 0.3]), abs=1e-3)

    def test_unreachable_target_is_infinite(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        assert ldp_rate_function(line, mu, 2.0, pt(2.0), simplex_step=0.05) == math.inf

    def test_too_many_atoms_rejected(self, line):
        mu = DiscreteMeasure.uniform(line, [pt(v) for v in range(5)])
        with pytest.raises(ConfigurationError):
            ldp_rate_function(line, mu, 2.0, pt(0.0), simplex_step=0.5)


class TestLdpExperiment:
    def test_exact_binomial_matches_direct_sum(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        result = ldp_experiment(line, mu, 2.0, [pt(1.0)], [10, 25, 50],
                                mode="exact-binomial", simplex_step=0.01)
        for n, prob in zip(result.n_values, result.probabilities):
            assert prob == pytest.approx(bernoulli_strict_majority_tail(n, 0.3),
                                         rel=1e-10)
        assert result.tie_probabilities[0] > 0  # n = 10 can tie
        assert result.tie_probabilities[1] == 0  # n = 25 cannot

    def test_whole_space_event(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        result = ldp_experiment(line, mu, 2.0, [pt(0.0), pt(1.0)], [10, 20],
                                mode="exact-binomial", simplex_step=0.01)
        assert result.probabilities == [1.0, 1.0]
        assert result.empirical_rates == [0.0, 0.0]
        assert result.theoretical_rate == 0.0

    def test_empty_event(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.7, 0.3])
        result = ldp_experiment(line, mu, 2.0, [], [10, 20],
                                mode="exact-binomial", simplex_step=0.01)
        assert result.probabilities == [0.0, 0.0]
        assert all(math.isnan(r) for r in result.empirical_rates)
        assert result.theoretical_rate == math.inf

    def test_monte_carlo_tracks_exact(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.6, 0.4])
        exact = ldp_experiment(line, mu, 2.0, [pt(1.0)], [15],
                               mode="exact-binomial", simplex_step=0.05)
        mc = ldp_experiment(line, mu, 2.0, [pt(1.0)], [15],
                            mode="monte-carlo", replications=800, seed=15,
                            simplex_step=0.05)
        assert mc.probabilities[0] == pytest.approx(exact.probabilities[0], abs=0.05)

    def test_monte_carlo_censors_zero_counts(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.99, 0.01])
        mc = ldp_experiment(line, mu, 2.0, [pt(1.0)], [200],
                            mode="monte-carlo", replications=50, seed=16,
                            simplex_step=0.05)
        assert mc.censored[0]
        assert math.isnan(mc.empirical_rates[0])

    def test_nan_weight_never_reaches_the_monte_carlo_count(self, line):
        # Such a measure used to run and report probability 0.0.
        with pytest.raises(ValueError, match="weights"):
            DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [np.nan, 1.0])

    def test_monte_carlo_needs_a_replication(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.6, 0.4])
        with pytest.raises(ValueError, match="replication"):
            ldp_experiment(line, mu, 2.0, [pt(1.0)], [15], mode="monte-carlo",
                           replications=0, simplex_step=0.05)

    def test_exact_mode_needs_two_atoms(self, line):
        mu = DiscreteMeasure.uniform(line, [pt(0.0), pt(1.0), pt(2.0)])
        with pytest.raises(ConfigurationError):
            ldp_experiment(line, mu, 2.0, [pt(1.0)], [10], mode="exact-binomial",
                           simplex_step=0.25)

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_stacked_origin_shift_is_the_per_row_dot(self, c):
        # _support_bands takes every measure's origin shift in one stacked
        # product; it must add each row's terms as np.dot does.
        rng = np.random.default_rng(c)
        w = rng.random((20000, c))
        d = rng.random((20000, c, c)) * 10.0
        stacked = (w[:, None, :] @ d[:, 0, :, None])[:, 0, 0]
        per_row = np.array([np.dot(w_r, d_r) for w_r, d_r in zip(w, d[:, 0])])
        assert stacked.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_support_bands_match_per_row_shifts(self, c):
        from frechet.stochastics import _simplex_lattice, _support_bands
        rng = np.random.default_rng(10 + c)
        # Integer atoms make exact ties common, where the last bit decides.
        atoms = rng.integers(-3, 4, size=c).astype(float)
        dp = np.abs(atoms[:, None] - atoms[None, :]) ** 2.0
        for counts in _simplex_lattice(c, 12):
            support = np.broadcast_to(np.arange(c), counts.shape)
            weights = counts / 12
            assert np.array_equal(_support_bands(dp, support, weights),
                                  support_bands_per_row_dot(dp, support, weights))

    def test_tied_sample_has_two_point_mean_set(self, line):
        # An exact 50/50 split minimizes at both atoms; the strict-majority
        # event excludes the tie, matching the exact-count convention.
        from frechet.stochastics import _aggregate, _support_bands
        emp = DiscreteMeasure.uniform(line, [pt(0.0), pt(1.0), pt(0.0), pt(1.0)])
        pts, ws = _aggregate(emp)
        dp = line.pairwise_distances(pts, pts) ** 2.0
        keep = _support_bands(dp, np.arange(len(pts))[None], np.asarray(ws)[None])[0]
        band = [x for x, k in zip(pts, keep) if k]
        assert len(band) == 2
        assert not all(line.points_equal(x, pt(1.0)) for x in band)


_SAMPLERS = [
    SamplerSpec(kind="iid", distribution="normal", params=(0.5, 2.0), seed=31),
    SamplerSpec(kind="iid", distribution="uniform", params=(-1, 3), seed=32),
    SamplerSpec(kind="iid", distribution="pareto", params=(1.5, 1.0), seed=33),
    SamplerSpec(kind="iid", distribution="cauchy", params=(0.0, 1.0), seed=34),
    SamplerSpec(kind="iid", distribution="finite", atoms=(2, -1.5, 7.25),
                probs=(0.2, 0.5, 0.3), seed=35),
    SamplerSpec(kind="markov-chain", states=(0.0, 3.0, -2.5),
                kernel=((0.1, 0.6, 0.3), (0.5, 0.5, 0.0), (0.2, 0.2, 0.6)), seed=36),
]


class TestArrayDraws:
    @pytest.mark.parametrize("sampler", _SAMPLERS, ids=lambda s: s.distribution or s.kind)
    def test_rows_equal_per_point_embed(self, sampler):
        for n in (1, 9, 2000):
            rows, points = sampler.draw(n), draw_per_point(sampler, n)
            assert len(rows) == len(points) == n
            assert all(a.shape == b.shape == (1,) and a.dtype == b.dtype
                       and a.tobytes() == b.tobytes() for a, b in zip(rows, points))

class TestSllnSingleDraw:
    @pytest.mark.parametrize("solver,sampler,p", [
        ("grid", SamplerSpec(kind="iid", distribution="normal", params=(0.0, 1.0), seed=41), 2.0),
        ("weiszfeld", SamplerSpec(kind="iid", distribution="cauchy", params=(0.0, 1.0), seed=42), 1.0),
        ("subgradient", SamplerSpec(kind="iid", distribution="uniform", params=(-1.0, 1.0), seed=43), 1.5),
        ("grid", SamplerSpec(kind="markov-chain", states=(-1.0, 1.0),
                             kernel=((0.7, 0.3), (0.4, 0.6)), seed=44), 1.0),
    ], ids=["grid-normal", "weiszfeld-cauchy", "subgradient-uniform", "grid-chain"])
    def test_prefixes_match_a_draw_per_n(self, line, solver, sampler, p):
        config = ExperimentConfig(solver=solver, grid_step=0.05, grid_pad=0.5,
                                  target_points=(pt(0.0),), threshold=0.5)
        report = slln_experiment(line, sampler, p, [3, 40, 400], 3, config)
        assert (report.dvec, report.moments, report.verdicts) == \
            slln_per_n_draws(line, sampler, p, [3, 40, 400], 3, config)

    def test_runtimes_are_measured_per_n(self, line, monkeypatch):
        # A stubbed clock that the stubbed solver advances by one tick per
        # sample: the runtime of an n is n ticks per replication.
        clock = [0.0]

        def solve(space, mu, p, config):
            clock[0] += len(mu.support)
            return (pt(0.5),)

        monkeypatch.setattr(stochastics, "_solve_points", solve)
        monkeypatch.setattr(stochastics, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        report = slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10, 30], 3, config)
        assert report.runtimes == [30.0, 90.0]

    def test_empty_sample_rejected(self, line):
        config = ExperimentConfig(solver="subgradient", target_points=(pt(0.5),))
        with pytest.raises(ValueError):
            slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10, 0], 1, config)

    @pytest.mark.parametrize("solver", ["weiszfeld", "subgradient", "quantile"])
    def test_point_solvers_reject_epsilon(self, line, solver):
        config = ExperimentConfig(solver=solver, epsilon=0.05, target_points=(pt(0.5),))
        with pytest.raises(ConfigurationError, match="epsilon"):
            slln_experiment(line, bernoulli_sampler(0.5), 1.0, [10], 1, config)

    def test_unknown_solver_rejected(self, line):
        config = ExperimentConfig(solver="quantile", target_points=(pt(0.5),))
        with pytest.raises(ConfigurationError, match="unknown solver 'quantile'"):
            slln_experiment(line, bernoulli_sampler(0.5), 1.0, [10], 1, config)

    @pytest.mark.parametrize("solver,p", [("grid", 1.0), ("grid", 2.0), ("weiszfeld", 1.0),
                                          ("subgradient", 1.0), ("subgradient", 1.5)])
    def test_solvers_return_a_tuple_of_points(self, line, solver, p):
        mu = sample_empirical(SamplerSpec(kind="iid", distribution="cauchy",
                                          params=(0.0, 1.0), seed=3), 41, line)
        config = ExperimentConfig(solver=solver, grid_step=0.05, grid_pad=0.5)
        points = _solve_points(line, mu, p, config)
        assert type(points) is tuple and points
        if solver == "grid":
            band = grid_mean_set(line, mu, FrechetConfig(p=p), 0.05, 0.5)
            assert len(points) == len(band.points)
            assert all(np.array_equal(a, b) for a, b in zip(points, band.points))
        else:
            assert len(points) == 1 and points[0].shape == (1,)

    def test_weiszfeld_rejects_p_other_than_one(self, line):
        config = ExperimentConfig(solver="weiszfeld", target_points=(pt(0.5),))
        with pytest.raises(ConfigurationError, match=r"'weiszfeld'.*p = 2\.0"):
            slln_experiment(line, bernoulli_sampler(0.5), 2.0, [10], 1, config)

    def test_grid_returns_the_epsilon_band(self, line):
        # At p = 1 on atoms 0 and 1 the band is [-eps/2, 1 + eps/2].
        config = ExperimentConfig(solver="grid", epsilon=0.2, grid_step=0.05, grid_pad=0.5,
                                  target_points=(pt(0.5),))
        sampler = SamplerSpec(kind="iid", distribution="finite", atoms=(0.0, 1.0),
                              probs=(0.5, 0.5), seed=3)
        report = slln_experiment(line, sampler, 1.0, [2000], 1, config)
        assert report.dvec[0] > 0.5

    def test_draw_is_one_array_and_measures_keep_its_slices(self, line):
        stream = SamplerSpec(kind="iid", distribution="normal", params=(0.0, 1.0),
                             seed=4).draw(500)
        assert isinstance(stream, np.ndarray) and stream.shape == (500, 1)
        mu = DiscreteMeasure.uniform(line, stream[:200])
        assert np.shares_memory(mu.stacked, stream) and mu.stacked.shape == (200, 1)
        assert len(mu.support) == 200 and np.array_equal(mu.support[7], stream[7])


@st.composite
def _ldp_case(draw):
    """A 2-4 atom measure on a scaled quarter-step lattice, an event and a
    seed. The lattice gives exact ties; at large scales the objective's
    rounding error exceeds the tie tolerance, so a band depends on the
    order in which terms are added."""
    k = draw(st.integers(2, 4))
    dim = draw(st.sampled_from([1, 2]))
    coords = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * dim), min_size=k, max_size=k,
                           unique=True))
    scale = draw(st.sampled_from([0.25, 250.0, 25000.0]))
    atoms = [np.asarray(c, dtype=float) * scale for c in coords]
    w = np.asarray(draw(st.lists(st.integers(1, 6), min_size=k, max_size=k)), dtype=float)
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    picks = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2, unique=True))
    events = [atoms[i] for i in picks]
    if draw(st.booleans()):
        events.append(np.full(dim, 9.0 * scale))
    return EuclideanSpace(dim=dim), atoms, w, events, draw(st.integers(0, 2 ** 31 - 1))


class TestReplicationUniforms:
    """Every Monte-Carlo LDP replication's uniforms from one array pass
    against one generator per replication, as the replications used to
    draw them."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 31 - 1, 2 ** 32, 2 ** 64 + 3, 2 ** 130])
    def test_rows_equal_per_replication_generators(self, seed):
        keys = np.append(np.arange(1000), 2 ** 32 - 1)
        for n in (1, 7, 40):
            got = _replication_uniforms(seed, keys, n)
            assert got.shape == (len(keys), n)
            for row, key in zip(got, keys.tolist()):
                want = np.random.default_rng(_derived_seed(seed, key)).uniform(size=n)
                assert row.tobytes() == want.tobytes()

    def test_negative_seed_and_wide_key_are_rejected(self, line):
        with pytest.raises(ValueError):
            _replication_uniforms(-1, np.arange(3), 5)
        with pytest.raises(ValueError):
            _replication_uniforms(0, np.array([0, 2 ** 32]), 5)
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)], [0.5, 0.5])
        with pytest.raises(ValueError):
            ldp_experiment(line, mu, 2.0, [pt(1.0)], [4], mode="monte-carlo",
                           replications=3, seed=-1, simplex_step=0.5)

    def test_no_generator_per_replication(self, line, monkeypatch):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0), pt(3.0)], [0.5, 0.3, 0.2])

        def run():
            result = ldp_experiment(line, mu, 2.0, [pt(1.0)], [3, 8], mode="monte-carlo",
                                    replications=50, seed=5, simplex_step=0.1)
            return result.probabilities, result.tie_probabilities, result.censored

        want = run()

        def forbidden(*args, **kwargs):
            raise AssertionError("a generator was seeded per replication")

        monkeypatch.setattr(stochastics.np.random, "default_rng", forbidden)
        monkeypatch.setattr(stochastics.np.random, "SeedSequence", forbidden)
        assert run() == want

    def test_replication_blocks_match_per_replication_loop(self, line, monkeypatch):
        # 64 entries per block: at most 9 replications of n = 7 at a time.
        monkeypatch.setattr(core, "SWEEP_BLOCK_ENTRIES", 64)
        blocks = []
        uniforms = stochastics._replication_uniforms
        monkeypatch.setattr(stochastics, "_replication_uniforms",
                            lambda seed, keys, n: blocks.append(len(keys) * n)
                            or uniforms(seed, keys, n))
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0), pt(2.0), pt(4.0)],
                                          [0.4, 0.3, 0.2, 0.1])
        result = ldp_experiment(line, mu, 2.0, [pt(1.0)], [2, 7, 20], mode="monte-carlo",
                                replications=40, seed=9, simplex_step=0.25)
        expected = ldp_monte_carlo_per_replication(line, mu, 2.0, [pt(1.0)], [2, 7, 20], 40, 9)
        assert (result.probabilities, result.tie_probabilities, result.censored) == expected
        assert len(blocks) > 3 * 3 and max(blocks) <= 64


class TestBatchedLdp:
    """The batched LDP sweeps against the per-replication and per-lattice
    point loops they replaced: exactly equal results."""

    @given(case=_ldp_case(), p=st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=25, deadline=None)
    def test_monte_carlo_matches_per_replication_loop(self, case, p):
        space, atoms, w, events, seed = case
        mu = DiscreteMeasure.from_weights(space, atoms, w)
        result = ldp_experiment(space, mu, p, events, [1, 2, 4, 7], mode="monte-carlo",
                                replications=30, seed=seed, simplex_step=0.25)
        probabilities, ties, censored = ldp_monte_carlo_per_replication(
            space, mu, p, events, [1, 2, 4, 7], 30, seed)
        assert result.probabilities == probabilities
        assert result.tie_probabilities == ties
        assert result.censored == censored
        assert result.theoretical_rate == min(
            ldp_rate_lattice(space, mu, p, ev, 0.25) for ev in events)

    @given(case=_ldp_case(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           step=st.sampled_from([0.5, 0.1, 0.05]))
    @settings(max_examples=25, deadline=None)
    def test_rate_matches_lattice_loop(self, case, p, step):
        space, atoms, w, events, _ = case
        mu = DiscreteMeasure.from_weights(space, atoms, w)
        for target in atoms + events:
            assert ldp_rate_function(space, mu, p, target, step) == \
                ldp_rate_lattice(space, mu, p, target, step)

    @given(case=_ldp_case(), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
           step=st.sampled_from([0.5, 0.1, 0.05]))
    @settings(max_examples=25, deadline=None)
    def test_event_rate_is_min_over_event_points(self, case, p, step):
        space, atoms, w, events, seed = case
        mu = DiscreteMeasure.from_weights(space, atoms, w)
        expected = min(ldp_rate_function(space, mu, p, ev, step) for ev in events)
        result = ldp_experiment(space, mu, p, events, [3], mode="monte-carlo",
                                replications=2, seed=seed, simplex_step=step)
        assert result.theoretical_rate == expected

    def test_event_lattice_is_swept_once(self, line, monkeypatch):
        sweeps = []
        lattice = stochastics._simplex_lattice
        monkeypatch.setattr(stochastics, "_simplex_lattice",
                            lambda k, m: sweeps.append(m) or lattice(k, m))
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0), pt(3.0)], [0.5, 0.3, 0.2])
        events = [pt(0.0), pt(1.0), pt(3.0)]
        result = ldp_experiment(line, mu, 2.0, events, [4], mode="monte-carlo",
                                replications=5, seed=1, simplex_step=0.01)
        assert sweeps == [100]
        assert result.theoretical_rate == 0.0
        assert ldp_experiment(line, mu, 2.0, [], [4], mode="monte-carlo", replications=5,
                              seed=1, simplex_step=0.01).theoretical_rate == math.inf
        assert sweeps == [100]

    def test_large_scale_bands_match_per_replication_loop(self, line):
        # At this scale the objective's rounding error exceeds the tie
        # tolerance, so a band depends on which atom is the origin and on
        # the order of the terms; both must follow the per-replication loop.
        atoms = [pt(v) for v in (25000.0, 50000.0, -50000.0, -25000.0)]
        mu = DiscreteMeasure.from_weights(line, atoms, [0.3125, 0.375, 0.0625, 0.25])
        result = ldp_experiment(line, mu, 1.5, [atoms[0]], [2, 3, 4, 6], mode="monte-carlo",
                                replications=60, seed=357, simplex_step=0.5)
        expected = ldp_monte_carlo_per_replication(line, mu, 1.5, [atoms[0]], [2, 3, 4, 6],
                                                   60, 357)
        assert (result.probabilities, result.tie_probabilities, result.censored) == expected

    def test_spider_monte_carlo_matches_per_replication_loop(self):
        spider = SpiderSpace(legs=3)
        mu = DiscreteMeasure.from_weights(spider, [(0, 1.0), (1, 0.5), (2, 2.0)],
                                          [0.4, 0.35, 0.25])
        result = ldp_experiment(spider, mu, 2.0, [(1, 0.5)], [2, 5, 9], mode="monte-carlo",
                                replications=40, seed=7, simplex_step=0.1)
        expected = ldp_monte_carlo_per_replication(spider, mu, 2.0, [(1, 0.5)], [2, 5, 9], 40, 7)
        assert (result.probabilities, result.tie_probabilities, result.censored) == expected
        assert result.theoretical_rate == ldp_rate_lattice(spider, mu, 2.0, (1, 0.5), 0.1)

    def test_zero_weight_atoms_are_never_drawn(self, line):
        mu = DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0), pt(2.0)], [0.5, 0.0, 0.5])
        result = ldp_experiment(line, mu, 2.0, [pt(1.0)], [3, 6], mode="monte-carlo",
                                replications=50, seed=3, simplex_step=0.1)
        expected = ldp_monte_carlo_per_replication(line, mu, 2.0, [pt(1.0)], [3, 6], 50, 3)
        assert (result.probabilities, result.tie_probabilities, result.censored) == expected
        assert result.theoretical_rate == ldp_rate_lattice(line, mu, 2.0, pt(1.0), 0.1)
