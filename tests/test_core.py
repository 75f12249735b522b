import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    ConfigurationError,
    DiscreteMeasure,
    EuclideanSpace,
    FrechetConfig,
    MeanSetApprox,
    SpiderSpace,
    frechet_functional,
    moment,
    relaxed_mean_set,
)
from frechet.core import (
    SWEEP_BLOCK_ENTRIES,
    candidate_radius,
    cocycle_gap,
    power_bound_slack,
    renorm_bound_slack,
    row_blocks,
    value_tolerance,
)

from conftest import all_spaces, pt
from oracles import estimate_resolution, estimate_resolution_whole, scan_objective_1d


def uniform_line(space, values):
    return DiscreteMeasure.uniform(space, [pt(v) for v in values])


class TestFunctional:
    def test_single_atom_arithmetic(self, line):
        mu = DiscreteMeasure.dirac(line, pt(0.0))
        assert frechet_functional(line, mu, pt(2.0), pt(1.0), 2.0) == pytest.approx(3.0)

    def test_identical_arguments_vanish(self, line):
        mu = uniform_line(line, [0.3, -1.2, 4.0])
        assert frechet_functional(line, mu, pt(0.7), pt(0.7), 1.7) == 0.0

    def test_two_atom_symmetry(self, line):
        mu = uniform_line(line, [0.0, 1.0])
        assert frechet_functional(line, mu, pt(0.0), pt(1.0), 1.0) == pytest.approx(0.0)

    def test_space_mismatch_rejected(self, line, plane):
        mu = uniform_line(line, [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            frechet_functional(plane, mu, pt(0.0, 0.0), pt(1.0, 1.0), 2.0)


def best_value(space, mu, cfg, cands):
    """The best renormalized cost over the candidates: the band's achieved
    value."""
    return relaxed_mean_set(space, mu, cfg, cands, resolution=1e-3).achieved_value


class TestVariance:
    def test_quadratic_closed_form_on_grid(self, line):
        # Oracle: the p=2 objective with origin 0 is minimized at the mean 2,
        # with value (1+0+1)/3 - (1+4+9)/3 = -4; cross-checked by pure scan.
        grid_vals = np.arange(0.0, 4.0 + 1e-12, 1e-3)
        _, best, _ = scan_objective_1d([1.0, 2.0, 3.0], [1 / 3] * 3, grid_vals, 2.0, origin=0.0)
        assert best == pytest.approx(-4.0, abs=1e-5)
        mu = uniform_line(line, [1.0, 2.0, 3.0])
        cfg = FrechetConfig(p=2.0, origin=pt(0.0))
        cands = [pt(v) for v in grid_vals]
        assert best_value(line, mu, cfg, cands) == pytest.approx(best, abs=1e-12)

    def test_dirac_zero_at_own_atom(self, line):
        mu = DiscreteMeasure.dirac(line, pt(1.5))
        cfg = FrechetConfig(p=3.0, origin=pt(1.5))
        assert best_value(line, mu, cfg, [pt(1.5), pt(2.0)]) == pytest.approx(0.0)

    def test_median_value_zero(self, line):
        # Oracle scan: with origin 0 the p=1 objective is flat at 0 on [0, 1].
        grid_vals = np.arange(-1.0, 2.0 + 1e-12, 1e-3)
        _, best, _ = scan_objective_1d([0.0, 1.0], [0.5, 0.5], grid_vals, 1.0, origin=0.0)
        assert best == pytest.approx(0.0, abs=1e-12)
        mu = uniform_line(line, [0.0, 1.0])
        cfg = FrechetConfig(p=1.0, origin=pt(0.0))
        cands = [pt(v) for v in grid_vals]
        assert best_value(line, mu, cfg, cands) == pytest.approx(0.0, abs=1e-12)

    def test_empty_candidates_rejected(self, line):
        mu = uniform_line(line, [0.0, 1.0])
        with pytest.raises(ValueError):
            best_value(line, mu, FrechetConfig(p=2.0), [])


class TestRelaxedMeanSet:
    def test_arithmetic_mean_is_the_band(self, line):
        mu = uniform_line(line, [1.0, 2.0, 3.0])
        cands = [pt(v) for v in np.arange(0.0, 4.0 + 1e-12, 0.01)]
        band = relaxed_mean_set(line, mu, FrechetConfig(p=2.0), cands, resolution=0.01)
        assert len(band.points) == 1
        assert band.points[0][0] == pytest.approx(2.0, abs=0.01)

    def test_median_interval_is_recovered(self, line):
        h = 0.05
        grid_vals = np.arange(-1.0, 2.0 + 1e-12, h)
        _, _, argmin = scan_objective_1d([0.0, 1.0], [0.5, 0.5], grid_vals, 1.0)
        mu = uniform_line(line, [0.0, 1.0])
        band = relaxed_mean_set(line, mu, FrechetConfig(p=1.0),
                                [pt(v) for v in grid_vals], resolution=h)
        got = sorted(float(x[0]) for x in band.points)
        assert got == pytest.approx(sorted(argmin))
        assert min(got) == pytest.approx(0.0, abs=1e-12)
        assert max(got) == pytest.approx(1.0, abs=1e-12)

    def test_spider_center(self):
        spider = SpiderSpace(legs=3)
        mu = DiscreteMeasure.uniform(spider, [(0, 1.0), (1, 1.0), (2, 1.0)])
        # Oracle: in a 3-leg spider with one unit atom per leg and p=2, any
        # point at distance t along a leg scores t^2 + 2(1+t)^2, minimized
        # at t = -2/3 < 0, so the center t=0 wins; checked by direct scan.
        def objective(leg, t):
            return sum((abs(t - 1.0) if leg == other else t + 1.0) ** 2
                       for other in range(3)) / 3.0
        center_val = objective(0, 0.0)
        for leg in range(3):
            for t in np.arange(0.05, 2.0, 0.05):
                assert objective(leg, t) > center_val
        grid = spider.candidates(mu, "grid", step=0.05)
        band = relaxed_mean_set(spider, mu, FrechetConfig(p=2.0), grid, resolution=0.05)
        assert band.points == ((0, 0.0),)

    def test_epsilon_band_monotone(self, line):
        mu = uniform_line(line, [0.0, 1.0, 1.0, 3.0])
        cands = [pt(v) for v in np.arange(-1.0, 4.0, 0.05)]
        previous: set = set()
        for eps in (0.0, 0.1, 0.5, 2.0):
            band = relaxed_mean_set(line, mu, FrechetConfig(p=2.0, epsilon=eps),
                                    cands, resolution=0.05)
            current = {float(x[0]) for x in band.points}
            assert previous <= current
            previous = current

    def test_origin_invariance(self, line):
        rng = np.random.default_rng(7)
        for _ in range(25):
            vals = rng.normal(size=5)
            mu = uniform_line(line, vals)
            cands = [pt(v) for v in np.arange(vals.min() - 1, vals.max() + 1, 0.05)]
            p = float(rng.uniform(1.0, 3.0))
            bands = [
                relaxed_mean_set(line, mu, FrechetConfig(p=p, origin=pt(o)), cands,
                                 resolution=0.05)
                for o in (vals[0], -5.0, 11.0)
            ]
            sets = [tuple(float(x[0]) for x in b.points) for b in bands]
            assert sets[0] == sets[1] == sets[2]

    def test_band_membership_invariant(self, line):
        mu = uniform_line(line, [0.0, 0.5, 2.0])
        cfg = FrechetConfig(p=1.5, epsilon=0.2)
        cands = [pt(v) for v in np.arange(-1.0, 3.0, 0.1)]
        band = relaxed_mean_set(line, mu, cfg, cands, resolution=0.1)
        for x in band.points:
            val = frechet_functional(line, mu, x, mu.support[0], 1.5)
            assert val <= band.achieved_value + cfg.epsilon + 1e-8

    def test_chunked_sweep_matches_one_sweep(self, plane, monkeypatch):
        rng = np.random.default_rng(11)
        mu = DiscreteMeasure.uniform(plane, list(rng.normal(size=(1024, 2))))
        block = SWEEP_BLOCK_ENTRIES // len(mu.support)
        cands = list(rng.normal(scale=0.3, size=(2 * block + 1, 2)))
        cfg = FrechetConfig(p=1.5, epsilon=0.01)

        d = plane.pairwise_distances(cands, mu.support)
        ref = plane.pairwise_distances(mu.support[:1], mu.support)[0]
        values = (np.sum(d ** cfg.p * mu.weights, axis=1)
                  - float(np.dot(mu.weights, ref ** cfg.p)))
        achieved = float(np.min(values))
        cut = achieved + cfg.epsilon + value_tolerance(achieved)
        expected = [c for c, v in zip(cands, values) if v <= cut]

        sizes = []
        kernel = EuclideanSpace.pairwise_distances

        def recording(self, xs, ys):
            sizes.append((len(xs), len(ys)))
            return kernel(self, xs, ys)
        monkeypatch.setattr(EuclideanSpace, "pairwise_distances", recording)
        band = relaxed_mean_set(plane, mu, cfg, cands, resolution=0.1)

        assert band.achieved_value == achieved
        assert len(expected) > 1
        assert len(band.points) == len(expected)
        assert all(a is b for a, b in zip(band.points, expected))
        assert max(n * m for n, m in sizes) <= SWEEP_BLOCK_ENTRIES
        # Three blocks of candidates and the origin's row, each swept once.
        assert sorted(n for n, _ in sizes) == [1, 1, block, block]

    def test_single_atom_short_circuit(self, line):
        mu = DiscreteMeasure.uniform(line, [pt(3.0), pt(3.0)])
        band = relaxed_mean_set(line, mu, FrechetConfig(p=2.0),
                                [pt(v) for v in (0.0, 1.0)], resolution=1.0)
        assert len(band.points) == 1
        assert band.points[0][0] == pytest.approx(3.0)

    def test_argmin_consistency_with_direct_moment(self, line):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.normal(size=4)
            mu = uniform_line(line, vals)
            p = float(rng.uniform(1.0, 3.0))
            cands = np.arange(vals.min() - 0.5, vals.max() + 0.5, 0.05)
            direct = [moment(line, mu, p, pt(c)) for c in cands]
            renorm = [frechet_functional(line, mu, pt(c), pt(vals[0]), p) for c in cands]
            assert int(np.argmin(direct)) == int(np.argmin(renorm))


class TestMoment:
    def test_dirac_moment_zero(self, line):
        mu = DiscreteMeasure.dirac(line, pt(2.0))
        assert moment(line, mu, 3.7, pt(2.0)) == 0.0

    def test_first_moment(self, line):
        mu = uniform_line(line, [0.0, 2.0])
        assert moment(line, mu, 1.0, pt(0.0)) == pytest.approx(1.0)

    def test_second_moment(self, line):
        mu = uniform_line(line, [0.0, 2.0])
        assert moment(line, mu, 2.0, pt(1.0)) == pytest.approx(1.0)


class TestAlgebraicIdentities:
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50),
           st.floats(1.0, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_cocycle_identity(self, atoms, x, x1, x2, p):
        line = EuclideanSpace(dim=1)
        mu = uniform_line(line, atoms)
        gap = cocycle_gap(line, mu, pt(x), pt(x1), pt(x2), p)
        scale = 1.0 + max(abs(v) for v in atoms + [x, x1, x2]) ** p
        assert gap <= 1e-10 * scale

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=6),
           st.floats(-20, 20), st.floats(-20, 20), st.floats(1.0, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_renormalization_bound(self, atoms, x, x1, p):
        line = EuclideanSpace(dim=1)
        mu = uniform_line(line, atoms)
        assert renorm_bound_slack(line, mu, pt(x), pt(x1), p) >= -1e-9

    @given(st.floats(-20, 20), st.floats(-20, 20), st.floats(-20, 20),
           st.floats(0.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_power_triangle_bound(self, x, x1, x2, r):
        line = EuclideanSpace(dim=1)
        assert power_bound_slack(line, pt(x), pt(x1), pt(x2), r) >= -1e-9

    def test_identities_across_all_spaces(self):
        rng = np.random.default_rng(11)
        for space in all_spaces():
            for _ in range(40):
                pts = [space.sample_point(rng) for _ in range(5)]
                mu = DiscreteMeasure.uniform(space, pts[:2])
                p = float(rng.uniform(1.0, 3.0))
                assert cocycle_gap(space, mu, *pts[2:], p) <= 1e-9
                assert renorm_bound_slack(space, mu, pts[2], pts[3], p) >= -1e-9
                r = float(rng.uniform(0.0, 4.0))
                assert power_bound_slack(space, *pts[2:], r) >= -1e-9


class TestValidation:
    def test_weights_must_sum_to_one(self, line):
        with pytest.raises(ValueError):
            DiscreteMeasure(line, (pt(0.0), pt(1.0)), np.array([0.5, 0.6]))

    def test_negative_weights_rejected(self, line):
        with pytest.raises(ValueError):
            DiscreteMeasure(line, (pt(0.0), pt(1.0)), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.nan, np.nan], [0.5, np.nan]])
    def test_nan_weights_rejected(self, line, weights):
        # A NaN fails every comparison, so each check must be written to fail on it.
        with pytest.raises(ValueError, match="weights"):
            DiscreteMeasure(line, (pt(0.0), pt(1.0)), np.array(weights))
        with pytest.raises(ValueError, match="weights"):
            DiscreteMeasure.from_weights(line, [pt(0.0), pt(1.0)],
                                         np.divide(weights, np.sum(weights)))

    def test_config_bounds(self):
        with pytest.raises(ValueError):
            FrechetConfig(p=0.5)
        with pytest.raises(ValueError):
            FrechetConfig(p=2.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            FrechetConfig(p=float("nan"))
        with pytest.raises(ValueError):
            FrechetConfig(p=2.0, epsilon=float("nan"))

    def test_mean_set_approx_nonempty(self):
        with pytest.raises(ValueError):
            MeanSetApprox((), 0.1, 0.0)

    @pytest.mark.parametrize("resolution", [-0.1, float("nan")])
    def test_mean_set_approx_refuses_a_negative_or_nan_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution must be nonnegative"):
            MeanSetApprox((0.0,), resolution, 0.0)
        assert MeanSetApprox((0.0,), 0.0, 0.0).resolution == 0.0


class TestEstimateResolution:
    """The support scheme's former mesh, now ``tests/oracles.py``'s, in row
    blocks against one whole matrix."""

    @pytest.mark.parametrize("space", all_spaces(), ids=lambda s: type(s).__name__)
    def test_up_to_128_candidates_it_is_the_whole_matrix_formula(self, space):
        # Up to 128 candidates the mesh was taken from one whole matrix.
        rng = np.random.default_rng(12)
        for n in (2, 3, int(rng.integers(4, 128)), 128):
            points = [space.sample_point(rng) for _ in range(n)]
            assert estimate_resolution(space, points) == \
                estimate_resolution_whole(space, points)

    def test_row_blocks_give_the_whole_matrix_mesh(self):
        # 1,100 candidates take two row blocks (there used to be a cap at
        # 128); the farthest one, which sets the mesh, is in the second.
        line = EuclideanSpace(1)
        points = np.vstack([np.random.default_rng(13).standard_cauchy((1099, 1)), [[1e9]]])
        assert len(row_blocks(len(points), len(points))) == 2
        assert estimate_resolution(line, points) == estimate_resolution_whole(line, points)


def _support_band(space, mu, config):
    """The ``support`` scheme's band with ``candidate_radius`` as its resolution."""
    band = relaxed_mean_set(space, mu, config, space.candidates(mu, "support"), resolution=0.0)
    return band, candidate_radius(space, mu, config, band.achieved_value)


class TestCandidateRadius:
    """Every minimizer lies within ``candidate_radius`` of the band."""

    @given(dim=st.integers(1, 4), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_weighted_average_at_p2(self, dim, n, seed, scale):
        rng = np.random.default_rng(seed)
        space = EuclideanSpace(dim)
        atoms = scale * rng.standard_cauchy((n, dim))
        w = rng.dirichlet(np.ones(n))
        mu = DiscreteMeasure.from_weights(space, atoms, w)
        band, radius = _support_band(space, mu, FrechetConfig(p=2.0))
        mean = w @ atoms / w.sum()
        assert min(np.linalg.norm(np.asarray(band.points) - mean, axis=1)) <= radius

    @given(atoms=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
           p=st.sampled_from([1.0, 1.5, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_line_scan_minimizers(self, atoms, p):
        line = EuclideanSpace(1)
        mu = uniform_line(line, atoms)
        band, radius = _support_band(line, mu, FrechetConfig(p=p))
        step = 0.01
        grid = np.arange(min(atoms) - step, max(atoms) + 2 * step, step)
        _, _, argmin = scan_objective_1d(atoms, [1.0 / len(atoms)] * len(atoms), grid, p)
        kept = np.asarray(band.points)[:, 0]
        for x in argmin:
            assert min(abs(kept - x)) <= radius + step
