import numpy as np
import pytest

from frechet import (
    BuresWassersteinSpace,
    ConfigurationError,
    DiscreteMeasure,
    EuclideanSpace,
    FrechetConfig,
    SolverConfig,
    SpiderSpace,
    bw_barycenter,
    euclidean_pmean,
    frechet_functional,
    grid_oracle,
    weiszfeld_median,
)

from conftest import pt
from oracles import scan_objective_1d


def uniform_line(space, values):
    return DiscreteMeasure.uniform(space, [pt(v) for v in values])


class TestGridOracle:
    def test_arithmetic_mean(self, line):
        mu = uniform_line(line, [1.0, 2.0, 3.0])
        grid = [pt(v) for v in np.arange(0.0, 4.0 + 1e-12, 1e-3)]
        band = grid_oracle(line, mu, FrechetConfig(p=2.0), grid, resolution=1e-3)
        assert len(band.points) == 1
        assert band.points[0][0] == pytest.approx(2.0, abs=1e-3)

    def test_strict_majority_median(self, line):
        # Oracle: the p=1 objective is piecewise linear with strict minimum
        # at the majority atom 0.
        grid_vals = np.arange(-0.5, 1.5, 0.01)
        _, _, argmin = scan_objective_1d([0.0, 0.0, 1.0], [1 / 3] * 3, grid_vals, 1.0)
        assert argmin == [pytest.approx(0.0, abs=1e-12)]
        mu = uniform_line(line, [0.0, 0.0, 1.0])
        band = grid_oracle(line, mu, FrechetConfig(p=1.0),
                           [pt(v) for v in grid_vals], resolution=0.01)
        assert [float(x[0]) for x in band.points] == [pytest.approx(0.0)]

    def test_spider_center(self):
        spider = SpiderSpace(legs=3)
        mu = DiscreteMeasure.uniform(spider, [(0, 1.0), (1, 1.0), (2, 1.0)])
        grid = spider.candidates(mu, "grid", step=0.05)
        band = grid_oracle(spider, mu, FrechetConfig(p=2.0), grid, resolution=0.05)
        assert band.points == ((0, 0.0),)

    def test_empty_grid_rejected(self, line):
        mu = uniform_line(line, [0.0])
        with pytest.raises(ValueError):
            grid_oracle(line, mu, FrechetConfig(p=2.0), [], resolution=0.1)


class TestWeiszfeld:
    def test_majority_atom_on_line(self, line):
        mu = uniform_line(line, [0.0, 0.0, 1.0])
        x = weiszfeld_median(line, mu)
        assert abs(float(x[0])) < 1e-6

    def test_square_corners_center(self, plane):
        corners = [pt(0.0, 0.0), pt(1.0, 0.0), pt(1.0, 1.0), pt(0.0, 1.0)]
        mu = DiscreteMeasure.uniform(plane, corners)
        x = weiszfeld_median(plane, mu)
        assert np.allclose(x, [0.5, 0.5], atol=1e-6)

    def test_dirac_short_circuit(self, line):
        mu = DiscreteMeasure.dirac(line, pt(7.0))
        assert float(weiszfeld_median(line, mu)[0]) == 7.0

    def test_overflowing_scale_is_rejected(self, line):
        # 1 + the largest distance from the start overflows to inf, which
        # used to tie every atom to the first one: -1e200 came back, and
        # the median is 1.
        mu = uniform_line(line, [-1e200, 0.0, 1.0, 2.0, 1e200])
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match="overflow"):
            weiszfeld_median(line, mu)

    def test_anchor_stays_when_optimal(self, plane):
        # Heavy central atom dominates: the subgradient test keeps it.
        pts = [pt(0.0, 0.0), pt(2.0, 0.0), pt(0.0, 2.0), pt(-2.0, 0.0), pt(0.0, -2.0)]
        w = np.array([0.6, 0.1, 0.1, 0.1, 0.1])
        mu = DiscreteMeasure.from_weights(plane, pts, w)
        x = weiszfeld_median(plane, mu)
        assert np.allclose(x, [0.0, 0.0], atol=1e-9)

    def test_monotone_descent_every_iteration(self, plane):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pts = [plane.sample_point(rng) for _ in range(5)]
            mu = DiscreteMeasure.uniform(plane, pts)
            values = []

            def record(x, mu=mu, values=values):
                values.append(float(np.dot(
                    mu.weights,
                    np.linalg.norm(np.asarray(pts) - x, axis=1))))

            weiszfeld_median(plane, mu, callback=record)
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12 * (1.0 + np.abs(values[:-1])))


class TestEuclideanPMean:
    def test_p2_closed_form(self, plane):
        mu = DiscreteMeasure.uniform(plane, [pt(0.0, 0.0), pt(2.0, 0.0)])
        assert np.allclose(euclidean_pmean(plane, mu, 2.0), [1.0, 0.0], atol=1e-12)

    def test_p2_weighted_average_exact(self, plane):
        rng = np.random.default_rng(1)
        pts = [plane.sample_point(rng) for _ in range(5)]
        w = rng.uniform(0.1, 1.0, size=5)
        w = w / w.sum(); w[-1] = 1 - w[:-1].sum()
        mu = DiscreteMeasure.from_weights(plane, pts, w)
        expected = np.asarray(pts).T @ w
        assert np.allclose(euclidean_pmean(plane, mu, 2.0), expected, atol=1e-12)

    def test_p4_symmetry(self, line):
        mu = uniform_line(line, [-1.0, 1.0])
        assert abs(float(euclidean_pmean(line, mu, 4.0)[0])) < 1e-8

    def test_p15_matches_fine_grid_oracle(self, line):
        # Oracle: dense scan with step 1e-5 pins the optimal value.
        atoms = [0.0, 1.0, 5.0]
        grid_vals = np.arange(0.0, 5.0 + 1e-12, 1e-5)
        _, best, _ = scan_objective_1d(atoms, [1 / 3] * 3, grid_vals, 1.5, origin=0.0)
        mu = uniform_line(line, atoms)
        x = euclidean_pmean(line, mu, 1.5)
        value = frechet_functional(line, mu, x, pt(0.0), 1.5)
        assert value == pytest.approx(best, abs=1e-4)

    def test_invalid_order_rejected(self, line):
        mu = uniform_line(line, [0.0, 1.0])
        with pytest.raises(ValueError):
            euclidean_pmean(line, mu, 0.5)

    def test_p15_two_atoms_converges(self, line):
        # A descent that accepts any tiny decrease and then quadruples its
        # step overshoots here for its whole budget (iterates alternate
        # around -1.001). The minimizer solves 19 sqrt(x + 3.514) =
        # 21 sqrt(1.057 - x).
        mu = DiscreteMeasure.from_weights(line, [pt(-3.514), pt(1.057)], [19 / 40, 21 / 40])
        r = (21 / 19) ** 2
        expected = (r * 1.057 - 3.514) / (1.0 + r)
        assert float(euclidean_pmean(line, mu, 1.5)[0]) == pytest.approx(expected, abs=1e-8)

    def test_two_atom_values_reach_the_closed_form(self, line):
        # Two atoms a < b with weights wa, wb: for p > 1 the minimizer is
        # (a + r b) / (1 + r) with r = (wb / wa) ** (1 / (p - 1)).
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = float(rng.choice([1.25, 1.5, 2.5, 3.0]))
            a, b = sorted(rng.uniform(-10.0, 10.0, size=2))
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, n))
            wa, wb = k / n, (n - k) / n
            mu = DiscreteMeasure.from_weights(line, [pt(a), pt(b)], [wa, wb])
            r = (wb / wa) ** (1.0 / (p - 1.0))
            best = (a + r * b) / (1.0 + r)

            def f(x):
                return wa * abs(x - a) ** p + wb * abs(x - b) ** p

            x = float(euclidean_pmean(line, mu, p)[0])
            assert f(x) - f(best) <= 1e-8 * (1.0 + f(best)), (p, a, b, k, n)


class TestBwBarycenter:
    def test_fixed_point_of_equal_inputs(self):
        bw = BuresWassersteinSpace(dim=2)
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu = DiscreteMeasure.uniform(bw, [sigma, sigma.copy()])
        assert np.allclose(bw_barycenter(bw, mu), sigma, atol=1e-10)

    def test_scalar_closed_form(self):
        bw = BuresWassersteinSpace(dim=1)
        mu = DiscreteMeasure.uniform(bw, [np.array([[1.0]]), np.array([[4.0]])])
        # ((sqrt(1) + sqrt(4)) / 2)^2 = 2.25
        assert bw_barycenter(bw, mu)[0, 0] == pytest.approx(2.25, abs=1e-8)

    def test_commuting_diagonal_closed_form(self):
        bw = BuresWassersteinSpace(dim=2)
        mu = DiscreteMeasure.uniform(bw, [np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
        assert np.allclose(bw_barycenter(bw, mu), np.diag([2.25, 2.25]), atol=1e-8)

    def test_weighted_scalar_closed_form(self):
        bw = BuresWassersteinSpace(dim=1)
        w = np.array([0.3, 0.7])
        mu = DiscreteMeasure.from_weights(bw, [np.array([[1.0]]), np.array([[9.0]])], w)
        expected = (0.3 * 1.0 + 0.7 * 3.0) ** 2
        assert bw_barycenter(bw, mu)[0, 0] == pytest.approx(expected, abs=1e-8)

    def test_beats_matrix_grid(self):
        bw = BuresWassersteinSpace(dim=2)
        rng = np.random.default_rng(3)
        mats = [bw.sample_point(rng) for _ in range(3)]
        mu = DiscreteMeasure.uniform(bw, mats)
        center = bw_barycenter(bw, mu)
        value = frechet_functional(bw, mu, center, mats[0], 2.0)
        grid = bw.candidates(mu, "ball-grid", center=center, radius=0.4, step=0.2)
        band = grid_oracle(bw, mu, FrechetConfig(p=2.0), grid, resolution=0.2)
        assert value <= band.achieved_value + 1e-6 * (1.0 + abs(band.achieved_value))

    def test_wrong_space_rejected(self, line):
        mu = uniform_line(line, [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            bw_barycenter(line, mu)


class TestOracleDominance:
    def test_random_small_instances(self):
        rng = np.random.default_rng(99)
        line = EuclideanSpace(1)
        plane = EuclideanSpace(2)
        for _ in range(40):
            space = line if rng.uniform() < 0.5 else plane
            k = int(rng.integers(2, 6))
            pts = [space.sample_point(rng) for _ in range(k)]
            mu = DiscreteMeasure.uniform(space, pts)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            if p == 1.0:
                x = weiszfeld_median(space, mu)
            else:
                x = euclidean_pmean(space, mu, p)
            value = frechet_functional(space, mu, x, pts[0], p)
            grid = space.candidates(mu, "grid", step=0.05, pad=0.5)
            band = grid_oracle(space, mu, FrechetConfig(p=p), grid, resolution=0.05)
            assert value <= band.achieved_value + 1e-6 * (1.0 + abs(band.achieved_value))


class TestSolverConfig:
    @pytest.mark.parametrize("key", ["step_tolerance", "value_tolerance"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1e-9])
    def test_tolerances_must_be_finite_and_positive(self, key, value):
        # A NaN fails every comparison, so the check is written to fail on it.
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(**{key: value})
