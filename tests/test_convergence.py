import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    DiscreteMeasure,
    EuclideanSpace,
    SamplerSpec,
    gamma_convergence_probe,
    one_sided_hausdorff,
    sample_empirical,
    tail_mass_profile,
    tau_w_r_distance,
    triangle_check_dvec,
)

from conftest import pt


def finite_set(values):
    return [pt(v) for v in values]


class TestOneSidedHausdorff:
    def test_equal_sets(self, line):
        s = finite_set([0.0, 1.0, 2.0])
        assert one_sided_hausdorff(line, s, s) == 0.0

    def test_subset_direction_is_zero(self, line):
        assert one_sided_hausdorff(line, finite_set([0.0]), finite_set([0.0, 10.0])) == 0.0

    def test_reverse_direction_sees_the_gap(self, line):
        assert one_sided_hausdorff(line, finite_set([0.0, 10.0]), finite_set([0.0])) == 10.0

    def test_asymmetry_exists(self, line):
        s, s2 = finite_set([0.0]), finite_set([0.0, 3.0])
        assert one_sided_hausdorff(line, s, s2) == 0.0
        assert one_sided_hausdorff(line, s2, s) == 3.0

    def test_zero_iff_subset_on_random_sets(self, plane):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = [plane.sample_point(rng) for _ in range(int(rng.integers(1, 5)))]
            b = [plane.sample_point(rng) for _ in range(int(rng.integers(1, 5)))]
            d = one_sided_hausdorff(plane, a, b)
            subset = all(any(plane.points_equal(x, y) for y in b) for x in a)
            assert (d <= 1e-9) == subset
            # Containment by construction gives zero.
            assert one_sided_hausdorff(plane, a, a + b) == 0.0

    def test_empty_rejected(self, line):
        with pytest.raises(ValueError):
            one_sided_hausdorff(line, [], finite_set([0.0]))


class TestTriangle:
    def test_singletons(self, line):
        assert triangle_check_dvec(line, finite_set([0.0]), finite_set([2.0]),
                                   finite_set([5.0]))

    def test_nested_sets(self, line):
        s = finite_set([0.0])
        s1 = finite_set([0.0, 1.0])
        s2 = finite_set([0.0, 1.0, 2.0])
        assert triangle_check_dvec(line, s, s1, s2)

    def test_random_finite_sets(self, plane):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            sets = [[plane.sample_point(rng) for _ in range(int(rng.integers(1, 5)))]
                    for _ in range(3)]
            assert triangle_check_dvec(plane, *sets)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=5),
           st.lists(st.floats(-100, 100), min_size=1, max_size=5),
           st.lists(st.floats(-100, 100), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_triangle_property_on_line(self, a, b, c):
        line = EuclideanSpace(dim=1)
        sets = [finite_set(v) for v in (a, b, c)]
        assert triangle_check_dvec(line, *sets)


class TestTauW:
    def test_identical_measures(self, line):
        mu = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0, 2.0]))
        bl, gap = tau_w_r_distance(line, mu, mu, r=1.0)
        assert bl == 0.0
        assert gap == 0.0

    def test_moment_gap_between_diracs(self, line):
        mu = DiscreteMeasure.dirac(line, pt(0.0))
        nu = DiscreteMeasure.dirac(line, pt(1.0))
        _, gap = tau_w_r_distance(line, mu, nu, r=1.0)
        assert gap == pytest.approx(1.0)

    def test_empirical_convergence_to_target(self, line):
        target = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0]))
        sampler = SamplerSpec(kind="iid", distribution="finite",
                              atoms=(0.0, 1.0), probs=(0.5, 0.5), seed=4)
        values = []
        for n in (20, 200, 2000):
            emp = sample_empirical(sampler, n, line)
            bl, gap = tau_w_r_distance(line, emp, target, r=1.0, seed=11)
            values.append((bl, gap))
        assert values[-1][0] < values[0][0]
        assert values[-1][0] < 0.05
        assert values[-1][1] < 0.05


class TestTailMass:
    def test_compact_support_vanishes(self, line):
        mu = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0, 2.0]))
        masses, weighted = tail_mass_profile(line, [mu], pt(0.0), [3.0, 5.0], r=1.0)
        assert np.all(masses == 0.0)
        assert np.all(weighted == 0.0)

    def test_dirac_tail_zero(self, line):
        mu = DiscreteMeasure.dirac(line, pt(0.0))
        masses, _ = tail_mass_profile(line, [mu], pt(0.0), [0.5, 1.0])
        assert np.all(masses == 0.0)

    def test_heavy_tail_decreases_in_radius(self, line):
        sampler = SamplerSpec(kind="iid", distribution="pareto",
                              params=(1.5, 1.0), seed=5)
        mu = sample_empirical(sampler, 2000, line)
        radii = [1.5, 2.0, 4.0, 8.0, 16.0]
        masses, weighted = tail_mass_profile(line, [mu], pt(0.0), radii, r=1.0)
        assert np.all(np.diff(masses[0]) <= 0)
        assert np.all(np.diff(weighted[0]) <= 0)
        assert masses[0, 0] > 0


class TestGammaProbe:
    def test_constant_sequence_with_shrinking_relaxation(self, line):
        # The p=2 relaxation band has width sqrt(eps), so eps must drop
        # well below the squared grid step before the band collapses.
        mu = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0]))
        eps = [1.0 / n for n in (1, 4, 16, 256, 4096, 65536)]
        seq = [mu] * len(eps)
        report = gamma_convergence_probe(line, seq, mu, 2.0, eps,
                                         grid_step=0.01, grid_pad=0.5)
        assert report.verdicts["final_below_combined_resolution"]
        assert report.dvec[-1] <= report.dvec[0]

    def test_shrinking_two_atom_supports(self, line):
        # Means (1 + 1/n)/2 approach 1/2 at rate 1/(2n).
        ns = (1, 2, 4, 8, 16, 32, 64, 128)
        seq = [DiscreteMeasure.uniform(line, finite_set([0.0, 1.0 + 1.0 / n]))
               for n in ns]
        limit = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0]))
        report = gamma_convergence_probe(line, seq, limit, 2.0,
                                         [0.0] * len(seq), grid_step=0.005,
                                         grid_pad=0.25)
        assert report.verdicts["final_below_combined_resolution"]
        assert report.dvec[-1] <= 1.0 / (2 * ns[-1]) + 2 * 0.005

    def test_set_valued_median_limit(self, line):
        # Four equal atoms around {0, 1} squeeze onto the median interval.
        seq = []
        for n in range(1, 7):
            seq.append(DiscreteMeasure.uniform(
                line, finite_set([-1.0 / n, 0.0, 1.0, 1.0 + 1.0 / n])))
        limit = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0]))
        report = gamma_convergence_probe(line, seq, limit, 1.0,
                                         [0.0] * len(seq), grid_step=0.01,
                                         grid_pad=1.0)
        assert report.verdicts["final_below_combined_resolution"]


class TestBallBasis:
    def test_intersection_contains_a_ball(self, plane):
        # For sets inside two one-sided balls, the radius
        # min(r_i - d(S, S_i)) keeps a whole ball inside the intersection.
        rng = np.random.default_rng(12)
        for _ in range(60):
            s = [plane.sample_point(rng) for _ in range(2)]
            s1 = s + [plane.sample_point(rng)]
            s2 = s + [plane.sample_point(rng)]
            d1 = one_sided_hausdorff(plane, s, s1)
            d2 = one_sided_hausdorff(plane, s, s2)
            r1, r2 = d1 + 0.5, d2 + 0.75
            r = min(r1 - d1, r2 - d2)
            # Sample members of the r-ball around s and check the inclusion.
            for _ in range(10):
                member = [np.asarray(x) + rng.uniform(-1, 1, size=2) * r / 3
                          for x in s]
                if one_sided_hausdorff(plane, member, s) < r:
                    assert one_sided_hausdorff(plane, member, s1) < r1
                    assert one_sided_hausdorff(plane, member, s2) < r2
