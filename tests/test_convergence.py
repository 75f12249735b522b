import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    DiscreteMeasure,
    EuclideanSpace,
    gamma_convergence_probe,
    one_sided_hausdorff,
)
from frechet import convergence

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


def triangle_holds(space, s, s1, s2, tol=1e-9):
    """d->(s, s2) <= d->(s, s1) + d->(s1, s2), within tol."""
    lhs = one_sided_hausdorff(space, s, s2)
    return lhs <= one_sided_hausdorff(space, s, s1) + one_sided_hausdorff(space, s1, s2) + tol


class TestTriangle:
    def test_singletons(self, line):
        assert triangle_holds(line, finite_set([0.0]), finite_set([2.0]),
                                   finite_set([5.0]))

    def test_nested_sets(self, line):
        s = finite_set([0.0])
        s1 = finite_set([0.0, 1.0])
        s2 = finite_set([0.0, 1.0, 2.0])
        assert triangle_holds(line, s, s1, s2)

    def test_random_finite_sets(self, plane):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            sets = [[plane.sample_point(rng) for _ in range(int(rng.integers(1, 5)))]
                    for _ in range(3)]
            assert triangle_holds(plane, *sets)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=5),
           st.lists(st.floats(-100, 100), min_size=1, max_size=5),
           st.lists(st.floats(-100, 100), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_triangle_property_on_line(self, a, b, c):
        line = EuclideanSpace(dim=1)
        sets = [finite_set(v) for v in (a, b, c)]
        assert triangle_holds(line, *sets)


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

    def test_the_limit_moment_is_taken_once(self, line, monkeypatch):
        limit = DiscreteMeasure.uniform(line, finite_set([0.0, 1.0]))
        seq = [DiscreteMeasure.uniform(line, finite_set([0.0, 1.0 + 1.0 / n])) for n in (1, 2)]
        calls, moment = [], convergence.moment
        monkeypatch.setattr(convergence, "moment",
                            lambda space, mu, *args: calls.append(mu) or moment(space, mu, *args))
        gamma_convergence_probe(line, seq, limit, 2.0, [0.0] * 2, grid_step=0.01, grid_pad=0.25)
        assert [mu is limit for mu in calls] == [True, False, False]

    def test_a_report_names_every_field(self):
        with pytest.raises(TypeError, match="runtimes"):
            convergence.ConvergenceReport([1], [0.0], [0.0])


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
