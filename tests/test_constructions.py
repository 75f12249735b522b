import itertools
import math
import tracemalloc

import numpy as np
import pytest

from frechet import (
    ConfigurationError,
    DiscreteMeasure,
    EuclideanSpace,
    FrechetConfig,
    ProductSpace,
    QuotientSpace,
    RegularizedSpace,
    grid_mean_set,
    grid_oracle,
    one_sided_hausdorff,
    relaxed_mean_set,
)
from frechet.constructions import (
    cyclic_rotation_group,
    loop_shape_space,
    matrix_group,
    planar_loop_group,
    sign_flip_group,
)
from frechet.core import metric_axiom_violations

from conftest import pt


@pytest.fixture
def flip_line():
    base = EuclideanSpace(dim=1)
    return base, sign_flip_group(dim=1)


class TestProduct:
    def test_pythagorean(self):
        ps = ProductSpace(EuclideanSpace(1), EuclideanSpace(1), q=2.0)
        assert ps.distance((pt(0.0), pt(0.0)), (pt(3.0), pt(4.0))) == pytest.approx(5.0)

    def test_l1_combination(self):
        ps = ProductSpace(EuclideanSpace(1), EuclideanSpace(1), q=1.0)
        assert ps.distance((pt(0.0), pt(0.0)), (pt(3.0), pt(4.0))) == pytest.approx(7.0)

    def test_equal_pairs(self):
        ps = ProductSpace(EuclideanSpace(2), EuclideanSpace(1), q=3.0)
        x = (pt(1.0, -1.0), pt(0.5))
        assert ps.distance(x, x) == 0.0

    def test_metric_axioms(self):
        ps = ProductSpace(EuclideanSpace(1), EuclideanSpace(2), q=2.0)
        report = metric_axiom_violations(ps, np.random.default_rng(1), trials=300)
        assert report["passed"], report

    def test_mean_factorization_at_matching_exponent(self):
        # With q = p the objective splits additively, so the product mean
        # set is the Cartesian product of the component mean sets.
        rng = np.random.default_rng(23)
        left = EuclideanSpace(1)
        right = EuclideanSpace(1)
        for p in (1.0, 2.0):
            ps = ProductSpace(left, right, q=p)
            xs = rng.normal(size=3)
            ys = rng.normal(size=2)
            pairs = [(pt(a), pt(b)) for a in xs for b in ys]
            mu = DiscreteMeasure.uniform(ps, pairs)
            step = 0.05
            cands = ps.candidates(mu, "grid", step=step, pad=0.2)
            band = relaxed_mean_set(ps, mu, FrechetConfig(p=p), cands,
                                    resolution=step * 2 ** 0.5)

            mu_l = DiscreteMeasure.uniform(left, [pt(a) for a in xs])
            mu_r = DiscreteMeasure.uniform(right, [pt(b) for b in ys])
            band_l = relaxed_mean_set(left, mu_l, FrechetConfig(p=p),
                                      left.candidates(mu_l, "grid", step=step, pad=0.2),
                                      resolution=step)
            band_r = relaxed_mean_set(right, mu_r, FrechetConfig(p=p),
                                      right.candidates(mu_r, "grid", step=step, pad=0.2),
                                      resolution=step)
            cross = [(a, b) for a in band_l.points for b in band_r.points]
            combined = band.resolution + step
            assert one_sided_hausdorff(ps, band.points, cross) <= combined
            assert one_sided_hausdorff(ps, cross, band.points) <= combined


def _assert_group_laws(group, dim, seed=29):
    """Closure, inverses and one zero-length identity, read off the action
    at a random point x: act(g, act(h, x)) is some act(k, x) for every pair
    of a small group and 200 sampled pairs of a large one, and every act(g, x)
    is brought back to x by some k. All lengths are nonnegative."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=dim)
    elems = group.elements
    images = np.array([group.act(k, x) for k in elems])

    def some_element_gives(y, targets):
        return bool(np.any(np.max(np.abs(targets - y), axis=1) <= 1e-9))

    if len(elems) <= 20:
        pairs = itertools.product(elems, elems)
    else:
        pairs = [(elems[i], elems[j]) for i, j in rng.integers(len(elems), size=(200, 2))]
    for g, h in pairs:
        assert some_element_gives(group.act(g, group.act(h, x)), images), (g, h)
    for g in elems:
        y = group.act(g, x)
        assert some_element_gives(x, np.array([group.act(k, y) for k in elems])), g
    zero = [g for g in elems if group.length[g] == 0.0]
    assert len(zero) == 1
    assert np.max(np.abs(group.act(zero[0], x) - x)) <= 1e-9
    assert min(group.length[g] for g in elems) >= 0.0


class TestGroupSpec:
    @pytest.mark.parametrize("build,dim", [
        (lambda: sign_flip_group(dim=3), 3), (lambda: cyclic_rotation_group(1), 2),
        (lambda: cyclic_rotation_group(2), 2), (lambda: cyclic_rotation_group(360), 2),
        (lambda: planar_loop_group(4, rotations=2), 8),
    ], ids=["sign-flip", "rotations-1", "rotations-2", "rotations-360", "loop-4-2"])
    def test_builders_satisfy_the_group_laws(self, build, dim):
        _assert_group_laws(build(), dim)

    def test_rotation_group_closure_and_lengths(self):
        group = cyclic_rotation_group(8)
        _assert_group_laws(group, 2)
        assert group.length["rot0"] == 0.0
        assert group.length["rot4"] == pytest.approx(math.pi)
        assert group.length["rot1"] == pytest.approx(math.pi / 4)
        assert group.length["rot7"] == pytest.approx(math.pi / 4)

    def test_large_groups_build_without_tables(self):
        # No multiplication table is built: a group's memory is linear in
        # its order (the tables took 264 MB for loop_shape_space(128, 8)).
        tracemalloc.start()
        try:
            rot = cyclic_rotation_group(360)
            loops = loop_shape_space(128, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rot.elements) == 360 and len(loops.group.elements) == 1024
        assert peak < 2 * 2 ** 20

    def test_quotient_by_a_fine_rotation_group(self):
        # One degree is an element of the order-360 group, so x and x rotated
        # by one degree are one point of the quotient.
        x = np.array([0.3, -1.7])
        t = math.radians(1.0)
        turned = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) @ x
        qs = QuotientSpace(EuclideanSpace(2), cyclic_rotation_group(360))
        assert qs.distance(x, turned) == pytest.approx(0.0, abs=1e-9)
        assert EuclideanSpace(2).distance(x, turned) > 0.02

    def test_rotation_action_is_isometric(self):
        group = cyclic_rotation_group(6)
        plane = EuclideanSpace(2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = plane.sample_point(rng), plane.sample_point(rng)
            for g in group.elements:
                assert plane.distance(group.act(g, x), group.act(g, y)) == \
                    pytest.approx(plane.distance(x, y), abs=1e-12)

    def test_orbit_examples(self, flip_line):
        # The translates g.x of a point: told apart by the base space, one
        # point of the quotient.
        base, group = flip_line
        trivial = matrix_group(["e"], [np.eye(1)])
        for g, x, orbit in ((trivial, 3.0, [3.0]), (group, 0.0, [0.0]),
                            (group, 3.0, [-3.0, 3.0])):
            translates = [g.act(h, pt(x)) for h in g.elements]
            assert sorted(float(y[0]) for y in base.dedup(translates)) == orbit
            assert len(QuotientSpace(base, g).dedup(translates)) == 1


class TestQuotient:
    def test_sign_flip_example(self, flip_line):
        base, group = flip_line
        qs = QuotientSpace(base, group)
        # Orbits of 3 and -5: alignments give |3-(-5)| = 8 or |3-5| = 2.
        assert qs.distance(pt(3.0), pt(-5.0)) == pytest.approx(2.0)

    def test_same_orbit_is_zero(self, flip_line):
        base, group = flip_line
        qs = QuotientSpace(base, group)
        assert qs.distance(pt(4.0), pt(-4.0)) == 0.0

    def test_trivial_group_recovers_base(self):
        base = EuclideanSpace(1)
        qs = QuotientSpace(base, matrix_group(["e"], [np.eye(1)]))
        assert qs.distance(pt(1.0), pt(5.0)) == pytest.approx(4.0)

    def test_pseudometric_on_representatives(self, flip_line):
        base, group = flip_line
        qs = QuotientSpace(base, group)
        rng = np.random.default_rng(5)
        for _ in range(300):
            x, y, z = (base.sample_point(rng, 2.0) for _ in range(3))
            assert qs.distance(x, y) == pytest.approx(qs.distance(y, x), abs=1e-9)
            assert qs.distance(x, z) <= qs.distance(x, y) + qs.distance(y, z) + 1e-9

    def test_representative_independence(self):
        plane = EuclideanSpace(2)
        group = cyclic_rotation_group(5)
        qs = QuotientSpace(plane, group)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x, y = plane.sample_point(rng), plane.sample_point(rng)
            ref = qs.distance(x, y)
            for g in group.elements:
                for h in group.elements:
                    assert qs.distance(group.act(g, x), group.act(h, y)) == \
                        pytest.approx(ref, abs=1e-9)


class TestRegularization:
    def test_identity_alignment_upper_bound(self, flip_line):
        base, group = flip_line
        rs = RegularizedSpace(base, group, lam=1.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = base.sample_point(rng, 3.0), base.sample_point(rng, 3.0)
            assert rs.distance(x, y) <= base.distance(x, y) + 1e-12

    def test_large_scale_approaches_quotient(self, flip_line):
        base, group = flip_line
        rs = RegularizedSpace(base, group, lam=1e9)
        assert rs.distance(pt(3.0), pt(-5.0)) == pytest.approx(2.0, abs=1e-6)

    def test_small_scale_approaches_base(self, flip_line):
        base, group = flip_line
        rs = RegularizedSpace(base, group, lam=1e-9)
        assert rs.distance(pt(3.0), pt(-5.0)) == pytest.approx(8.0, abs=1e-6)

    def test_sandwich_and_scale_monotonicity(self, flip_line):
        base, group = flip_line
        qs = QuotientSpace(base, group)
        scales = [0.25, 1.0, 4.0]
        spaces = [RegularizedSpace(base, group, lam=s) for s in scales]
        rng = np.random.default_rng(8)
        for _ in range(300):
            x, y = base.sample_point(rng, 3.0), base.sample_point(rng, 3.0)
            values = [rs.distance(x, y) for rs in spaces]
            # Larger lam makes alignment cheaper, so distances decrease.
            assert values[0] >= values[1] - 1e-12
            assert values[1] >= values[2] - 1e-12
            for v in values:
                assert qs.distance(x, y) - 1e-12 <= v <= base.distance(x, y) + 1e-12

    def test_missing_length_rejected(self):
        base = EuclideanSpace(1)
        group = matrix_group(["e", "g"], [np.eye(1), -np.eye(1)])  # no lengths
        with pytest.raises(ConfigurationError):
            RegularizedSpace(base, group, lam=1.0)

    def test_metric_axioms(self, flip_line):
        base, group = flip_line
        rs = RegularizedSpace(base, group, lam=1.0)
        report = metric_axiom_violations(rs, np.random.default_rng(9), trials=300)
        assert report["passed"], report


class TestLoopPreset:
    def test_shift_and_rotation_invariance(self):
        space = loop_shape_space(n_samples=6, rotations=4)
        rng = np.random.default_rng(10)
        x = space.sample_point(rng)
        group = space.group
        for g in [(2, 0), (0, 1), (3, 2)]:
            assert space.distance(x, group.act(g, x)) == pytest.approx(0.0, abs=1e-9)

    def test_group_lengths(self):
        group = planar_loop_group(4, rotations=2)
        assert group.length[(0, 0)] == 0.0
        assert group.length[(2, 0)] == pytest.approx(math.pi)

    def test_mean_set_on_aligned_loops(self):
        space = loop_shape_space(n_samples=4, rotations=4)
        rng = np.random.default_rng(11)
        base_loop = space.sample_point(rng)
        shifted = space.group.act((1, 1), base_loop)
        mu = DiscreteMeasure.uniform(space, [base_loop, shifted])
        band = grid_oracle(space, mu, FrechetConfig(p=2.0),
                           space.candidates(mu, "support"), resolution=1e-9)
        # Both representatives lie in one orbit, so either minimizes.
        assert len(band.points) >= 1
        assert band.achieved_value <= 1e-12


class TestProductCandidatesAndCodecs:
    def test_point_codec_round_trips(self):
        rng = np.random.default_rng(19)
        ps = ProductSpace(EuclideanSpace(2), EuclideanSpace(1), q=2.0)
        base = EuclideanSpace(1)
        group = sign_flip_group(dim=1)
        for space in (ps, QuotientSpace(base, group),
                      RegularizedSpace(base, group, lam=1.0)):
            x = space.sample_point(rng)
            back = space.point_from_json(space.point_to_json(x))
            assert space.points_equal(x, back)


class TestGroupAligned:
    @pytest.fixture(params=["quotient", "regularized"])
    def aligned(self, request, flip_line):
        base, group = flip_line
        if request.param == "quotient":
            return QuotientSpace(base, group)
        return RegularizedSpace(base, group, lam=0.5)

    def test_points_codecs_and_samples_are_the_base_spaces(self, aligned):
        base = aligned.base
        for x in (pt(2.5), [1.0, 2.0], pt(math.nan)):
            assert aligned.contains(x) == base.contains(x)
        x = pt(-1.25)
        assert aligned.point_to_json(x) == base.point_to_json(x) == [-1.25]
        assert np.array_equal(aligned.point_from_json([0.75]), base.point_from_json([0.75]))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(aligned.sample_point(a, 2.0), base.sample_point(b, 2.0))

    def test_a_regularized_space_is_not_a_quotient(self):
        # d(x, g.x) = rho(g) / lam > 0 for the flip: the orbit is not one point.
        assert not issubclass(RegularizedSpace, QuotientSpace)
        assert not issubclass(QuotientSpace, RegularizedSpace)

    def test_only_the_quotient_merges_candidates_by_orbit(self, flip_line):
        base, group = flip_line
        support = [pt(3.0), pt(-3.0), pt(1.0)]
        qs, rs = QuotientSpace(base, group), RegularizedSpace(base, group, lam=1.0)
        for space, kept in ((qs, [3.0, 1.0]), (rs, [3.0, -3.0, 1.0])):
            mu = DiscreteMeasure.uniform(space, support)
            for scheme in ("support", "grid"):
                got = space.candidates(mu, scheme, step=0.5)
                base_got = base.candidates(DiscreteMeasure.uniform(base, support), scheme,
                                           step=0.5)
                if scheme == "support":
                    assert [float(x[0]) for x in got] == kept
                if space is rs:
                    assert np.array_equal(np.asarray(got), np.asarray(base_got))
                else:
                    assert len(got) == len(qs.dedup(base_got)) < len(base_got)


class TestGridMeanSet:
    """A construction has no chart: ``grid_mean_set`` sweeps its ``grid``
    candidates, which ``grid_oracle`` sweeps too."""

    @pytest.mark.parametrize("space", [
        ProductSpace(EuclideanSpace(1), EuclideanSpace(1), q=1.0),
        ProductSpace(EuclideanSpace(1), EuclideanSpace(1), q=2.0),
        QuotientSpace(EuclideanSpace(1), sign_flip_group())],
        ids=["product-q1", "product-q2", "quotient"])
    @pytest.mark.parametrize("p,epsilon", [(1.0, 0.0), (2.0, 0.0), (2.0, 0.05)])
    def test_band_is_the_oracle_over_the_grid(self, space, p, epsilon):
        rng = np.random.default_rng(31)
        draws = rng.normal(size=(5, 2))
        support = ([(pt(a), pt(b)) for a, b in draws] if isinstance(space, ProductSpace)
                   else [pt(a) for a in draws[:, 0]])
        mu = DiscreteMeasure.uniform(space, support)
        config = FrechetConfig(p=p, epsilon=epsilon)
        got = grid_mean_set(space, mu, config, 0.1, 0.2)
        want = grid_oracle(space, mu, config,
                           space.candidates(mu, "grid", step=0.1, pad=0.2), resolution=0.1)
        assert got.achieved_value == want.achieved_value
        assert got.resolution == want.resolution
        assert len(got.points) == len(want.points)
        assert np.array(got.points).tobytes() == np.array(want.points).tobytes()
