import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frechet import (
    ConfigurationError,
    DiscreteMeasure,
    BuresWassersteinSpace,
    EuclideanSpace,
    LqSequenceSpace,
    Measure1D,
    PersistenceDiagramSpace,
    SpiderSpace,
    Wasserstein1D,
    matrix_sqrt,
    quantile_barycenter,
)
from frechet.constructions import (
    ProductSpace,
    QuotientSpace,
    RegularizedSpace,
    cyclic_rotation_group,
    loop_shape_space,
    sign_flip_group,
)
from frechet.core import Space, metric_axiom_violations
from frechet.cli import space_from_json

from conftest import all_spaces, pt
from oracles import (
    bures_wasserstein_pair,
    dedup_scalar,
    diagram_matching_enumeration,
    euclidean_pair,
    lq_pair,
    product_pair,
    quantile_function_values,
    quotient_pair,
    regularized_pair,
    spider_pair,
    transport_lp,
    transport_simplex_exact,
    wasserstein1d_pair,
    wasserstein2_functional,
)


class TestMetricAxioms:
    @pytest.mark.parametrize("space", all_spaces(), ids=lambda s: type(s).__name__)
    def test_randomized_triples(self, space):
        rng = np.random.default_rng(42)
        report = metric_axiom_violations(space, rng, trials=300)
        assert report["passed"], report

    @pytest.mark.parametrize("space", all_spaces(), ids=lambda s: type(s).__name__)
    def test_zero_distance_implies_equality(self, space):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = space.sample_point(rng)
            assert space.points_equal(x, x)


class TestDistanceExamples:
    def test_wasserstein_point_masses(self):
        w = Wasserstein1D(q=2.0)
        assert w.distance(Measure1D([1.3]), Measure1D([-0.7])) == pytest.approx(2.0)

    def test_bures_wasserstein_scalar(self):
        bw = BuresWassersteinSpace(dim=1)
        # (sqrt(4) - sqrt(1))^2 = 1, so the distance is 1.
        assert bw.distance(np.array([[4.0]]), np.array([[1.0]])) == pytest.approx(1.0)

    def test_spider_through_center(self):
        spider = SpiderSpace(legs=3)
        assert spider.distance((1, 0.5), (2, 0.7)) == pytest.approx(1.2)
        assert spider.distance((1, 0.5), (1, 0.7)) == pytest.approx(0.2)

    def test_spider_center_identification(self):
        spider = SpiderSpace(legs=4)
        assert spider.distance((0, 0.0), (3, 0.0)) == 0.0
        assert spider.points_equal((1, 0.0), (2, 0.0))

    def test_lq_distance(self):
        lq = LqSequenceSpace(truncation=2, q=3.0)
        got = lq.distance(pt(0.0, 0.0), pt(1.0, 1.0))
        assert got == pytest.approx(2.0 ** (1.0 / 3.0))


class TestWassersteinQuantileCoupling:
    def test_matches_transport_lp(self):
        rng = np.random.default_rng(0)
        w = Wasserstein1D(q=2.0)
        for _ in range(40):
            na, nb = rng.integers(1, 5), rng.integers(1, 5)
            atoms_a = rng.normal(size=na)
            atoms_b = rng.normal(size=nb)
            wa = rng.uniform(0.2, 1.0, size=na); wa /= wa.sum(); wa[-1] = 1 - wa[:-1].sum()
            wb = rng.uniform(0.2, 1.0, size=nb); wb /= wb.sum(); wb[-1] = 1 - wb[:-1].sum()
            lhs = w.distance(Measure1D(atoms_a, wa), Measure1D(atoms_b, wb))
            rhs = transport_lp(atoms_a, wa, atoms_b, wb, 2.0)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_order_one_matches_lp(self):
        w = Wasserstein1D(q=1.0)
        lhs = w.distance(Measure1D([0.0, 1.0]), Measure1D([0.5], [1.0]))
        rhs = transport_lp([0.0, 1.0], [0.5, 0.5], [0.5], [1.0], 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_equal_measures_hash_equal(self):
        pairs = [(Measure1D([0.0]), Measure1D([1e-9])),
                 (Measure1D([0.0, 1.0]), Measure1D([1e-9, 1.0], [0.5 + 1e-10, 0.5 - 1e-10]))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights"):
            Measure1D([0.0, 1.0], weights)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=4),
           st.lists(st.floats(-5, 5), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_uniform_measures_match_lp_property(self, atoms_a, atoms_b):
        w = Wasserstein1D(q=2.0)
        lhs = w.distance(Measure1D(atoms_a), Measure1D(atoms_b))
        # Hypothesis picks atoms 6e-8 apart next to atoms of order one, where
        # a floating-point LP's tolerance is larger than the costs: the LP is
        # solved exactly.
        rhs = transport_simplex_exact(atoms_a, [1.0 / len(atoms_a)] * len(atoms_a),
                                      atoms_b, [1.0 / len(atoms_b)] * len(atoms_b), 2.0)
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestQuantileBarycenter:
    def test_two_diracs_average(self):
        w = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(w, [Measure1D([0.0]), Measure1D([2.0])])
        bar = quantile_barycenter(w, mu)
        assert bar == Measure1D([1.0])

    def test_single_member_identity(self):
        w = Wasserstein1D(q=2.0)
        member = Measure1D([0.0, 1.0, 4.0], [0.25, 0.25, 0.5])
        bar = quantile_barycenter(w, DiscreteMeasure.dirac(w, member))
        assert w.distance(bar, member) == pytest.approx(0.0, abs=1e-12)

    def test_two_atom_members(self):
        # Oracle: per-level quantile averages of uniform{0,1} and uniform{1,2}.
        levels = (np.arange(8) + 0.5) / 8
        q1 = quantile_function_values([0.0, 1.0], [0.5, 0.5], levels)
        q2 = quantile_function_values([1.0, 2.0], [0.5, 0.5], levels)
        averaged = Measure1D([(a + b) / 2 for a, b in zip(q1, q2)])
        assert averaged == Measure1D([0.5, 1.5])

        w = Wasserstein1D(q=2.0)
        mu = DiscreteMeasure.uniform(w, [Measure1D([0.0, 1.0]), Measure1D([1.0, 2.0])])
        bar = quantile_barycenter(w, mu)
        assert bar == Measure1D([0.5, 1.5])

    def test_beats_grid_candidates(self):
        # The barycenter's objective must not exceed any two-atom candidate's.
        w = Wasserstein1D(q=2.0)
        members = [Measure1D([0.0, 1.0]), Measure1D([1.0, 2.0]), Measure1D([0.5, 3.0])]
        mu = DiscreteMeasure.uniform(w, members)
        bar = quantile_barycenter(w, mu)
        bar_value = wasserstein2_functional(w.distance, bar, members, mu.weights)
        for cand in w.candidates(mu, "grid", step=0.25, atom_count=2):
            cand_value = wasserstein2_functional(w.distance, cand, members, mu.weights)
            assert bar_value <= cand_value + 1e-9

    def test_rejects_other_orders(self):
        w1 = Wasserstein1D(q=1.0)
        mu = DiscreteMeasure.uniform(w1, [Measure1D([0.0]), Measure1D([1.0])])
        with pytest.raises(ConfigurationError):
            quantile_barycenter(w1, mu)

    def test_solver_seeded_candidates_include_barycenter(self):
        w = Wasserstein1D(q=2.0)
        members = [Measure1D([0.0]), Measure1D([2.0])]
        mu = DiscreteMeasure.uniform(w, members)
        seeds = w.candidates(mu, "solver-seeded")
        bar = quantile_barycenter(w, mu)
        assert any(w.points_equal(s, bar) for s in seeds)
        for member in members:
            assert any(w.points_equal(s, member) for s in seeds)


class TestLqMeanSets:
    def test_symmetric_two_point_mean(self):
        # Convexity and symmetry put the order-2 mean at the midpoint for
        # any l_q norm; checked against the grid band.
        from frechet import FrechetConfig, grid_oracle
        lq = LqSequenceSpace(truncation=2, q=1.5)
        a, b = pt(0.0, 0.0), pt(1.0, 1.0)
        mu = DiscreteMeasure.uniform(lq, [a, b])
        grid = lq.candidates(mu, "grid", step=0.05, pad=0.1)
        band = grid_oracle(lq, mu, FrechetConfig(p=2.0), grid, resolution=0.05)
        assert len(band.points) == 1
        assert np.allclose(band.points[0], [0.5, 0.5], atol=0.05)


class TestPersistenceDiagrams:
    def test_single_point_to_empty(self):
        pd = PersistenceDiagramSpace(q=2.0)
        assert pd.distance(((0.0, 2.0),), ()) == pytest.approx(math.sqrt(2.0))

    def test_identical_diagrams(self):
        pd = PersistenceDiagramSpace(q=2.0)
        d = ((0.0, 1.0), (0.5, 3.0))
        assert pd.distance(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_direct_match_beats_diagonal(self):
        pd = PersistenceDiagramSpace(q=2.0)
        # Oracle enumeration over both matchings.
        expected = diagram_matching_enumeration([(0.0, 2.0)], [(0.0, 2.1)], 2.0)
        assert expected == pytest.approx(0.1)
        assert pd.distance(((0.0, 2.0),), ((0.0, 2.1),)) == pytest.approx(expected)

    def test_matches_enumeration_on_random_diagrams(self):
        rng = np.random.default_rng(9)
        pd = PersistenceDiagramSpace(q=2.0)
        for _ in range(40):
            d1 = pd.sample_point(rng)[:4]
            d2 = pd.sample_point(rng)[:4]
            expected = diagram_matching_enumeration(d1, d2, 2.0)
            assert pd.distance(d1, d2) == pytest.approx(expected, abs=1e-10)

    def test_enumeration_also_matches_other_orders(self):
        pd = PersistenceDiagramSpace(q=3.0)
        d1 = ((0.0, 2.0), (1.0, 1.5))
        d2 = ((0.2, 1.9),)
        assert pd.distance(d1, d2) == pytest.approx(
            diagram_matching_enumeration(d1, d2, 3.0), abs=1e-10)


class TestBuresWasserstein:
    def test_matrix_sqrt_identity(self):
        bw = BuresWassersteinSpace(dim=3)
        assert np.allclose(matrix_sqrt(bw, np.eye(3)), np.eye(3))

    def test_matrix_sqrt_diagonal(self):
        bw = BuresWassersteinSpace(dim=2)
        assert np.allclose(matrix_sqrt(bw, np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_matrix_sqrt_rank_deficient(self):
        bw = BuresWassersteinSpace(dim=2)
        assert np.allclose(matrix_sqrt(bw, np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_matrix_sqrt_rejects_asymmetric(self):
        bw = BuresWassersteinSpace(dim=2)
        with pytest.raises(ValueError):
            matrix_sqrt(bw, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_stacked_matrix_sqrt_roots_each_matrix(self):
        bw = BuresWassersteinSpace(dim=2)
        rng = np.random.default_rng(4)
        stack = np.array([bw.sample_point(rng) for _ in range(5)] + [np.diag([4.0, 0.0])])
        roots = matrix_sqrt(bw, stack.reshape(2, 3, 2, 2)).reshape(6, 2, 2)
        for sigma, root in zip(stack, roots):
            assert np.allclose(root, matrix_sqrt(bw, sigma), rtol=0.0, atol=1e-14)

    def test_stacked_clamp_is_relative_to_each_matrix(self):
        bw = BuresWassersteinSpace(dim=2)
        roots = matrix_sqrt(bw, np.array([np.diag([1e6, 1e-7]), np.diag([1.0, 1e-7]),
                                          np.diag([1.0, -1e-13])]))
        assert np.array_equal(np.diagonal(roots, axis1=1, axis2=2),
                              [[1e3, 0.0], [1.0, math.sqrt(1e-7)], [1.0, 0.0]])

    def test_stacked_inputs_are_checked(self):
        bw = BuresWassersteinSpace(dim=2)
        good = [np.eye(2), np.diag([2.0, 1.0])]
        skew = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            matrix_sqrt(bw, np.stack([np.eye(2), skew]))
        with pytest.raises(ValueError):
            matrix_sqrt(bw, np.zeros((4, 3, 3)))
        with pytest.raises(ValueError):
            matrix_sqrt(bw, np.zeros(2))
        for bad in ([np.eye(3)], [np.eye(2), skew], [np.zeros(4)]):
            with pytest.raises(ValueError):
                bw.pairwise_distances(bad, good)
            with pytest.raises(ValueError):
                bw.pairwise_distances(good, bad)
        with pytest.raises(ValueError):
            bw.distance(np.eye(3), np.eye(3))

    def test_commuting_closed_form(self):
        bw = BuresWassersteinSpace(dim=3)
        rng = np.random.default_rng(2)
        for _ in range(20):
            lam1 = rng.uniform(0.1, 4.0, size=3)
            lam2 = rng.uniform(0.1, 4.0, size=3)
            basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            a = basis @ np.diag(lam1) @ basis.T
            b = basis @ np.diag(lam2) @ basis.T
            expected = math.sqrt(np.sum((np.sqrt(lam1) - np.sqrt(lam2)) ** 2))
            assert bw.distance(a, b) == pytest.approx(expected, abs=1e-8)

    def test_scalar_case(self):
        bw = BuresWassersteinSpace(dim=1)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s1, s2 = rng.uniform(0.01, 9.0, size=2)
            expected = abs(math.sqrt(s1) - math.sqrt(s2))
            assert bw.distance(np.array([[s1]]), np.array([[s2]])) == pytest.approx(expected)


def _close(batched, reference):
    return abs(batched - reference) <= 1e-12 * (1.0 + abs(reference))


def _check_kernel(space, xs, ys, reference):
    """Batched entries against the per-pair reference formula in
    ``oracles.py`` (``distance`` is the kernel's own 1x1 case, so it is no
    reference); identical pairs give exactly 0.0."""
    dm = space.pairwise_distances(xs, ys)
    assert dm.shape == (len(xs), len(ys))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            expected = reference(x, y)
            assert _close(dm[i, j], expected), (i, j, dm[i, j], expected)
            if y is x:
                assert dm[i, j] == 0.0 and space.distance(x, y) == 0.0
    return dm


_coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


@st.composite
def _vector_pairs(draw, dim):
    vec = st.lists(_coord, min_size=dim, max_size=dim).map(lambda v: np.asarray(v))
    xs = draw(st.lists(vec, min_size=1, max_size=5))
    ys = draw(st.lists(vec, min_size=1, max_size=5))
    return xs, ys + [xs[0]]


@st.composite
def _spider_points(draw, legs):
    # Small integer arc lengths make the centre and shared values common.
    t = st.one_of(st.integers(0, 3).map(float), st.floats(0, 100))
    point = st.tuples(st.integers(0, legs - 1), t)
    xs = draw(st.lists(point, min_size=1, max_size=5))
    ys = draw(st.lists(point, min_size=1, max_size=5))
    return xs, ys + [xs[0], ((xs[0][0] + 1) % legs, 0.0)]


@st.composite
def _line_measure(draw):
    k = draw(st.integers(1, 6))
    atoms = draw(st.lists(st.floats(-10, 10), min_size=k, max_size=k))
    w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return Measure1D(atoms, w)


@st.composite
def _psd_matrix(draw, dim):
    # A dim x rank factor: rank < dim gives rank-deficient matrices.
    rank = draw(st.integers(0, dim))
    entries = draw(st.lists(st.floats(-3, 3), min_size=dim * rank, max_size=dim * rank))
    factor = np.asarray(entries, dtype=float).reshape(dim, rank)
    return factor @ factor.T


class TestBatchedKernels:
    """Every batched kernel against the per-pair distance it replaces."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 10])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_euclidean(self, dim, data):
        xs, ys = data.draw(_vector_pairs(dim))
        space = EuclideanSpace(dim=dim)
        dm = _check_kernel(space, xs, ys, euclidean_pair)
        if dim <= 2:
            diff = np.asarray(xs)[:, None, :] - np.asarray(ys)[None, :, :]
            assert np.array_equal(dm, np.sqrt(np.sum(diff * diff, axis=2)))

    @pytest.mark.parametrize("space", [EuclideanSpace(1), EuclideanSpace(2),
                                       LqSequenceSpace(truncation=3, q=1.5)], ids=repr)
    def test_vector_shapes(self, space):
        n = space.dim if isinstance(space, EuclideanSpace) else space.truncation
        one = [np.zeros(n)]
        assert space.pairwise_distances(one, []).shape == (1, 0)
        assert space.pairwise_distances([], one).shape == (0, 1)
        assert space.pairwise_distances(np.empty((0, n)), []).shape == (0, 0)
        wrong = [([np.zeros(n + 1)], one), (one, [np.ones(n + 1)]),
                 (np.zeros((2, n + 1)), np.zeros((2, n + 1))), ([1.0], [2.0]),
                 (np.zeros((3, 0)), one), (one, np.zeros((1, n, 1)))]
        for xs, ys in wrong:
            with pytest.raises(ValueError, match="length"):
                space.pairwise_distances(xs, ys)
        with pytest.raises(ValueError, match="length"):
            space.distance(np.zeros(n + 1), np.ones(n + 1))

    @pytest.mark.parametrize("q", [1.5, 3.0])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lq(self, q, data):
        xs, ys = data.draw(_vector_pairs(3))
        _check_kernel(LqSequenceSpace(truncation=3, q=q), xs, ys,
                      lambda x, y: lq_pair(x, y, q))

    @pytest.mark.parametrize("legs", [1, 3])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_spider(self, legs, data):
        xs, ys = data.draw(_spider_points(legs))
        space = SpiderSpace(legs=legs)
        dm = _check_kernel(space, xs, ys, spider_pair)
        # The centre is one point, whatever leg names it.
        assert dm[0, -1] == xs[0][1]

    @pytest.mark.parametrize("space", [
        QuotientSpace(EuclideanSpace(1), sign_flip_group(dim=1)),
        QuotientSpace(EuclideanSpace(2), sign_flip_group(dim=2)),
        loop_shape_space(n_samples=3, rotations=4),
    ], ids=["flip1", "flip2", "loop-shape"])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_quotient(self, space, data):
        xs, ys = data.draw(_vector_pairs(space.base.dim))
        # An image of a point is the same point of the quotient.
        ys = ys + [space.group.act(space.group.elements[-1], xs[0])]
        dm = _check_kernel(space, xs, ys,
                           lambda x, y: quotient_pair(euclidean_pair, space.group, x, y))
        assert dm[0, -1] <= 1e-12 * (1.0 + np.abs(xs[0]).max())

    @pytest.mark.parametrize("base,group", [
        (EuclideanSpace(1), sign_flip_group(dim=1)),
        (EuclideanSpace(2), cyclic_rotation_group(4)),
    ], ids=["flip", "rotations"])
    @given(data=st.data(), lam=st.sampled_from([0.1, 1.0, 25.0]))
    @settings(max_examples=30, deadline=None)
    def test_regularized(self, base, group, data, lam):
        xs, ys = data.draw(_vector_pairs(base.dim))
        space = RegularizedSpace(base, group, lam=lam)
        _check_kernel(space, xs, ys,
                      lambda x, y: regularized_pair(euclidean_pair, group, lam, x, y))

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_product(self, q, data):
        vectors, _ = data.draw(_vector_pairs(2))
        xs, ys = data.draw(_spider_points(3))
        pairs_x = [(vectors[i % len(vectors)], x) for i, x in enumerate(xs)]
        pairs_y = [(vectors[-1 - i % len(vectors)], y) for i, y in enumerate(ys)]
        pairs_y.append(pairs_x[0])
        space = ProductSpace(EuclideanSpace(2), SpiderSpace(legs=3), q=q)
        _check_kernel(space, pairs_x, pairs_y,
                      lambda x, y: product_pair(euclidean_pair, spider_pair, q, x, y))

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
    @given(xs=st.lists(_line_measure(), min_size=1, max_size=5),
           ys=st.lists(_line_measure(), min_size=1, max_size=5))
    # CDF levels one float apart: the distance is sqrt(1.1e-16) at q = 2.
    @example(xs=[Measure1D([0.0, 1.0], [0.7852760736196318, 0.2147239263803681])],
             ys=[Measure1D([0.0, 1.0], [0.7852760736196319, 0.2147239263803681])])
    @settings(max_examples=40, deadline=None)
    def test_wasserstein1d(self, q, xs, ys):
        space = Wasserstein1D(q=q)
        ys = ys + [xs[0]]
        dm = _check_kernel(space, xs, ys, reference=lambda x, y: wasserstein1d_pair(x, y, q))
        # Padding to other measures' atom counts adds exact zeros only, so
        # an entry does not depend on the rest of the batch.
        assert np.array_equal(dm, [[space.distance(x, y) for y in ys] for x in xs])

    def test_wasserstein1d_memory_is_per_pair(self):
        # Random weights give every measure its own CDF levels. The kernel's
        # temporaries must grow with each pair's k_x + k_y levels, not with
        # the levels of the whole batch (here 500 x 10 of them).
        rng = np.random.default_rng(8)
        members = []
        for _ in range(500):
            w = rng.uniform(0.1, 1.0, size=10)
            w /= w.sum()
            w[-1] = 1.0 - float(w[:-1].sum())
            members.append(Measure1D(rng.normal(size=10), w))
        space = Wasserstein1D(q=2.0)
        tracemalloc.start()
        try:
            row = space.pairwise_distances(members[:1], members)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * len(members) * 20 * 8
        for j in (0, 1, 250, 499):
            assert _close(row[j], wasserstein1d_pair(members[0], members[j], 2.0))

    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bures_wasserstein(self, dim, data):
        xs = data.draw(st.lists(_psd_matrix(dim), min_size=1, max_size=5))
        ys = data.draw(st.lists(_psd_matrix(dim), min_size=1, max_size=5))
        _check_kernel(BuresWassersteinSpace(dim=dim), xs, ys + [xs[0]],
                      reference=bures_wasserstein_pair)


class TestCandidates:
    def test_support_scheme(self, line):
        mu = DiscreteMeasure.uniform(line, [pt(0.0), pt(1.0), pt(1.0)])
        cands = line.candidates(mu, "support")
        assert sorted(float(c[0]) for c in cands) == [0.0, 1.0]

    def test_grid_scheme_on_unit_interval(self, line):
        mu = DiscreteMeasure.uniform(line, [pt(0.0), pt(1.0)])
        cands = line.candidates(mu, "grid", step=0.5)
        assert [float(c[0]) for c in cands] == pytest.approx([0.0, 0.5, 1.0])

    def test_spider_grid(self):
        spider = SpiderSpace(legs=2)
        mu = DiscreteMeasure.uniform(spider, [(0, 1.0), (1, 0.4)])
        cands = spider.candidates(mu, "grid", step=0.5)
        assert (0, 0.0) in cands
        for leg in range(2):
            assert (leg, 0.5) in cands
            assert (leg, 1.0) in cands

    def test_unsupported_scheme_raises(self):
        pd = PersistenceDiagramSpace(q=2.0)
        mu = DiscreteMeasure.uniform(pd, [((0.0, 1.0),)])
        with pytest.raises(ConfigurationError):
            pd.candidates(mu, "grid", step=0.1)

    def test_bw_grid_dim1_covers_support(self):
        bw = BuresWassersteinSpace(dim=1)
        mu = DiscreteMeasure.uniform(bw, [np.array([[1.0]]), np.array([[4.0]])])
        cands = bw.candidates(mu, "grid", step=0.5)
        values = sorted(float(c[0, 0]) for c in cands)
        assert values[0] == pytest.approx(1.0)
        assert values[-1] >= 4.0 - 1e-9

    def test_bw_grid_dim2_stays_psd(self):
        bw = BuresWassersteinSpace(dim=2)
        mu = DiscreteMeasure.uniform(bw, [np.eye(2), np.diag([2.0, 0.5])])
        for cand in bw.candidates(mu, "grid", step=0.5):
            assert np.linalg.eigvalsh(cand)[0] >= -1e-9


class TestSerialization:
    @pytest.mark.parametrize("space", all_spaces(), ids=lambda s: type(s).__name__)
    def test_point_round_trip(self, space):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = space.sample_point(rng)
            back = space.point_from_json(space.point_to_json(x))
            assert space.points_equal(x, back, tol=1e-9)

    @pytest.mark.parametrize("spec, expected", [
        pytest.param(spec, space, id=type(space).__name__) for spec, space in (
            ({"type": "euclidean", "dim": 2}, EuclideanSpace(dim=2)),
            ({"type": "lq", "truncation": 3, "q": 1.5}, LqSequenceSpace(truncation=3, q=1.5)),
            ({"type": "spider", "legs": 3}, SpiderSpace(legs=3)),
            ({"type": "wasserstein1d", "q": 1.0}, Wasserstein1D(q=1.0)),
            ({"type": "bures-wasserstein", "dim": 2}, BuresWassersteinSpace(dim=2)),
            ({"type": "persistence-diagram", "q": 3.0}, PersistenceDiagramSpace(q=3.0)),
        )])
    def test_space_round_trip(self, spec, expected):
        # A JSON spec builds the expected space, whose fields give the spec back.
        space = space_from_json(spec)
        assert type(space) is type(expected) and space == expected
        assert {"type": spec["type"], **dataclasses.asdict(space)} == spec

    def test_space_from_json_defaults_and_unknown_type(self):
        assert space_from_json({"type": "wasserstein1d"}) == Wasserstein1D(q=2.0)
        assert (space_from_json({"type": "persistence-diagram"})
                == PersistenceDiagramSpace(q=2.0))
        with pytest.raises(ConfigurationError):
            space_from_json({"type": "hilbert"})


def _outcome(fn):
    """A call's value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return type(exc)


_NAN, _INF = float("nan"), float("inf")


class TestContainsAll:
    """The stacked membership check against the loop over ``contains``."""

    @pytest.mark.parametrize("space", [EuclideanSpace(dim=2), LqSequenceSpace(truncation=2, q=3.0)],
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("points", [
        [pt(1.0, 2.0), pt(3.0, 4.0)],
        [[1, 2], (3.0, 4.0)],
        np.arange(6.0).reshape(3, 2),
        [pt(1.0, 2.0, 3.0)],
        [pt(1.0)],
        [np.zeros((1, 2))],
        [1.0, 2.0],
        [pt(1.0, _NAN)],
        [pt(0.0, 1.0), pt(_INF, 0.0)],
        [pt(0.0, 1.0), pt(-_INF, 0.0)],
        [pt(1.0, 2.0), pt(1.0, 2.0, 3.0)],
        [pt(1.0, 2.0, 3.0), pt(1.0, 2.0)],
        [pt(1.0, 2.0), "ab"],
        [pt(1.0, 2.0, 3.0), "ab"],
        ["12", "34"],
        [["1", "2"]],
        [[1.0, None]],
        [[1.0, 2.0 + 1.0j]],
        [],
    ], ids=lambda p: repr(p)[:40])
    def test_matches_contains_loop(self, space, points):
        expected = _outcome(lambda: all(space.contains(x) for x in points))
        assert _outcome(lambda: space.contains_all(points)) == expected

    @pytest.mark.parametrize("space", [EuclideanSpace(dim=2), LqSequenceSpace(truncation=2, q=3.0),
                                       BuresWassersteinSpace(dim=2)],
                             ids=lambda s: type(s).__name__)
    @pytest.mark.parametrize("x", ["x", None, [[1.0, 2.0], [3.0]], [[[1.0, 0.0], [0.0, 1.0]]],
                                   {"a": 1.0}, 10 ** 400], ids=repr)
    def test_contains_is_false_for_what_is_no_point(self, space, x):
        assert space.contains(x) is False
        assert space.contains_all([x]) is False

    def test_strings_and_bools_are_not_points(self):
        # np.asarray(..., dtype=float) read "1" as 1.0 and True as 1.0.
        plane, bw = EuclideanSpace(dim=2), BuresWassersteinSpace(dim=1)
        assert plane.contains(["1", "2"]) is False
        assert plane.contains([True, False]) is False
        assert bw.contains([["2"]]) is False and bw.contains([[True]]) is False
        assert plane.contains_all([pt(1.0, 2.0), ["1", "2"]]) is False
        with pytest.raises(ConfigurationError):
            DiscreteMeasure.uniform(EuclideanSpace(dim=1), [["1"], ["2"]])
        # A number among them makes one numeric array: True is then 1.0.
        assert plane.contains([1.0, True]) is True
        # Integers past int64 stack as objects, and are still numbers.
        assert plane.contains_all([[1, 2], [2 ** 70, 0]]) is True

    def test_measure_rejects_nonfinite_support(self, line):
        with pytest.raises(ConfigurationError):
            DiscreteMeasure.uniform(line, [pt(0.0), pt(_NAN)])
        with pytest.raises(ConfigurationError):
            DiscreteMeasure.uniform(line, [pt(0.0), pt(1.0, 2.0)])


def _dedup_spaces():
    flip = sign_flip_group(dim=1)
    return all_spaces() + [
        ProductSpace(EuclideanSpace(1), SpiderSpace(legs=2)),
        QuotientSpace(EuclideanSpace(1), flip),
        RegularizedSpace(EuclideanSpace(1), flip, lam=0.5),
    ]


class TestDedup:
    """The batched ``dedup`` against the scalar ``points_equal`` loop."""

    @pytest.mark.parametrize("space", _dedup_spaces(), ids=lambda s: type(s).__name__)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           picks=st.lists(st.integers(0, 6), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_loop(self, space, seed, picks):
        rng = np.random.default_rng(seed)
        pool = [space.sample_point(rng) for _ in range(4)]
        if isinstance(space, QuotientSpace):
            pool += [space.group.act(g, pool[0]) for g in space.group.elements]
        pool += pool[:7 - len(pool)]
        points = [pool[i] for i in picks]
        kept = space.dedup(points)
        expected = dedup_scalar(space, points)
        assert len(kept) == len(expected)
        assert all(a is b for a, b in zip(kept, expected))

    def test_product_keeps_componentwise_rule(self):
        # Each component moves by 0.9e-9, within the tolerance, while the
        # product distance (1.27e-9) is not.
        space = ProductSpace(EuclideanSpace(1), EuclideanSpace(1))
        x, y = (pt(0.0), pt(0.0)), (pt(0.9e-9), pt(0.9e-9))
        assert space.distance(x, y) > 1e-9
        assert space.dedup([x, y]) == dedup_scalar(space, [x, y]) == [x]


class TestOneKernelPerSpace:
    """Each space writes its metric once, as ``pairwise_distances``;
    ``distance`` is the base class's 1x1 case everywhere but in persistence
    diagrams, whose kernel loops over pairs (one assignment problem each)."""

    @pytest.mark.parametrize("space", _dedup_spaces(), ids=lambda s: type(s).__name__)
    def test_only_persistence_diagrams_override_distance(self, space):
        cls = type(space)
        assert cls.pairwise_distances is not Space.pairwise_distances
        assert (cls.distance is not Space.distance) == isinstance(space, PersistenceDiagramSpace)

    def test_base_class_has_no_metric(self):
        with pytest.raises(NotImplementedError):
            Space().pairwise_distances([0.0], [1.0])
        with pytest.raises(NotImplementedError):
            Space().distance(0.0, 1.0)
