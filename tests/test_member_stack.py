"""Solvers that read the measure's stack against the member-by-member loops
they replaced (``tests/oracles.py``), bit for bit: the Bures-Wasserstein
fixed point with one root of the whole stack per step, the quantile
barycenter off the member table, and the p-mean's descent on
``core.moment``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (
    BuresWassersteinSpace,
    ConvergenceFailure,
    DiscreteMeasure,
    EuclideanSpace,
    Measure1D,
    Wasserstein1D,
    bw_barycenter,
    euclidean_pmean,
    quantile_barycenter,
)

from oracles import (bw_barycenter_per_member, euclidean_pmean_own_moment,
                     quantile_barycenter_per_member)


def _weights(draw, n):
    w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return w


def _outcome(solve, *args):
    """The solver's result, or the last point of its ``ConvergenceFailure``."""
    try:
        return np.asarray(solve(*args)).tobytes()
    except ConvergenceFailure as exc:
        return ("failed", np.asarray(exc.last_point).tobytes())


@st.composite
def _bw_measure(draw):
    """1 to 8 PSD members in dim 1 to 3, and up to 12 on the line, where
    numpy sums 8 or more contiguous terms pairwise."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12 if dim == 1 else 8))
    space = BuresWassersteinSpace(dim)
    mats = []
    for _ in range(n):
        a = np.asarray(draw(st.lists(st.floats(-2, 2), min_size=dim * dim,
                                     max_size=dim * dim))).reshape(dim, dim)
        mats.append(a @ a.T / dim + draw(st.sampled_from([0.0, 0.05, 1.0])) * np.eye(dim))
    return space, DiscreteMeasure.from_weights(space, mats, _weights(draw, n))


@st.composite
def _w1d_measure(draw):
    """1 to 8 members of 1 to 6 atoms each, among them -0.0 and 0.0."""
    n = draw(st.integers(1, 8))
    atom = st.floats(-3, 3) | st.sampled_from([-0.0, 0.0, 1e-13])
    members = []
    for _ in range(n):
        k = draw(st.integers(1, 6))
        members.append(Measure1D(draw(st.lists(atom, min_size=k, max_size=k)),
                                 _weights(draw, k) if draw(st.booleans()) else None))
    space = Wasserstein1D(q=2.0)
    return space, DiscreteMeasure.from_weights(space, members, _weights(draw, n))


class TestMemberStack:
    @given(case=_bw_measure())
    @settings(max_examples=200, deadline=None)
    def test_bw_barycenter_equals_per_member_roots(self, case):
        space, mu = case
        assert _outcome(bw_barycenter, space, mu) == _outcome(bw_barycenter_per_member, space, mu)

    @given(case=_w1d_measure())
    @settings(max_examples=200, deadline=None)
    def test_quantile_barycenter_equals_member_quantiles(self, case):
        space, mu = case
        got, want = quantile_barycenter(space, mu), quantile_barycenter_per_member(space, mu)
        for x, y in ((got.atoms, want.atoms), (got.weights, want.weights),
                     (got.cdf_breakpoints(), want.cdf_breakpoints())):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    @given(dim=st.integers(1, 7), n=st.integers(1, 8), data=st.data(),
           p=st.sampled_from([1.3, 1.5, 3.0, 4.5]) | st.floats(1.01, 6.0).filter(lambda v: v != 2))
    @settings(max_examples=200, deadline=None)
    def test_euclidean_pmean_equals_own_moment(self, dim, n, data, p):
        space = EuclideanSpace(dim)
        pts = data.draw(st.lists(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim),
                                 min_size=n, max_size=n))
        mu = DiscreteMeasure.from_weights(space, pts, _weights(data.draw, n))
        assert (_outcome(euclidean_pmean, space, mu, p)
                == _outcome(euclidean_pmean_own_moment, space, mu, p))
