"""The normal sampler's quantile, ``stochastics._ndtri``, against the scipy
routine it ports: equal bit for bit (compared as int64 views, so a sign of
zero or a last-bit difference shows), in every branch and at its edges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from frechet.stochastics import _EXP_M2, _ndtri


def _assert_bit_equal(u):
    u = np.asarray(u, dtype=float)
    got, want = _ndtri(u), ndtri(u)
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert len(differ) == 0, list(zip(u[differ[:5]], got[differ[:5]], want[differ[:5]]))


def test_a_million_seeded_uniforms():
    _assert_bit_equal(np.random.default_rng(20240611).uniform(size=10 ** 6))


def test_the_far_lower_tail_down_to_the_least_subnormal():
    # Log-uniform over [2**-1074, 1e-10]: most have x >= 8.
    rng = np.random.default_rng(7)
    _assert_bit_equal(np.exp(rng.uniform(math.log(2.0 ** -1074), math.log(1e-10), 2 * 10 ** 5)))
    _assert_bit_equal(2.0 ** -np.arange(1.0, 1075.0))


def test_values_near_one():
    # The upper tail, reflected by 1 - u; 1 - u reaches 2**-53 (x >= 8).
    rng = np.random.default_rng(8)
    _assert_bit_equal(1.0 - rng.uniform(0.0, 0.2, 10 ** 6))
    _assert_bit_equal(1.0 - 2.0 ** -np.arange(1.0, 54.0))


def _around(v):
    return [np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)]


EDGES = [0.0, 2.0 ** -1074, 1e-300, 1e-15, 2.0 ** -53, *_around(_EXP_M2),
         *_around(1.0 - _EXP_M2), 0.5, 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("u", EDGES)
def test_edge_values(u):
    # 1e-15 lies in the x >= 8 tail, 1e-300 and 2**-1074 far in it; the
    # central branch ends at exp(-2) and 1 - exp(-2).
    _assert_bit_equal([u])


def test_the_endpoints_are_infinite():
    u = np.array([0.0, 0.3, 1.0])
    _assert_bit_equal(u)
    assert _ndtri(u)[[0, 2]].tolist() == [-math.inf, math.inf]


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_any_floats_in_the_unit_interval(values):
    _assert_bit_equal(values)

