"""Measure supports decoded whole (``Space.points_from_json``) against the
point-by-point decoder they replaced (``oracles.measure_from_json_per_point``):
the same stacked support, table and weights bit for bit, or the same
exception class and message. A vector support with a point that does not
decode on its own does not stack, and the measure refuses it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frechet import (EuclideanSpace, LqSequenceSpace, Measure1D, QuantileTable, SpiderSpace,
                     Wasserstein1D)
from frechet.cli import _json_numbers, _measure_from_json
from frechet.core import ConfigurationError

from oracles import measure_from_json_per_point, reference_measure


def _outcome(decode, space, spec):
    try:
        return decode(space, spec)
    except Exception as exc:  # the class and the message are what is compared
        return type(exc), str(exc)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, (a, b)
    assert a.tobytes() == b.tobytes(), (a, b)


def _a_point_fails_alone(space, spec):
    """True when a support of JSON numbers, which is decoded whole, holds a
    point that ``point_from_json`` does not decode."""
    if type(spec.get("support")) is not list or not _json_numbers(spec["support"]):
        return False
    try:
        [space.point_from_json(obj) for obj in spec["support"]]
    except (TypeError, ValueError, OverflowError):
        return True
    return False


def _same_decoding(space, spec):
    got = _outcome(_measure_from_json, space, spec)
    want = _outcome(measure_from_json_per_point, space, spec)
    if isinstance(space, (EuclideanSpace, LqSequenceSpace)) and _a_point_fails_alone(space, spec):
        want = (ConfigurationError, "support point does not belong to the space")
    if isinstance(want, tuple):
        assert got == want
        return None
    assert not isinstance(got, tuple), got
    _same_bits(got.weights, want.weights)
    if isinstance(space, Wasserstein1D):
        assert isinstance(got.stacked, QuantileTable)
        for name in ("atoms", "weights", "cum", "counts"):
            _same_bits(getattr(got.stacked, name), getattr(want.stacked, name))
        for x, y in zip(got.support, want.support, strict=True):
            for name in ("atoms", "weights", "_cum"):
                _same_bits(getattr(x, name), getattr(y, name))
    else:
        _same_bits(got.stacked, want.stacked)
        _same_bits(np.asarray(got.support), np.asarray(want.support))
    return got


# JSON values a support may hold: numbers of both kinds, non-finite ones,
# and the strings and bools that must be refused at any depth.
_NUMBERS = st.one_of(st.floats(-1e6, 1e6), st.integers(-2 ** 60, 2 ** 60),
                     st.sampled_from([math.nan, math.inf, 0.0, -0.0, 2 ** 53 + 1, 10 ** 400]))
_ODD = st.sampled_from(["1", True, False, None, [], {"a": 1.0}])


@st.composite
def _vector_support(draw, dim):
    n = draw(st.integers(0, 6))
    points = [draw(st.lists(st.floats(-1e6, 1e6) | st.integers(-2 ** 60, 2 ** 60),
                            min_size=dim, max_size=dim)) for _ in range(n)]
    if points and draw(st.booleans()):  # one point made odd somewhere
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["short", "long", "scalar", "nested", "number", "odd"]))
        if kind == "short":
            points[i] = points[i][:-1]
        elif kind == "long":
            points[i] = points[i] + [1.0]
        elif kind == "scalar":
            points[i] = points[i][0]
        elif kind == "nested":
            points[i] = [points[i]]
        else:
            points[i] = list(points[i])
            points[i][draw(st.integers(0, dim - 1))] = draw(_NUMBERS if kind == "number" else _ODD)
    spec = {"support": points}
    if points and draw(st.booleans()):
        spec["weights"] = [1.0 / n] * (n - 1) + [1.0 - (n - 1) / n]
    return spec


@pytest.mark.parametrize("space", [EuclideanSpace(dim=1), EuclideanSpace(dim=2),
                                   EuclideanSpace(dim=3), LqSequenceSpace(truncation=2, q=3.0)],
                         ids=["euclidean-1", "euclidean-2", "euclidean-3", "lq"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_vector_supports_decode_as_the_per_point_path(space, data):
    spec = data.draw(_vector_support(space._length))
    got = _same_decoding(space, spec)
    if got is not None:  # a whole support is one array, kept without a copy
        assert got.stacked is got.support and not got.support.flags.writeable


@st.composite
def _members(draw):
    n = draw(st.integers(0, 6))
    k = draw(st.integers(1, 4))
    weights = draw(st.sampled_from(["absent", "given", "given", "some", "off", "negative",
                                    "tiny"]))
    pool = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=4))
    members = []
    for _ in range(n):
        size = k if draw(st.integers(0, 29)) else draw(st.integers(1, 4))  # mostly one count
        atoms = [draw(st.floats(-3, 3) if draw(st.integers(0, 3)) else st.sampled_from(pool))
                 for _ in range(size)]
        if size > 1 and not draw(st.integers(0, 14)):  # two atoms within about 1e-12
            atoms[1] = atoms[0] + draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, -8e-13]))
        member = {"atoms": atoms}
        if weights != "absent" and (weights != "some" or draw(st.booleans())):
            w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)))
            w = (w / w.sum()).tolist()
            w[-1] = 1.0 - math.fsum(w[:-1])
            if weights == "off":
                w[0] += draw(st.sampled_from([2e-12, -2e-12, 5e-13]))
            elif weights in ("negative", "tiny") and size > 1:
                shift = -2e-15 if weights == "negative" else -5e-16
                w[0], w[1] = shift, w[1] + w[0] - shift
            member["weights"] = w
        members.append(member)
    if members and not draw(st.integers(0, 5)):  # a string or a bool somewhere
        member = members[draw(st.integers(0, len(members) - 1))]
        key = draw(st.sampled_from(sorted(member)))
        member[key] = list(member[key])
        member[key][draw(st.integers(0, len(member[key]) - 1))] = draw(_ODD)
    return {"support": members}


@settings(max_examples=400, deadline=None)
@given(spec=_members(), q=st.sampled_from([1.0, 2.0, 3.0]))
def test_wasserstein1d_supports_decode_as_the_per_member_path(spec, q):
    _same_decoding(Wasserstein1D(q=q), spec)


@pytest.mark.parametrize("support", [
    [{"atoms": [0.0, 1.0]}, {"atoms": [2.0, -1.0]}],
    [{"atoms": [0.0, 1.0], "weights": [0.25, 0.75]}, {"atoms": [2.0, -1.0],
                                                      "weights": [0.5, 0.5]}],
    [{"atoms": [0.0, 1.0]}, {"atoms": [2.0]}],
    [{"atoms": [0.0, 1e-13, 1.0]}, {"atoms": [2.0, 3.0, 4.0]}],
    [{"atoms": [0.0, 1.0], "weights": [0.5, 0.5 + 2e-12]}],
    [{"atoms": [0.0, 1.0], "weights": [-2e-15, 1.0 + 2e-15]}],
    [{"atoms": [0.0, 1.0], "weights": [0.5, 0.5]}, {"atoms": [2.0, 3.0]}],
    [{"atoms": [0.0, 1.0], "weights": [0.5]}],
    [{"atoms": []}],
    [{"atoms": [[0.0, 1.0]]}],
    [{"weights": [1.0]}],
    [[0.0, 1.0]],
    [{"atoms": [0.0, "1"]}, {"atoms": [0.0, 1.0], "weights": [2.0, -1.0]}],
    [{"atoms": [0.0, 1.0], "weights": [2.0, -1.0]}, {"atoms": [0.0, True]}],
    [],
    [{"atoms": [math.nan, 1.0]}, {"atoms": [0.0, 2.0]}],
    [{"atoms": [0.0, 1.0]}, {"atoms": [math.inf, 2.0]}],
    5,
], ids=["uniform", "weighted", "unequal-counts", "merged", "weights-off", "weights-negative",
        "weights-some", "weights-short", "no-atoms", "nested-atoms", "no-atoms-key", "a-list",
        "string-first", "bad-weights-first", "empty", "nan", "infinity", "a-number"])
def test_wasserstein1d_cases(support):
    _same_decoding(Wasserstein1D(q=2.0), {"support": support})


@st.composite
def _valid_members(draw):
    """1 to 6 members of 1 to 5 atoms, weights for some of them, and
    atoms 0, 5e-13, 1e-12 or 2e-12 apart (which merge or do not)."""
    members = []
    for _ in range(draw(st.integers(1, 6))):
        atoms = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=5))
        for i in range(1, len(atoms)):
            if not draw(st.integers(0, 3)):
                atoms[i] = atoms[i - 1] + draw(st.sampled_from([0.0, 5e-13, 1e-12, 2e-12]))
        member = {"atoms": atoms}
        if draw(st.booleans()):
            w = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms),
                                         max_size=len(atoms))))
            w = (w / w.sum()).tolist()
            w[-1] = 1.0 - math.fsum(w[:-1])
            member["weights"] = w
        members.append(member)
    return members


@settings(max_examples=300, deadline=None)
@given(members=_valid_members())
def test_valid_members_decode_to_the_table_of_their_measures(members):
    got = Wasserstein1D(q=2.0).points_from_json(members)
    want = QuantileTable.of([reference_measure(m["atoms"], m.get("weights")) for m in members])
    assert isinstance(got, QuantileTable)
    for name in ("atoms", "weights", "cum", "counts"):
        _same_bits(getattr(got, name), getattr(want, name))


def test_valid_members_decode_without_building_a_measure(monkeypatch):
    calls = []
    init = Measure1D.__init__
    monkeypatch.setattr(Measure1D, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    members = [{"atoms": [0.5, -1.0]}, {"atoms": [0.0, 1e-13, 2.0, 3.0, -2.0]},
               {"atoms": [1.0, 2.0, 1.0], "weights": [0.25, 0.5, 0.25]}]
    table = Wasserstein1D(q=2.0).points_from_json(members)
    assert calls == [] and table.counts.tolist() == [2, 4, 2]
    assert table.weights.tolist()[2][:2] == [0.5, 0.5]


@pytest.mark.parametrize("weights,want", [(None, [[0.5, 0.5], [0.5, 0.5]]),
                                          ([0.4, 0.6], [[0.6, 0.4], [0.4, 0.6]])],
                         ids=["absent", "given"])
def test_equal_count_members_are_one_table_without_measures(weights, want):
    space = Wasserstein1D(q=2.0)
    members = [{"atoms": [1.0, -1.0], "weights": weights}, {"atoms": [0.0, 0.5], "weights": weights}]
    mu = _measure_from_json(space, {"support": members})
    assert isinstance(mu.support, QuantileTable) and mu.stacked is mu.support
    assert mu.stacked.atoms.tolist() == [[-1.0, 1.0], [0.0, 0.5]]
    assert mu.stacked.weights.tolist() == want


@pytest.mark.parametrize("spec", [
    {"support": [[1, 0.5], [0, 1.0]]}, {"support": [[1, "0.5"]]}, {"support": [[1.5, 0.5]]},
    {"support": {"a": [1, 0.5]}}, {"support": []}],
    ids=["spider", "string", "leg", "a-dict", "empty"])
def test_other_spaces_decode_point_by_point(spec):
    _same_decoding(SpiderSpace(legs=3), spec)


@pytest.mark.parametrize("support", [
    [[0.0], [1e400]], [[1.0], [10 ** 400]], [[0.0], ["1"]], [[0.0], [1, [2]]], [[0.0], [False]],
    [], [[0.0, 1.0]], [0.0, 1.0], [[math.nan]]],
    ids=["inf", "huge-int", "string", "ragged", "bool", "empty", "long", "scalars", "nan"])
def test_euclidean_cases(support):
    _same_decoding(EuclideanSpace(dim=1), {"support": support})
