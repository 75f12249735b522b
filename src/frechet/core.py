"""Metric-space contract, discrete measures, and the renormalized objective.

The central quantity is the renormalized cost

    W(mu, x, xref) = sum_i w_i * (d(x, y_i)**p - d(xref, y_i)**p),

a difference of p-th-power distance averages against a reference point.
Minimizing it over ``x`` is equivalent to minimizing the plain p-th moment
whenever the latter is finite, but the difference form stays finite under
weaker moment behavior and shifts by a constant when the reference point
changes, so the minimizer set does not depend on the reference.

Mean sets are represented by finite candidate enumeration: a candidate
scheme (grid, support-derived, or solver-seeded) produces a finite point
list with a known covering radius, and the epsilon-band of near-minimal
candidates approximates the true compact minimizer set. The band sweep
here (``relaxed_mean_set``) evaluates every candidate; on the grids that
a space charts as index tuples (vector boxes, the Wasserstein-1D cone),
``solvers.grid_mean_set`` reaches the same band while skipping the cells
that a Lipschitz bound rules out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

Point = Any

# Membership band for floating-point ties at the minimum; relative so that
# symmetric minimizers are never dropped on large-magnitude objectives.
DEFAULT_VALUE_TOLERANCE = 1e-9

# Largest distance matrix (in entries) one step of the band sweep builds;
# batched kernels bound their own temporaries by the same budget.
SWEEP_BLOCK_ENTRIES = 2 ** 20


def row_blocks(rows: int, entries_per_row: int) -> list[slice]:
    """Consecutive row slices of at most SWEEP_BLOCK_ENTRIES entries each.

    A single row wider than the budget still gets a block of its own.
    """
    step = max(1, SWEEP_BLOCK_ENTRIES // max(entries_per_row, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def as_sequence(xs) -> Sequence:
    """``xs`` itself when it has a length and indexing (a list, tuple or
    array of points), otherwise a list of its items."""
    return xs if hasattr(xs, "__len__") and hasattr(xs, "__getitem__") else list(xs)


class ConfigurationError(Exception):
    """Inputs are structurally valid but inconsistently configured."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last iterate so callers can inspect or reuse partial
    progress.
    """

    def __init__(self, message: str, last_point=None, iterations: int = 0,
                 value: float | None = None):
        super().__init__(message)
        self.last_point = last_point
        self.iterations = iterations
        self.value = value


class Space:
    """Contract every concrete metric space implements.

    A space is an immutable configuration object; ``pairwise_distances``
    must be a metric on the points it ``contains``. All methods are pure,
    so spaces and the values built on them are safe to share across threads.
    """

    def distance(self, x: Point, y: Point) -> float:
        """d(x, y): the 1x1 case of ``pairwise_distances``, the one metric
        formula a space writes. A single pair pays the kernel's fixed
        overhead; callers with many pairs should ask for a matrix."""
        return float(self.pairwise_distances([x], [y])[0, 0])

    def contains(self, x: Point) -> bool:
        raise NotImplementedError

    def stack(self, points: Sequence[Point]):
        """The points as the kernels read them fastest: unchanged here, one
        float array in the vector and Bures-Wasserstein spaces, one
        ``QuantileTable`` in the Wasserstein-1D space; a list of indices
        picks rows of either."""
        return points

    def contains_all(self, points: Sequence[Point]) -> bool:
        """True when every point belongs to the space.

        Loops over ``contains``; the vector and Bures-Wasserstein spaces
        override it with one check on their stack.
        """
        return all(self.contains(x) for x in points)

    def points_equal(self, x: Point, y: Point, tol: float = 1e-9) -> bool:
        """Point-equality predicate; d(x, y) = 0 must imply this holds.
        The one-pair case of ``equal_mask``."""
        return bool(self.equal_mask(x, [y], tol)[0])

    def equal_mask(self, x: Point, ys: Sequence[Point], tol: float = 1e-9) -> np.ndarray:
        """``points_equal(x, y)`` for every y in ys, from one kernel row.

        The space's equality rule: a space with another rule overrides this.
        """
        return self.pairwise_distances([x], ys)[0] <= tol

    def pairwise_distances(self, xs: Sequence[Point], ys: Sequence[Point]) -> np.ndarray:
        """Distance matrix with shape (len(xs), len(ys)): the one place a
        space writes its metric. The result is a fresh, writable float array
        that the caller owns; it shares no memory with xs, ys or an earlier
        result."""
        raise NotImplementedError

    def candidates(self, mu: "DiscreteMeasure", scheme: str = "support", *, step=None,
                   pad: float = 0.0, **kwargs):
        """Deterministic candidate points for mean-set enumeration.

        ``support`` is the deduplicated support atoms. ``grid``, on a space
        with a ``grid_chart(mu, step, pad, **kwargs)``, is one stack of the
        chart's rows of every index tuple, first axis slowest, cut by its
        ``clip``: the Wasserstein-1D cone keeps C(m + k - 1, k) of its box's
        m**k tuples (at most k! times as many; under twice at k = 2), in
        ``combinations_with_replacement`` order. Other spaces add schemes.
        """
        if scheme == "support":
            return self.dedup(mu.support)
        if scheme == "grid" and hasattr(self, "grid_chart"):
            if step is None:
                raise ValueError("grid scheme needs a step")
            chart = self.grid_chart(mu, step, pad, **kwargs)
            index = np.indices(chart.sizes).reshape(len(chart.sizes), -1).T
            if chart.clip is not None:
                index = chart.clip(index, index + 1)[0]
            return chart.rows(index)
        raise ConfigurationError(
            f"candidate scheme {scheme!r} is not supported by {type(self).__name__}")

    def first_equal(self, points: Sequence[Point]) -> list[int]:
        """For each point, the index of the first earlier kept point it
        equals, or its own index when it equals none and is kept. One
        ``equal_mask`` row per point against the points kept so far; where
        the points stack into one array or table, the kept ones are its
        rows taken by index, so no point is converted again."""
        rows = self.stack(points)
        stacked = rows is not points or isinstance(rows, np.ndarray)
        owner = list(range(len(points)))
        kept: list = []
        kept_at, count = np.empty(len(points), dtype=np.intp), 0
        for i, x in enumerate(points):
            hit = (np.flatnonzero(self.equal_mask(x, rows[kept_at[:count]] if stacked else kept))
                   if count else ())
            if len(hit):
                owner[i] = int(kept_at[hit[0]])
            else:
                kept.append(x)
                kept_at[count] = i
                count += 1
        return owner

    def dedup(self, points: Sequence[Point]) -> list:
        """The points in order, without those equal to a point kept earlier."""
        return [x for i, (x, o) in enumerate(zip(points, self.first_equal(points))) if o == i]

    def sample_point(self, rng: np.random.Generator, scale: float = 1.0) -> Point:
        """Random point, used by the randomized axiom and algebra checks."""
        raise NotImplementedError

    def point_to_json(self, x: Point):
        raise NotImplementedError

    def point_from_json(self, obj) -> Point:
        raise NotImplementedError

    def points_from_json(self, objs: list) -> Sequence[Point]:
        """The decoded points of a JSON list, in the form a measure keeps:
        ``point_from_json`` of each here; the vector and Wasserstein-1D
        spaces decode the whole list into their stack at once."""
        return [self.point_from_json(obj) for obj in objs]


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure on one space.

    This is the only measure representation: empirical measures and
    reference measures alike are finite lists of support points with
    nonnegative weights summing to one (within 1e-12). Support points may
    repeat; weights then add. ``support`` is a tuple of the points or, when
    given as one stacked sequence, that sequence: an array (a slice of a
    drawn stream, say) as a read-only view, a ``QuantileTable`` as it is.
    Kernels read ``stacked``, ``space.stack(support)``: such a support
    stacks without a copy, so it must not be written to afterwards.
    """

    space: Space
    support: Sequence
    weights: np.ndarray
    stacked: Any = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        support = self.support
        if isinstance(support, np.ndarray):
            support = support.view()
            support.flags.writeable = False
        elif isinstance(support, (list, tuple)) or not hasattr(support, "__getitem__"):
            support = tuple(support)
        object.__setattr__(self, "support", support)
        if len(self.support) == 0:
            raise ValueError("measure needs at least one support point")
        if w.shape != (len(self.support),):
            raise ValueError("weights must align with support points")
        # Written so that a NaN weight fails each check.
        if not np.all(w >= -1e-15):
            raise ValueError("weights must be nonnegative")
        if not abs(float(w.sum()) - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "stacked", self.space.stack(self.support))
        if not self.space.contains_all(self.stacked):
            raise ConfigurationError("support point does not belong to the space")

    @classmethod
    def uniform(cls, space: Space, points: Sequence[Point]) -> "DiscreteMeasure":
        points = as_sequence(points)  # no points: the constructor raises
        return cls(space, points, np.full(len(points), 1.0 / max(len(points), 1)))

    @classmethod
    def dirac(cls, space: Space, point: Point) -> "DiscreteMeasure":
        return cls(space, (point,), np.array([1.0]))

    @classmethod
    def from_weights(cls, space: Space, points: Sequence[Point],
                     weights: Sequence[float]) -> "DiscreteMeasure":
        return cls(space, as_sequence(points), weights)

    @cached_property
    def first_distances(self) -> np.ndarray:
        """The distances from the first support point to every support
        point: one kernel row, computed once and shared (do not write)."""
        return self.space.pairwise_distances(self.stacked[:1], self.stacked)[0]

    def is_degenerate(self) -> bool:
        """True when all support points lie within 1e-12 of the first (a
        single atom)."""
        return len(self.support) == 1 or bool(np.max(self.first_distances) <= 1e-12)


@dataclass(frozen=True)
class FrechetConfig:
    """Order p >= 1, relaxation level epsilon >= 0, optional origin point.

    The origin defaults to the first support atom, which the CLI always
    uses. The minimizer set is the same for every choice; the band's tie
    tolerance is not (``relaxed_mean_set``).
    """

    p: float
    epsilon: float = 0.0
    origin: Any = None

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("order p must be >= 1")
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0")


@dataclass(frozen=True, eq=False)
class MeanSetApprox:
    """Finite point set with a resolution radius approximating a mean set.

    ``points`` are the candidates whose objective value lies within
    ``epsilon`` (plus a floating-point tolerance) of ``achieved_value``,
    the best value seen over the candidate scheme. ``resolution`` is the
    covering radius of that scheme.
    """

    points: tuple
    resolution: float
    achieved_value: float

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("mean-set approximation must be nonempty")
        if not self.resolution >= 0:  # false on a NaN resolution
            raise ValueError("resolution must be nonnegative")


def _check_pair(space: Space, mu: DiscreteMeasure) -> None:
    if mu.space is not space and mu.space != space:
        raise ConfigurationError("measure is supported on a different space")


def value_tolerance(achieved: float) -> float:
    """Relative tie tolerance for membership in the epsilon-band."""
    return DEFAULT_VALUE_TOLERANCE * (1.0 + abs(achieved))


def band_cut(achieved: float, epsilon: float) -> float:
    """Largest value in the epsilon-band of a sweep whose best value is
    ``achieved``: epsilon plus the tie tolerance above it."""
    return achieved + epsilon + value_tolerance(achieved)


def frechet_functional(space: Space, mu: DiscreteMeasure, x: Point, xref: Point,
                       p: float) -> float:
    """Renormalized cost sum_i w_i * (d(x, y_i)**p - d(xref, y_i)**p).

    Always finite for finitely supported ``mu``. Satisfies the cocycle
    identity W(x, x') + W(x', x'') = W(x, x'') and the bound
    |W(x, x')| <= p d(x, x') sum_i w_i (d(x,y_i)**(p-1) + d(x',y_i)**(p-1)).
    """
    _check_pair(space, mu)
    if p < 1:
        raise ValueError("order p must be >= 1")
    d = space.pairwise_distances([x, xref], mu.stacked)
    return float(np.dot(mu.weights, d[0] ** p - d[1] ** p))


def moment(space: Space, mu: DiscreteMeasure, r: float, x: Point) -> float:
    """r-th distance moment sum_i w_i * d(x, y_i)**r."""
    _check_pair(space, mu)
    if r < 0:
        raise ValueError("moment order must be >= 0")
    d = space.pairwise_distances([x], mu.stacked)[0]
    return float(np.dot(mu.weights, d ** r))


def origin_shift(space: Space, mu: DiscreteMeasure, config: FrechetConfig) -> float:
    """sum_i w_i d(origin, y_i)**p, the constant the band sweep subtracts;
    the origin defaults to the first support atom."""
    ref = (mu.first_distances if config.origin is None
           else space.pairwise_distances([config.origin], mu.stacked)[0])
    return float(np.dot(mu.weights, ref ** config.p))


def _band_values(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                 candidates: Sequence[Point], shift: float | None = None) -> np.ndarray:
    """Objective values of all candidates against the configured origin.

    Candidates are swept in row blocks (``row_blocks``), so memory grows
    with block size times support size, never with the candidate count.
    Each row is reduced on its own, so a value does not depend on where
    the block boundaries fall, nor on which other candidates are swept
    with it. The kernel's fresh block is reduced in place. ``shift`` is
    ``origin_shift``, computed here unless given.
    """
    shift = origin_shift(space, mu, config) if shift is None else shift
    values = np.empty(len(candidates))
    for block in row_blocks(len(candidates), len(mu.support)):
        d = space.pairwise_distances(candidates[block], mu.stacked)
        d **= config.p
        d *= mu.weights
        values[block] = np.sum(d, axis=1) - shift
    return values


def candidate_radius(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                     achieved: float) -> float:
    """The covering radius of a band over any candidate set: every minimizer
    x* of S(x) = sum_i w_i d(x, y_i)**p lies within 2 (S(a) / W)**(1/p) of
    the best candidate a, W = sum_i w_i. By Minkowski in L^p(w),
    W**(1/p) d(x*, a) <= S(x*)**(1/p) + S(a)**(1/p), and S(x*) <= S(a).

    S(a) is ``achieved`` plus ``origin_shift``. The margin covers the
    rounding of the n-term sum, of the shift taken off and put back, and
    of the root, and kernel distances within 2**-40 of their exact values,
    relatively.
    """
    shift = origin_shift(space, mu, config)
    s = achieved + shift
    s += (len(mu.weights) + 4) * 2.0 ** -52 * (abs(s) + 2.0 * shift)
    return 2.0 * (max(s, 0.0) / float(mu.weights.sum())) ** (1.0 / config.p) * (1.0 + 2.0 ** -39)


def degenerate_band(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                    resolution: float) -> MeanSetApprox | None:
    """The band of a measure concentrated on a single atom when epsilon is
    zero: that atom, whose minimality needs no sweep. None otherwise."""
    if config.epsilon != 0.0 or not mu.is_degenerate():
        return None
    atom = mu.support[0]
    achieved = frechet_functional(
        space, mu, atom, config.origin if config.origin is not None else atom, config.p)
    return MeanSetApprox((atom,), resolution, achieved)


def relaxed_mean_set(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                     candidates: Sequence[Point], resolution: float) -> MeanSetApprox:
    """Candidates whose cost lies within epsilon of the candidate minimum.

    The argmin does not depend on the configured origin (the objective
    shifts by a constant), but the tie tolerance (``value_tolerance``) is
    relative to S(x) - S(origin), so a far origin widens the band. The band
    grows monotonically with epsilon.
    A measure concentrated on a single atom short-circuits to that atom
    when epsilon is zero (``degenerate_band``). Candidates may be any
    sequence of points, such as one stacked array; every candidate is
    evaluated. ``solvers.grid_mean_set`` reaches the same band over a
    charted grid while evaluating only the candidates it cannot rule out.
    """
    _check_pair(space, mu)
    candidates = as_sequence(candidates)
    if len(candidates) == 0:
        raise ValueError("candidates must be nonempty")
    short = degenerate_band(space, mu, config, resolution)
    if short is not None:
        return short

    values = _band_values(space, mu, config, candidates)
    achieved = float(np.min(values))
    kept = tuple(candidates[i] for i in
                 np.flatnonzero(values <= band_cut(achieved, config.epsilon)))
    return MeanSetApprox(kept, resolution, achieved)


# ---------------------------------------------------------------------------
# Algebraic diagnostics. These return slack values (how far an identity or
# bound is from being violated) so tests and the CLI diagnostics command can
# report worst cases instead of bare booleans.
# ---------------------------------------------------------------------------

def cocycle_gap(space: Space, mu: DiscreteMeasure, x: Point, x1: Point, x2: Point,
                p: float) -> float:
    """|W(x, x1) + W(x1, x2) - W(x, x2)|; zero up to accumulation error."""
    a = frechet_functional(space, mu, x, x1, p)
    b = frechet_functional(space, mu, x1, x2, p)
    c = frechet_functional(space, mu, x, x2, p)
    return abs(a + b - c)


def renorm_bound_slack(space: Space, mu: DiscreteMeasure, x: Point, x1: Point,
                       p: float) -> float:
    """Bound minus |W(x, x1)|; nonnegative when the inequality holds."""
    w = abs(frechet_functional(space, mu, x, x1, p))
    d = space.pairwise_distances([x, x1], mu.stacked)
    bound = p * space.distance(x, x1) * float(
        np.dot(mu.weights, d[0] ** (p - 1) + d[1] ** (p - 1)))
    return bound - w


def power_bound_slack(space: Space, x: Point, x1: Point, x2: Point, r: float) -> float:
    """c_r (d(x,x1)**r + d(x1,x2)**r) - d(x,x2)**r with c_r = max(1, 2**(r-1))."""
    if r < 0:
        raise ValueError("exponent must be >= 0")
    c_r = max(1.0, 2.0 ** (r - 1.0))
    return (c_r * (space.distance(x, x1) ** r + space.distance(x1, x2) ** r)
            - space.distance(x, x2) ** r)


def metric_axiom_violations(space: Space, rng: np.random.Generator, trials: int = 1000,
                            scale: float = 1.0, tol: float = 1e-9) -> dict:
    """Worst violations of the metric axioms over random triples.

    Returns max violations for symmetry, triangle inequality, identity
    (d(x, x) = 0), and nonnegativity; all should be <= tol.
    """
    worst = {"symmetry": 0.0, "triangle": 0.0, "identity": 0.0, "nonnegative": 0.0}
    for _ in range(trials):
        x = space.sample_point(rng, scale)
        y = space.sample_point(rng, scale)
        z = space.sample_point(rng, scale)
        dxy, dyx = space.distance(x, y), space.distance(y, x)
        dyz, dxz = space.distance(y, z), space.distance(x, z)
        worst["symmetry"] = max(worst["symmetry"], abs(dxy - dyx))
        worst["triangle"] = max(worst["triangle"], dxz - (dxy + dyz))
        worst["identity"] = max(worst["identity"], space.distance(x, x))
        worst["nonnegative"] = max(worst["nonnegative"], -min(dxy, dyz, dxz))
    worst["passed"] = all(worst[k] <= tol for k in
                          ("symmetry", "triangle", "identity", "nonnegative"))
    return worst
