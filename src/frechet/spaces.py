"""Concrete metric spaces: Euclidean, l_q vectors, metric spiders,
one-dimensional Wasserstein, Bures-Wasserstein covariance matrices, and
persistence diagrams with partial matching.

Each space supplies its metric once, as the batched kernel
``pairwise_distances`` (``distance`` is its 1x1 case), a point-equality
predicate, candidate generation for mean-set enumeration, JSON point
codecs, and a random point sampler used by the randomized axiom checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ConfigurationError, DiscreteMeasure, Space, _check_pair, row_blocks

__all__ = [
    "EuclideanSpace",
    "LqSequenceSpace",
    "SpiderSpace",
    "Measure1D",
    "QuantileTable",
    "Wasserstein1D",
    "BuresWassersteinSpace",
    "PersistenceDiagramSpace",
    "matrix_sqrt",
    "quantile_barycenter",
]


def _axis_size(lo: float, hi: float, step: float) -> int:
    """Number of points of the inclusive grid lo, lo+step, ..., covering hi."""
    if not step > 0:  # false on a NaN step
        raise ValueError("grid step must be positive")
    return max(int(math.ceil((hi - lo) / step - 1e-12)), 0) + 1


def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Inclusive grid lo, lo+step, ..., covering hi: point k is lo + step * k."""
    return lo + step * np.arange(_axis_size(lo, hi, step))


def _box_center(mu: DiscreteMeasure, lows: np.ndarray, sizes: list[int], step: float) -> tuple:
    """The ``GridChart.center`` of a Euclidean box: e(a) = lows + step a
    and m = sum w_i y_i / W, whose computed value errs by at most
    (2 n + 3) u sum |w_i| |y_i| per axis (u = 2**-53, dot product and
    weight sum), its index by 2 u (|m| + |lows|) more and a row, lows +
    step i rounded twice, by 2 u (|lows| + step i)."""
    ys, w = mu.stacked, mu.weights
    m = ys.T @ w / w.sum()
    err = 2.0 ** -51 * ((len(w) + 4) * (np.abs(w) @ np.abs(ys)) + np.abs(lows)
                        + step * np.asarray(sizes))
    return (m - lows) / step, step, float(np.linalg.norm(err))


def _float_stack(points, shape: tuple):
    """The points as one float array of shape (n, *shape); unchanged when
    they are ragged, stack to another shape or are not all numbers (strings,
    bools and other objects are not; a float among them makes them floats)."""
    try:
        arr = np.asarray(points)
        if arr.dtype.kind == "O" and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(float)  # integers beyond int64
    except (TypeError, ValueError, OverflowError):
        return points
    if arr.dtype.kind not in "fiu" or arr.shape != (len(points), *shape):
        return points
    return arr.astype(float, copy=False)


@dataclass(frozen=True)
class GridChart:
    """A grid as index tuples 0 <= i < ``sizes``: ``rows(index)`` builds
    their points, ``radius(lo, hi, rep)`` bounds the distance from ``rep``
    to each point of the cell [lo, hi), ``clip(lo, hi)`` (if set) cuts
    cells to the boxes of their points, and a kernel distance is within
    ``rounding`` 2**-53 of its exact value, relatively. ``resolution`` is
    the covering radius its band reports. Searched by
    ``solvers._pruned_band``.

    ``center()`` (flat charts) gives (c, scale, slack): index tuples a
    stand for ideal points e(a), ``scale`` |a - b| apart, on which the
    order-2 functional is W d(e(a), m)**2 + S(m). ``c`` rounds to a grid
    tuple, e(c) lies within ``slack`` of m and row i within ``slack`` of
    e(i)."""

    sizes: list[int]
    rows: Callable
    radius: Callable
    rounding: float
    resolution: float
    clip: Callable | None = None
    center: Callable | None = None


class _VectorSpace(Space):
    """Float vectors of one length, ``_length``. The Euclidean and l_q
    spaces share all of this and differ only in their metric."""

    def contains(self, x) -> bool:
        return self.contains_all([x])

    def stack(self, points):
        return _float_stack(points, (self._length,))

    points_from_json = stack

    def contains_all(self, points) -> bool:
        """One isfinite check on the stack. Points that do not stack into
        one (n, length) float array are not in the space; no points are."""
        arr = self.stack(points)
        if getattr(arr, "shape", None) != (len(points), self._length):
            return not len(points)
        return bool(np.all(np.isfinite(arr)))

    def _rows(self, points) -> np.ndarray:
        """The points as an (n, length) float array, checked by shape only."""
        arr = np.asarray(points, dtype=float)
        if arr.shape == (0,):
            return arr.reshape(0, self._length)
        if arr.ndim != 2 or arr.shape[1] != self._length:
            raise ValueError(f"points of length {self._length} expected, "
                             f"got an array of shape {arr.shape}")
        return arr

    def _coordinate_sums(self, xs, ys, term) -> np.ndarray:
        """sum_k term(x_k - y_k) for every pair of vectors, shape (len(xs), len(ys)).

        Starts from the first coordinate's terms (>= +0.0: a sum from zeros
        bit for bit) and adds one coordinate at a time, building no (len(xs),
        len(ys), length) tensor. ``term`` may overwrite the gap array it is
        given. A stacked array is read without a copy. No points on a side
        give an empty result; points of another length raise ``ValueError``.
        """
        a, b = (self._rows(pts) for pts in (xs, ys))
        total = term(a[:, 0, None] - b[None, :, 0])
        for k in range(1, self._length):
            total += term(a[:, k, None] - b[None, :, k])
        return total

    def grid_chart(self, mu: DiscreteMeasure, step: float, pad: float = 0.0) -> GridChart:
        """The ``grid`` scheme as the index box of the support's bounding
        box widened by ``pad``: point k of axis j is lows[j] + step * k. A
        cell's radius is the distance from its point to its farthest corner."""
        lows, highs = mu.stacked.min(axis=0) - pad, mu.stacked.max(axis=0) + pad
        sizes = [_axis_size(float(lo), float(hi), step) for lo, hi in zip(lows, highs)]

        def radius(lo, hi, rep):
            c = lows + step * rep
            corner = np.maximum(c - (lows + step * lo), lows + step * (hi - 1) - c)
            return self.pairwise_distances(corner, np.zeros((1, len(sizes))))[:, 0]

        def rows(index):  # one temporary: a grid can hold millions of rows
            out = step * index
            return np.add(out, lows, out=out)

        flat = isinstance(self, EuclideanSpace)
        # The box holds every minimizer (clamping to it shrinks each
        # coordinate gap) and covers it within half a cell's diagonal.
        resolution = max(step, step / 2.0 * self._length ** (1.0 / self.q))
        return GridChart(sizes, rows, radius, self._length + 3, resolution,
                         center=(lambda: _box_center(mu, lows, sizes, step)) if flat else None)

    def sample_point(self, rng: np.random.Generator, scale: float = 1.0):
        return rng.normal(scale=scale, size=self._length)

    def point_to_json(self, x):
        return [float(v) for v in np.asarray(x, dtype=float)]

    def point_from_json(self, obj):
        return np.asarray(obj, dtype=float)


@dataclass(frozen=True)
class EuclideanSpace(_VectorSpace):
    """R^dim with the Euclidean distance. Points are float vectors."""

    dim: int
    _length = property(lambda self: self.dim)
    q = 2.0  # the exponent of its norm, as in ``LqSequenceSpace``

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        total = self._coordinate_sums(xs, ys, lambda d: np.square(d, out=d))
        return np.sqrt(total, out=total)


@dataclass(frozen=True)
class LqSequenceSpace(_VectorSpace):
    """Truncated l_q space: vectors of length ``truncation``, q in (1, inf).

    A finite-dimensional stand-in for the uniformly convex sequence
    spaces; the geometry (uniform convexity) survives truncation.
    """

    truncation: int
    q: float
    _length = property(lambda self: self.truncation)

    def __post_init__(self):
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if not (1.0 < self.q < math.inf):
            raise ValueError("exponent q must lie strictly between 1 and infinity")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        sums = self._coordinate_sums(
            xs, ys, lambda d: np.power(np.abs(d, out=d), self.q, out=d))
        sums **= 1.0 / self.q
        return sums


@dataclass(frozen=True)
class SpiderSpace(Space):
    """K rays glued at a common center; a metric tree.

    Points are pairs (leg, t) with arc length t >= 0; every (leg, 0) is
    the same center point. Distance is |s - t| along a shared leg and
    s + t across legs, which makes the space CAT(0).
    """

    legs: int

    def __post_init__(self):
        if self.legs < 1:
            raise ValueError("need at least one leg")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        a, b = (np.asarray(pts, dtype=float).reshape(-1, 2) for pts in (xs, ys))
        s, t = a[:, 1, None], b[None, :, 1]
        return np.where(a[:, 0, None] == b[None, :, 0], np.abs(s - t), s + t)

    def contains(self, x) -> bool:
        try:
            leg, t = x
        except (TypeError, ValueError):
            return False
        return (isinstance(leg, (int, np.integer)) and not isinstance(leg, bool)
                and 0 <= leg < self.legs and float(t) >= 0.0 and math.isfinite(float(t)))

    def candidates(self, mu, scheme="support", *, step=None, pad: float = 0.0,
                   **kwargs) -> list:
        if scheme == "grid":
            if step is None:
                raise ValueError("grid scheme needs a step")
            axis = _axis_grid(0.0, max(t for _, t in mu.support) + pad, step)[1:].tolist()
            return [(0, 0.0)] + [(leg, t) for leg in range(self.legs) for t in axis]
        return super().candidates(mu, scheme)

    def sample_point(self, rng, scale: float = 1.0):
        return (int(rng.integers(self.legs)), float(abs(rng.normal(scale=scale))))

    def point_to_json(self, x):
        return [int(x[0]), float(x[1])]

    def point_from_json(self, obj):
        point = (obj[0], float(obj[1]))
        if not self.contains(point):
            raise ConfigurationError(f"leg must be an integer in [0, {self.legs}) and t a "
                                     f"finite number >= 0, got {obj!r}")
        return point


class Measure1D:
    """Discrete probability measure on the real line, used as a point of
    the one-dimensional Wasserstein space: row 0 of its one-row
    ``QuantileTable``, ``table``, whose arrays ``atoms``, ``weights`` and
    ``_cum`` view.

    Atoms are kept sorted and duplicates merged (``_merged_table``), so
    equal measures compare equal structurally.
    """

    __slots__ = ("atoms", "weights", "_cum", "table")

    def __init__(self, atoms: Sequence[float], weights: Sequence[float] | None = None):
        atoms = np.asarray(atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("a 1-D measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise ValueError(f"atoms must be finite, got {atoms.tolist()}")
        if weights is None:
            weights = np.full(atoms.size, 1.0 / atoms.size)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != atoms.shape:
                raise ValueError("weights must align with atoms")
            if not np.all(weights >= -1e-15):  # false on a NaN weight
                raise ValueError("weights must be nonnegative")
            if not abs(float(weights.sum()) - 1.0) <= 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")
        self._view(_merged_table(atoms, weights, np.array([atoms.size])))

    def _view(self, table: "QuantileTable") -> "Measure1D":
        self.table = table
        self.atoms, self.weights, self._cum = table.atoms[0], table.weights[0], table.cum[0]
        return self

    @classmethod
    def _of(cls, table: "QuantileTable") -> "Measure1D":
        """The measure of a one-row table cut to its count, taken as it is."""
        return object.__new__(cls)._view(table)

    def cdf_breakpoints(self) -> np.ndarray:
        return self._cum

    def __repr__(self):
        return f"Measure1D(atoms={self.atoms.tolist()}, weights={self.weights.tolist()})"

    def __eq__(self, other):
        return (isinstance(other, Measure1D)
                and self.atoms.shape == other.atoms.shape
                and bool(np.allclose(self.atoms, other.atoms))
                and bool(np.allclose(self.weights, other.weights)))

    def __hash__(self):  # equal (``np.allclose``) measures share only their atom count
        return hash(self.atoms.size)


@dataclass(frozen=True, eq=False)
class QuantileTable:
    """1-D measures as padded arrays, row i for measure i: its ``atoms``,
    ``weights`` and CDF breakpoints ``cum`` in the first ``counts[i]``
    columns. After them a row repeats its last atom, with weight 0.0 and
    breakpoint 1.0, which only adds intervals of zero width.

    An integer index gives that row back as a ``Measure1D`` on a copied
    one-row table; a slice or an index array gives the table of those rows.
    """

    atoms: np.ndarray
    weights: np.ndarray
    cum: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, measures: Sequence[Measure1D]) -> "QuantileTable":
        """The table of the measures: a single measure's own ``table``, else
        ``_merged_table`` of their atoms."""
        if len(measures) == 1:
            return measures[0].table
        return _merged_table(np.concatenate([m.atoms for m in measures] or [[]]),
                             np.concatenate([m.weights for m in measures] or [[]]),
                             np.array([m.atoms.size for m in measures], dtype=np.intp))

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            # Copies, so that a measure does not keep the whole table alive.
            row, k = [index], self.counts[index]
            return Measure1D._of(QuantileTable(self.atoms[row, :k], self.weights[row, :k],
                                               self.cum[row, :k], self.counts[row]))
        return QuantileTable(self.atoms[index], self.weights[index], self.cum[index],
                             self.counts[index])


def _grid_rows(axis: np.ndarray, index: np.ndarray) -> QuantileTable:
    """The equal-weight measures on ``axis[index]``, one per row of an (n, k)
    index array, as one table: row i is ``Measure1D(axis[index[i]])``."""
    n, k = index.shape
    return _merged_table(axis[index].reshape(-1), np.full(n * k, 1.0 / k), np.full(n, k))


def _merged_table(atoms: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> QuantileTable:
    """The measures whose atoms and weights lie back to back in ``atoms``
    and ``weights``, ``counts[i]`` >= 1 for measure i, as one table cut to
    its widest merged row. Every ``Measure1D`` is built here.

    Each row is sorted stably (unless all rows are sorted). A run starts at
    an atom more than 1e-12 above the run's first atom, and every other
    atom joins the run: so 0, 6e-13, 1.2e-12 make the runs {0, 6e-13} and
    {1.2e-12}. A run keeps its first atom and the sum of its weights, added
    left to right; the merged runs are then tabled afresh. When no two
    adjacent sorted atoms are within 1e-12, nothing merges. Entries past a
    row's count sort last (as +inf) and become copies of its last atom of
    weight 0.0, or -0.0 while runs merge (x + -0.0 = x for every x),
    carrying its last run's weight to the last column. The breakpoints are
    the running sums of the weights, with 1.0 from the last real column on.
    """
    n, k = len(counts), int(counts.max(initial=1))
    rows, last = np.arange(n)[:, None], counts[:, None] - 1
    real = np.arange(k) <= last
    raw, w = np.full((n, k), np.inf), np.zeros((n, k))
    raw[real], w[real] = atoms, weights
    if (raw[:, 1:] < raw[:, :-1]).any():
        order = raw.argsort(axis=1, kind="stable")
        raw, w = raw[rows, order], w[rows, order]
    if len(atoms) < n * k:
        np.copyto(raw, raw[rows, last], where=~real)
    if (real[:, 1:] & (raw[:, 1:] - raw[:, :-1] <= 1e-12)).any():
        w[~real] = -0.0
        start = real.copy()
        first = raw[:, 0]
        for j in range(1, k):
            start[:, j] &= raw[:, j] - first > 1e-12
            first = np.where(start[:, j], raw[:, j], first)
            w[:, j] = np.where(start[:, j], w[:, j], w[:, j - 1] + w[:, j])
        ends = np.column_stack([start[:, 1:], np.ones(n, dtype=bool)])
        return _merged_table(raw[start], w[ends], start.sum(axis=1))
    cum = w.cumsum(axis=1)
    cum[np.arange(k) >= last] = 1.0
    return QuantileTable(raw, w, cum, counts)


def _cone_center(mu: DiscreteMeasure, axis: np.ndarray, k: int, step: float,
                 row_gap: float) -> tuple:
    """The ``GridChart.center`` of the k-atom cone at q = 2: e(a) puts 1/k
    on each axis[0] + step a_j, and for nondecreasing a, S(e(a)) = sum_i
    w_i int (Q_a - Q_i)**2 = (W / k) sum_j (a_j - m_j)**2 + C, with m_j =
    (k / W) sum_i w_i int Q_i over ((j - 1)/k, j/k], nondecreasing. Those
    integrals, sums over the breakpoints, the average and the index round
    by less than k (N + 2 A + 20) u M (N members of at most A atoms,
    |atoms| <= M, u = 2**-53); a running maximum keeps m nondecreasing
    and no farther from the exact m. Rows lie within ``row_gap`` of their
    tuple, the axis within 3 u M of lo + step i."""
    table, w = mu.stacked, mu.weights
    u = np.arange(k + 1) / k
    left = np.concatenate([np.zeros((len(table), 1)), table.cum[:, :-1]], axis=1)
    width = np.minimum(table.cum[..., None], u) - np.minimum(left[..., None], u)
    blocks = np.diff(np.einsum("na,nau->nu", table.atoms, width), axis=1)
    m = np.maximum.accumulate(k * (w @ blocks) / w.sum())
    top = max(abs(float(axis[0])), abs(float(axis[-1])))
    slack = row_gap + 8.0 * k * (len(w) + table.atoms.shape[1] + 4) * 2.0 ** -53 * top
    return (m - axis[0]) / step, step / math.sqrt(k), slack


def _cone_clip(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index cells [lo, hi) cut to the cone i_1 <= ... <= i_k: running
    maxima of lo, running minima of hi from the right; empty cells go."""
    lo = np.maximum.accumulate(lo, axis=1)
    hi = np.minimum.accumulate(hi[:, ::-1], axis=1)[:, ::-1]
    keep = np.all(lo < hi, axis=1)
    return lo[keep], hi[keep]


def _size_groups(table: QuantileTable) -> list:
    """Row indices of a table with their atoms and breakpoints, grouped by
    atom count (one group when all counts are within a factor of two, else
    one per bit length) and cut to the group's widest row."""
    lo = int(table.counts.min(initial=table.atoms.shape[1]))
    hi = int(table.counts.max(initial=1))
    if hi <= 2 * lo:  # one group: views, no copies
        return [(np.arange(len(table)), table.atoms[:, :hi], table.cum[:, :hi])]
    bits = np.frexp(table.counts)[1]
    groups = []
    for b in np.flatnonzero(np.bincount(bits)):  # np.unique would load numpy.ma
        index = np.flatnonzero(bits == b)
        k = table.counts[index].max()
        groups.append((index, table.atoms[index, :k], table.cum[index, :k]))
    return groups


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-D array and the index that maps them back
    onto its rows; the array itself and a full slice when no row repeats."""
    if len(a) < 2:
        return a, slice(None)
    order = np.lexsort(a.T[::-1])
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(a[order[1:]] != a[order[:-1]], axis=1)
    if new.all():
        return a, slice(None)
    of = np.empty(len(a), dtype=np.intp)
    of[order] = np.cumsum(new) - 1
    return a[order[new]], of


def _quantile_gap_integrals(atoms_x, cum_x, atoms_y, cum_y, q: float) -> np.ndarray:
    """int_0^1 |Q_x(u) - Q_y(u)|**q du for every pair of padded measures.

    For one pair both quantile functions are constant between consecutive
    points of the merged breakpoint sets, so the integral is exact over
    those k_x + k_y intervals. A stable sort of the merged breakpoints
    gives the intervals; the number of x's breakpoints sorted before an
    interval is x's atom index on it (likewise for y). The sort, the
    interval widths and the atom indices depend on a pair only through
    its two breakpoint rows, so they are found once per distinct row of
    ``cum_x`` in a block (an equal-weight grid of k atoms has at most
    2**(k - 1)) and gathered for each pair. The terms are added in level
    order, and padding only adds exact zeros to that sum, so a pair's
    value does not depend on the rest of the batch.
    """
    kx, ky = cum_x.shape[1], cum_y.shape[1]
    cols = np.arange(len(cum_y))[:, None]
    span = np.arange(kx + ky)
    out = np.empty((len(cum_x), len(cum_y)))
    for block in row_blocks(len(cum_x), len(cum_y) * (kx + ky)):
        rows = np.arange(len(cum_x))[block, None, None]
        distinct, of = _distinct_rows(cum_x[block])
        levels = np.empty((len(distinct), len(cum_y), kx + ky))
        levels[..., :kx] = distinct[:, None, :]
        levels[..., kx:] = cum_y
        from_x = levels.argsort(axis=-1, kind="stable") < kx
        ix = from_x.cumsum(axis=-1) - from_x
        iy = np.minimum(span - ix, ky - 1)
        np.minimum(ix, kx - 1, out=ix)
        levels.sort(axis=-1)
        widths = levels.copy()
        widths[..., 1:] -= levels[..., :-1]
        # In one buffer: fresh temporaries of this size page-fault on every call.
        gap = atoms_x[rows, ix[of]]
        gap -= atoms_y[cols, iy[of]]
        np.abs(gap, out=gap)
        gap **= q
        gap *= widths[of]
        out[block] = gap.cumsum(axis=-1, out=gap)[..., -1]
    return out


@dataclass(frozen=True)
class Wasserstein1D(Space):
    """Discrete measures on the line with the order-q transport distance.

    On the line the optimal coupling is the monotone one, so the distance
    is the L^q norm of the difference of quantile functions; both quantile
    functions are piecewise constant, making the integral exact.
    """

    q: float = 2.0

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("order q must be >= 1")

    def stack(self, points):
        """The measures as one ``QuantileTable``; unchanged when one of them
        is not a ``Measure1D``."""
        if isinstance(points, QuantileTable) or not all(
                isinstance(m, Measure1D) for m in points):
            return points
        return QuantileTable.of(points)

    def contains_all(self, points) -> bool:
        return isinstance(points, QuantileTable) or Space.contains_all(self, points)

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        """Measures or ``QuantileTable`` rows on each side. Pairs are swept
        per group of atom counts within a factor of two
        (``_quantile_gap_integrals``)."""
        out = np.empty((len(xs), len(ys)))
        y_groups = _size_groups(self.stack(ys))
        for rows, atoms_x, cum_x in _size_groups(self.stack(xs)):
            for cols, atoms_y, cum_y in y_groups:
                out[rows[:, None], cols] = _quantile_gap_integrals(
                    atoms_x, cum_x, atoms_y, cum_y, self.q)
        return out ** (1.0 / self.q)

    def contains(self, x) -> bool:
        return isinstance(x, Measure1D)

    def grid_chart(self, mu: DiscreteMeasure, step: float, pad: float = 0.0,
                   atom_count: int = 2) -> GridChart:
        """The ``grid`` scheme: measures of k = ``atom_count`` equal atoms
        from the 1-D grid spanning the member supports widened by ``pad``,
        as the cone i_1 <= ... <= i_k of a k-dim index box, whose
        flat-index order is ``combinations_with_replacement`` order.

        A tuple a has Q(u) = a_j on ((j - 1)/k, j/k], so tuples lie
        k**(-1/q) ||a - b||_q apart: a cell's radius is k**(-1/q) times the
        l_q norm of its farthest corner's offsets, plus twice a row's L^q
        distance from its tuple. That is below 2e-12 (a merged atom is its
        run's first) plus the axis span times the 1/q-th power of
        4 k (k - 1) 2**-53, the measure on which breakpoints rounded to
        within 2 k 2**-53 of j/k can change an atom's index. The band
        reports ``step`` as its ``resolution``, which no proof yet shows
        to cover a minimizer."""
        if atom_count < 1:
            raise ValueError("a 1-D measure needs at least one atom")
        atoms, k, q = mu.stacked.atoms, atom_count, self.q
        axis = _axis_grid(float(atoms.min()) - pad, float(atoms.max()) + pad, step)
        slack = 2.0 * (2e-12 + (axis[-1] - axis[0]) * (4 * k * (k - 1) * 2.0 ** -53) ** (1 / q))

        def radius(lo, hi, rep):
            h = np.maximum(axis[rep] - axis[lo], axis[hi - 1] - axis[rep])
            return (np.sum(h ** q, axis=1) / k) ** (1 / q) + slack

        center = (lambda: _cone_center(mu, axis, k, step, slack / 2.0)) if q == 2.0 else None
        # Relative error of a kernel distance: k + m breakpoint intervals
        # (m the widest member), each a rounded gap power times a width.
        return GridChart([len(axis)] * k, lambda index: _grid_rows(axis, index), radius,
                         k + atoms.shape[1] + 4, step, _cone_clip, center)

    def candidates(self, mu: DiscreteMeasure, scheme: str = "support", **kwargs) -> list:
        """The base schemes and ``solver-seeded``, as lists: callers concatenate them."""
        if scheme == "solver-seeded":
            seeds = self.dedup(mu.support)
            if self.q == 2.0:
                seeds.append(quantile_barycenter(self, mu))
            return self.dedup(seeds)
        return list(super().candidates(mu, scheme, **kwargs))

    def sample_point(self, rng, scale: float = 1.0) -> Measure1D:
        k = int(rng.integers(1, 4))
        atoms = rng.normal(scale=scale, size=k)
        w = rng.uniform(0.2, 1.0, size=k)
        w = w / w.sum()
        # Renormalize exactly; the constructor enforces a 1e-12 budget.
        w[-1] = 1.0 - float(w[:-1].sum())
        return Measure1D(atoms, w)

    def point_to_json(self, x: Measure1D):
        return {"atoms": x.atoms.tolist(), "weights": x.weights.tolist()}

    def point_from_json(self, obj) -> Measure1D:
        if not isinstance(obj, dict):
            raise ValueError(f"a Wasserstein-1D point must be a JSON object, got {obj!r}")
        return Measure1D(obj["atoms"], obj.get("weights"))

    def points_from_json(self, objs: list):
        """The members as one ``QuantileTable`` (``_merged_table``), row by
        row the bits of ``point_from_json``; input that it refuses takes the
        per-member path and its errors."""
        try:
            atoms = [obj["atoms"] for obj in objs]
            counts = [len(a) if type(a) is list else 0 for a in atoms]
            weights = [[1.0 / c] * c if obj.get("weights") is None else obj["weights"]
                       for obj, c in zip(objs, counts)]
            if not objs or min(counts) < 1 or any(
                    type(g) is not list or len(g) != c for g, c in zip(weights, counts)):
                raise ValueError
            flat, w = (np.array(list(itertools.chain.from_iterable(x)), dtype=float)
                       for x in (atoms, weights))
        except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError):
            return super().points_from_json(objs)
        offsets, counts = np.array(list(itertools.accumulate(counts, initial=0))), np.array(counts)
        # Weight sums as ``Measure1D`` takes them: numpy sums the rows of a
        # 2-D array of equal-count members as it sums each row alone.
        if not (flat.ndim == 1 and flat.shape == w.shape and np.isfinite(flat).all()
                and (w >= -1e-15).all() and all(
                    (np.abs(w[offsets[:-1][counts == c, None] + np.arange(c)].sum(axis=1) - 1.0)
                     <= 1e-12).all() for c in set(counts.tolist()))):
            return super().points_from_json(objs)
        return _merged_table(flat, w, counts)


def quantile_barycenter(space: Wasserstein1D, mu: DiscreteMeasure) -> Measure1D:
    """Weighted quantile average of the member measures.

    Exact order-2 mean in one dimension up to the quantile grid: the members'
    rows of the measure's ``QuantileTable`` are read at 256 midpoint quantile
    levels and averaged levelwise, which is exact whenever every member has
    equally weighted atoms whose count divides 256.
    """
    if not isinstance(space, Wasserstein1D):
        raise ConfigurationError("quantile barycenter needs a 1-D Wasserstein space")
    if space.q != 2.0:
        raise ConfigurationError("quantile averaging is exact only for p = q = 2")
    _check_pair(space, mu)
    table, u = mu.stacked, (np.arange(256) + 0.5) / 256
    avg = sum(w * atoms[cum[:k].searchsorted(u)] for w, atoms, cum, k
              in zip(mu.weights, table.atoms, table.cum, table.counts))
    return Measure1D(avg, np.full(256, 1.0 / 256))


def _symmetric_stack(space: "BuresWassersteinSpace", sigma) -> np.ndarray:
    """``sigma`` as a float array of shape (..., dim, dim), checked symmetric."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-2:] != (space.dim, space.dim):
        raise ValueError("matrix shape does not match the space dimension")
    if not _near_symmetric(sigma, np.swapaxes(sigma, -1, -2)):
        raise ValueError("matrix must be symmetric")
    return sigma


def _near_symmetric(sigma: np.ndarray, flip: np.ndarray) -> bool:
    """``np.allclose(sigma, flip, atol=1e-10)``, calling it only when the
    stack is not exactly symmetric (exact equality, equal infinities
    included, is always close; a NaN never is)."""
    return bool((sigma == flip).all()) or np.allclose(sigma, flip, atol=1e-10)


def _psd(sigma: np.ndarray) -> np.ndarray:
    """Per symmetric matrix of a stack: eigenvalues >= -1e-10 max(1, |largest|)."""
    lam = np.linalg.eigvalsh(sigma)
    return lam[:, 0] >= -1e-10 * np.maximum(1.0, np.abs(lam[:, -1]))


def _closed_form_parts(sigma) -> tuple:
    """Per matrix, for ``BuresWassersteinSpace.closed_form``: a, b, c of
    [[a, b], [b, c]], tau, eta, g = max(det, 0)^{1/2} and |g - (det X+)^{1/2}|."""
    m = np.asarray(sigma, dtype=float)
    a = m[:, 0, 0]
    b, c = ((m[:, 0, 1] + m[:, 1, 0]) / 2.0, m[:, 1, 1]) if m.shape[-1] == 2 else (0 * a, 0 * a)
    tau = np.abs(a) + np.abs(c) + 2.0 * np.abs(b)
    eta = 2.0 * np.maximum(2.0 ** -51 * tau - (a + c) / 2.0 + np.hypot((a - c) / 2.0, b), 0.0)
    g = np.sqrt(np.maximum(a * c - b * b, 0.0))
    det_gap = 2.0 ** -52 * tau * tau + eta * eta / 4.0 + 2.0 ** -1070
    return a, b, c, tau, eta, g, _root_gap(det_gap, g)


def _root_gap(err: np.ndarray, root: np.ndarray) -> np.ndarray:
    """A bound on |r - x^{1/2}|, r the rounded root of y >= 0 and |y - x| <=
    err: |x^{1/2} - y^{1/2}| <= |x - y| / (x^{1/2} + y^{1/2})."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 ** -53 * root + np.fmin(np.sqrt(err), err / root)


def _spectral_root(sigma: np.ndarray, clamp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V sqrt(c) V^T for the symmetric part V diag(lam) V^T of each matrix
    of a stack (..., n, n), where c = ``clamp(lam, top)`` and ``top`` is
    the matrix's largest eigenvalue, kept as an axis of length one.
    Returns the root, c and V."""
    lam, vec = np.linalg.eigh((sigma + np.swapaxes(sigma, -1, -2)) / 2.0)
    lam = clamp(lam, lam[..., -1:])
    return (vec * np.sqrt(lam)[..., None, :]) @ np.swapaxes(vec, -1, -2), lam, vec


def matrix_sqrt(space: "BuresWassersteinSpace", sigma: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via spectral decomposition.

    Accepts one matrix or a stack of shape (..., dim, dim) and roots each
    matrix separately. Eigenvalues below 1e-12 times a matrix's largest
    one (including round-off negatives) are clamped to zero before
    rooting; fixed-point iterations routinely graze the PSD boundary.
    """
    return _spectral_root(_symmetric_stack(space, sigma), lambda lam, top: np.where(
        lam > np.where(top > 0, 1e-12 * top, 0.0), lam, 0.0))[0]


@dataclass(frozen=True)
class BuresWassersteinSpace(Space):
    """Symmetric PSD matrices with the Bures-Wasserstein distance.

    The squared distance is tr A + tr B - 2 tr (A^{1/2} B A^{1/2})^{1/2};
    for commuting pairs it reduces to the Euclidean distance between
    eigenvalue square roots.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        a = np.asarray(xs, dtype=float)
        b = _symmetric_stack(self, ys)
        roots = matrix_sqrt(self, a)
        tr_a = np.trace(a, axis1=-2, axis2=-1)
        tr_b = np.trace(b, axis1=-2, axis2=-1)
        out = np.empty((len(a), len(b)))
        for block in row_blocks(len(a), len(b) * self.dim * self.dim):
            root = roots[block, None]
            inner = root @ b[None] @ root
            lam = np.linalg.eigvalsh((inner + np.swapaxes(inner, -1, -2)) / 2.0)
            cross = np.sum(np.sqrt(np.clip(lam, 0.0, None)), axis=-1)
            sq = tr_a[block, None] + tr_b[None, :] - 2.0 * cross
            # On identical matrices the formula would take sqrt of
            # round-off noise; the mask keeps their exact zero.
            same = np.all(a[block, None] == b[None], axis=(-2, -1))
            out[block] = np.where(same, 0.0, np.sqrt(np.maximum(sq, 0.0)))
        return out

    def closed_form(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        """Distances between two stacks of dim <= 2 matrices from the 2x2
        closed form (a 1x1 matrix padded with zeros, entries those of the
        symmetric part), and per pair a bound delta on the gap to the
        kernel's value (``pairwise_distances``).

        For PSD A, B and M = A^{1/2} B A^{1/2}: tr M = tr AB, det M = det A
        det B and (tr M^{1/2})^2 = tr M + 2 (det M)^{1/2}, so BW^2 = tr A +
        tr B - 2 s^{1/2}, s = tr AB + 2 (det A det B)^{1/2} (Hubner, Phys.
        Lett. A 1992), with determinants clipped at 0.

        Bound: both computed squares are compared with BW(A+, B+)^2 <= tau_A
        + tau_B, X+ being X with negative eigenvalues set to 0, tau_X =
        sum |x_ij| >= ||X||_1, u = 2**-53 and eta_X = 2 max(4 u tau_X -
        computed smallest eigenvalue, 0) >= ||X - X+||_1.
        - Clamp: the kernel roots A', which zeroes A's eigenvalues below
          1e-12 of its largest: ||A' - A+||_1 <= 1e-12 tau_A, so BW(A', A+)
          <= r = (1e-12 tau_A)^{1/2} (Powers-Stormer) and the square moves
          by r (2 (tau_A + tau_B)^{1/2} + r) <= 2e-6 (tau_A + (tau_A
          tau_B)^{1/2}) + r^2, and by 1e-12 tau_A more through tr A.
        - Non-PSD inputs (``contains_all`` allows -1e-10): traces move by
          eta_A + eta_B. The kernel clips the eigenvalues of A'^{1/2} B
          A'^{1/2}, which move by <= tau_A eta_B (Weyl), their roots by
          (tau_A eta_B)^{1/2}. In the closed form tr AB moves by eta_A tau_B
          + tau_A eta_B + eta_A eta_B, and max(det X, 0) by <= eta_X^2 / 4.
        - Rounding: the closed form's by the standard model (each
          determinant within 2 u tau^2, (det X+)^{1/2} <= tau / 2, s <=
          1.5 tau_A tau_B; underflow adds 2**-1070). The kernel's inner
          eigenvalues are taken to be within 2**10 u tau_A tau_B: this rests
          on LAPACK's backward stability, not on a proof, so the constant is
          generous.
        Roots pass an error on as ``_root_gap``; delta doubles the last one
        to cover the (1 + u) factors left out and the kernel's last root.
        """
        if self.dim > 2:
            raise ConfigurationError("the closed form holds for dim <= 2 only")
        u = 2.0 ** -53
        a1, b1, c1, t1, n1, g1, e1 = _closed_form_parts(xs)
        a2, b2, c2, t2, n2, g2, e2 = _closed_form_parts(ys)
        cross = np.sqrt(np.maximum(np.stack([a1, 2.0 * b1, c1], 1) @ np.stack([a2, b2, c2])
                                   + 2.0 * np.multiply.outer(g1, g2), 0.0))
        dist = np.sqrt(np.maximum(np.add.outer(a1 + c1, a2 + c2) - 2.0 * cross, 0.0))
        # |s - s+|, and the squares' gap but for s's root, as sums of products.
        gap_s = np.stack([t1, n1, e1], 1) @ np.stack([16.0 * u * t2 + n2 + e2, t2 + n2,
                                                      t2 + 2.0 * e2]) + 2.0 ** -1070
        rest = np.stack([np.ones_like(t1), 2.0 * n1 + 2.1e-6 * t1, np.sqrt(t1)], 1) @ np.stack(
            [2.0 * n2 + 16.0 * u * t2, np.ones_like(t2),
             4.0 * np.sqrt(n2) + (2e-6 + 4.0 * (2.0 ** 10 * u) ** 0.5 + 32.0 * u) * np.sqrt(t2)])
        return dist, 2.0 * _root_gap(rest + 2.0 * _root_gap(gap_s, cross), dist)

    def contains(self, x) -> bool:
        return self.contains_all([x])

    def stack(self, points):
        return _float_stack(points, (self.dim, self.dim))

    def contains_all(self, points) -> bool:
        """Finite, symmetric within 1e-10 (``np.allclose``) and PSD
        (``_psd``): one check on the stack. Points that do not stack into
        one (n, dim, dim) float array are not in the space; no points are."""
        arr = self.stack(points)
        if getattr(arr, "shape", None) != (len(points), self.dim, self.dim):
            return not len(points)
        flip = np.swapaxes(arr, -1, -2)
        return bool(np.all(np.isfinite(arr)) and _near_symmetric(arr, flip)
                    and np.all(_psd((arr + flip) / 2.0)))

    def _psd_grid(self, lows: np.ndarray, highs: np.ndarray, step) -> np.ndarray:
        if self.dim > 2:
            raise ConfigurationError("matrix grids are only feasible for dim <= 2")
        if step is None:
            raise ValueError("grid schemes need a step")
        # a, then c, then b vary; kept are the matrices ``contains_all`` accepts.
        diag = [_axis_grid(max(float(lows[i, i]), 0.0), float(highs[i, i]), step)
                for i in range(self.dim)]
        if self.dim == 1:
            return diag[0].reshape(-1, 1, 1)
        a, c2, b = np.meshgrid(*diag, _axis_grid(float(lows[0, 1]), float(highs[0, 1]), step),
                               indexing="ij")
        box = np.stack([a, b, b, c2], axis=-1).reshape(-1, 2, 2)
        # ac >= b**2 exactly where the rounded, finite products are this far
        # apart: PSD, which a backward stable eigvalsh accepts with room to spare.
        ac = a * c2
        keep = ((ac >= b * b * (1.0 + 2.0 ** -50)) & (ac < math.inf)).reshape(-1)
        unsure = np.flatnonzero(~keep)
        keep[unsure] = _psd(box[unsure])
        return box[keep]

    def candidates(self, mu, scheme="support", *, step=None, center=None,
                   radius=None, pad: float = 0.0, **kwargs):
        """``grid``: the PSD matrices of the members' entry-wise box widened
        by ``pad``, one (N, dim, dim) array; ``ball-grid``: a list of those
        of the box of half-width ``radius`` around ``center``."""
        if scheme == "grid":
            return self._psd_grid(mu.stacked.min(axis=0) - pad, mu.stacked.max(axis=0) + pad, step)
        if scheme == "ball-grid":
            if center is None or radius is None:
                raise ValueError("ball-grid scheme needs center, radius and step")
            c = np.asarray(center, dtype=float)
            return list(self._psd_grid(c - radius, c + radius, step))
        return super().candidates(mu, scheme)

    def sample_point(self, rng, scale: float = 1.0):
        a = rng.normal(scale=scale, size=(self.dim, self.dim))
        return a @ a.T / self.dim + 0.05 * scale * np.eye(self.dim)

    def point_to_json(self, x):
        return [float(v) for v in np.asarray(x, dtype=float).reshape(-1)]

    def point_from_json(self, obj):
        return np.asarray(obj, dtype=float).reshape(self.dim, self.dim)


def _diag_gap(point: tuple[float, float]) -> float:
    """Euclidean distance from a birth/death pair to the diagonal."""
    b, d = point
    return (d - b) / math.sqrt(2.0)


@dataclass(frozen=True)
class PersistenceDiagramSpace(Space):
    """Finite multisets of birth/death pairs with the order-q matching cost.

    Points of one diagram may match points of the other or their own
    projection onto the diagonal; the cost is the q-th root of the summed
    q-th powers of Euclidean ground distances. Unmatched mass therefore
    pays its distance to the diagonal.
    """

    q: float = 2.0

    def __post_init__(self):
        if not (1.0 < self.q < math.inf):
            raise ValueError("order q must lie strictly between 1 and infinity")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        """A loop over pairs: each pair is its own assignment problem."""
        return np.array([[self.distance(x, y) for y in ys] for x in xs],
                        dtype=float).reshape(len(xs), len(ys))

    def distance(self, x, y) -> float:
        from scipy.optimize import linear_sum_assignment

        p1 = [tuple(map(float, pt)) for pt in x]
        p2 = [tuple(map(float, pt)) for pt in y]
        n, m = len(p1), len(p2)
        if n == 0 and m == 0:
            return 0.0
        size = n + m
        cost = np.full((size, size), np.inf)
        for i, a in enumerate(p1):
            for j, b in enumerate(p2):
                cost[i, j] = math.hypot(a[0] - b[0], a[1] - b[1]) ** self.q
            cost[i, m + i] = _diag_gap(a) ** self.q
        for j, b in enumerate(p2):
            cost[n + j, j] = _diag_gap(b) ** self.q
        cost[n:, m:] = 0.0  # diagonal-to-diagonal pairings are free
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() ** (1.0 / self.q))

    def contains(self, x) -> bool:
        try:
            pts = [tuple(map(float, pt)) for pt in x]
        except (TypeError, ValueError):
            return False
        return all(b < d and math.isfinite(b) and math.isfinite(d) for b, d in pts)

    def sample_point(self, rng, scale: float = 1.0):
        k = int(rng.integers(0, 5))
        pts = []
        for _ in range(k):
            b = float(rng.uniform(0.0, 2.0 * scale))
            pts.append((b, b + float(rng.uniform(0.05, 2.0 * scale))))
        return tuple(pts)

    def point_to_json(self, x):
        return [[float(b), float(d)] for b, d in x]

    def point_from_json(self, obj):
        return tuple((float(b), float(d)) for b, d in obj)
