"""Space-specialized minimizers for the mean-set objective.

Every solver here is validated against ``grid_oracle``, the brute-force
candidate sweep that serves as ground truth: a solver's achieved objective
value must never exceed the oracle band minimum by more than the value
tolerance. ``grid_mean_set`` returns the oracle's band over the ``grid``
scheme; on a grid that a space charts as integer index tuples (the box
grids of the vector spaces, the Wasserstein-1D cone) it gets there coarse
to fine, evaluating only the grid points that a Lipschitz bound cannot
rule out (at p = 2 in a flat chart, from the box of a ball around the
barycenter), and on a Bures-Wasserstein grid the kernel sees only the
matrices that the 2x2 closed form, with its error bound, cannot rule out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    FrechetConfig,
    MeanSetApprox,
    Space,
    _band_values,
    _check_pair,
    band_cut,
    degenerate_band,
    moment,
    origin_shift,
    relaxed_mean_set,
)
from .spaces import BuresWassersteinSpace, EuclideanSpace, GridChart, _spectral_root, matrix_sqrt

__all__ = [
    "SolverConfig",
    "grid_oracle",
    "grid_mean_set",
    "weiszfeld_median",
    "euclidean_pmean",
    "bw_barycenter",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and tolerances shared by the iterative solvers."""

    max_iterations: int = 500
    step_tolerance: float = 1e-10
    value_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        # Written so that a NaN tolerance fails the check.
        if not (0 < self.step_tolerance < math.inf and 0 < self.value_tolerance < math.inf):
            raise ValueError("tolerances must be finite and positive")


def grid_oracle(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                grid, resolution: float) -> MeanSetApprox:
    """Exact argmin band over an explicit finite grid, reported with the
    grid's covering radius ``resolution``.

    This is the independent reference for every other solver; it never
    delegates to them.
    """
    return relaxed_mean_set(space, mu, config, grid, resolution=resolution)


def grid_mean_set(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                  step: float, pad: float = 0.0) -> MeanSetApprox:
    """The band of the ``grid`` candidate scheme at spacing ``step``.

    The result is ``grid_oracle`` over ``space.candidates(mu, "grid",
    step=step, pad=pad)``: the same points in the same order, the same
    achieved value bit for bit. A space with a ``grid_chart`` (Euclidean
    and l_q boxes, the Wasserstein-1D cone) reports the chart's
    ``resolution`` and is searched coarse to fine (``_pruned_band``), its
    grid never built; at p = 2 the Euclidean box and the q = 2 cone start
    from the box of a ball around their barycenter (``_center_box``), which
    at epsilon = 0 holds one to three indices per axis. Any other space
    sweeps its ``grid`` candidates, screened first by its ``closed_form``
    if it has one (Bures-Wasserstein, ``_bw_screen``), and reports
    ``step``: on a construction that is not a covering radius.
    """
    _check_pair(space, mu)
    if hasattr(space, "grid_chart"):
        chart = space.grid_chart(mu, step, pad)
        short = degenerate_band(space, mu, config, chart.resolution)
        return short if short is not None else _pruned_band(space, mu, config, chart)
    grid = space.candidates(mu, "grid", step=step, pad=pad)
    if hasattr(space, "closed_form"):
        grid = grid[_bw_screen(space, mu, config, grid)]
    return grid_oracle(space, mu, config, grid, resolution=step)


def _pruned_band(space: Space, mu: DiscreteMeasure, config: FrechetConfig,
                 chart: GridChart) -> MeanSetApprox:
    """The epsilon-band over the grid of a ``GridChart``, by splitting index
    cells into up to ``splits`` ranges per axis and level; grid points are
    built from their indices (``chart.rows``) when needed.

    A cell is a box of index ranges [lo, hi), cut by ``chart.clip`` to the
    grid points it holds. Its representative c is its middle index tuple
    and ``chart.radius`` bounds d(x, c) by r for every grid point x of the
    cell. Writing S(x) = sum_i w_i d(x, y_i)**p,

        |S(x) - S(c)| <= p r sum_i w_i (d(c, y_i) + r)**(p - 1)
                      <= p r (S(c)**(1/p) + r)**(p - 1)

    (the mean value theorem, then Jensen and Minkowski for weights summing
    to one), so the second form needs only c's value. Each level evaluates
    the representatives with ``_band_values`` and drops every cell whose
    lower bound exceeds the cut of the best value seen so far. Before
    that, starting from the whole box (at p = 2 in a chart with a
    ``center``, from ``_center_box``'s box, with the value of its grid
    point as the best seen), it splits each axis of every cell into up to
    ``splits`` nonempty index ranges of near equal length (about 16
    children per cell in any dimension).
    The best value seen is never below the grid minimum and ``band_cut``
    increases with it, so that cut is at least the final one and no band
    point is ever dropped.
    Single points are final: their values, ordered by index tuple (flat
    index, ``itertools.product`` order on a box and
    ``combinations_with_replacement`` order on a cone), give the band with
    the cut of ``relaxed_mean_set``. Values do not depend on which rows
    are swept together, so both equal the full sweep's bit for bit.
    """
    p, eps, n, dim = config.p, config.epsilon, len(mu.support), len(chart.sizes)
    shift = origin_shift(space, mu, config)
    # Rounding margin. With u = 2**-53, a kernel distance carries a relative
    # error below e u (e = ``chart.rounding``), a term w_i d_i**p below
    # (p e + 2) u, and the sum of n terms adds at most (n - 1) u times the
    # sum of the terms, in any summation order; subtracting the shift adds
    # u |v|. So a computed value v is within kappa u S + u |v| of its exact
    # value. With size = |v(c)| + |shift| and L the bound above,
    # S <= size + L and |v| <= 2 size + L over the cell, so the errors at c
    # and at x add up to less than (2 kappa + 3) u (size + L). The margin,
    # 4 kappa u (size + L + |threshold| + 1), also covers the rounding of L
    # and of the threshold, each a few u of its own size.
    ulp = 2.0 ** -53
    kappa = p * chart.rounding + n + 3
    # Weights sum to one within 1e-12; the Jensen and Minkowski steps then
    # lose at most this factor.
    weight_slack = (1.0 + 2e-12) ** p
    # About 16 children per cell in any dimension: 16 ranges per axis on the
    # line, 4 in the plane, 3 in 3-D and 2 from 4-D up (not 4**dim children).
    splits = max(2, round(16 ** (1 / dim)))
    lo = np.zeros((1, dim), dtype=np.intp)
    hi = np.array([chart.sizes], dtype=np.intp)
    best = math.inf
    if p == 2.0 and chart.center is not None:
        lo, hi, best = _center_box(space, mu, config, chart, shift, kappa, lo, hi)
    found_at, found_values = [], []
    while len(lo):
        for k in range(dim):
            # Row j of ``cuts`` bounds the index ranges cell j splits into.
            span = hi[:, k, None] - lo[:, k, None]
            cuts = lo[:, k, None] + span * np.arange(splits + 1) // splits
            cell, part = np.nonzero(cuts[:, :-1] < cuts[:, 1:])
            lo, hi = lo[cell], hi[cell]
            lo[:, k] = cuts[cell, part]
            hi[:, k] = cuts[cell, part + 1]
        if chart.clip is not None:
            lo, hi = chart.clip(lo, hi)
        rep = (lo + hi - 1) // 2
        values = _band_values(space, mu, config, chart.rows(rep), shift)
        best = min(best, float(values.min()))
        threshold = band_cut(best, eps)
        single = np.all(hi - lo == 1, axis=1)
        found_at.append(rep[single])
        found_values.append(values[single])
        lo, hi, rep, values = lo[~single], hi[~single], rep[~single], values[~single]
        if not len(lo):
            break
        r = chart.radius(lo, hi, rep)
        size = np.abs(values) + abs(shift)
        # An upper bound of S(c).
        s_up = np.maximum(values + abs(shift), 0.0) + 2.0 * kappa * ulp * size
        lipschitz = p * r * (s_up ** (1.0 / p) + r) ** (p - 1.0) * weight_slack
        margin = 4.0 * kappa * ulp * (size + lipschitz + abs(threshold) + 1.0)
        keep = values - lipschitz - margin <= threshold
        lo, hi = lo[keep], hi[keep]

    at = np.concatenate(found_at)
    values = np.concatenate(found_values)
    order = np.lexsort(at.T[::-1])  # index-tuple order, first axis slowest
    at, values = at[order], values[order]
    achieved = float(values.min())
    kept = np.flatnonzero(values <= band_cut(achieved, eps))
    return MeanSetApprox(tuple(chart.rows(at[kept])), chart.resolution, achieved)


def _center_box(space: Space, mu: DiscreteMeasure, config: FrechetConfig, chart: GridChart,
                shift: float, kappa: float, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The index box, within [lo, hi), of every band point of a p = 2
    search in a chart whose ``center()`` is (c, scale, delta), and the
    value of a grid point in it; [lo, hi) and no value if the bound
    overflows.

    The grid point i* rounds c. Its value v is at least the grid
    minimum, so a band point x has v(x) <= cut = ``band_cut(v)``. With
    the kernel's rounding as in ``_pruned_band`` and margin = 4 kappa u
    (|v| + |cut| + |shift| + 1), the exact values obey S(x) <= B = cut +
    shift + margin and S(x*) >= A = v + shift - margin. sqrt(S) is
    sqrt(W)-Lipschitz (Minkowski) and row i lies within delta of e(i),
    so with t = sqrt(W) delta, sqrt(S(e(i))) <= sqrt(B) + t and
    sqrt(S(e(i*))) >= sqrt(A) - t. In S(e(a)) = W d(e(a), m)**2 + S(m)
    the unknown S(m) cancels from the difference of the two squares:

        d(e(i), m)**2 <= d(e(i*), m)**2 + G,
        G = (B - A + 2 t (sqrt(B) + sqrt(A)) + t**2) / W,

    and as d(e(a), m) and scale |a - c| differ by at most delta,
    |i - c| <= (delta + sqrt((scale |i* - c| + delta)**2 + G)) / scale.
    W is within 1e-12 of one, and 1e-12 relative and absolute covers the
    rounding of this bound, whose terms are all nonnegative.
    """
    c, scale, delta = chart.center()
    star = np.clip(np.rint(c), lo[0], hi[0] - 1).astype(np.intp)
    v = float(_band_values(space, mu, config, chart.rows(star[None]), shift)[0])
    cut = band_cut(v, config.epsilon)
    margin = 4.0 * kappa * 2.0 ** -53 * (abs(v) + abs(cut) + abs(shift) + 1.0)
    t = (1.0 + 1e-12) * delta
    upper, lower = max(cut + shift + margin, 0.0), max(v + shift - margin, 0.0)
    gap = (cut - v + 2.0 * margin + 2.0 * t * (math.sqrt(upper) + math.sqrt(lower))
           + t * t) / (1.0 - 1e-12)
    reach = (delta + math.sqrt((scale * float(np.linalg.norm(star - c)) + delta) ** 2 + gap)
             ) / scale * (1.0 + 1e-12)
    if not math.isfinite(reach):
        return lo, hi, math.inf
    reach = reach + 1e-12 * np.abs(c)
    return (np.maximum(np.ceil(c - reach), lo).astype(np.intp),
            np.minimum(np.floor(c + reach) + 1, hi).astype(np.intp), v)


def _bw_screen(space: BuresWassersteinSpace, mu: DiscreteMeasure, config: FrechetConfig,
               grid: np.ndarray) -> np.ndarray:
    """Indices, in grid order, of the grid matrices the 2x2 closed form
    (``BuresWassersteinSpace.closed_form``) cannot rule out of the band.

    With gap delta, |k**p - c**p| <= p delta (c + delta)**(p - 1), so the
    sweep's value lies within ``width`` of the screen's: the lifts weighted
    by |w_i| (weights may be -1e-15), plus four times the rounding of both
    sums, each below (n + 3) u sum |w_i| (c_i + delta_i)**p + u |value|
    (which also covers the cut's rounding). ``band_cut`` increases with the
    minimum, so the minimizer and the band stay. NaNs are kept.
    """
    p, w = config.p, mu.weights
    shift = origin_shift(space, mu, config)
    dist, delta = space.closed_form(grid, mu.stacked)
    values = dist ** p @ w - shift
    size = (dist + delta) ** p @ np.abs(w) + abs(shift)
    lift = (p * delta * (dist + delta) ** (p - 1.0)) @ np.abs(w)
    width = lift + 8.0 * (len(w) + 4) * 2.0 ** -53 * (size + lift + 1.0)
    cut = band_cut(float(np.min(values + width, initial=math.inf)), config.epsilon)
    return np.flatnonzero(~(values - width > cut))


@dataclass(frozen=True)
class SortedLine:
    """A 1-D support sorted once, with its weights accumulated in that order.

    ``values`` holds the atoms in ascending order and ``cum[k]`` the weight
    of the k smallest, summed left to right (``cum[0] = 0``, ``cum[-1]``
    the total), so the weight below, inside and above any window costs two
    ``searchsorted`` calls.
    """

    values: np.ndarray
    cum: np.ndarray

    @classmethod
    def of(cls, column: np.ndarray, weights: np.ndarray) -> "SortedLine":
        order = np.argsort(column)
        return cls(column[order], np.concatenate(([0.0], np.cumsum(weights[order]))))

    def split(self, lo: float, hi: float) -> tuple[float, float, float]:
        """Weights of the atoms below ``lo``, in ``[lo, hi]`` and above ``hi``."""
        a = int(self.values.searchsorted(lo, side="left"))
        b = int(self.values.searchsorted(hi, side="right"))
        cum = self.cum
        return float(cum[a]), float(cum[b] - cum[a]), float(cum[-1] - cum[b])


def _pull_outweighs_window(line: SortedLine, yj: float, tie: float, slack: float) -> bool:
    """True when rank counts alone show that the atom at ``yj`` fails the
    full scan of ``_atom_certificate`` with the same ``tie``.

    Outside the window [fl(yj - 2 tie), fl(yj + 2 tie)] every atom lies
    more than 2 tie from yj exactly, so its computed difference d has
    |d| >= 2 tie: it is not tied, and sqrt(d * d) = |d| (d * d neither
    underflows, since tie >= 1e-12, nor overflows, since the support spans
    at most 1e150), so its term of the computed pull is exactly +-w_i.
    With A, B and W the weights above, below and inside the window and T
    the tied weight, the exact pull is A - B + R where R is a signed sum
    of the untied window weights, |R| <= W - T. So |pull| > T as soon as
    |A - B| > W. The scan's dot product and tied sum are each within
    1.01 n u S of their exact values (u = 2**-53, S the total weight),
    and |A - B| - W from the prefix sums within 5.05 n u S + 8 u S, so
    the scan rejects the atom whenever |A - B| - W exceeds
    (7.07 n + 8) u S. The caller's ``slack``, 16 (n + 1) u (S + 1), is
    larger.
    """
    below, inside, above = line.split(yj - 2.0 * tie, yj + 2.0 * tie)
    return abs(above - below) - inside > slack


def _atom_certificate(ys: np.ndarray, w: np.ndarray, j: int, tie: float) -> bool:
    """The subgradient condition at atom j by a full scan: the pull of the
    atoms farther than ``tie`` does not exceed the weight of the others."""
    yj = ys[j]
    dj = np.linalg.norm(ys - yj, axis=1)
    same = dj <= tie
    pull = ((ys[~same] - yj) / dj[~same, None]).T @ w[~same]
    return float(np.linalg.norm(pull)) <= float(w[same].sum())


def weiszfeld_median(space: EuclideanSpace, mu: DiscreteMeasure,
                     config: SolverConfig | None = None,
                     callback=None) -> np.ndarray:
    """Geometric median by the reweighting iteration, with anchor handling.

    When an iterate coincides with a support atom, the optimality of that
    atom is decided by the subgradient condition (the pull of the other
    atoms against the atom's own weight); if the atom is not optimal the
    iterate is pushed off along the pull direction. The objective is
    non-increasing at every step; ``callback(x)`` is invoked on each
    iterate.

    Atoms within tie = 1e-12 (1 + the largest distance from the start) of
    the nearest atom count as that atom; when that scale overflows (atoms
    about 1.3e154 or more from the start) ``ConfigurationError`` is
    raised. On the line (dim 1) the support is sorted once
    (``SortedLine``) and a new nearest atom y_j is first tested by rank
    counting: when the weight on one side of the window
    [y_j - 2 tie, y_j + 2 tie] exceeds the weight on the other side plus
    the window's own weight by more than a rounding slack of
    16 (n + 1) 2**-53 (S + 1), S the total weight, the full scan would
    reject the atom too, so it is not run. Otherwise, and whenever the
    support spans more than 1e150, the full scan decides. Distances on
    the line must be sqrt(d * d) of the one coordinate, the value
    ``np.linalg.norm`` gives; they are computed as |d| into buffers of the
    call, since sqrt(fl(d * d)) = |d| exactly for 2**-511 <= |d| < 2**511.
    That holds when the support spans at most 1e150, the iterate lies
    between its smallest and largest atom and the nearest distance is at
    least 2**-511; otherwise that iteration takes sqrt(d * d). Iterates,
    callbacks and the result are those of the full scan bit for bit; in
    dimension 2 and up the full scan is the only test.
    """
    if not isinstance(space, EuclideanSpace):
        raise ConfigurationError("the median iteration runs on Euclidean spaces")
    config = config or SolverConfig()
    ys = mu.stacked
    w = mu.weights
    if mu.is_degenerate():
        return ys[0].copy()
    column = ys[:, 0] if ys.shape[1] == 1 else None

    x = ys.T @ w  # weighted average start
    if callback is not None:
        callback(x.copy())
    scale = 1.0 + float(np.max(np.linalg.norm(ys - x, axis=1)))
    if not math.isfinite(scale):
        raise ConfigurationError("the median iteration's distance scale overflows: "
                                 "the support lies too far from its weighted average")
    tie = 1e-12 * scale

    # Optimality certificate at an atom: the pull of the other atoms does
    # not exceed the atom's own weight. It certifies the global optimum of
    # the convex objective, and it rescues the atom-optimal instances where
    # the plain iteration converges sublinearly. Verdicts are cached since
    # the nearest atom stabilizes quickly.
    certified: dict[int, bool] = {}
    # The rank-count gate and |d| need squared differences that cannot overflow.
    line = SortedLine.of(column, w) if column is not None and np.ptp(column) <= 1e150 else None
    if line is not None:
        slack = 16.0 * (len(w) + 1) * 2.0 ** -53 * (float(line.cum[-1]) + 1.0)
    # Per call, so that concurrent calls share no buffer.
    line_dist, inv = np.empty(len(w)), np.empty(len(w))

    def distances(x: np.ndarray) -> tuple[np.ndarray, int]:
        """The distances to x, the values ``np.linalg.norm`` gives, and the
        index of the smallest."""
        if column is None:
            d = np.linalg.norm(ys - x, axis=1)
            return d, int(d.argmin())
        d = np.abs(np.subtract(column, x[0], out=line_dist), out=line_dist)
        j = int(d.argmin())
        if line is None or not line.values[0] <= x[0] <= line.values[-1] or d[j] < 2.0 ** -511:
            np.sqrt(np.multiply(d, d, out=d), out=d)
            j = int(d.argmin())
        return d, j

    def atom_is_optimal(j: int) -> bool:
        if j not in certified:
            if line is not None and _pull_outweighs_window(line, float(column[j]), tie, slack):
                certified[j] = False
            else:
                certified[j] = _atom_certificate(ys, w, j, tie)
        return certified[j]

    f_prev = math.inf
    for _ in range(config.max_iterations):
        dist, j = distances(x)
        if atom_is_optimal(j):
            return ys[j].copy()
        f_here = float(np.dot(w, dist))
        if abs(f_prev - f_here) <= config.value_tolerance * (1.0 + abs(f_here)):
            return x
        f_prev = f_here
        if dist[j] <= tie:
            # Sitting on a non-optimal atom: push off along the pull,
            # damped by the anchor weight (the iteration map is singular).
            same = dist <= tie
            others = ~same
            pull = ((ys[others] - x) / dist[others, None]).T @ w[others]
            pull_norm = float(np.linalg.norm(pull))
            anchor_weight = float(w[same].sum())
            denom = float(np.sum(w[others] / dist[others]))
            step = (1.0 - anchor_weight / pull_norm) * (pull_norm / denom)
            x = x + step * (pull / pull_norm)
            if callback is not None:
                callback(x.copy())
            continue
        np.divide(w, dist, out=inv)
        x_next = ys.T @ inv / inv.sum()
        delta = x_next - x
        move = math.sqrt(float(delta.dot(delta)))  # np.linalg.norm's formula, bit for bit
        x = x_next
        if callback is not None:
            callback(x.copy())
        if move <= config.step_tolerance * scale:
            return x
    raise ConvergenceFailure("median iteration did not converge",
                             last_point=x, iterations=config.max_iterations,
                             value=f_prev)


def euclidean_pmean(space: EuclideanSpace, mu: DiscreteMeasure, p: float,
                    config: SolverConfig | None = None) -> np.ndarray:
    """Minimizer of the p-th distance moment on R^d.

    The objective is convex for p >= 1. p = 2 is the weighted average in
    closed form; p = 1 delegates to the median iteration; anything else
    descends on ``core.moment`` from the weighted average, backtracking.
    """
    if not isinstance(space, EuclideanSpace):
        raise ConfigurationError("this solver runs on Euclidean spaces")
    if p < 1:
        raise ValueError("order p must be >= 1")
    config = config or SolverConfig()
    ys, w = mu.stacked, mu.weights
    if mu.is_degenerate():
        return ys[0].copy()
    if p == 2.0:
        return ys.T @ w
    if p == 1.0:
        return weiszfeld_median(space, mu, config)

    x = ys.T @ w
    scale = 1.0 + float(np.max(np.linalg.norm(ys - x, axis=1)))
    f = moment(space, mu, p, x)
    lr = 1.0
    for _ in range(config.max_iterations):
        diff = x - ys
        dist = np.linalg.norm(diff, axis=1)
        mask = dist > 1e-15 * scale
        grad = p * ((w[mask] * dist[mask] ** (p - 2.0))[:, None] * diff[mask]).sum(axis=0)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= config.step_tolerance:
            return x
        step = lr
        for _ in range(60):  # backtracking: sufficient decrease, c = 1/2
            x_try = x - step * grad
            f_try = moment(space, mu, p, x_try)
            if f_try <= f - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
        else:
            return x  # no descent direction at floating-point resolution
        moved = step * gnorm
        stalled = f - f_try <= config.value_tolerance * (1.0 + abs(f_try))
        x, f = x_try, f_try
        if stalled:
            return x
        lr = min(step * 4.0, 1e6)
        if moved <= config.step_tolerance * scale:
            return x
    raise ConvergenceFailure("gradient descent did not converge",
                             last_point=x, iterations=config.max_iterations, value=f)


def _positive_clamp(lam: np.ndarray, top: np.ndarray) -> np.ndarray:
    """Eigenvalues raised to at least 1e-12 times the largest one (times 1
    when that is not positive), so that the inverse square root exists."""
    floor = 1e-12 * np.where(top > 0, top, 1.0)
    if np.any(lam < floor):
        import logging

        logging.getLogger(__name__).warning(
            "clamped %d eigenvalue(s) to keep an iterate positive definite",
            int(np.sum(lam < floor)))
    return np.maximum(lam, floor)


def bw_barycenter(space: BuresWassersteinSpace, mu: DiscreteMeasure,
                  config: SolverConfig | None = None) -> np.ndarray:
    """Order-2 mean of covariance matrices by the fixed-point iteration.

    Starting from the Euclidean average, each step maps the current
    matrix S to S^{-1/2} (sum_i w_i (S^{1/2} Sigma_i S^{1/2})^{1/2})^2 S^{-1/2},
    all members rooted by one ``matrix_sqrt`` of the stack. Iteration stops
    once one more step moves the iterate by less than the step tolerance in
    the space's own metric.
    """
    if not isinstance(space, BuresWassersteinSpace):
        raise ConfigurationError("this solver runs on Bures-Wasserstein spaces")
    config = config or SolverConfig()
    mats, w = mu.stacked, mu.weights
    if mu.is_degenerate():
        return mats[0].copy()

    current = sum(wi * m for wi, m in zip(w, mats))
    scale = 1.0 + float(np.trace(current))
    for _ in range(config.max_iterations):
        root, lam, vec = _spectral_root(current, _positive_clamp)
        inv_root = (vec / np.sqrt(lam)) @ vec.T
        inner = root @ mats @ root
        roots = matrix_sqrt(space, (inner + np.swapaxes(inner, -1, -2)) / 2.0)
        mixed = sum(wi * r for wi, r in zip(w, roots))
        nxt = inv_root @ mixed @ mixed @ inv_root
        nxt = (nxt + nxt.T) / 2.0
        # The Frobenius gap of the roots upper-bounds the metric step and
        # stays numerically meaningful near the fixed point, where the
        # metric formula reduces to the square root of round-off noise.
        step_bound = float(np.linalg.norm(root - matrix_sqrt(space, nxt)))
        if step_bound <= config.step_tolerance * scale:
            return nxt
        current = nxt
    raise ConvergenceFailure("fixed-point iteration did not converge",
                             last_point=current, iterations=config.max_iterations)

