"""Independent brute-force oracles used to fix expected values.

Everything here is deliberately naive (plain loops, LP formulations,
exhaustive enumeration) and shares no code path with the package's own
solvers or vectorized sweeps. The exception is the two sections at the
end: the per-point and per-replication loops that the package's
array-native experiment drivers, shared prefix engine and equality scan
replaced, which call the package's generic band sweep (``grid_oracle``)
and solver dispatch on one measure at a time, the per-point grid and
stacking code that the stacked vector points replaced, the vector
kernels as they summed from zeros, the full grid
sweep that the pruned grid search replaced, the merge loop of
``Measure1D``, the per-object Wasserstein-1D grid and per-measure LDP
origin shifts that arrays replaced, the quantile gap kernel with fresh temporaries, and the median
iteration,
LDP replication count and chain walk as they were before their sorted or
per-call tables, the member-by-member loops of three solvers (the
Bures-Wasserstein fixed point, the quantile barycenter and the p-mean's
moment) before they read the measure's stack, the CLI's point-by-point measure decoder, the candidate
mesh in row blocks and from one whole distance matrix, and the reports'
JSON dicts built field by field.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog


def scan_objective_1d(atoms, weights, grid, p, origin=0.0):
    """Pure-python sweep of the renormalized objective on the line.

    Returns (values, best_value, argmin points within 1e-12 ties).
    """
    ref = sum(w * abs(origin - a) ** p for a, w in zip(atoms, weights))
    values = []
    for x in grid:
        values.append(sum(w * abs(x - a) ** p for a, w in zip(atoms, weights)) - ref)
    best = min(values)
    argmin = [x for x, v in zip(grid, values) if v <= best + 1e-12 * (1.0 + abs(best))]
    return values, best, argmin


def transport_lp(atoms_a, weights_a, atoms_b, weights_b, q):
    """Order-q transport distance between two discrete line measures by LP."""
    n, m = len(atoms_a), len(atoms_b)
    cost = np.array([[abs(a - b) ** q for b in atoms_b] for a in atoms_a]).reshape(-1)
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(weights_a[i])
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        a_eq.append(row)
        b_eq.append(weights_b[j])
    # HiGHS's default feasibility tolerances (1e-7) accept a vertex whose
    # cost is 1.6e-8 above the optimum (atoms [0, 1, 1] against
    # [0, 1, 2.4e-8]); the comparisons against this oracle are at 1e-8.
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(0, None)] * (n * m), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success, res.message
    return float(res.fun) ** (1.0 / q)


def transport_simplex_exact(atoms_a, weights_a, atoms_b, weights_b, q):
    """``transport_lp`` solved exactly: the transportation simplex in
    rational arithmetic over the float costs |a - b|**q, each side's
    weights scaled to total one.

    A floating-point LP solver accepts a vertex whose cost is within its
    absolute tolerance of the optimum; costs of atoms 6e-8 apart (3.6e-15)
    next to costs of order one then pass as ties, and the q-th root turns
    the excess into about 4e-8 (identical measures {6e-8, 0, 0, 1}). Here
    the start is the north-west corner and each step enters the first cell
    of negative reduced cost and leaves the first tied cell (Bland's rule,
    so degenerate steps cannot cycle).
    """
    from fractions import Fraction

    def exact(weights):
        w = [Fraction(float(v)) for v in weights]
        return [v / sum(w) for v in w]

    supply, demand = exact(weights_a), exact(weights_b)
    n, m = len(supply), len(demand)
    cost = {(i, j): Fraction(abs(float(a) - float(b)) ** q)
            for i, a in enumerate(atoms_a) for j, b in enumerate(atoms_b)}
    # North-west corner: n + m - 1 basic cells forming a spanning tree of
    # the rows and columns, zero flows included.
    flow, i, j = {}, 0, 0
    while True:
        flow[i, j] = t = min(supply[i], demand[j])
        supply[i] -= t
        demand[j] -= t
        if (i, j) == (n - 1, m - 1):
            break
        if supply[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1
    while True:
        # Potentials with u_i + v_j equal to the cost on every basic cell.
        u, v = {0: Fraction(0)}, {}
        while len(u) + len(v) < n + m:
            for (r, c) in flow:
                if r in u and c not in v:
                    v[c] = cost[r, c] - u[r]
                elif c in v and r not in u:
                    u[r] = cost[r, c] - v[c]
        entering = next((cell for cell in sorted(cost)
                         if cost[cell] - u[cell[0]] - v[cell[1]] < 0), None)
        if entering is None:
            return float(sum(flow[cell] * cost[cell] for cell in flow)) ** (1.0 / q)
        # The tree path from the entering column to the entering row closes
        # a cycle whose cells alternately lose and gain flow.
        parent = {("c", entering[1]): None}
        frontier = [("c", entering[1])]
        while ("r", entering[0]) not in parent:
            kind, k = frontier.pop(0)
            for cell in flow:
                if cell[1 if kind == "c" else 0] == k:
                    nxt = ("r", cell[0]) if kind == "c" else ("c", cell[1])
                    if nxt not in parent:
                        parent[nxt] = cell
                        frontier.append(nxt)
        path, node = [], ("r", entering[0])
        while parent[node] is not None:
            cell = parent[node]
            path.append(cell)
            node = ("c", cell[1]) if node[0] == "r" else ("r", cell[0])
        losing, gaining = path[::2], path[1::2]
        theta = min(flow[cell] for cell in losing)
        leaving = min(cell for cell in losing if flow[cell] == theta)
        for cell in losing:
            flow[cell] -= theta
        for cell in gaining:
            flow[cell] += theta
        flow[entering] = theta
        del flow[leaving]


def diagram_matching_enumeration(p1, p2, q):
    """Exhaustive minimum over all partial matchings of two diagrams.

    Each point of the first diagram is either matched injectively to a
    point of the second or sent to its diagonal projection, and unmatched
    points of the second are sent to theirs.
    """
    def diag(pt):
        return (pt[1] - pt[0]) / math.sqrt(2.0)

    n, m = len(p1), len(p2)
    best = math.inf
    for k in range(0, min(n, m) + 1):
        for subset1 in itertools.combinations(range(n), k):
            for subset2 in itertools.permutations(range(m), k):
                cost = 0.0
                for i, j in zip(subset1, subset2):
                    cost += math.hypot(p1[i][0] - p2[j][0], p1[i][1] - p2[j][1]) ** q
                for i in range(n):
                    if i not in subset1:
                        cost += diag(p1[i]) ** q
                matched2 = set(subset2)
                for j in range(m):
                    if j not in matched2:
                        cost += diag(p2[j]) ** q
                best = min(best, cost)
    return best ** (1.0 / q)


def kl_divergence(p, q):
    """Relative entropy between two finite distributions (same indexing)."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def bernoulli_strict_majority_tail(n, theta):
    """P(Binomial(n, theta) > n/2) by direct summation."""
    from math import comb
    total = 0.0
    k0 = n // 2 + 1
    for k in range(k0, n + 1):
        total += comb(n, k) * theta ** k * (1 - theta) ** (n - k)
    return total


def quantile_function_values(atoms, weights, levels):
    """Left-continuous quantiles of a discrete line measure, by scanning."""
    order = np.argsort(atoms)
    atoms = np.asarray(atoms)[order]
    weights = np.asarray(weights)[order]
    out = []
    for u in levels:
        acc = 0.0
        val = atoms[-1]
        for a, w in zip(atoms, weights):
            acc += w
            if acc >= u - 1e-15:
                val = a
                break
        out.append(float(val))
    return out


def wasserstein2_functional(space_distance, candidate, members, member_weights):
    """Order-2 objective of a candidate against member measures."""
    return sum(w * space_distance(candidate, m) ** 2
               for m, w in zip(members, member_weights))


def wasserstein1d_pair(x, y, q):
    """Order-q transport distance of two Measure1D points, one pair at a time.

    Quantile gaps on the intervals between consecutive levels of the union
    of the two CDF breakpoint sets, found by searching each quantile
    function; the reference for the batched kernel, which sorts the merged
    breakpoints instead. Both quantile functions are left-continuous, so
    each is read at the right end of its interval: a midpoint of two
    adjacent floats rounds onto one of them and loses the interval.
    """
    def quantile(m, u):  # the left-continuous inverse of the CDF
        idx = np.searchsorted(m.cdf_breakpoints(), np.clip(u, 0.0, 1.0), side="left")
        return m.atoms[np.minimum(idx, m.atoms.size - 1)]

    levels = np.concatenate(([0.0], np.union1d(x.cdf_breakpoints(), y.cdf_breakpoints())))
    gap = np.abs(quantile(x, levels[1:]) - quantile(y, levels[1:]))
    return float(np.dot(np.diff(levels), gap ** q) ** (1.0 / q))


def euclidean_pair(x, y):
    """Euclidean distance of two vectors, one pair at a time."""
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


def lq_pair(x, y, q):
    """l_q distance of two vectors, one pair at a time."""
    diff = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return float(np.sum(diff ** q) ** (1.0 / q))


def spider_pair(x, y):
    """Spider distance of two (leg, t) points: |s - t| on a shared leg,
    s + t through the centre."""
    (i, s), (j, t) = x, y
    return abs(s - t) if i == j else s + t


def quotient_pair(base_pair, group, x, y):
    """Quotient distance: the least base distance from x to an image of y."""
    return min(base_pair(x, group.act(g, y)) for g in group.elements)


def regularized_pair(base_pair, group, lam, x, y):
    """Soft-quotient distance: min over g of sqrt(rho(g)^2 / lam^2 + d(x, g.y)^2)."""
    best = math.inf
    inv_lam2 = 1.0 / (lam * lam)
    for g in group.elements:
        rho = float(group.length[g])
        d = base_pair(x, group.act(g, y))
        best = min(best, math.sqrt(inv_lam2 * rho * rho + d * d))
    return best


def product_pair(left_pair, right_pair, q, x, y):
    """l_q combination of the two factor distances of a pair of pairs."""
    d1, d2 = left_pair(x[0], y[0]), right_pair(x[1], y[1])
    return float((d1 ** q + d2 ** q) ** (1.0 / q))


def bures_wasserstein_pair(a, b):
    """Bures-Wasserstein distance of two PSD matrices, one pair at a time."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        return 0.0
    lam, vec = np.linalg.eigh((a + a.T) / 2.0)
    cutoff = 1e-12 * lam[-1] if lam[-1] > 0 else 0.0
    root = (vec * np.sqrt(np.where(lam > cutoff, lam, 0.0))) @ vec.T
    inner = root @ b @ root
    cross = float(np.sum(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.T) / 2.0),
                                         0.0, None))))
    return math.sqrt(max(float(np.trace(a) + np.trace(b)) - 2.0 * cross, 0.0))


# ---------------------------------------------------------------------------
# Per-point, per-replication and per-driver loops replaced by the array-native
# drivers, the shared prefix engine and the shared equality scan.
# ---------------------------------------------------------------------------

def dedup_scalar(space, points):
    """Points in order without those equal to a kept one, one pair at a time."""
    out = []
    for x in points:
        if not any(space.points_equal(x, y) for y in out):
            out.append(x)
    return out


def draw_per_point(sampler, n):
    """A sampler's first n points, one draw at a time, each a (1,) float array."""
    from scipy.special import ndtri

    def point(value):
        return np.array([float(value)])

    rng = np.random.default_rng(sampler.seed)
    if sampler.kind == "markov-chain":
        cum = np.cumsum(np.asarray(sampler.kernel, dtype=float), axis=1)
        u = rng.uniform(size=n)
        state, out = sampler.initial_state, []
        for i in range(n):
            out.append(point(sampler.states[state]))
            state = min(int(np.searchsorted(cum[state], u[i], side="right")),
                        len(sampler.states) - 1)
        return out
    u = rng.uniform(size=n)
    dist, p = sampler.distribution, sampler.params
    if dist == "finite":
        idx = np.minimum(np.searchsorted(np.cumsum(sampler.probs), u, side="right"),
                         len(sampler.atoms) - 1)
        return [point(sampler.atoms[i]) for i in idx]
    vals = {
        "normal": lambda: p[0] + p[1] * ndtri(u),
        "uniform": lambda: p[0] + (p[1] - p[0]) * u,
        "pareto": lambda: p[1] * (1.0 - u) ** (-1.0 / p[0]),
        "cauchy": lambda: p[0] + p[1] * np.tan(math.pi * (u - 0.5)),
    }[dist]()
    return [point(v) for v in vals]


def _derived_seed(seed, index):
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)[0])


def slln_per_n_draws(space, sampler, p, n_grid, replications, config):
    """(dvec, moments, verdicts) of the strong-law experiment, drawing each
    replication's stream again for every n."""
    from frechet.convergence import one_sided_hausdorff
    from frechet.core import ConvergenceFailure, moment
    from frechet.stochastics import _solve_points, sample_empirical

    target = list(config.target_points)
    cells = []
    for rep in range(replications):
        local = sampler.with_seed(_derived_seed(sampler.seed, rep))
        row = []
        for n in n_grid:
            mu = sample_empirical(local, n, space)
            try:
                dvec = one_sided_hausdorff(space, _solve_points(space, mu, p, config), target)
            except ConvergenceFailure:
                dvec = float("nan")
            row.append((dvec, moment(space, mu, max(p - 1.0, 0.0), target[0])))
        cells.append(row)
    dvec, moments, failures = [], [], 0
    for j in range(len(n_grid)):
        values = [row[j][0] for row in cells]
        finite = [v for v in values if not math.isnan(v)]
        failures += len(values) - len(finite)
        dvec.append(max(finite) if finite else float("nan"))
        moments.append(float(np.mean([row[j][1] for row in cells])))
    verdicts = {"solver_failures": failures}
    if config.threshold is not None:
        verdicts["final_below_threshold"] = bool(dvec[-1] < config.threshold)
    return dvec, moments, verdicts


def ergodic_prefix_loop(space, markov, p, n_grid, config):
    """(dvec, moments, verdicts) of the ergodic experiment by its own loop
    over the prefixes of one trajectory; a solver failure propagates."""
    from frechet.convergence import one_sided_hausdorff
    from frechet.core import DiscreteMeasure, moment
    from frechet.spaces import EuclideanSpace
    from frechet.stochastics import _solve_points

    pi = markov.stationary_law()
    if config.target_points:
        target = list(config.target_points)
    elif p == 2.0 and isinstance(space, EuclideanSpace):
        target = [sum(w * np.array([float(state)]) for w, state in zip(pi, markov.states))]
    else:
        raise ValueError("no target")
    trajectory = markov.draw(max(n_grid))
    dvecs, moments = [], []
    for n in n_grid:
        mu = DiscreteMeasure.uniform(space, trajectory[:n])
        dvecs.append(one_sided_hausdorff(space, _solve_points(space, mu, p, config), target))
        moments.append(moment(space, mu, max(p - 1.0, 0.0), target[0]))
    verdicts = {}
    if config.threshold is not None:
        verdicts["final_below_threshold"] = bool(dvecs[-1] < config.threshold)
    return dvecs, moments, verdicts


def _aggregate(space, points, weights):
    """Distinct points with summed weights, one pair at a time."""
    pts, ws = [], []
    for pt, w in zip(points, weights):
        for i, q in enumerate(pts):
            if space.points_equal(pt, q):
                ws[i] += float(w)
                break
        else:
            pts.append(pt)
            ws.append(float(w))
    return pts, ws


def event_flags_scalar(space, atoms, events):
    """Whether each atom equals some event point, one pair at a time."""
    return [any(space.points_equal(a, ev) for ev in events) for a in atoms]


def _support_mean_set(space, atoms, weights, p):
    from frechet.core import DiscreteMeasure, FrechetConfig
    from frechet.solvers import grid_oracle

    mu = DiscreteMeasure.from_weights(space, atoms, weights)
    return list(grid_oracle(space, mu, FrechetConfig(p=p), atoms, resolution=1e-12).points)


def ldp_monte_carlo_per_replication(space, mu, p, event_points, n_grid, replications, seed):
    """(probabilities, tie probabilities, censored flags) of the Monte-Carlo
    LDP estimate, building and aggregating each replication's measure."""
    from frechet.core import DiscreteMeasure

    atoms, base_w = _aggregate(space, mu.support, mu.weights)
    cum = np.cumsum(base_w)
    probabilities, ties, censored = [], [], []
    for j, n in enumerate(n_grid):
        hits = tie_hits = 0
        for rep in range(replications):
            rng = np.random.default_rng(_derived_seed(seed, rep * len(n_grid) + j))
            idx = np.minimum(np.searchsorted(cum, rng.uniform(size=n), side="right"),
                             len(atoms) - 1)
            emp = DiscreteMeasure.uniform(space, [atoms[i] for i in idx])
            band = _support_mean_set(space, *_aggregate(space, emp.support, emp.weights), p)
            tie_hits += len(band) > 1
            hits += all(any(space.points_equal(x, ev) for ev in event_points) for x in band)
        probabilities.append(hits / replications)
        ties.append(tie_hits / replications)
        censored.append(hits == 0)
    return probabilities, ties, censored


def ldp_rate_lattice(space, mu, p, target_x, simplex_step):
    """Entropy rate at a point by a loop over the simplex lattice, one band
    sweep per lattice measure."""
    atoms, base = _aggregate(space, mu.support, mu.weights)
    k = len(atoms)
    m = int(round(1.0 / simplex_step))
    best = math.inf
    for cuts in itertools.combinations(range(m + k - 1), k - 1):
        counts = np.diff((-1,) + cuts + (m + k - 1,)) - 1
        w = np.asarray(counts, dtype=float) / m
        band = _support_mean_set(space, atoms, w, p)
        if len(band) != 1 or not space.points_equal(band[0], target_x):
            continue
        ent = 0.0
        for wi, bi in zip(w, base):
            if wi <= 0.0:
                continue
            if bi <= 0.0:
                break
            ent += wi * math.log(wi / bi)
        else:
            best = min(best, max(ent, 0.0))
    return best


def support_bands_per_row_dot(dp, support, weights):
    """``stochastics._support_bands`` with each measure's origin shift taken
    by its own ``np.dot``, as ``relaxed_mean_set`` takes it."""
    from frechet.core import value_tolerance

    d = dp[support[:, :, None], support[:, None, :]]
    shift = np.array([np.dot(w_r, d_r) for w_r, d_r in zip(weights, d[:, 0])])
    values = np.sum(d * weights[:, None, :], axis=-1) - shift[:, None]
    achieved = values.min(axis=1, keepdims=True)
    return values <= achieved + value_tolerance(achieved)


# ---------------------------------------------------------------------------
# Per-point vector grids and stacking replaced by stacked arrays.
# ---------------------------------------------------------------------------

def box_grid_list(lows, highs, step):
    """Box-grid points as a list of separate arrays, in itertools.product order."""
    from frechet.spaces import _axis_grid

    axes = [_axis_grid(float(lo), float(hi), step) for lo, hi in zip(lows, highs)]
    return [np.array(pt, dtype=float) for pt in itertools.product(*axes)]


def box_grid(lows, sizes, step):
    """All points lows + step * k, 0 <= k < sizes, as rows of one (N, dim)
    array in ``itertools.product`` order (the last axis varies fastest),
    from a meshgrid of the axes: the vector ``grid`` scheme as it was built
    before it became the chart's rows of every index tuple."""
    axes = [float(lo) + step * np.arange(n) for lo, n in zip(lows, sizes)]
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(axes))


def coordinate_sums_per_point(xs, ys, dim, term):
    """sum_k term(x_k - y_k) for every pair, converting each point on its own
    before stacking."""
    a = np.asarray([np.asarray(x, dtype=float) for x in xs])
    b = np.asarray([np.asarray(y, dtype=float) for y in ys])
    total = np.zeros((len(a), len(b)))
    for k in range(dim):
        total += term(a[:, k, None] - b[None, :, k])
    return total


def vector_kernel_from_zeros(space, xs, ys):
    """``pairwise_distances`` of the Euclidean and l_q spaces as it was
    before the sums started from the first coordinate's term: each point
    converted on its own, every term added into zeros, and the root taken
    out of place."""
    from frechet import EuclideanSpace

    if isinstance(space, EuclideanSpace):
        return np.sqrt(coordinate_sums_per_point(xs, ys, space.dim,
                                                 lambda d: np.square(d, out=d)))
    sums = coordinate_sums_per_point(
        xs, ys, space.truncation, lambda d: np.power(np.abs(d, out=d), space.q, out=d))
    return sums ** (1.0 / space.q)


def band_values_out_of_place(space, mu, p, candidates, origin):
    """Objective values of the candidates, each block reduced through new
    arrays (``d ** p * w``) instead of in place."""
    from frechet.core import row_blocks

    ref = space.pairwise_distances([origin], mu.support)[0]
    shift = float(np.dot(mu.weights, ref ** p))
    values = np.empty(len(candidates))
    for block in row_blocks(len(candidates), len(mu.support)):
        d = space.pairwise_distances(candidates[block], mu.support)
        values[block] = np.sum(d ** p * mu.weights, axis=1) - shift
    return values


# ---------------------------------------------------------------------------
# The full grid sweep replaced by the pruned grid search, the merge loop of
# ``Measure1D`` and the per-object Wasserstein-1D grid replaced by one
# quantile table, and the quantile gap kernel before its temporaries were
# computed in place.
# ---------------------------------------------------------------------------

def measure1d_reference(atoms, weights=None):
    """The atoms, weights and CDF breakpoints of a ``Measure1D``, from the
    loop its constructor ran before ``spaces._merged_table`` built every
    measure: a stable sort, then each atom within 1e-12 of its run's first
    atom joins that run and adds its weight; the breakpoints are the
    running sums, the last set to 1.0. Input is taken to be valid."""
    atoms = np.asarray(atoms, dtype=float)
    weights = (np.full(atoms.size, 1.0 / atoms.size) if weights is None
               else np.asarray(weights, dtype=float))
    order = np.argsort(atoms, kind="stable")
    keep_atoms, keep_w = [], []
    for a, w in zip(atoms[order], weights[order]):
        if keep_atoms and abs(a - keep_atoms[-1]) <= 1e-12:
            keep_w[-1] += w
        else:
            keep_atoms.append(float(a))
            keep_w.append(float(w))
    cum = np.cumsum(keep_w)
    cum[-1] = 1.0
    return np.asarray(keep_atoms), np.asarray(keep_w), cum


def reference_measure(atoms, weights=None):
    """A ``Measure1D`` holding the arrays of ``measure1d_reference``, built
    without the package's sort and merge."""
    from frechet import Measure1D, QuantileTable

    a, w, cum = measure1d_reference(atoms, weights)
    return Measure1D._of(QuantileTable(a[None], w[None], cum[None], np.array([a.size])))


def w1d_grid_per_object(axis, k):
    """The Wasserstein-1D ``grid`` scheme on an axis, one measure per
    combination of k axis points, each merged by ``measure1d_reference``."""
    return [reference_measure(c) for c in itertools.combinations_with_replacement(axis, k)]


def quantile_gap_integrals_out_of_place(atoms_x, cum_x, atoms_y, cum_y, q):
    """``spaces._quantile_gap_integrals`` as it was before its temporaries
    were computed in place: one fresh array per step of |x - y| ** q * width."""
    from frechet.core import row_blocks
    from frechet.spaces import _distinct_rows

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
        gap = np.abs(atoms_x[rows, ix[of]] - atoms_y[cols, iy[of]])
        out[block] = (gap ** q * widths[of]).cumsum(axis=-1)[..., -1]
    return out


def grid_band_full_sweep(space, mu, config, step, pad):
    """The band of the ``grid`` scheme from every grid point: the whole grid
    built as one array and swept by ``grid_oracle``, with the grid's
    covering radius as its resolution: step, but (step/2) d**(1/q), half
    a cell's diagonal, where that is larger in a box of l_q^d."""
    from frechet import EuclideanSpace, LqSequenceSpace, grid_oracle

    grid = space.candidates(mu, "grid", step=step, pad=pad)
    resolution = step
    if isinstance(space, EuclideanSpace):
        resolution = max(step, step / 2.0 * space.dim ** (1.0 / 2.0))
    elif isinstance(space, LqSequenceSpace):
        resolution = max(step, step / 2.0 * space.truncation ** (1.0 / space.q))
    return grid_oracle(space, mu, config, grid, resolution=resolution)


# ---------------------------------------------------------------------------
# The median iteration before the rank-count gate, and the LDP replication
# and chain draws before their per-call tables.
# ---------------------------------------------------------------------------

def weiszfeld_median_full_scan(space, mu, config=None, callback=None):
    """The median iteration with a full O(n) certificate scan for every new
    nearest atom and ``np.linalg.norm`` distances in every dimension."""
    from frechet.core import ConfigurationError, ConvergenceFailure
    from frechet.solvers import SolverConfig

    config = config or SolverConfig()
    ys = mu.stacked
    w = mu.weights
    if mu.is_degenerate():
        return ys[0].copy()

    x = ys.T @ w
    if callback is not None:
        callback(x.copy())
    scale = 1.0 + float(np.max(np.linalg.norm(ys - x, axis=1)))
    if not math.isfinite(scale):
        raise ConfigurationError("the median iteration's distance scale overflows: "
                                 "the support lies too far from its weighted average")
    certified = {}

    def atom_is_optimal(j):
        if j not in certified:
            yj = ys[j]
            dj = np.linalg.norm(ys - yj, axis=1)
            same = dj <= 1e-12 * scale
            pull = ((ys[~same] - yj) / dj[~same, None]).T @ w[~same]
            certified[j] = float(np.linalg.norm(pull)) <= float(w[same].sum())
        return certified[j]

    f_prev = math.inf
    for _ in range(config.max_iterations):
        dist = np.linalg.norm(ys - x, axis=1)
        j = int(np.argmin(dist))
        if atom_is_optimal(j):
            return ys[j].copy()
        f_here = float(np.dot(w, dist))
        if abs(f_prev - f_here) <= config.value_tolerance * (1.0 + abs(f_here)):
            return x
        f_prev = f_here
        if dist[j] <= 1e-12 * scale:
            same = dist <= 1e-12 * scale
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
        inv = w / dist
        x_next = ys.T @ inv / inv.sum()
        move = float(np.linalg.norm(x_next - x))
        x = x_next
        if callback is not None:
            callback(x.copy())
        if move <= config.step_tolerance * scale:
            return x
    raise ConvergenceFailure("median iteration did not converge",
                             last_point=x, iterations=config.max_iterations,
                             value=f_prev)


# ---------------------------------------------------------------------------
# Three solvers as they were before they read the measure's stack: one
# matrix root per member, one quantile function per member, and the
# p-mean's own moment.
# ---------------------------------------------------------------------------

def bw_barycenter_per_member(space, mu, config=None):
    """``solvers.bw_barycenter`` with one ``matrix_sqrt`` per member and
    step, added into a zero matrix."""
    from frechet.core import ConvergenceFailure
    from frechet.solvers import SolverConfig, _positive_clamp
    from frechet.spaces import _spectral_root, matrix_sqrt

    config = config or SolverConfig()
    mats = [np.asarray(m, dtype=float) for m in mu.support]
    w = mu.weights
    if mu.is_degenerate():
        return mats[0].copy()
    current = sum(wi * m for wi, m in zip(w, mats))
    scale = 1.0 + float(np.trace(current))
    for _ in range(config.max_iterations):
        root, lam, vec = _spectral_root(current, _positive_clamp)
        inv_root = (vec / np.sqrt(lam)) @ vec.T
        mixed = np.zeros_like(current)
        for wi, m in zip(w, mats):
            inner = root @ m @ root
            mixed += wi * matrix_sqrt(space, (inner + inner.T) / 2.0)
        nxt = inv_root @ mixed @ mixed @ inv_root
        nxt = (nxt + nxt.T) / 2.0
        if float(np.linalg.norm(root - matrix_sqrt(space, nxt))) <= config.step_tolerance * scale:
            return nxt
        current = nxt
    raise ConvergenceFailure("fixed-point iteration did not converge",
                             last_point=current, iterations=config.max_iterations)


def quantile_barycenter_per_member(space, mu):
    """``spaces.quantile_barycenter`` from each member's own quantile
    function, added into a zero array."""
    from frechet import Measure1D

    u = (np.arange(256) + 0.5) / 256
    avg = np.zeros(256)
    for member, w in zip(mu.support, mu.weights):
        idx = np.searchsorted(member.cdf_breakpoints(), np.clip(u, 0.0, 1.0), side="left")
        avg += w * member.atoms[np.minimum(idx, member.atoms.size - 1)]
    return Measure1D(avg, np.full(256, 1.0 / 256))


def euclidean_pmean_own_moment(space, mu, p, config=None):
    """``solvers.euclidean_pmean``'s gradient descent (p not 1 or 2) with
    its objective from ``np.linalg.norm`` rather than ``core.moment``."""
    from frechet.core import ConvergenceFailure
    from frechet.solvers import SolverConfig

    def pmoment(x):
        return float(np.dot(w, np.linalg.norm(ys - x, axis=1) ** p))

    config = config or SolverConfig()
    ys, w = mu.stacked, mu.weights
    if mu.is_degenerate():
        return ys[0].copy()
    x = ys.T @ w
    scale = 1.0 + float(np.max(np.linalg.norm(ys - x, axis=1)))
    f = pmoment(x)
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
        for _ in range(60):
            x_try = x - step * grad
            f_try = pmoment(x_try)
            if f_try <= f - 0.5 * step * gnorm * gnorm:
                break
            step *= 0.5
        else:
            return x
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


def ldp_replication_counts_unique(probs, u, k):
    """(atoms in first-drawn order, their counts) of one Monte-Carlo LDP
    replication, by ``np.unique`` on the inverse-CDF indices."""
    idx = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), len(probs) - 1)
    drawn, first = np.unique(idx, return_index=True)
    order = drawn[np.argsort(first)]
    return order, np.bincount(idx, minlength=k)[order]


def chain_indices_bisect(kernel, initial_state, u):
    """State indices of a chain path, one ``bisect_right`` per step."""
    import bisect

    cum = np.cumsum(np.asarray(kernel, dtype=float), axis=1).tolist()
    last = len(cum) - 1
    idx = np.empty(len(u), dtype=np.intp)
    state = initial_state
    for i, v in enumerate(np.asarray(u).tolist()):
        idx[i] = state
        state = min(bisect.bisect_right(cum[state], v), last)
    return idx


# ---------------------------------------------------------------------------
# The CLI's measure decoder as it was before supports were decoded whole:
# each support point checked for strings and bools, then decoded on its own.
# A support that is not a list is refused by name, as the CLI refuses it.
# ---------------------------------------------------------------------------

def measure_from_json_per_point(space, spec):
    from frechet.cli import _list, _point
    from frechet.core import ConfigurationError, DiscreteMeasure

    if type(spec["support"]) is not list:
        raise ConfigurationError(f"support must be a JSON list, got {spec['support']!r}")
    points = [_point(space, obj, "support") for obj in spec["support"]]
    if spec.get("weights") is None:
        return DiscreteMeasure.uniform(space, points)
    return DiscreteMeasure.from_weights(space, points,
                                        np.asarray(_list(spec, "weights"), dtype=float))


# ---------------------------------------------------------------------------
# The candidate mesh that the ``support`` scheme reported as its resolution
# before its proven radius (``core.candidate_radius``), in row blocks and as
# one whole distance matrix, as it was taken before its row blocks (when it
# refused more than 128 candidates), and the reports' JSON dicts as they
# were built field by field before ``dataclasses.asdict``.
# ---------------------------------------------------------------------------

def estimate_resolution(space, candidates):
    """Mesh of a candidate set: the largest nearest-neighbor distance, with
    the distance matrix taken in row blocks (``row_blocks``)."""
    from frechet.core import as_sequence, row_blocks

    candidates = as_sequence(candidates)
    if len(candidates) == 1:
        return 1e-12
    nearest = np.empty(len(candidates))
    for block in row_blocks(len(candidates), len(candidates)):
        dm = space.pairwise_distances(candidates[block], candidates)
        np.fill_diagonal(dm[:, block.start:], np.inf)
        nearest[block] = np.min(dm, axis=1)
    return float(max(np.max(nearest), 1e-12))


def estimate_resolution_whole(space, candidates):
    if len(candidates) == 1:
        return 1e-12
    dm = space.pairwise_distances(candidates, candidates)
    np.fill_diagonal(dm, np.inf)
    return float(max(np.max(np.min(dm, axis=1)), 1e-12))


def convergence_report_json(report):
    return {
        "sample_sizes": list(report.sample_sizes),
        "dvec": [float(v) for v in report.dvec],
        "moments": [float(v) for v in report.moments],
        "bl": [],
        "runtimes": [float(v) for v in report.runtimes],
        "verdicts": dict(report.verdicts),
        "seed": None if report.seed is None else int(report.seed),
        "failures": [dict(failure) for failure in report.failures],
    }


def ldp_result_json(result):
    return {
        "n_values": list(result.n_values),
        "probabilities": [float(v) for v in result.probabilities],
        "empirical_rates": [float(v) for v in result.empirical_rates],
        "theoretical_rate": float(result.theoretical_rate),
        "tie_probabilities": [float(v) for v in result.tie_probabilities],
        "censored": [bool(v) for v in result.censored],
        "mode": result.mode,
        "seed": int(result.seed),
    }
