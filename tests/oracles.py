"""Independent brute-force oracles used to fix expected values.

Everything here is deliberately naive (plain loops, LP formulations,
exhaustive enumeration) and shares no code path with the package's own
solvers or vectorized sweeps.
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
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(0, None)] * (n * m), method="highs")
    assert res.success, res.message
    return float(res.fun) ** (1.0 / q)


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

    Quantile gaps at the midpoints of the union of the two CDF breakpoint
    sets, found by searching each quantile function; the reference for the
    batched kernel, which sorts the merged breakpoints instead.
    """
    levels = np.concatenate(([0.0], np.union1d(x.cdf_breakpoints(), y.cdf_breakpoints())))
    mids = (levels[:-1] + levels[1:]) / 2.0
    gap = np.abs(x.quantile(mids) - y.quantile(mids))
    return float(np.dot(np.diff(levels), gap ** q) ** (1.0 / q))


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
