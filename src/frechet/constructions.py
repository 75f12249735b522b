"""Space-building operations: l_q products, quotients by finite isometric
group actions, and soft-quotient regularization by a group with a length
function.

Only finite groups are supported; compact groups are approximated by
finite subgroups of configurable order, which keeps the minimization over
group elements exact. A group is its elements, its action and its lengths,
with no multiplication table, so it builds in time linear in its order.
The quotient and the regularized space keep the base space's points,
codecs, samples and candidates (``_GroupAligned``) and differ in kernel.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import ConfigurationError, DiscreteMeasure, Space
from .spaces import EuclideanSpace

__all__ = [
    "GroupSpec",
    "ProductSpace",
    "QuotientSpace",
    "RegularizedSpace",
    "sign_flip_group",
    "cyclic_rotation_group",
    "planar_loop_group",
    "loop_shape_space",
]


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """Finite group acting on a space, as the metrics read it.

    ``action(g, x)`` applies element ``g`` to a point. ``length`` is an
    optional map g -> rho(g, e) >= 0, zero at the identity, needed by the
    regularization construction. The builders below give isometric actions
    closed under composition; the tests check both through the action.
    """

    elements: tuple
    action: Callable
    length: Mapping | None = None

    def act(self, g, x):
        return self.action(g, x)


@dataclass(frozen=True)
class ProductSpace(Space):
    """Two component spaces combined with an l_q metric on pairs."""

    left: Space
    right: Space
    q: float = 2.0

    def __post_init__(self):
        if not (1.0 <= self.q < math.inf):
            raise ValueError("product exponent q must lie in [1, inf)")

    def contains(self, x) -> bool:
        try:
            a, b = x
        except (TypeError, ValueError):
            return False
        return self.left.contains(a) and self.right.contains(b)

    def equal_mask(self, x, ys, tol: float = 1e-9) -> np.ndarray:
        return (self.left.equal_mask(x[0], [y[0] for y in ys], tol)
                & self.right.equal_mask(x[1], [y[1] for y in ys], tol))

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        d1 = self.left.pairwise_distances([x[0] for x in xs], [y[0] for y in ys])
        d2 = self.right.pairwise_distances([x[1] for x in xs], [y[1] for y in ys])
        return (d1 ** self.q + d2 ** self.q) ** (1.0 / self.q)

    def candidates(self, mu, scheme="support", **kwargs) -> list:
        if scheme == "support":
            return self.dedup(mu.support)
        # Cartesian product of component candidates, built from the
        # component marginals of the support.
        left_mu = DiscreteMeasure.from_weights(
            self.left, [x[0] for x in mu.support], mu.weights)
        right_mu = DiscreteMeasure.from_weights(
            self.right, [x[1] for x in mu.support], mu.weights)
        lc = self.left.candidates(left_mu, scheme, **kwargs)
        rc = self.right.candidates(right_mu, scheme, **kwargs)
        return [(a, b) for a in lc for b in rc]

    def sample_point(self, rng, scale: float = 1.0):
        return (self.left.sample_point(rng, scale), self.right.sample_point(rng, scale))

    def point_to_json(self, x):
        return [self.left.point_to_json(x[0]), self.right.point_to_json(x[1])]

    def point_from_json(self, obj):
        return (self.left.point_from_json(obj[0]), self.right.point_from_json(obj[1]))


def _min_over_group(base: Space, group: GroupSpec, xs, ys, lam=None) -> np.ndarray:
    """Element-wise minimum over g of d = base.pairwise_distances(xs, [g.y for
    y in ys]), or of sqrt(rho(g)^2 / lam^2 + d^2) when ``lam`` is given: one
    base kernel call per group element, two matrices alive at a time."""
    best = None
    for g in group.elements:
        d = base.pairwise_distances(xs, [group.act(g, y) for y in ys])
        if lam is not None:
            rho = float(group.length[g])
            d = np.sqrt(1.0 / (lam * lam) * rho * rho + d * d)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


@dataclass(frozen=True, eq=False)
class _GroupAligned(Space):
    """A base space whose distance aligns points by a finite group: points,
    their codecs, samples and candidates are the base space's."""

    base: Space
    group: GroupSpec

    def contains(self, x) -> bool:
        return self.base.contains(x)

    def candidates(self, mu, scheme="support", **kwargs) -> list:
        base_mu = DiscreteMeasure.from_weights(self.base, mu.support, mu.weights)
        return self.base.candidates(base_mu, scheme, **kwargs)

    def sample_point(self, rng, scale: float = 1.0):
        return self.base.sample_point(rng, scale)

    def point_to_json(self, x):
        return self.base.point_to_json(x)

    def point_from_json(self, obj):
        return self.base.point_from_json(obj)


@dataclass(frozen=True, eq=False)
class QuotientSpace(_GroupAligned):
    """Base points treated as orbit representatives under a finite group.

    The distance is the minimum base distance over all relative
    alignments, d(x, g.x'); for an isometric action this is well defined
    on orbits and independent of the chosen representatives. Candidates
    equal on one orbit are kept once.
    """

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        return _min_over_group(self.base, self.group, xs, ys)

    def candidates(self, mu, scheme="support", **kwargs) -> list:
        return self.dedup(super().candidates(mu, scheme, **kwargs))


@dataclass(frozen=True, eq=False)
class RegularizedSpace(_GroupAligned):
    """Soft quotient: alignment is allowed but pays the element's length.

    d(x, x') = min_g sqrt(rho(g, e)^2 / lam^2 + d_base(x, g.x')^2).
    Small ``lam`` makes alignment expensive (the metric approaches the
    base one); large ``lam`` makes it free (the metric approaches the
    quotient one). It is not a quotient: d(x, g.x) = rho(g, e) / lam > 0
    for g != e, so its candidates are the base space's, orbits unmerged.
    """

    lam: float = 1.0

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("scale lam must be positive")
        if self.group.length is None:
            raise ConfigurationError("regularization needs a group length function")

    def pairwise_distances(self, xs, ys) -> np.ndarray:
        return _min_over_group(self.base, self.group, xs, ys, self.lam)


# ---------------------------------------------------------------------------
# Group builders.
# ---------------------------------------------------------------------------

def matrix_group(labels: Sequence, matrices: Sequence[np.ndarray],
                 length: Mapping | None = None) -> GroupSpec:
    """Group of matrices acting on vectors by multiplication. The matrices
    must be closed under products and inverses; this is not checked."""
    mats = {lab: np.asarray(m, dtype=float) for lab, m in zip(labels, matrices)}

    def action(g, x):
        return mats[g] @ np.asarray(x, dtype=float)

    return GroupSpec(tuple(labels), action, length)


def sign_flip_group(dim: int = 1) -> GroupSpec:
    """Two-element group {id, x -> -x} on R^dim, with length 1 for the flip."""
    mats = [np.eye(dim), -np.eye(dim)]
    return matrix_group(["e", "flip"], mats, length={"e": 0.0, "flip": 1.0})


def cyclic_rotation_group(order: int) -> GroupSpec:
    """Planar rotations by multiples of 2*pi/order; length is |angle|.

    A finite stand-in for the rotation circle: the length of a rotation is
    the absolute angle wrapped to [-pi, pi], matching the log-norm length
    on the full rotation group.
    """
    if order < 1:
        raise ValueError("order must be positive")
    labels, mats, length = [], [], {}
    for k in range(order):
        theta = 2.0 * math.pi * k / order
        labels.append(f"rot{k}")
        mats.append(np.array([[math.cos(theta), -math.sin(theta)],
                              [math.sin(theta), math.cos(theta)]]))
        wrapped = math.atan2(math.sin(theta), math.cos(theta))
        length[f"rot{k}"] = abs(wrapped)
    return matrix_group(labels, mats, length)


def planar_loop_group(n_samples: int, rotations: int = 4) -> GroupSpec:
    """Cyclic shifts of N planar samples combined with a finite rotation
    subgroup, acting on R^(2N).

    Elements are pairs (shift, rotation index); the length adds the
    shift's fraction of a full turn and the rotation angle in quadrature.
    """
    if n_samples < 1 or rotations < 1:
        raise ValueError("need at least one sample and one rotation")
    rot = cyclic_rotation_group(rotations)
    elements = tuple(itertools.product(range(n_samples), range(rotations)))

    def action(g, x):
        s, r = g
        pts = np.asarray(x, dtype=float).reshape(n_samples, 2)
        theta = 2.0 * math.pi * r / rotations
        m = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        return (np.roll(pts, -s, axis=0) @ m.T).reshape(-1)

    length = {}
    for s, r in elements:
        shift_frac = min(s, n_samples - s) / n_samples * 2.0 * math.pi
        length[(s, r)] = math.hypot(shift_frac, rot.length[f"rot{r}"])
    return GroupSpec(elements, action, length)


def loop_shape_space(n_samples: int, rotations: int = 4) -> QuotientSpace:
    """Desk-scale closed-curve shape space: sampled planar loops modulo
    cyclic relabeling and finite rotations."""
    base = EuclideanSpace(dim=2 * n_samples)
    return QuotientSpace(base, planar_loop_group(n_samples, rotations))

