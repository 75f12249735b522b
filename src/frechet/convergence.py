"""Set-distance machinery and empirical convergence probes.

The one-sided Hausdorff distance quantifies the "no false positives"
guarantee for set-valued estimators: it vanishes exactly when the first
set is contained in the second. The probes in this module track it along
sequences of measures whose mean sets should converge.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import DiscreteMeasure, FrechetConfig, MeanSetApprox, Space, moment
from .solvers import grid_mean_set

__all__ = [
    "ConvergenceReport",
    "one_sided_hausdorff",
    "gamma_convergence_probe",
]


@dataclass
class ConvergenceReport:
    """Per-step convergence records plus overall verdicts.

    All sequences are aligned with ``sample_sizes``; a report is fully
    determined by its seed and the generating configuration. It writes no
    files: the CLI writes ``rows()`` as CSV and ``to_json_dict()`` as JSON.
    The ``bl`` column holds no value yet: NaN in each row, ``[]`` in JSON.
    """

    sample_sizes: list[int]
    dvec: list[float]
    moments: list[float]
    runtimes: list[float]
    verdicts: dict
    seed: int

    def __post_init__(self):
        n = len(self.sample_sizes)
        for name in ("dvec", "moments"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must align with sample_sizes")

    def rows(self) -> list[dict]:
        return [
            {"n": n, "dvec": d, "bl": float("nan"), "moment_gap": m, "runtime": r}
            for n, d, m, r in zip(self.sample_sizes, self.dvec, self.moments, self.runtimes)
        ]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "bl": []}


def one_sided_hausdorff(space: Space, s: Sequence, s_prime: Sequence) -> float:
    """max over x in s of the distance from x into s_prime.

    Zero exactly when s is contained in s_prime; not symmetric.
    """
    s, s_prime = list(s), list(s_prime)
    if not s or not s_prime:
        raise ValueError("both sets must be nonempty")
    dm = space.pairwise_distances(s, s_prime)
    return float(np.max(np.min(dm, axis=1)))


def gamma_convergence_probe(space: Space, mu_sequence: Sequence[DiscreteMeasure],
                            mu_limit: DiscreteMeasure, p: float,
                            eps_sequence: Sequence[float], *,
                            grid_step: float, grid_pad: float = 1.0,
                            seed: int = 0) -> ConvergenceReport:
    """Track relaxed mean sets of a measure sequence against the limit set.

    For each measure in the sequence, the epsilon-relaxed mean-set band is
    computed over a grid (``grid_mean_set``) and its one-sided Hausdorff
    distance into the limit's mean-set approximation is recorded. The
    verdict asserts that the final distance drops below the combined
    resolution of the two approximations.
    """
    if len(mu_sequence) == 0:
        raise ValueError("need at least one measure in the sequence")
    if len(mu_sequence) != len(eps_sequence):
        raise ValueError("eps_sequence must align with mu_sequence")
    if any(e < 0 for e in eps_sequence):
        raise ValueError("relaxation levels must be nonnegative")

    def band_for(mu: DiscreteMeasure, eps: float) -> MeanSetApprox:
        return grid_mean_set(space, mu, FrechetConfig(p=p, epsilon=eps), grid_step, grid_pad)

    limit_band = band_for(mu_limit, 0.0)

    sizes, dvecs, moments_, runtimes = [], [], [], []
    origin, order = mu_limit.support[0], max(p - 1.0, 0.0)
    limit_moment = moment(space, mu_limit, order, origin)
    for idx, (mu, eps) in enumerate(zip(mu_sequence, eps_sequence)):
        t0 = time.perf_counter()
        band = band_for(mu, eps)
        dvec = one_sided_hausdorff(space, band.points, limit_band.points)
        runtimes.append(time.perf_counter() - t0)
        sizes.append(idx + 1)
        dvecs.append(dvec)
        moments_.append(abs(moment(space, mu, order, origin) - limit_moment))
    combined = band.resolution + limit_band.resolution
    verdicts = {
        "final_below_combined_resolution": dvecs[-1] <= combined + 1e-9,
        "trailing_not_worse_than_start": dvecs[-1] <= dvecs[0] + 1e-9,
    }
    return ConvergenceReport(sizes, dvecs, moments_, runtimes=runtimes,
                             verdicts=verdicts, seed=seed)
