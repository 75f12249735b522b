"""Seeded workload generation.

Each workload is a list of ``frechet`` CLI calls: a subcommand and a JSON
config built from the workload seed. The seed moves the atoms, members,
matrices, chain and sampler streams; it never moves the amount of work.
Candidate grids are pinned by rescaling the generated data onto fixed
extents, so every seed sweeps the same number of candidates and a
run-to-run spread reflects the host and the program, not the draw.

A workload is made of parts, each a short list of calls that stresses
one side of the program; every part draws from its own seeded stream.

- ``mean-grid`` = ``mean-euclid-grid`` + ``mean-generic-grid``: grid
  mean sets through the vectorized Euclidean kernel (many candidates x
  few atoms, the memory-bound sweep), then through the base-class Python
  distance loop (Wasserstein1D, Bures-Wasserstein).
- ``experiments`` = ``limit-theorems`` + ``ldp``: the SLLN and ergodic
  drivers (sampler, measure validation, Weiszfeld median, few candidates
  x many atoms), then Monte-Carlo LDP with a lattice rate function
  (thousands of tiny sweeps where fixed cost per call dominates).
"""

from __future__ import annotations

import numpy as np

SCHEMA_VERSION = 1

# Why each workload exists; the same text is in BENCHMARK.json.
WHY = {
    "mean-grid": "grid mean sets: Euclidean vector kernel at 40k candidates x 200 "
                 "atoms (memory), then Wasserstein1D and Bures-Wasserstein through "
                 "the Python distance loop",
    "experiments": "SLLN (normal grid, Cauchy Weiszfeld), ergodic and Monte-Carlo LDP "
                   "drivers: sampler, measure validation, median solver, ~4k tiny "
                   "rate-function sweeps",
}
NAMES = tuple(WHY)
PARTS = ("mean-euclid-grid", "mean-generic-grid", "limit-theorems", "ldp")
_WORKLOAD_PARTS = {
    "mean-grid": ("mean-euclid-grid", "mean-generic-grid"),
    "experiments": ("limit-theorems", "ldp"),
}


def _rescale(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Affine map sending the minimum to exactly lo and the maximum to hi."""
    vmin, vmax = values.min(), values.max()
    return lo + (hi - lo) * ((values - vmin) / (vmax - vmin))


def _weights(rng: np.random.Generator, k: int) -> list[float]:
    """Positive weights summing to 1 within the program's 1e-12 budget."""
    w = rng.uniform(0.5, 1.5, size=k)
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    return [float(v) for v in w]


def _mean_euclid_grid(rng: np.random.Generator) -> list[tuple[str, dict]]:
    # Atoms rescaled onto [-1, 1]^2 with pad 1 and step 0.02: a 201 x 201
    # grid, 40,401 candidates for every seed.
    atoms = rng.standard_t(df=3, size=(200, 2))
    atoms = np.column_stack([_rescale(atoms[:, j], -1.0, 1.0) for j in range(2)])
    return [("mean", {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "euclidean", "dim": 2},
        "measure": {"support": atoms.tolist()},
        "p": 1.0,
        "scheme": "grid",
        "grid_step": 0.02,
        "grid_pad": 1.0,
    })]


def _bw_member(a: float, b: float, c: float) -> list[float]:
    return [a, b, b, c]


def _mean_generic_grid(rng: np.random.Generator) -> list[tuple[str, dict]]:
    # Wasserstein1D: 20 members of 3 weighted atoms, all atoms rescaled onto
    # [-1, 1]; step 0.1 and pad 0.55 give a 32-point axis, 528 candidates.
    atoms = _rescale(rng.normal(size=(20, 3)), -1.0, 1.0)
    members = [{"atoms": row.tolist(), "weights": _weights(rng, 3)} for row in atoms]
    w1d = {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "wasserstein1d", "q": 2.0},
        "measure": {"support": members},
        "p": 2.0,
        "scheme": "grid",
        "grid_step": 0.1,
        "grid_pad": 0.55,
    }
    # Bures-Wasserstein 2x2: two members pin the entry-wise box
    # (a, c in [0.5, 2], b in [-0.4, 0.4]); the other 6 lie inside it.
    # Step 0.25 and pad 0.3 give 631 PSD candidates.
    mats = [_bw_member(0.5, -0.4, 0.5), _bw_member(2.0, 0.4, 2.0)]
    for _ in range(6):
        a, c = rng.uniform(0.5, 2.0, size=2)
        b = rng.uniform(-1.0, 1.0) * min(0.4, 0.9 * float(np.sqrt(a * c)))
        mats.append(_bw_member(float(a), float(b), float(c)))
    order = rng.permutation(len(mats))
    bw = {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "bures-wasserstein", "dim": 2},
        "measure": {"support": [mats[i] for i in order]},
        "p": 2.0,
        "scheme": "grid",
        "grid_step": 0.25,
        "grid_pad": 0.3,
    }
    return [("mean", w1d), ("mean", bw)]


def _limit_theorems(rng: np.random.Generator) -> list[tuple[str, dict]]:
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    normal = {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "euclidean", "dim": 1},
        "sampler": {"kind": "iid", "distribution": "normal", "params": [0.0, 1.0]},
        "seed": seeds[0],
        "p": 2.0,
        "n_grid": [100, 1000, 3000],
        "replications": 4,
        "solver": "grid",
        "grid_step": 0.01,
        "grid_pad": 1.0,
        "target_points": [[0.0]],
        "threshold": 0.5,
    }
    cauchy = {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "euclidean", "dim": 1},
        "sampler": {"kind": "iid", "distribution": "cauchy", "params": [0.0, 1.0]},
        "seed": seeds[1],
        "p": 1.0,
        "n_grid": [1000, 3000, 10000],
        "replications": 4,
        "solver": "weiszfeld",
        "target_points": [[0.0]],
        "threshold": 0.5,
    }
    # Positive kernel rows keep the chain irreducible.
    kernel = [_weights(rng, 3) for _ in range(3)]
    states = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=3))
    ergodic = {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "euclidean", "dim": 1},
        "sampler": {"kind": "markov-chain", "kernel": kernel, "states": states},
        "seed": seeds[2],
        "p": 2.0,
        "n_grid": [1000, 3000, 10000],
        "solver": "subgradient",
        "threshold": 0.5,
    }
    return [("slln", normal), ("slln", cauchy), ("ergodic", ergodic)]


def _ldp(rng: np.random.Generator) -> list[tuple[str, dict]]:
    atoms = sorted(float(v) for v in _rescale(rng.normal(size=4), -1.0, 1.0))
    weights = _weights(rng, 4)
    # The event is the atom with the second-smallest p = 2 cost over the
    # support: a rare but reachable event for every seed.
    cost = [sum(w * (a - y) ** 2 for w, y in zip(weights, atoms)) for a in atoms]
    event = atoms[int(np.argsort(cost)[1])]
    return [("ldp", {
        "schema_version": SCHEMA_VERSION,
        "space": {"type": "euclidean", "dim": 1},
        "measure": {"support": [[a] for a in atoms], "weights": weights},
        "p": 2.0,
        "event_points": [[event]],
        "n_grid": [10, 20, 40],
        "mode": "monte-carlo",
        "replications": 200,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "simplex_step": 0.04,
    })]


_BUILDERS = {
    "mean-euclid-grid": _mean_euclid_grid,
    "mean-generic-grid": _mean_generic_grid,
    "limit-theorems": _limit_theorems,
    "ldp": _ldp,
}


def generate(name: str, seed: int) -> list[tuple[str, dict]]:
    """The (subcommand, config) calls of one workload pass for a seed."""
    if name not in _WORKLOAD_PARTS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    calls = []
    for part in _WORKLOAD_PARTS[name]:
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(PARTS.index(part),)))
        calls.extend(_BUILDERS[part](rng))
    return calls
