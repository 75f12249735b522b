"""Random data generation and probabilistic experiments: laws of large
numbers for mean sets, a single-trajectory ergodic check, and large
deviations with the relative-entropy rate.

All randomness flows through inverse-CDF transforms of one seeded uniform
stream, so every experiment is bit-reproducible given (seed, config);
replication r draws from the derived seed of (seed, r). A cell's solver
returns points (``_solve_points``): the grid's band, or the one point of
``solvers.euclidean_pmean``, which claims no radius.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (
    SWEEP_BLOCK_ENTRIES,
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    FrechetConfig,
    Space,
    band_cut,
    moment,
    row_blocks,
)
from .convergence import ConvergenceReport, one_sided_hausdorff
from .solvers import SolverConfig, euclidean_pmean, grid_mean_set
from .spaces import EuclideanSpace

__all__ = [
    "SamplerSpec",
    "ExperimentConfig",
    "LdpResult",
    "sample_empirical",
    "slln_experiment",
    "ergodic_experiment",
    "ldp_rate_function",
    "ldp_experiment",
]

_IID_DISTRIBUTIONS = ("normal", "uniform", "pareto", "cauchy", "finite")


@dataclass(frozen=True)
class SamplerSpec:
    """Seeded source of points on the line.

    ``kind`` is "iid" with a named distribution or "markov-chain" with a
    row-stochastic kernel over finitely many real states. A draw is the
    rows of one (n, 1) float array.
    """

    kind: str
    seed: int = 0
    distribution: str | None = None
    params: tuple = ()
    atoms: tuple = ()
    probs: tuple = ()
    kernel: tuple = ()
    states: tuple = ()
    initial_state: int = 0

    def __post_init__(self):
        if self.kind == "iid":
            if self.distribution not in _IID_DISTRIBUTIONS:
                raise ValueError(f"unknown distribution {self.distribution!r}")
            if self.distribution == "finite":
                p = np.asarray(self.probs, dtype=float)
                if len(self.atoms) == 0 or p.shape != (len(self.atoms),):
                    raise ValueError("finite sampler needs aligned atoms and probs")
                # Written so that a NaN probability fails the check.
                if not (np.all(p >= 0) and abs(float(p.sum()) - 1.0) <= 1e-12):
                    raise ValueError("finite sampler probs must form a distribution")
            else:
                self._validate_params()
        elif self.kind == "markov-chain":
            k = np.asarray(self.kernel, dtype=float)
            m = len(self.states)
            if m == 0 or k.shape != (m, m):
                raise ValueError("markov sampler needs a square kernel over its states")
            if not (np.all(k >= 0) and np.all(np.abs(k.sum(axis=1) - 1.0) <= 1e-12)):
                raise ValueError("kernel rows must sum to 1")
            if not (0 <= self.initial_state < m):
                raise ValueError("initial state out of range")
        else:
            raise ValueError(f"unknown sampler kind {self.kind!r}")

    def _validate_params(self):
        p = self.params
        if len(p) != 2 or not np.all(np.isfinite(np.asarray(p, dtype=float))):
            raise ValueError(f"{self.distribution} sampler needs two finite parameters")
        if self.distribution == "normal":
            if p[1] <= 0:
                raise ValueError("normal(m, s) needs s > 0")
        elif self.distribution == "uniform":
            if p[1] <= p[0]:
                raise ValueError("uniform(a, b) needs a < b")
        elif self.distribution == "pareto":
            if p[0] <= 0 or p[1] <= 0:
                raise ValueError("pareto(alpha, x_min) needs positive parameters")
        elif self.distribution == "cauchy":
            if p[1] <= 0:
                raise ValueError("cauchy(loc, scale) needs scale > 0")

    def with_seed(self, seed: int) -> "SamplerSpec":
        return replace(self, seed=seed)

    def _draw_iid(self, rng: np.random.Generator, n: int):
        """n draws by the inverse CDF of one uniform stream. The normal
        quantile is ``_ndtri``, a numpy port of Cephes' ``ndtri`` that equals
        ``scipy.special.ndtri`` bit for bit, so no draw depends on whether
        scipy is loaded. Its tail logarithms come from libm (``math.log``),
        as in the C routine; numpy's vectorized ``np.log`` can differ from
        libm in the last bit."""
        u = rng.uniform(size=n)
        dist, p = self.distribution, self.params
        if dist == "normal":
            vals = p[0] + p[1] * _ndtri(u)
        elif dist == "uniform":
            vals = p[0] + (p[1] - p[0]) * u
        elif dist == "pareto":
            vals = p[1] * (1.0 - u) ** (-1.0 / p[0])
        elif dist == "cauchy":
            vals = p[0] + p[1] * np.tan(math.pi * (u - 0.5))
        else:  # finite
            vals = np.asarray(self.atoms, dtype=float)[_finite_indices(np.cumsum(self.probs), u)]
        return _column(vals)

    def _draw_chain(self, rng: np.random.Generator, n: int):
        cum = np.cumsum(np.asarray(self.kernel, dtype=float), axis=1)
        u = rng.uniform(size=n)
        # The successor of every state under every uniform, one
        # ``searchsorted`` per state, in blocks of at most 2**20 entries;
        # the walk then only looks successors up.
        block = max(1, 2 ** 20 // len(cum))
        path, state = [], self.initial_state
        for start in range(0, n, block):
            succ = np.minimum([np.searchsorted(row, u[start:start + block], side="right")
                               for row in cum], len(cum) - 1).tolist()
            for k in range(len(succ[0])):
                path.append(state)
                state = succ[state][k]
        return _column(np.asarray(self.states, dtype=float)[np.array(path, dtype=np.intp)])

    def draw(self, n: int):
        """First n points of the stream, the rows of one (n, 1) array; a
        prefix of any longer draw. A measure on a slice of it keeps that
        slice as its stacked support."""
        rng = np.random.default_rng(self.seed)
        if self.kind == "iid":
            return self._draw_iid(rng, n)
        return self._draw_chain(rng, n)

    def stationary_law(self) -> np.ndarray:
        """Stationary distribution of the chain; requires irreducibility."""
        if self.kind != "markov-chain":
            raise ConfigurationError("stationary law is a chain property")
        kernel = np.asarray(self.kernel, dtype=float)
        if not _is_irreducible(kernel):
            raise ConfigurationError("chain is reducible; trajectory averages "
                                     "need not converge to a stationary law")
        m = kernel.shape[0]
        a = np.vstack([kernel.T - np.eye(m), np.ones(m)])
        b = np.concatenate([np.zeros(m), [1.0]])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


# Cephes ``ndtri`` (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the routine behind ``scipy.special.ndtri``: numerator and
# monic denominator coefficients, highest degree first. The tail tables hold
# the x < 8 and x >= 8 coefficients as the columns 0 and 1.
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P_TAIL = np.transpose([
    (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
     4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
     -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4),
    (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
     1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
     3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)])
_NDTRI_Q_TAIL = np.transpose([
    (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
     1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
     -3.80806407691578277194E-2, -9.33259480895457427372E-4),
    (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
     2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
     2.89247864745380683936E-6, 6.79019408009981274425E-9)])
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _rational(x: np.ndarray, num, den) -> np.ndarray:
    """x P(x) / Q(x) by Horner, in the operation order of Cephes' C."""
    top, bottom = num[0], x + den[0]
    for c in num[1:]:
        top = top * x + c
    for c in den[1:]:
        bottom = bottom * x + c
    return x * top / bottom


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u in [0, 1], equal bit for bit
    to ``scipy.special.ndtri``."""
    upper = u > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - u, u)
    out = np.where(upper, math.inf, -math.inf)  # u = 1 and u = 0
    mid = y > _EXP_M2
    t = y[mid] - 0.5
    out[mid] = (t + t * _rational(t * t, _NDTRI_P0, _NDTRI_Q0)) * _SQRT_2PI
    tail = ~mid & (y > 0.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    far = (x >= 8.0).astype(np.intp)
    x = x - _libm_log(x) / x - _rational(1.0 / x, _NDTRI_P_TAIL[:, far], _NDTRI_Q_TAIL[:, far])
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _column(values) -> np.ndarray:
    """Real draws as the rows of one (n, 1) float array."""
    return np.asarray(values, dtype=float).reshape(len(values), 1)


def _finite_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF atom indices of uniforms ``u`` under the cumulative
    probabilities ``cum``."""
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _drawn_atoms(idx: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``idx`` (atom indices below k): the k atoms in the order
    first drawn, undrawn atoms last, and how often each was drawn."""
    rows, n = idx.shape
    flat = (idx + k * np.arange(rows)[:, None]).ravel()
    counts = np.bincount(flat, minlength=rows * k).reshape(rows, k)
    first = np.full(rows * k, n)  # undrawn atoms keep n
    np.minimum.at(first, flat, np.tile(np.arange(n), rows))
    order = np.argsort(first.reshape(rows, k), axis=1, kind="stable")
    return order, np.take_along_axis(counts, order, axis=1)


def _is_irreducible(kernel: np.ndarray) -> bool:
    m = kernel.shape[0]
    reach = kernel > 0
    closure = reach | np.eye(m, dtype=bool)
    for _ in range(m):
        closure = closure | (closure @ closure)
    return bool(np.all(closure) and np.all(closure.T))


def sample_empirical(sampler: SamplerSpec, n: int, space: Space | None = None) -> DiscreteMeasure:
    """Uniform-weight empirical measure on the first n stream points."""
    if n < 1:
        raise ValueError("need at least one sample")
    pts = sampler.draw(n)
    return DiscreteMeasure.uniform(space if space is not None else EuclideanSpace(1), pts)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative knobs shared by the convergence experiments."""

    solver: str = "grid"
    epsilon: float = 0.0
    grid_step: float = 0.01
    grid_pad: float = 1.0
    target_points: tuple = ()
    threshold: float | None = None
    solver_config: SolverConfig = field(default_factory=SolverConfig)


def _solve_points(space: Space, mu: DiscreteMeasure, p: float,
                  config: ExperimentConfig) -> tuple:
    """The points the configured solver returns: the grid's epsilon-band,
    or the one minimizer of a point solver. A point solver rejects
    epsilon > 0; ``weiszfeld`` is the p = 1 name of ``subgradient`` and
    rejects p != 1.
    """
    name = config.solver
    if name == "grid":
        return grid_mean_set(space, mu, FrechetConfig(p=p, epsilon=config.epsilon),
                             config.grid_step, config.grid_pad).points
    if config.epsilon > 0:
        raise ConfigurationError(
            f"solver {name!r} returns one point, not an epsilon-band; "
            "epsilon > 0 needs solver 'grid'")
    if name == "weiszfeld" and p != 1.0:
        raise ConfigurationError(f"solver 'weiszfeld' computes the p = 1 median, got p = {p}")
    if name not in ("weiszfeld", "subgradient"):
        raise ConfigurationError(f"unknown solver {name!r}")
    return (euclidean_pmean(space, mu, p, config.solver_config),)


def _sample_sizes(n_grid: Sequence[int]) -> list[int]:
    """``n_grid`` as a list; ``ValueError`` naming the key when it is empty
    or holds a size below one."""
    n_grid = list(n_grid)
    if not n_grid:
        raise ValueError("n_grid must hold at least one sample size")
    if min(n_grid) < 1:
        raise ValueError(f"n_grid sample sizes must be >= 1, got {min(n_grid)}")
    return n_grid


def _prefix_experiment(space: Space, stream: Sequence, n_grid: list[int], p: float,
                       config: ExperimentConfig, target: list) -> tuple[list, list, list, list]:
    """Cell n solves the uniform measure on the first n stream points and
    records, in four lists aligned with n_grid: the one-sided Hausdorff
    distance of its mean set into ``target`` (nan when the solver fails),
    its moment of order p - 1 at ``target[0]``, the ``ConvergenceFailure``
    caught (or None) and the cell's seconds."""
    dvecs, moments_, failures, seconds = [], [], [], []
    for n in n_grid:
        t0 = time.perf_counter()
        mu = DiscreteMeasure.uniform(space, stream[:n])
        try:
            points = _solve_points(space, mu, p, config)
        except ConvergenceFailure as exc:
            dvecs.append(float("nan"))
            failures.append(exc)
        else:
            dvecs.append(one_sided_hausdorff(space, points, target))
            failures.append(None)
        moments_.append(moment(space, mu, max(p - 1.0, 0.0), target[0]))
        seconds.append(time.perf_counter() - t0)
    return dvecs, moments_, failures, seconds


def slln_experiment(space: Space, sampler: SamplerSpec, p: float,
                    n_grid: Sequence[int], replications: int,
                    config: ExperimentConfig) -> ConvergenceReport:
    """Empirical mean sets against an analytic target as samples grow.

    For every n and replication the mean-set approximation of the
    empirical measure is computed and its one-sided Hausdorff distance
    into the declared target set recorded; the report keeps the worst
    replication per n. A solver that does not converge
    (``ConvergenceFailure``) is recorded per cell rather than aborting the
    sweep; any other error propagates.

    Each replication draws its stream once, at the largest n, and every
    n uses a prefix of it; streams are prefix-stable, so this equals a
    fresh draw per n. The runtime of an n is the time its cells took,
    summed over replications; the draw itself belongs to no cell. Fewer
    than one replication, or a degenerate ``n_grid`` (``_sample_sizes``),
    raises ``ValueError``.
    """
    if not config.target_points:
        raise ConfigurationError("the experiment needs a target mean set")
    target = list(config.target_points)
    n_grid = _sample_sizes(n_grid)
    if replications < 1:
        raise ValueError("need at least one replication")

    per_rep = [_prefix_experiment(
        space, sampler.with_seed(_derived_seed(sampler.seed, rep)).draw(max(n_grid)),
        n_grid, p, config, target) for rep in range(replications)]

    dvec_max, moment_mean, runtimes, failure_count = [], [], [], 0
    for j in range(len(n_grid)):
        finite = [rep[0][j] for rep in per_rep if not math.isnan(rep[0][j])]
        failure_count += sum(rep[2][j] is not None for rep in per_rep)
        dvec_max.append(max(finite) if finite else float("nan"))
        moment_mean.append(float(np.mean([rep[1][j] for rep in per_rep])))
        runtimes.append(sum(rep[3][j] for rep in per_rep))

    verdicts = {"solver_failures": failure_count}
    if config.threshold is not None:
        verdicts["final_below_threshold"] = bool(dvec_max[-1] < config.threshold)
    return ConvergenceReport(n_grid, dvec_max, moment_mean, runtimes=runtimes,
                             verdicts=verdicts, seed=sampler.seed)


def _derived_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(1)[0])


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(entropy: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(n_words)`` for many sequences
    at once: entry i of ``entropy`` holds the i-th 32-bit entropy word of
    every sequence as one uint32 array, and so does each output word."""
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, out = _INIT_B, []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * np.uint32(hash_b)
        out.append(value ^ (value >> np.uint32(16)))
    return out


def _replication_uniforms(seed: int, keys: np.ndarray, n: int) -> np.ndarray:
    """The (len(keys), n) array whose row r holds the first n uniforms of
    ``np.random.default_rng(_derived_seed(seed, keys[r]))``, bit for bit.

    Both SeedSequence stages (the spawn key to one 32-bit seed, then that
    seed to the eight words that seed PCG64) run as uint32 arithmetic over
    all keys at once, and the PCG64 seeding steps as Python integers. One
    generator is reused: its state is set once per key and fills its row.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    keys = np.asarray(keys, dtype=np.int64)
    if len(keys) and (keys.min() < 0 or keys.max() > _MASK32):
        raise ValueError("replication keys must lie in [0, 2**32 - 1]")
    # The entropy words of SeedSequence(seed, spawn_key=(key,)): the seed's
    # words, least significant first, padded with zeros to the pool size,
    # then the key.
    words = [(seed >> (32 * i)) & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    words += [0] * (_POOL_SIZE - len(words))
    keys = keys.astype(np.uint32)
    entropy = [np.full(len(keys), w, dtype=np.uint32) for w in words] + [keys]
    (derived,) = _seed_words(entropy, 1)
    # PCG64 reads the eight words as four little-endian uint64 words: the
    # initial state is the first two, high word first, the stream the last two.
    w = [v.astype(np.uint64) for v in _seed_words([derived], 8)]
    halves = [(w[2 * i + 1] << np.uint64(32) | w[2 * i]).tolist() for i in range(4)]
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    out = np.empty((len(keys), n))
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, *halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.random(out=row)
    return out


def ergodic_experiment(space: Space, markov: SamplerSpec, p: float,
                       n_grid: Sequence[int], config: ExperimentConfig) -> ConvergenceReport:
    """Mean sets of growing prefixes of one chain trajectory.

    The empirical measure over the window {0, ..., n-1} of a single
    trajectory is compared against the mean set of the stationary law;
    for an irreducible chain the distance must vanish. The target defaults
    to the stationary average of the states when p = 2 on a
    Euclidean space, otherwise it must be supplied.

    The cells are those of ``slln_experiment`` on one trajectory, drawn at
    the sampler's seed; the first ``ConvergenceFailure`` is raised again.
    """
    if markov.kind != "markov-chain":
        raise ConfigurationError("the ergodic experiment needs a markov-chain sampler")
    pi = markov.stationary_law()
    if config.target_points:
        target = list(config.target_points)
    elif p == 2.0 and isinstance(space, EuclideanSpace):
        target = [sum(w * pt for w, pt in zip(pi, _column(markov.states)))]
    else:
        raise ConfigurationError("supply target_points unless p = 2 on a Euclidean space")

    n_grid = _sample_sizes(n_grid)
    dvecs, moments_, failures, runtimes = _prefix_experiment(
        space, markov.draw(max(n_grid)), n_grid, p, config, target)
    if any(failures):
        raise next(exc for exc in failures if exc is not None)
    verdicts = {}
    if config.threshold is not None:
        verdicts["final_below_threshold"] = bool(dvecs[-1] < config.threshold)
    return ConvergenceReport(n_grid, dvecs, moments_, runtimes=runtimes,
                             verdicts=verdicts, seed=markov.seed)


def _aggregate(mu: DiscreteMeasure) -> tuple[list, list]:
    """Distinct support points, in order of first appearance, with their
    weights summed in support order."""
    sums: dict[int, float] = {}
    for key, w in zip(mu.space.first_equal(mu.support), mu.weights):
        sums[key] = sums[key] + float(w) if key in sums else float(w)
    return [mu.support[i] for i in sums], list(sums.values())


def _equals_any(space: Space, points: list, events: list) -> np.ndarray:
    """Whether each point equals an event point, from one equality scan
    over the events followed by the points."""
    return np.array(space.first_equal(events + points)[len(events):], dtype=np.intp) < len(events)


def _simplex_lattice(k: int, m: int):
    """Points of the k-simplex whose coordinates are multiples of 1/m,
    times m: blocks of rows of nonnegative counts summing to m."""
    cuts = itertools.combinations(range(m + k - 1), k - 1)
    rows = max(1, SWEEP_BLOCK_ENTRIES // (k * k))
    while block := list(itertools.islice(cuts, rows)):
        cut = np.array(block, dtype=np.intp).reshape(len(block), k - 1)
        yield np.diff(cut, axis=1, prepend=-1, append=m + k - 1) - 1


def _support_bands(dp: np.ndarray, support: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mean-set bands of many measures on k atoms, restricted to their atoms.

    ``dp`` is the k x k matrix of atom distances raised to the power p.
    Row r of ``support`` (R x c) lists the atoms of measure r and row r of
    ``weights`` their weights. As in ``relaxed_mean_set`` on that support,
    the atoms are the candidates and the first one is the origin, and the
    terms are added in the same order, so the R x c result marks the same
    band atoms.
    """
    band = np.empty(support.shape, dtype=bool)
    for block in row_blocks(len(support), support.shape[1] ** 2):
        s, w = support[block], weights[block]
        d = dp[s[:, :, None], s[:, None, :]]
        # relaxed_mean_set takes its shift as one BLAS dot per measure; the
        # stacked product gives the same bits (a test pins this).
        shift = (w[:, None, :] @ d[:, 0, :, None])[:, 0, 0]
        values = np.sum(d * w[:, None, :], axis=-1) - shift[:, None]
        achieved = values.min(axis=1, keepdims=True)
        band[block] = values <= band_cut(achieved, 0.0)
    return band


def ldp_rate_function(space: Space, mu: DiscreteMeasure, p: float, target_x,
                      simplex_step: float = 1e-3) -> float:
    """Entropy projection rate at a point: the cheapest reweighting of the
    support whose mean set is exactly the target.

    Minimizes the relative entropy against ``mu`` over lattice measures on
    mu's support whose mean set (restricted to that support) is precisely
    ``{target_x}``. Returns ``math.inf`` when no lattice measure achieves
    the target. The lattice is swept in blocks through one batched band
    computation.
    """
    atoms, base_w = _aggregate(mu)
    return _lattice_rate(space.pairwise_distances(atoms, atoms) ** p, base_w,
                         _equals_any(space, atoms, [target_x]), _lattice_size(simplex_step))


def _lattice_size(simplex_step: float) -> int:
    """The m of a lattice of step 1/m; ``ValueError`` naming the key unless
    ``simplex_step`` is finite, > 0 and divides 1."""
    if not 0 < simplex_step < math.inf:  # false on a NaN
        raise ValueError(f"simplex_step must be finite and > 0, got {simplex_step}")
    m = int(round(1.0 / simplex_step))
    if abs(m * simplex_step - 1.0) > 1e-9:
        raise ValueError(f"simplex_step must divide 1, got {simplex_step}")
    return m


def _lattice_rate(dp: np.ndarray, base_w: list, is_target: np.ndarray, m: int) -> float:
    """``min(ldp_rate_function(..., t) for t in targets)`` from one lattice
    sweep of step 1/m that keeps the measures whose band is one atom equal
    to a target. ``dp`` holds the atom distances to the power p and
    ``is_target`` marks the target atoms."""
    k = len(base_w)
    if k > 4:
        raise ConfigurationError("rate-function enumeration is feasible for "
                                 "at most 4 support atoms")
    # terms[i, c] = w log(w / b_i) at w = c / m; a coordinate where the base
    # has no mass makes the entropy infinite.
    terms = np.zeros((k, m + 1))
    for i, b in enumerate(base_w):
        for c in range(1, m + 1):
            w = np.float64(c) / m
            terms[i, c] = w * math.log(w / b) if b > 0.0 else math.inf
    best = math.inf
    for counts in _simplex_lattice(k, m):
        band = _support_bands(dp, np.broadcast_to(np.arange(k), counts.shape), counts / m)
        keep = (band.sum(axis=1) == 1) & np.any(band & is_target, axis=1)
        if keep.any():
            # With k <= 4 terms, np.sum adds them one at a time in atom order.
            ent = terms[np.arange(k), counts[keep]].sum(axis=1)
            best = min(best, max(float(ent.min()), 0.0))
    return best


@dataclass
class LdpResult:
    """Decay of rare-event probabilities against the entropy rate."""

    n_values: list[int]
    probabilities: list[float]
    empirical_rates: list[float]
    theoretical_rate: float
    tie_probabilities: list[float]
    censored: list[bool]
    mode: str
    seed: int

    def __post_init__(self):
        for prob in self.probabilities:
            if not (0.0 <= prob <= 1.0 + 1e-12):
                raise ValueError("probabilities must lie in [0, 1]")

    def rows(self) -> list[dict]:
        return [{"n": n, "probability": p_, "empirical_rate": r,
                 "tie_probability": t, "censored": c,
                 "theoretical_rate": self.theoretical_rate}
                for n, p_, r, t, c in zip(self.n_values, self.probabilities,
                                          self.empirical_rates, self.tie_probabilities,
                                          self.censored)]

    def to_json_dict(self) -> dict:
        return asdict(self)


def ldp_experiment(space: Space, mu: DiscreteMeasure, p: float,
                   event_points: Sequence, n_grid: Sequence[int],
                   mode: str = "exact-binomial", replications: int = 1000,
                   seed: int = 0, simplex_step: float = 1e-3) -> LdpResult:
    """Probability that the empirical mean set falls inside a finite event.

    The event is the set of samples whose mean set (restricted to the
    support atoms) is contained in ``event_points``; ties touching points
    outside the event are excluded, so the exact two-atom count uses a
    strict majority and the tie probability is reported separately.

    Modes: ``exact-binomial`` (two-atom measures only, exact tail sums) or
    ``monte-carlo`` (any finite support, frequency estimates; zero counts
    are censored rather than mapped to an infinite rate). Replication rep
    at the j-th n draws the uniforms of
    ``default_rng(_derived_seed(seed, rep * len(n_grid) + j))``; the
    replications of one n are seeded, drawn and counted as arrays
    (``_replication_uniforms``, ``_drawn_atoms``) in blocks of at most
    ``SWEEP_BLOCK_ENTRIES`` uniforms, and each block's bands are decided
    by one batched sweep per count of distinct atoms drawn. A negative
    seed, fewer than one replication in this mode, a degenerate ``n_grid``
    (``_sample_sizes``) or ``simplex_step`` (``_lattice_size``) raises
    ``ValueError``.
    """
    if mode == "monte-carlo" and replications < 1:
        raise ValueError("need at least one replication")
    n_grid = _sample_sizes(n_grid)
    m = _lattice_size(simplex_step)
    atoms, base_w = _aggregate(mu)
    event_points = list(event_points)

    # A mean set is in the event when each of its atoms is an event point.
    event = _equals_any(space, atoms, event_points)
    dp = space.pairwise_distances(atoms, atoms) ** p
    theoretical = _lattice_rate(dp, base_w, event, m) if event_points else math.inf

    probabilities, ties, censored = [], [], []
    if mode == "exact-binomial":
        if len(atoms) != 2:
            raise ConfigurationError("exact tail sums need a two-atom measure")
        theta = base_w[1]  # success probability of drawing atoms[1]
        from scipy.stats import binom

        for n in n_grid:
            tie = float(binom.pmf(n // 2, n, theta)) if n % 2 == 0 else 0.0
            if event.all() or not event.any():
                prob = float(event.all())
            else:
                # Strict majority of the event atom.
                prob = float(binom.sf(n // 2, n, theta if event[1] else 1.0 - theta))
            probabilities.append(prob)
            ties.append(tie)
            censored.append(False)
    elif mode == "monte-carlo":
        cum = np.cumsum(base_w)
        for j, n in enumerate(n_grid):
            # mass[c] is c samples of weight 1/n added one at a time.
            mass = np.concatenate(([0.0], np.cumsum(np.full(n, 1.0 / n))))
            hits = tie_hits = 0
            for block in row_blocks(replications, n):
                reps = np.arange(replications)[block]
                u = _replication_uniforms(seed, reps * len(n_grid) + j, n)
                order, counts = _drawn_atoms(_finite_indices(cum, u), len(atoms))
                # A replication's empirical measure lives on the atoms it
                # drew, in the order first drawn; replications are grouped
                # by how many atoms that is.
                sizes = np.count_nonzero(counts, axis=1)
                for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would load numpy.ma
                    rows = sizes == size
                    support = order[rows, :size]
                    band = _support_bands(dp, support, mass[counts[rows, :size]])
                    hits += int(np.sum(np.all(event[support] | ~band, axis=1)))
                    tie_hits += int(np.sum(band.sum(axis=1) > 1))
            probabilities.append(hits / replications)
            ties.append(tie_hits / replications)
            censored.append(hits == 0)
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")

    rates = []
    for n, prob, cens in zip(n_grid, probabilities, censored):
        if cens or prob <= 0.0:
            rates.append(float("nan"))
        elif prob >= 1.0:
            rates.append(0.0)
        else:
            rates.append(-math.log(prob) / n)
    return LdpResult(n_grid, probabilities, rates, theoretical,
                     tie_probabilities=ties, censored=censored, mode=mode, seed=seed)
