"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of each
``frechet`` module in place. A function bound by name in several modules
(``grid_oracle`` in ``stochastics``, ``convergence`` and ``cli``, say) is
rebound in every module that holds it, because a caller looks the name up
in its own module. Space methods are wrapped on ``Space`` and on every
subclass that defines them.

Each span adds its duration to its parent span, so a layer's self time is
its duration minus the time of the spans it caused. Counts are computed at
the wrapped boundary from arguments and results. Weiszfeld iterations are
counted through the solver's public ``callback`` parameter.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Module functions, wrapped in every module that binds them by name.
_FUNCTIONS = ("core.relaxed_mean_set", "core.moment", "solvers.grid_oracle",
              "solvers.weiszfeld_median", "solvers.euclidean_pmean",
              "convergence.one_sided_hausdorff", "stochastics.sample_empirical",
              "stochastics.slln_experiment", "stochastics.ergodic_experiment",
              "stochastics.ldp_rate_function", "stochastics.ldp_experiment", "cli.main")
_SPACE_METHODS = ("distance", "contains", "points_equal", "pairwise_distances",
                  "candidates")

# Reported per-layer metrics: (span name, metric suffixes).
LAYERS = (
    ("spaces.pairwise_distances", ("calls", "self_s", "pairs", "max_matrix_mb")),
    ("spaces.distance", ("calls", "self_s")),
    ("spaces.contains", ("calls", "self_s")),
    ("spaces.points_equal", ("calls",)),
    ("spaces.candidates", ("calls", "self_s", "points")),
    ("core.DiscreteMeasure", ("calls", "self_s", "support_points")),
    ("core.relaxed_mean_set", ("calls", "self_s", "candidates", "band_points",
                               "band_ratio")),
    ("core.moment", ("calls", "self_s")),
    ("solvers.grid_oracle", ("calls", "self_s")),
    ("solvers.weiszfeld_median", ("calls", "self_s", "iterations")),
    ("solvers.euclidean_pmean", ("calls", "self_s")),
    ("convergence.one_sided_hausdorff", ("calls", "self_s")),
    ("stochastics.SamplerSpec.draw", ("calls", "self_s", "points")),
    ("stochastics.sample_empirical", ("calls", "self_s")),
    ("stochastics.slln_experiment", ("self_s",)),
    ("stochastics.ergodic_experiment", ("self_s",)),
    ("stochastics.ldp_rate_function", ("calls", "self_s")),
    ("stochastics.ldp_experiment", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
INSTRUMENT = (("trace.overhead", "ratio"), ("trace.unattributed_s", "s"))
_UNITS = {"self_s": "s", "max_matrix_mb": "MB", "band_ratio": "ratio"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{m}": _UNITS.get(m, "count")
             for span, metrics in LAYERS for m in metrics}
    units.update(INSTRUMENT)
    return units


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Span and count store for one single-threaded process."""

    def __init__(self):
        self.reset()
        self._open: list[float] = []  # child time of each open span

    def reset(self) -> None:
        """Start a new pass: drop the totals gathered so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_s = 0.0

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` adds counts."""
        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if self._open:
                    self._open[-1] += dt
                else:
                    self.top_s += dt
            if after is not None:
                after(args, kwargs, result)
            return result
        return span

    def _count_pairs(self, args, kwargs, result):
        pairs = len(_arg(args, kwargs, 1, "xs")) * len(_arg(args, kwargs, 2, "ys"))
        self.counts["spaces.pairwise_distances.pairs"] += pairs
        key = "spaces.pairwise_distances.max_matrix_mb"  # computed, not measured
        self.counts[key] = max(self.counts[key], pairs * 8 / 2**20)

    def _count_band(self, args, kwargs, result):
        self.counts["core.relaxed_mean_set.candidates"] += len(
            _arg(args, kwargs, 3, "candidates"))
        self.counts["core.relaxed_mean_set.band_points"] += len(result.points)

    def _counter(self, key: str, size):
        def after(args, kwargs, result):
            self.counts[key] += size(args, kwargs, result)
        return after

    def _weiszfeld(self, fn):
        """Pass a counting callback through the public ``callback`` hook."""
        @functools.wraps(fn)
        def solve(space, mu, config=None, callback=None):
            iterates = 0

            def counting(x):
                nonlocal iterates
                iterates += 1
                if callback is not None:
                    callback(x)
            try:
                return fn(space, mu, config, callback=counting)
            finally:
                # The first iterate is the starting point, not an iteration.
                self.counts["solvers.weiszfeld_median.iterations"] += max(iterates - 1, 0)
        return solve

    def install(self) -> None:
        """Wrap the loaded ``frechet`` modules in place."""
        from frechet import core, stochastics

        modules = [m for n, m in sys.modules.items()
                   if n == "frechet" or n.startswith("frechet.")]
        for name in _FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"frechet.{module}"], attr)
            target = self._weiszfeld(original) if attr == "weiszfeld_median" else original
            after = self._count_band if attr == "relaxed_mean_set" else None
            wrapped = self.wrap(name, target, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        method_counts = {
            "pairwise_distances": self._count_pairs,
            "candidates": self._counter("spaces.candidates.points",
                                        lambda a, k, r: len(r)),
        }
        pending = [core.Space]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in _SPACE_METHODS:
                if method in vars(cls):
                    setattr(cls, method, self.wrap(f"spaces.{method}", vars(cls)[method],
                                                   method_counts.get(method)))

        measure = core.DiscreteMeasure
        measure.__post_init__ = self.wrap(
            "core.DiscreteMeasure", measure.__post_init__,
            self._counter("core.DiscreteMeasure.support_points",
                          lambda a, k, r: len(a[0].support)))
        sampler = stochastics.SamplerSpec
        sampler.draw = self.wrap(
            "stochastics.SamplerSpec.draw", sampler.draw,
            self._counter("stochastics.SamplerSpec.draw.points",
                          lambda a, k, r: len(r)))

    def report(self) -> dict:
        """Raw per-span totals for one traced pass."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "top_s": self.top_s}


def layer_metrics(raw: dict) -> dict[str, float]:
    """Named per-layer values from ``Tracer.report``; absent layers read 0."""
    out = {}
    for span, metrics in LAYERS:
        for m in metrics:
            key = f"{span}.{m}"
            if m == "calls":
                out[key] = float(raw["calls"].get(span, 0))
            elif m == "self_s":
                out[key] = raw["self_s"].get(span, 0.0)
            elif m == "band_ratio":
                swept = raw["counts"].get("core.relaxed_mean_set.candidates", 0.0)
                kept = raw["counts"].get("core.relaxed_mean_set.band_points", 0.0)
                out[key] = kept / swept if swept else 0.0
            else:
                out[key] = raw["counts"].get(key, 0.0)
    return out
