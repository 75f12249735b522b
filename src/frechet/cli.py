"""Command-line surface: distance evaluation, mean computation, and the
experiment suites, with machine-readable JSON/CSV results.

Every run is driven by one JSON config file (stamped with a schema
version) plus optional key=value overrides. Its numbers, counts and
lists, down to the space, sampler and measure keys, are read here by
name, and a malformed value is refused under its key's name; each space
decodes its own points, a measure's support as one list. Result JSON
re-parses under the same schema; CSV bodies are byte-identical across
reruns with the same seed and config, with timestamps confined to a
metadata sidecar field. Outputs are rewritten in place (``_rewrite``), and
an ``--out`` that would overwrite the ``--config`` file is refused.

Importing this module loads ``core``, ``spaces`` and ``solvers``, which
``dist``, ``mean`` and ``diag`` need. The experiment commands import the
rest when they run: ``slln``, ``ergodic`` and ``ldp`` load ``stochastics``
(and with it ``convergence``), ``gamma`` loads ``convergence``. They look
the experiment functions up on those modules at each call.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .core import (
    ConfigurationError,
    ConvergenceFailure,
    DiscreteMeasure,
    FrechetConfig,
    candidate_radius,
    cocycle_gap,
    metric_axiom_violations,
    power_bound_slack,
    renorm_bound_slack,
)
from .solvers import SolverConfig, grid_mean_set, grid_oracle
from .spaces import (BuresWassersteinSpace, EuclideanSpace, LqSequenceSpace,
                     PersistenceDiagramSpace, SpiderSpace, Wasserstein1D)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _load_config(path: str, overrides: list[str]) -> dict:
    with open(path) as fh:
        config = _object(json.load(fh), "config")
    if config.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"config schema_version must be {SCHEMA_VERSION}")
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = key.split(".")
        for i, part in enumerate(parts[:-1], 1):
            node = _object(node.setdefault(part, {}), ".".join(parts[:i]))
        node[parts[-1]] = value
    return config


def _object(value, key: str) -> dict:
    """``value`` when it is a JSON object, refused under ``key`` otherwise."""
    if type(value) is not dict:
        raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
    return value


def _require(config: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in config]
    if missing:
        raise ConfigurationError(f"config is missing required keys: {missing}")


def _in_range(value, low: float, strict: bool = False, kind=(int, float)) -> bool:
    """``value`` is a JSON number of the given kinds (no bool), finite as a
    float and at least ``low`` (above it when ``strict``); NaN fails."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (low < value if strict else low <= value))


def _number(config: dict, key: str, default: float | None, low: float,
            strict: bool = False) -> float:
    """``config[key]`` (``default`` when absent): a JSON number, finite and
    at least ``low`` (above it when ``strict``), refused by name otherwise."""
    value = config.get(key, default)
    if not _in_range(value, low, strict):
        raise ConfigurationError(
            f"{key} must be a finite number {'>' if strict else '>='} {low:g}, got {value!r}")
    return float(value)


def _integer(config: dict, key: str, default: int | None = None) -> int:
    """``config[key]`` (``default`` when absent): a JSON integer, refused by
    name otherwise."""
    value = config.get(key, default)
    if not _in_range(value, -math.inf, kind=int):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return value


def _list(config: dict, key: str, default: list | None = None, *, integer: bool = False,
          low: float = -math.inf, rows: bool = False) -> list:
    """``config[key]`` (``default`` when absent): a list of finite JSON
    numbers (integers when ``integer``) at least ``low``, or with ``rows``
    a list of such lists; refused by name otherwise."""
    value = config.get(key, default)
    kind = int if integer else (int, float)
    lists = value if rows and isinstance(value, list) else [value]
    if not all(isinstance(v, list) and all(_in_range(x, low, kind=kind) for x in v)
               for v in lists):
        what = f"{'lists of ' if rows else ''}{'integers' if integer else 'finite numbers'}"
        bound = "" if low == -math.inf else f" >= {low:g}"
        raise ConfigurationError(f"{key} must be a list of {what}{bound}, got {value!r}")
    return value


_SPACE_BUILDERS = {
    "euclidean": lambda spec: EuclideanSpace(dim=_integer(spec, "dim")),
    "lq": lambda spec: LqSequenceSpace(truncation=_integer(spec, "truncation"),
                                       q=_number(spec, "q", None, 1.0)),
    "spider": lambda spec: SpiderSpace(legs=_integer(spec, "legs")),
    "wasserstein1d": lambda spec: Wasserstein1D(q=_number(spec, "q", 2.0, 1.0)),
    "bures-wasserstein": lambda spec: BuresWassersteinSpace(dim=_integer(spec, "dim")),
    "persistence-diagram": lambda spec: PersistenceDiagramSpace(q=_number(spec, "q", 2.0, 1.0)),
}


def space_from_json(spec: dict):
    """The space of a ``space`` config, read by name."""
    kind = _object(spec, "space").get("type")
    if kind not in _SPACE_BUILDERS:
        raise ConfigurationError(f"unknown space type {kind!r}")
    return _SPACE_BUILDERS[kind](spec)


def sampler_from_config(spec: dict, seed: int):
    """The ``stochastics.SamplerSpec`` of a ``sampler`` config, read by name, on ``seed``."""
    from .stochastics import SamplerSpec

    kind, dist = _object(spec, "sampler").get("kind"), spec.get("distribution")
    if "seed" in spec:
        raise ConfigurationError("sampler.seed is not read; set the top-level seed")
    if kind == "iid":
        keys = ("atoms", "probs") if dist == "finite" else ("params",)
        fields = {"distribution": dist, **{k: tuple(_list(spec, k)) for k in keys}}
    elif kind == "markov-chain":
        fields = {"kernel": tuple(map(tuple, _list(spec, "kernel", rows=True))),
                  "states": tuple(_list(spec, "states")),
                  "initial_state": _integer(spec, "initial_state", 0)}
    else:
        raise ConfigurationError(f"unknown sampler kind {kind!r}")
    return SamplerSpec(kind=kind, seed=seed, **fields)


_JSON_NUMBER_TYPES = frozenset((int, float))


def _json_numbers(obj) -> bool:
    """No string and no bool in ``obj`` or, at any depth, its lists and objects."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):  # a flat list passes on its types alone
        return _JSON_NUMBER_TYPES.issuperset(map(type, obj)) or all(map(_json_numbers, obj))
    return not isinstance(obj, (str, bool))


def _point(space, obj, key: str):
    """``space.point_from_json(obj)``, refused under ``key`` when ``obj`` holds
    a string or a bool (``np.asarray`` and ``float`` parse "1", read True as 1)."""
    if not _json_numbers(obj):
        raise ConfigurationError(f"{key} must hold JSON numbers only, got {obj!r}")
    return space.point_from_json(obj)


def _measure_from_json(space, spec: dict, key: str = "measure") -> DiscreteMeasure:
    """A support list of JSON numbers is decoded whole; any other list point
    by point, refusing its first point with a string or a bool. A ``spec``
    that is not a JSON object is refused under ``key``."""
    support = _object(spec, key)["support"]
    if type(support) is not list:
        raise ConfigurationError(f"support must be a JSON list, got {support!r}")
    if _json_numbers(support):
        points = space.points_from_json(support)
    else:
        points = [_point(space, obj, "support") for obj in support]
    if spec.get("weights") is None:
        return DiscreteMeasure.uniform(space, points)
    return DiscreteMeasure.from_weights(space, points,
                                        np.asarray(_list(spec, "weights"), dtype=float))


def _grid_keys(config: dict) -> dict[str, float]:
    """``grid_step`` (finite, > 0) and ``grid_pad`` (finite, >= 0), refused by name."""
    return {"grid_step": _number(config, "grid_step", 0.01, 0.0, strict=True),
            "grid_pad": _number(config, "grid_pad", 1.0, 0.0)}


def _experiment_config(config: dict, space):
    """The ``stochastics.ExperimentConfig`` of an slln or ergodic config."""
    from .stochastics import ExperimentConfig

    return ExperimentConfig(
        solver=config.get("solver", "grid"),
        epsilon=_number(config, "epsilon", 0.0, 0.0),
        **_grid_keys(config),
        target_points=tuple(_point(space, obj, "target_points")
                            for obj in config.get("target_points", [])),
        threshold=(None if config.get("threshold") is None
                   else _number(config, "threshold", None, 0.0, strict=True)),
        solver_config=SolverConfig(
            max_iterations=_integer(config, "max_iterations", 500),
            step_tolerance=_number(config, "step_tolerance", 1e-10, 0.0, strict=True),
            value_tolerance=_number(config, "value_tolerance", 1e-9, 0.0, strict=True)),
    )


def _refuse_seed(config: dict, what: str) -> None:
    """Refuse a ``seed`` where nothing draws: no sidecar records an unused seed."""
    if "seed" in config:
        raise ConfigurationError(f"seed is not read: {what} draws nothing")


def _write_outputs(out: str, command: str, config: dict, result: dict,
                   rows: list[dict] | None, runtime: float | None = None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
        "metadata": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                     "runtime_seconds": runtime,
                     "version": __version__},
    }
    # One compact dumps call runs the C encoder; ``indent`` would not.
    _rewrite(out + ".json", json.dumps(payload, sort_keys=True))
    if rows:
        import csv

        text = io.StringIO(newline="")
        writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            # Wall-clock values would break byte-identical reruns; they
            # live in the JSON metadata sidecar instead.
            writer.writerow({k: ("" if k == "runtime" else v) for k, v in row.items()})
        _rewrite(out + ".csv", text.getvalue())


def _rewrite(path: str, text: str) -> None:
    """``open(path, "w").write(text)`` without truncating first: the bytes
    go over the old ones, then the file is cut to their length (on ext4 a
    truncation to zero starts writeback at close, several times the cost
    of the write). Modes, links and errors are those of ``open``."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def _cmd_dist(config: dict) -> tuple[dict, list[dict] | None, str]:
    _require(config, "space", "x", "y")
    _refuse_seed(config, "dist")
    space = space_from_json(config["space"])
    x = _point(space, config["x"], "x")
    y = _point(space, config["y"], "y")
    if not (space.contains(x) and space.contains(y)):
        raise ConfigurationError("x and y must be points of the space")
    value = space.distance(x, y)
    return {"distance": value}, None, f"distance={value:.8f}"


def _cmd_mean(config: dict) -> tuple[dict, list[dict] | None, str]:
    _require(config, "space", "measure", "p")
    _refuse_seed(config, "mean")
    space = space_from_json(config["space"])
    mu = _measure_from_json(space, config["measure"])
    fc = FrechetConfig(p=_number(config, "p", None, 1.0),
                       epsilon=_number(config, "epsilon", 0.0, 0.0))
    scheme = config.get("scheme", "grid")
    if scheme == "ball-grid":
        raise ConfigurationError("the ball-grid scheme needs a centre and a radius, "
                                 "which the command line does not take")
    if scheme == "grid":
        band = grid_mean_set(space, mu, fc, *_grid_keys(config).values())
    else:
        band = grid_oracle(space, mu, fc, space.candidates(mu, scheme), resolution=0.0)
        band = replace(band, resolution=candidate_radius(space, mu, fc, band.achieved_value))
    result = {
        "mean_set": [space.point_to_json(pt) for pt in band.points],
        "resolution": band.resolution,
        "achieved_value": band.achieved_value,
    }
    return result, None, f"mean_set_size={len(band.points)} value={band.achieved_value:.6g}"


def _cmd_prefix(config: dict, command: str) -> tuple[dict, list[dict] | None, str]:
    """``slln`` and ``ergodic``: the same config keys and report; only
    the source of the streams differs (``replications`` applies to slln)."""
    from . import stochastics

    _require(config, "space", "sampler", "p", "n_grid")
    space = space_from_json(config["space"])
    sampler = sampler_from_config(config["sampler"], _integer(config, "seed", 0))
    args = (space, sampler, _number(config, "p", None, 1.0),
            _list(config, "n_grid", integer=True))
    exp = _experiment_config(config, space)
    if command == "slln":
        report = stochastics.slln_experiment(*args, _integer(config, "replications", 1), exp)
    else:
        report = stochastics.ergodic_experiment(*args, exp)
    return report.to_json_dict(), report.rows(), f"final_dvec={report.dvec[-1]:.6g}"


def _cmd_ldp(config: dict) -> tuple[dict, list[dict] | None, str]:
    from . import stochastics

    _require(config, "space", "measure", "p", "n_grid", "event_points")
    space = space_from_json(config["space"])
    mu = _measure_from_json(space, config["measure"])
    events = [_point(space, obj, "event_points") for obj in config["event_points"]]
    mode = config.get("mode", "exact-binomial")
    if mode == "exact-binomial":
        _refuse_seed(config, "exact-binomial ldp")
    result = stochastics.ldp_experiment(
        space, mu, _number(config, "p", None, 1.0), events,
        _list(config, "n_grid", integer=True), mode=mode,
        replications=_integer(config, "replications", 1000),
        seed=_integer(config, "seed", 0),
        simplex_step=_number(config, "simplex_step", 1e-3, 0.0, strict=True))
    summary = f"theoretical_rate={result.theoretical_rate:.6g}"
    return result.to_json_dict(), result.rows(), summary


def _cmd_gamma(config: dict) -> tuple[dict, list[dict] | None, str]:
    from . import convergence

    _require(config, "space", "measures", "limit", "p")
    _refuse_seed(config, "gamma")
    space = space_from_json(config["space"])
    if type(config["measures"]) is not list:
        raise ConfigurationError(f"measures must be a JSON list, got {config['measures']!r}")
    seq = [_measure_from_json(space, spec, "measures") for spec in config["measures"]]
    limit = _measure_from_json(space, config["limit"], "limit")
    eps = _list(config, "eps_sequence", [1.0 / (i + 1) for i in range(len(seq))], low=0.0)
    report = convergence.gamma_convergence_probe(
        space, seq, limit, _number(config, "p", None, 1.0), [float(e) for e in eps],
        **_grid_keys(config))
    return report.to_json_dict(), report.rows(), f"final_dvec={report.dvec[-1]:.6g}"


def _cmd_diag(config: dict) -> tuple[dict, list[dict] | None, str]:
    _require(config, "space")
    space = space_from_json(config["space"])
    seed = _integer(config, "seed", 0)
    trials = _integer(config, "trials", 1000)
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    axioms = metric_axiom_violations(space, rng, trials=trials)

    # Functional algebra on random single-point measures and triples.
    p = _number(config, "p", 2.0, 1.0)
    worst_cocycle = worst_renorm = worst_power = 0.0
    for _ in range(min(trials, 200)):
        pts = [space.sample_point(rng) for _ in range(5)]
        mu = DiscreteMeasure.uniform(space, pts[:2])
        worst_cocycle = max(worst_cocycle,
                            cocycle_gap(space, mu, pts[2], pts[3], pts[4], p))
        worst_renorm = max(worst_renorm,
                           -renorm_bound_slack(space, mu, pts[2], pts[3], p))
        worst_power = max(worst_power,
                          -power_bound_slack(space, pts[2], pts[3], pts[4],
                                             float(rng.uniform(0.0, 4.0))))
    result = {
        "axioms": {k: (bool(v) if isinstance(v, bool) else float(v))
                   for k, v in axioms.items()},
        "worst_cocycle_gap": worst_cocycle,
        "worst_renorm_violation": worst_renorm,
        "worst_power_violation": worst_power,
        "passed": bool(axioms["passed"] and worst_cocycle <= 1e-9
                       and worst_renorm <= 1e-9 and worst_power <= 1e-9),
    }
    rows = [{"check": k, "value": v} for k, v in result.items() if k != "axioms"]
    return result, rows, f"passed={result['passed']}"


_COMMANDS = {
    "dist": _cmd_dist,
    "mean": _cmd_mean,
    "slln": lambda config: _cmd_prefix(config, "slln"),
    "ergodic": lambda config: _cmd_prefix(config, "ergodic"),
    "ldp": _cmd_ldp,
    "gamma": _cmd_gamma,
    "diag": _cmd_diag,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="frechet",
        description="Set-valued mean computation and experiments over metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to a JSON config")
        cmd.add_argument("--out", required=True, help="output path prefix")
        cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override a config entry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.overrides)
        for path in (args.out + ".json", args.out + ".csv"):
            if os.path.exists(path) and os.path.samefile(path, args.config):
                raise ConfigurationError(
                    f"--out {args.out!r} would overwrite the config {args.config!r} ({path})")
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_CONFIG

    t0 = time.perf_counter()
    try:
        result, rows, summary = _COMMANDS[args.command](config)
    except (ConfigurationError, ValueError, KeyError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_CONFIG
    except ConvergenceFailure as exc:
        partial = {"error": "solver", "message": str(exc),
                   "iterations": exc.iterations}
        try:
            _write_outputs(args.out, args.command, config, partial, None)
        except OSError:
            pass
        print(json.dumps(partial))
        return EXIT_SOLVER

    runtime = time.perf_counter() - t0
    try:
        _write_outputs(args.out, args.command, config, result, rows, runtime=runtime)
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}))
        return EXIT_IO
    print(f"{args.command} {summary} runtime={runtime:.3f}s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
